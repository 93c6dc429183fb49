//! The dealiasing fine-mesh interpolation (paper §V: "dealiasing
//! reference elements, where an element is first mapped to a finer mesh
//! and later mapped back") — the second consumer of the small-matrix
//! multiply machinery after the derivative kernels. Times the call the
//! drivers make (`tensor3_apply_scratch_variant` on preallocated
//! scratch) for the scalar and the vector path at the `vol_n10` shape
//! and a small-N one.

use cmt_bench::harness::Harness;
use cmt_core::kernels::{tensor3_apply_scratch_variant, KernelVariant};
use cmt_core::poly::Basis;

fn main() {
    let h = Harness::new("dealias_roundtrip");
    for (n, m) in [(10usize, 15usize), (5, 8)] {
        let nel = 64;
        let basis = Basis::new(n);
        let up = basis.dealias_to(m);
        let down = basis.dealias_from(m);
        let u: Vec<f64> = (0..n * n * n * nel)
            .map(|i| ((i % 991) as f64) * 1e-3)
            .collect();
        let mut fine = vec![0.0; m * m * m * nel];
        let mut back = vec![0.0; n * n * n * nel];
        let mut t1 = vec![0.0; m * m * m];
        let mut t2 = vec![0.0; m * m * m];
        let elems = (n * n * n * nel) as u64;
        for variant in [KernelVariant::Optimized, KernelVariant::Simd] {
            let id = format!("roundtrip/n{n}_m{m}/{}", variant.name());
            h.bench(&id, elems, || {
                tensor3_apply_scratch_variant(
                    variant, m, n, &up, &u, &mut fine, nel, &mut t1, &mut t2,
                );
                tensor3_apply_scratch_variant(
                    variant, n, m, &down, &fine, &mut back, nel, &mut t1, &mut t2,
                );
                std::hint::black_box(&mut back);
            });
        }
    }
}
