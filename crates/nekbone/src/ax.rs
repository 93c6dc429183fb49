//! The `ax` kernel: element-local stiffness + mass operator.
//!
//! For the Poisson/Helmholtz bilinear form on uniform cubic elements of
//! edge `h`, the element operator in tensor-product GLL collocation form
//! is
//!
//! ```text
//! A_e u = (h/2) * sum_a D_a^T diag(W) D_a u  +  lambda * (h/2)^3 diag(W) u
//! ```
//!
//! where `W_ijk = w_i w_j w_k` is the tensor quadrature weight and `D_a`
//! differentiates direction `a` (`(2/h)^2` from the two chain rules and
//! `(h/2)^3` from the Jacobian combine into the single `h/2` factor on
//! the stiffness term). With `lambda > 0` the assembled operator is
//! symmetric positive definite, so unpreconditioned CG converges — the
//! same formulation the Fortran Nekbone uses (it runs a fixed-iteration
//! CG on `A = K + 0.1 M`).
//!
//! The kernel is deliberately built from the *same* derivative kernels as
//! CMT-bone ([`cmt_core::kernels`]): per element it performs six `O(N^4)`
//! contractions (forward `D` and adjoint `D^T` per direction), which is
//! what makes Nekbone the natural computational sibling of CMT-bone's
//! flux-divergence kernel.

use cmt_core::kernels::{deriv, DerivDir};
use cmt_core::poly::Basis;
use cmt_core::{Field, KernelVariant};

/// Byte budget of one element block's `u`, `w`, `t1` and `t2` (4
/// elements at N = 10): small enough that the block stays in L2 across
/// the six contractions and the mass term of one apply.
const BLOCK_BYTES: usize = 128 * 1024;

/// Precomputed operator data shared by all `ax` applications.
#[derive(Debug, Clone)]
pub struct AxOperator {
    /// The reference-element basis.
    pub basis: Basis,
    /// Element edge length.
    pub h: f64,
    /// Mass-term coefficient `lambda` (0.1 in classic Nekbone).
    pub lambda: f64,
    /// Kernel implementation used for the contractions.
    pub variant: KernelVariant,
    /// Tensor quadrature weights `w_i w_j w_k`, length `n^3`.
    gw: Vec<f64>,
}

impl AxOperator {
    /// Build the operator for order-`n` elements of edge `h`.
    pub fn new(n: usize, h: f64, lambda: f64, variant: KernelVariant) -> Self {
        let basis = Basis::new(n);
        let w = &basis.weights;
        let mut gw = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    gw.push(w[i] * w[j] * w[k]);
                }
            }
        }
        AxOperator {
            basis,
            h,
            lambda,
            variant,
            gw,
        }
    }

    /// Element order.
    pub fn n(&self) -> usize {
        self.basis.n
    }

    /// Apply the *local* (unassembled) operator: `w = A_e u` per element.
    /// The caller completes assembly with a `dssum` over the continuous
    /// numbering.
    ///
    /// Elements run in blocks of [`AxOperator::scratch_elems`]: as many
    /// as keep their `u`, `w`, `t1` and `t2` within 128 KiB, so
    /// the three directions and the mass term run on data still in
    /// cache. The per-element arithmetic is identical for any blocking.
    ///
    /// # Panics
    /// Panics if `w` is not `u`'s shape, or if the scratch fields `t1`
    /// and `t2` are not of order `n` with at least
    /// [`AxOperator::scratch_elems`]`(nel)` elements; fields of `u`'s
    /// shape always are.
    pub fn apply(&self, u: &Field, w: &mut Field, t1: &mut Field, t2: &mut Field) {
        let n = u.n();
        let nel = u.nel();
        assert_eq!(n, self.basis.n, "order mismatch");
        assert_eq!((w.n(), w.nel()), (n, nel), "w shape");
        let slab = self.scratch_elems(nel);
        for (name, t) in [("t1", &*t1), ("t2", &*t2)] {
            assert!(
                t.n() == n && t.nel() >= slab,
                "{name} shape: order {} x {} elements, need order {n} x at least {slab} \
                 for {nel} elements",
                t.n(),
                t.nel(),
            );
        }
        let n3 = n * n * n;
        // `max`: an empty apply has an empty slab
        let block = slab.max(1) * n3;
        let (us, ws) = (u.as_slice(), w.as_mut_slice());
        let (t1, t2) = (t1.as_mut_slice(), t2.as_mut_slice());
        for (u, w) in us.chunks(block).zip(ws.chunks_mut(block)) {
            let len = u.len();
            self.apply_block(len / n3, u, w, &mut t1[..len], &mut t2[..len]);
        }
    }

    /// Elements each of `t1` and `t2` must hold for an apply over `nel`
    /// elements: one block, or all `nel` when that is smaller.
    pub fn scratch_elems(&self, nel: usize) -> usize {
        let n3 = self.basis.n.pow(3);
        let block = (BLOCK_BYTES / (4 * n3 * std::mem::size_of::<f64>())).max(1);
        block.min(nel)
    }

    /// `nel` contiguous elements in `Field` layout, with `t1`/`t2` of
    /// the same length: the unit the blocked element loop calls.
    fn apply_block(&self, nel: usize, u: &[f64], w: &mut [f64], t1: &mut [f64], t2: &mut [f64]) {
        let n = self.basis.n;
        let n3 = n * n * n;
        let stiff_coef = self.h / 2.0;
        let mass_coef = self.lambda * (self.h / 2.0).powi(3);
        // Fused accumulation: the first direction *assigns* `0.0 + t2`
        // (the explicit `0.0 +` keeps the zero-fill-then-add value
        // sequence bitwise — `-0.0` round-trips and LLVM may not fold
        // `0.0 + x`), removing the upfront `w.fill(0.0)` pass; the mass
        // term rides the last direction's accumulation loop as a second
        // add per point, the same per-point op sequence as a separate
        // trailing pass.
        let last = DerivDir::ALL.len() - 1;
        for (di, dir) in DerivDir::ALL.into_iter().enumerate() {
            // t1 = D_a u
            deriv(self.variant, dir, n, nel, &self.basis.d, u, t1);
            // t1 *= stiff_coef * W (per-element repeated weight pattern)
            for e in 0..nel {
                let block = &mut t1[e * n3..(e + 1) * n3];
                for (v, &g) in block.iter_mut().zip(&self.gw) {
                    *v *= stiff_coef * g;
                }
            }
            // t2 = D_a^T t1 (adjoint contraction: use the transposed matrix)
            deriv(self.variant, dir, n, nel, &self.basis.dt, t1, t2);
            if di == 0 {
                for (wv, &tv) in w.iter_mut().zip(t2.iter()) {
                    *wv = 0.0 + tv;
                }
            } else if di == last {
                // final direction + mass term:
                // w += t2; w += lambda (h/2)^3 W .* u
                for e in 0..nel {
                    let base = e * n3;
                    for (p, &g) in self.gw.iter().enumerate() {
                        w[base + p] += t2[base + p];
                        w[base + p] += mass_coef * g * u[base + p];
                    }
                }
            } else {
                for (wv, &tv) in w.iter_mut().zip(t2.iter()) {
                    *wv += tv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random_field(n: usize, nel: usize, seed: u64) -> Field {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        Field::from_fn(n, nel, |_, _, _, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn operator_is_symmetric() {
        // <A u, v> = <u, A v> with the plain (unweighted) dot product —
        // element-local symmetry of D^T W D + lambda W.
        let op = AxOperator::new(6, 1.0, 0.1, KernelVariant::Optimized);
        let u = pseudo_random_field(6, 2, 1);
        let v = pseudo_random_field(6, 2, 2);
        let mut au = Field::zeros(6, 2);
        let mut av = Field::zeros(6, 2);
        let mut t1 = Field::zeros(6, 2);
        let mut t2 = Field::zeros(6, 2);
        op.apply(&u, &mut au, &mut t1, &mut t2);
        op.apply(&v, &mut av, &mut t1, &mut t2);
        let a = au.dot(&v);
        let b = u.dot(&av);
        assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()), "{a} vs {b}");
    }

    #[test]
    fn operator_is_positive_definite() {
        let op = AxOperator::new(5, 0.7, 0.1, KernelVariant::Simd);
        for seed in 1..6 {
            let u = pseudo_random_field(5, 3, seed);
            let mut au = Field::zeros(5, 3);
            let mut t1 = Field::zeros(5, 3);
            let mut t2 = Field::zeros(5, 3);
            op.apply(&u, &mut au, &mut t1, &mut t2);
            let quad = u.dot(&au);
            assert!(quad > 0.0, "u^T A u = {quad} for seed {seed}");
        }
    }

    #[test]
    fn constant_field_hits_only_mass_term() {
        // Stiffness annihilates constants: A 1 = lambda (h/2)^3 W.
        let n = 5;
        let h = 2.0;
        let lambda = 0.1;
        let op = AxOperator::new(n, h, lambda, KernelVariant::Basic);
        let u = Field::from_fn(n, 1, |_, _, _, _| 1.0);
        let mut w = Field::zeros(n, 1);
        let mut t1 = Field::zeros(n, 1);
        let mut t2 = Field::zeros(n, 1);
        op.apply(&u, &mut w, &mut t1, &mut t2);
        let wts = &op.basis.weights;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let want = lambda * wts[i] * wts[j] * wts[k]; // (h/2)^3 = 1
                    let got = w.get(0, i, j, k);
                    assert!((got - want).abs() < 1e-11, "{got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn variants_agree() {
        let u = pseudo_random_field(7, 2, 9);
        let mut outs = Vec::new();
        for variant in KernelVariant::ALL {
            let op = AxOperator::new(7, 1.3, 0.1, variant);
            let mut w = Field::zeros(7, 2);
            let mut t1 = Field::zeros(7, 2);
            let mut t2 = Field::zeros(7, 2);
            op.apply(&u, &mut w, &mut t1, &mut t2);
            outs.push(w);
        }
        for w in &outs[1..] {
            for (a, b) in outs[0].as_slice().iter().zip(w.as_slice()) {
                assert!((a - b).abs() < 1e-11 * (1.0 + a.abs()));
            }
        }
    }

    fn bits(f: &Field) -> Vec<u64> {
        f.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `apply` on `nel` elements equals `apply` on each element alone,
    /// bit for bit, whatever block an element lands in — including
    /// minimum-size scratch. At N = 10 a block is 4 elements,
    /// at N = 6 it is 18 and at N = 5 it is 32, so 7, 13 and 37 leave a
    /// partial block for each order.
    #[test]
    fn apply_is_independent_of_blocking() {
        for variant in KernelVariant::ALL {
            for n in [5, 6, 10] {
                let n3 = n * n * n;
                for nel in [7, 13, 37] {
                    let op = AxOperator::new(n, 1.3, 0.1, variant);
                    let u = pseudo_random_field(n, nel, (100 * n + nel) as u64);
                    let mut want = Vec::with_capacity(nel * n3);
                    for e in 0..nel {
                        let ue = Field::from_vec(n, 1, u.as_slice()[e * n3..(e + 1) * n3].to_vec());
                        let mut we = Field::zeros(n, 1);
                        let mut t1 = Field::zeros(n, 1);
                        let mut t2 = Field::zeros(n, 1);
                        op.apply(&ue, &mut we, &mut t1, &mut t2);
                        want.extend(bits(&we));
                    }
                    let label = format!("{} n={n} nel={nel}", variant.name());
                    let need = op.scratch_elems(nel);
                    assert!(need <= nel, "{label}: scratch exceeds the field");
                    let mut w = Field::zeros(n, nel);
                    let mut t1 = Field::zeros(n, need);
                    let mut t2 = Field::zeros(n, need);
                    op.apply(&u, &mut w, &mut t1, &mut t2);
                    assert!(bits(&w) == want, "{label}: blocked apply diverged");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "t1 shape: order 10 x 3 elements, need order 10 x at least 4")]
    fn too_small_scratch_is_refused() {
        let op = AxOperator::new(10, 1.0, 0.1, KernelVariant::Optimized);
        let u = pseudo_random_field(10, 7, 1);
        let mut w = Field::zeros(10, 7);
        let mut t1 = Field::zeros(10, 3);
        let mut t2 = Field::zeros(10, 4);
        op.apply(&u, &mut w, &mut t1, &mut t2);
    }

    #[test]
    fn quadratic_in_one_direction_matches_analytic_stiffness() {
        // u = r^2 on one element, h = 2 (reference element), lambda = 0:
        // (A u)_ijk = (D^T W D u)_ijk with D u = 2 r, so
        // A u = D^T (W .* 2r). Verify against a direct evaluation.
        let n = 6;
        let op = AxOperator::new(n, 2.0, 0.0, KernelVariant::Optimized);
        let x = op.basis.nodes.clone();
        let u = Field::from_fn(n, 1, |_, i, _, _| x[i] * x[i]);
        let mut w = Field::zeros(n, 1);
        let mut t1 = Field::zeros(n, 1);
        let mut t2 = Field::zeros(n, 1);
        op.apply(&u, &mut w, &mut t1, &mut t2);
        // direct: for each (j,k): v_i = sum_m D[m][i] * (w_m w_j w_k * 2 x_m)
        let d = &op.basis.d;
        let wt = &op.basis.weights;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let mut want = 0.0;
                    for m in 0..n {
                        want += d[m * n + i] * wt[m] * wt[j] * wt[k] * 2.0 * x[m];
                    }
                    let got = w.get(0, i, j, k);
                    assert!(
                        (got - want).abs() < 1e-10 * (1.0 + want.abs()),
                        "({i},{j},{k}): {got} vs {want}"
                    );
                }
            }
        }
    }
}
