//! The spectral-element derivative kernels — CMT-bone's computational core.
//!
//! The flux-divergence term of the conservation law is evaluated as small
//! dense matrix multiplications: the `n x n` differentiation matrix `D`
//! contracts one tensor direction of each element's `n x n x n` data
//! (`O(n^4)` flops per element). With Nek's `[k][j][i]`, `i`-fastest layout
//! the three directions are three *different* memory-access patterns:
//!
//! * `du/dr` (contraction over `i`): `D * U` with `U` viewed as an
//!   `n x n^2` matrix — unit-stride in both operands;
//! * `du/ds` (contraction over `j`): per-`k`-slab `S * D^T` with `n x n`
//!   slabs — short unit-stride runs of length `n`;
//! * `du/dt` (contraction over `k`): `U * D^T` with `U` viewed as
//!   `n^2 x n` — the naive loop order walks memory with stride `n^2`.
//!
//! The paper's Figs. 5-6 compare a *basic* implementation against the
//! loop-fused/unrolled production kernels inherited from Nek5000, finding
//! speedups of 2.31x (`dudt`), 1.03x (`dudr`) and ~1x (`duds`). The first
//! two variants here are that study; the third is the one tier above it:
//!
//! * [`basic`] — textbook nested loops, no fusion, no unrolling;
//! * [`opt`] — loop fusion into flattened matrix products plus
//!   vectorization-friendly inner loops (the Fig. 5 kernels);
//! * [`simd`] — hand-written lane-parallel AVX2/SSE2 kernels behind
//!   runtime CPU-feature dispatch, **bitwise identical** to [`opt`]
//!   because every lane keeps the scalar accumulation order.
//!
//! All variants compute bit-for-bit comparable results (same summation
//! order is *not* guaranteed across variants in general, so tests
//! compare with a tight tolerance; `simd` vs `opt` specifically is
//! asserted bitwise).

pub mod basic;
pub mod opt;
pub mod simd;

use crate::field::Field;

/// Which reference-element direction to differentiate in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DerivDir {
    /// `r` — the unit-stride (fastest, `i`) direction.
    R,
    /// `s` — the middle (`j`) direction, stride `n`.
    S,
    /// `t` — the slowest (`k`) direction, stride `n^2`.
    T,
}

impl DerivDir {
    /// All three directions in `r, s, t` order.
    pub const ALL: [DerivDir; 3] = [DerivDir::R, DerivDir::S, DerivDir::T];

    /// Paper-style kernel name (`dudr` / `duds` / `dudt`).
    pub fn kernel_name(self) -> &'static str {
        match self {
            DerivDir::R => "dudr",
            DerivDir::S => "duds",
            DerivDir::T => "dudt",
        }
    }
}

/// Which implementation of the derivative kernels to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Straightforward nested loops (paper Fig. 6 baseline).
    Basic,
    /// Loop-fused, vectorization-friendly kernels (paper Fig. 5).
    Optimized,
    /// Hand-written lane-parallel vector kernels with runtime ISA
    /// dispatch ([`simd`]); bitwise identical to [`KernelVariant::Optimized`]
    /// on every ISA (including the scalar fallback).
    Simd,
}

impl KernelVariant {
    /// All variants, baseline first.
    pub const ALL: [KernelVariant; 3] = [
        KernelVariant::Basic,
        KernelVariant::Optimized,
        KernelVariant::Simd,
    ];

    /// Human-readable name used in bench/figure output.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Basic => "basic",
            KernelVariant::Optimized => "optimized",
            KernelVariant::Simd => "simd",
        }
    }
}

/// Validate shapes shared by every derivative kernel entry point.
///
/// `u` and `out` are flat `[e][k][j][i]` buffers of `n^3 * nel` values and
/// `d` is the row-major `n x n` differentiation matrix.
#[inline]
fn check_shapes(n: usize, nel: usize, d: &[f64], u: &[f64], out: &[f64]) {
    assert!(n >= 2, "derivative kernel requires n >= 2, got {n}");
    assert_eq!(d.len(), n * n, "D must be n x n");
    assert_eq!(u.len(), n * n * n * nel, "u must hold n^3 * nel values");
    assert_eq!(out.len(), u.len(), "out must match u in length");
}

/// Compute one partial derivative with the chosen implementation.
///
/// `out[e, i, j, k] = sum_m D[dir index][m] * u[e, ..m..]` — see the module
/// docs for the exact contraction per direction.
///
/// # Panics
/// Panics on shape mismatches (wrong `D`, `u`, or `out` lengths).
pub fn deriv(
    variant: KernelVariant,
    dir: DerivDir,
    n: usize,
    nel: usize,
    d: &[f64],
    u: &[f64],
    out: &mut [f64],
) {
    check_shapes(n, nel, d, u, out);
    match (variant, dir) {
        (KernelVariant::Basic, DerivDir::R) => basic::deriv_r(n, nel, d, u, out),
        (KernelVariant::Basic, DerivDir::S) => basic::deriv_s(n, nel, d, u, out),
        (KernelVariant::Basic, DerivDir::T) => basic::deriv_t(n, nel, d, u, out),
        (KernelVariant::Optimized, DerivDir::R) => opt::deriv_r(n, nel, d, u, out),
        (KernelVariant::Optimized, DerivDir::S) => opt::deriv_s(n, nel, d, u, out),
        (KernelVariant::Optimized, DerivDir::T) => opt::deriv_t(n, nel, d, u, out),
        (KernelVariant::Simd, DerivDir::R) => simd::deriv_r(n, nel, d, u, out),
        (KernelVariant::Simd, DerivDir::S) => simd::deriv_s(n, nel, d, u, out),
        (KernelVariant::Simd, DerivDir::T) => simd::deriv_t(n, nel, d, u, out),
    }
}

/// Compute all three partial derivatives of a [`Field`] at once.
///
/// The outputs are overwritten. All four fields must share `(n, nel)`.
pub fn grad(
    variant: KernelVariant,
    d: &[f64],
    u: &Field,
    ur: &mut Field,
    us: &mut Field,
    ut: &mut Field,
) {
    let (n, nel) = (u.n(), u.nel());
    assert_eq!((ur.n(), ur.nel()), (n, nel), "ur shape mismatch");
    assert_eq!((us.n(), us.nel()), (n, nel), "us shape mismatch");
    assert_eq!((ut.n(), ut.nel()), (n, nel), "ut shape mismatch");
    deriv(
        variant,
        DerivDir::R,
        n,
        nel,
        d,
        u.as_slice(),
        ur.as_mut_slice(),
    );
    deriv(
        variant,
        DerivDir::S,
        n,
        nel,
        d,
        u.as_slice(),
        us.as_mut_slice(),
    );
    deriv(
        variant,
        DerivDir::T,
        n,
        nel,
        d,
        u.as_slice(),
        ut.as_mut_slice(),
    );
}

/// Apply a rectangular tensor-product operator `J` (`m x n`, row-major) to
/// all three directions of each element: the dealiasing map to a finer
/// (or back to a coarser) mesh, `out = (J (x) J (x) J) u`.
///
/// `u` has `n^3` points per element, `out` has `m^3`. Two scratch buffers
/// of `max(m,n)^3` values each are allocated internally per call.
pub fn tensor3_apply(m: usize, n: usize, j_mat: &[f64], u: &[f64], out: &mut [f64], nel: usize) {
    let big = m.max(n);
    let mut t1 = vec![0.0; big * big * big];
    let mut t2 = vec![0.0; big * big * big];
    tensor3_apply_scratch(m, n, j_mat, u, out, nel, &mut t1, &mut t2);
}

/// [`tensor3_apply`] with caller-provided scratch (each at least
/// `max(m,n)^3` values) — the allocation-free form the dealias path
/// uses, with a scratch pair preallocated once per run.
#[allow(clippy::too_many_arguments)]
pub fn tensor3_apply_scratch(
    m: usize,
    n: usize,
    j_mat: &[f64],
    u: &[f64],
    out: &mut [f64],
    nel: usize,
    t1: &mut [f64],
    t2: &mut [f64],
) {
    assert_eq!(j_mat.len(), m * n, "J must be m x n");
    assert_eq!(u.len(), n * n * n * nel, "u length mismatch");
    assert_eq!(out.len(), m * m * m * nel, "out length mismatch");
    let big = m.max(n);
    assert!(t1.len() >= big * big * big, "t1 scratch too small");
    assert!(t2.len() >= big * big * big, "t2 scratch too small");
    for e in 0..nel {
        let ue = &u[e * n * n * n..(e + 1) * n * n * n];
        let oe = &mut out[e * m * m * m..(e + 1) * m * m * m];
        // r-direction: (m x n) * (n x n^2) -> t1 is m x n x n, i fastest.
        for c in 0..n * n {
            let ucol = &ue[c * n..c * n + n];
            let tcol = &mut t1[c * m..c * m + m];
            for (a, trow) in tcol.iter_mut().enumerate() {
                let jrow = &j_mat[a * n..a * n + n];
                let mut s = 0.0;
                for (jm, um) in jrow.iter().zip(ucol) {
                    s += jm * um;
                }
                *trow = s;
            }
        }
        // s-direction: per k-slab (m x n slab, i fastest now length m).
        for k in 0..n {
            let slab = &t1[k * m * n..(k + 1) * m * n]; // n columns of length m
            let oslab = &mut t2[k * m * m..(k + 1) * m * m]; // m columns of length m
            for b in 0..m {
                let jrow = &j_mat[b * n..b * n + n];
                let ocol = &mut oslab[b * m..b * m + m];
                ocol.fill(0.0);
                for (mcol, jv) in jrow.iter().enumerate() {
                    let scol = &slab[mcol * m..mcol * m + m];
                    for (o, sv) in ocol.iter_mut().zip(scol) {
                        *o += jv * sv;
                    }
                }
            }
        }
        // t-direction: (m^2 x n) * J^T -> m^2 x m.
        oe.fill(0.0);
        for c in 0..m {
            let jrow = &j_mat[c * n..c * n + n];
            let ocol = &mut oe[c * m * m..(c + 1) * m * m];
            for (kcol, jv) in jrow.iter().enumerate() {
                let tcol = &t2[kcol * m * m..(kcol + 1) * m * m];
                for (o, tv) in ocol.iter_mut().zip(tcol) {
                    *o += jv * tv;
                }
            }
        }
    }
}

/// Variant-dispatched form of [`tensor3_apply`] (scratch allocated
/// internally per call): [`KernelVariant::Simd`] routes through the
/// vector dealias kernels, every other variant through the scalar
/// implementation. Results are bitwise identical either way.
pub fn tensor3_apply_variant(
    variant: KernelVariant,
    m: usize,
    n: usize,
    j_mat: &[f64],
    u: &[f64],
    out: &mut [f64],
    nel: usize,
) {
    let big = m.max(n);
    let mut t1 = vec![0.0; big * big * big];
    let mut t2 = vec![0.0; big * big * big];
    tensor3_apply_scratch_variant(variant, m, n, j_mat, u, out, nel, &mut t1, &mut t2);
}

/// Variant-dispatched form of [`tensor3_apply_scratch`]: the
/// [`KernelVariant::Simd`] family routes the dealias contraction through
/// its vector kernels (bitwise identical to the scalar path); every
/// other variant runs the scalar implementation. This is what the
/// drivers' dealias call sites use so `--variant simd` covers
/// the interpolation contractions too.
#[allow(clippy::too_many_arguments)]
pub fn tensor3_apply_scratch_variant(
    variant: KernelVariant,
    m: usize,
    n: usize,
    j_mat: &[f64],
    u: &[f64],
    out: &mut [f64],
    nel: usize,
    t1: &mut [f64],
    t2: &mut [f64],
) {
    if variant == KernelVariant::Simd {
        simd::tensor3_apply_scratch(m, n, j_mat, u, out, nel, t1, t2);
    } else {
        tensor3_apply_scratch(m, n, j_mat, u, out, nel, t1, t2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{gll_nodes, interp_matrix, Basis};

    /// Reference (obviously-correct) derivative used to pin all variants.
    fn reference_deriv(dir: DerivDir, n: usize, nel: usize, d: &[f64], u: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; u.len()];
        let idx = |e: usize, i: usize, j: usize, k: usize| ((e * n + k) * n + j) * n + i;
        for e in 0..nel {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let mut s = 0.0;
                        for m in 0..n {
                            s += match dir {
                                DerivDir::R => d[i * n + m] * u[idx(e, m, j, k)],
                                DerivDir::S => d[j * n + m] * u[idx(e, i, m, k)],
                                DerivDir::T => d[k * n + m] * u[idx(e, i, j, m)],
                            };
                        }
                        out[idx(e, i, j, k)] = s;
                    }
                }
            }
        }
        out
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<f64> {
        // xorshift-based deterministic data, avoids pulling rand into unit tests
        let mut state = seed.wrapping_mul(2685821657736338717).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn all_variants_match_reference_all_dirs() {
        // The paper's whole range 2..=25 plus 27 beyond it, so every
        // jam remainder and every tile split is pinned against the
        // reference.
        for n in (2..=25).chain([27]) {
            let nel = 3;
            let b = Basis::new(n);
            let u = pseudo_random(n * n * n * nel, 42 + n as u64);
            for dir in DerivDir::ALL {
                let refd = reference_deriv(dir, n, nel, &b.d, &u);
                for variant in KernelVariant::ALL {
                    let mut out = vec![0.0; u.len()];
                    deriv(variant, dir, n, nel, &b.d, &u, &mut out);
                    for (a, r) in out.iter().zip(&refd) {
                        assert!(
                            (a - r).abs() < 1e-11 * (1.0 + r.abs()),
                            "{} {} n={n}: {a} vs {r}",
                            variant.name(),
                            dir.kernel_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn derivatives_are_spectrally_exact_on_polynomials() {
        // u(r,s,t) = r^3 + 2 s^2 - t + r s t is degree <= 3; with n >= 4 all
        // three partials must be exact at the GLL points.
        let n = 6;
        let b = Basis::new(n);
        let x = &b.nodes;
        let u = Field::from_fn(n, 2, |_, i, j, k| {
            let (r, s, t) = (x[i], x[j], x[k]);
            r.powi(3) + 2.0 * s * s - t + r * s * t
        });
        let mut ur = Field::zeros(n, 2);
        let mut us = Field::zeros(n, 2);
        let mut ut = Field::zeros(n, 2);
        grad(
            KernelVariant::Optimized,
            &b.d,
            &u,
            &mut ur,
            &mut us,
            &mut ut,
        );
        for e in 0..2 {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let (r, s, t) = (x[i], x[j], x[k]);
                        let eur = 3.0 * r * r + s * t;
                        let eus = 4.0 * s + r * t;
                        let eut = -1.0 + r * s;
                        assert!((ur.get(e, i, j, k) - eur).abs() < 1e-10, "dudr");
                        assert!((us.get(e, i, j, k) - eus).abs() < 1e-10, "duds");
                        assert!((ut.get(e, i, j, k) - eut).abs() < 1e-10, "dudt");
                    }
                }
            }
        }
    }

    #[test]
    fn deriv_of_constant_is_zero() {
        let n = 9;
        let b = Basis::new(n);
        let u = vec![7.5; n * n * n * 4];
        for dir in DerivDir::ALL {
            for variant in KernelVariant::ALL {
                let mut out = vec![1.0; u.len()];
                deriv(variant, dir, n, 4, &b.d, &u, &mut out);
                assert!(
                    out.iter().all(|v| v.abs() < 1e-9),
                    "constant not annihilated by {} {}",
                    variant.name(),
                    dir.kernel_name()
                );
            }
        }
    }

    #[test]
    fn tensor3_interp_exact_on_polynomials() {
        let n = 5;
        let m = 8;
        let xn = gll_nodes(n);
        let xm = gll_nodes(m);
        let j = interp_matrix(&xn, &xm);
        let f = |r: f64, s: f64, t: f64| 1.0 + r * s - t * t + r.powi(3);
        let nel = 2;
        let mut u = vec![0.0; n * n * n * nel];
        for e in 0..nel {
            for (kk, &t) in xn.iter().enumerate() {
                for (jj, &s) in xn.iter().enumerate() {
                    for (ii, &r) in xn.iter().enumerate() {
                        u[((e * n + kk) * n + jj) * n + ii] = f(r, s, t);
                    }
                }
            }
        }
        let mut out = vec![0.0; m * m * m * nel];
        tensor3_apply(m, n, &j, &u, &mut out, nel);
        for e in 0..nel {
            for (kk, &t) in xm.iter().enumerate() {
                for (jj, &s) in xm.iter().enumerate() {
                    for (ii, &r) in xm.iter().enumerate() {
                        let got = out[((e * m + kk) * m + jj) * m + ii];
                        let want = f(r, s, t);
                        assert!(
                            (got - want).abs() < 1e-10,
                            "tensor3 interp at ({r},{s},{t}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tensor3_roundtrip_dealias() {
        let b = Basis::new(5);
        let up = b.dealias_to(8);
        let down = b.dealias_from(8);
        let u = pseudo_random(5 * 5 * 5, 7)
            .iter()
            .map(|v| v * 0.5)
            .collect::<Vec<_>>();
        // Interpolating polynomial data up then down must be the identity
        // (the fine space contains the coarse space).
        let mut fine = vec![0.0; 8 * 8 * 8];
        tensor3_apply(8, 5, &up, &u, &mut fine, 1);
        let mut back = vec![0.0; 5 * 5 * 5];
        tensor3_apply(5, 8, &down, &fine, &mut back, 1);
        for (a, b) in back.iter().zip(&u) {
            assert!((a - b).abs() < 1e-10, "dealias roundtrip: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic]
    fn deriv_rejects_bad_matrix_shape() {
        let mut out = vec![0.0; 27];
        deriv(
            KernelVariant::Basic,
            DerivDir::R,
            3,
            1,
            &[0.0; 8],
            &[0.0; 27],
            &mut out,
        );
    }
}
