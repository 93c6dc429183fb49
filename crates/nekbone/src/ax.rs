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
use simmpi::{chunk_grain, for_each_chunk, Stride, WorkerPool};

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
    /// `t1` and `t2` are scratch fields of the same shape.
    pub fn apply(&self, u: &Field, w: &mut Field, t1: &mut Field, t2: &mut Field) {
        let _ = self.apply_pooled(None, u, w, t1, t2);
    }

    /// [`AxOperator::apply`] with the element loop shared across a
    /// [`WorkerPool`] when one is given: elements are split into
    /// contiguous chunks, each applied to its own subslices of
    /// `w`/`t1`/`t2` by whichever worker claims (or steals) it. The
    /// per-element arithmetic is identical for any chunking and nothing
    /// is reduced across chunks, so the result is bitwise identical for
    /// every worker count. Returns the worker-side `(allocations,
    /// bytes)` for the caller's profiler region.
    pub fn apply_pooled(
        &self,
        pool: Option<&WorkerPool>,
        u: &Field,
        w: &mut Field,
        t1: &mut Field,
        t2: &mut Field,
    ) -> (u64, u64) {
        let n = u.n();
        let nel = u.nel();
        assert_eq!(n, self.basis.n, "order mismatch");
        assert_eq!((w.n(), w.nel()), (n, nel), "w shape");
        assert_eq!((t1.n(), t1.nel()), (n, nel), "t1 shape");
        assert_eq!((t2.n(), t2.nel()), (n, nel), "t2 shape");
        let n3 = n * n * n;
        let us = u.as_slice();
        let per_elem = Stride::PerElem(n3);
        for_each_chunk(
            pool,
            nel,
            chunk_grain(pool, nel),
            [
                (w.as_mut_slice(), per_elem),
                (t1.as_mut_slice(), per_elem),
                (t2.as_mut_slice(), per_elem),
            ],
            |lo, hi, [w, t1, t2]| self.apply_slices(hi - lo, &us[lo * n3..hi * n3], w, t1, t2),
        )
    }

    /// `nel` contiguous elements in `Field` layout: the unit the chunked
    /// element loop calls.
    fn apply_slices(&self, nel: usize, u: &[f64], w: &mut [f64], t1: &mut [f64], t2: &mut [f64]) {
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

    #[test]
    fn pooled_apply_bitwise_matches_serial_for_all_worker_counts() {
        let n = 6;
        let nel = 13;
        let op = AxOperator::new(n, 1.3, 0.1, KernelVariant::Optimized);
        let u = pseudo_random_field(n, nel, 5);
        let mut w_ref = Field::zeros(n, nel);
        let mut t1 = Field::zeros(n, nel);
        let mut t2 = Field::zeros(n, nel);
        op.apply(&u, &mut w_ref, &mut t1, &mut t2);
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers, None);
            let mut w = Field::zeros(n, nel);
            let _ = op.apply_pooled(Some(&pool), &u, &mut w, &mut t1, &mut t2);
            assert_eq!(
                w.as_slice(),
                w_ref.as_slice(),
                "pooled apply diverged at {workers} workers"
            );
        }
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
