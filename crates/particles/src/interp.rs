//! Tensor-product barycentric Lagrange interpolation inside one element.
//!
//! Evaluates spectral-element fields at arbitrary reference coordinates
//! `(r, s, t) in [-1, 1]^3` — the kernel a point-particle solver runs for
//! every particle every stage. Barycentric evaluation is numerically
//! stable at and between nodes and costs `O(N)` per direction plus an
//! `O(N^3)` contraction.

use cmt_core::kernels::{self, KernelVariant};
use cmt_core::poly::{barycentric_weights, Basis};
use cmt_core::Field;

/// Points interpolated side by side by [`ElementInterpolator::eval_lanes`].
pub const LANES: usize = kernels::INTERP_LANES;

/// Precomputed interpolation machinery for one element order.
#[derive(Debug, Clone)]
pub struct ElementInterpolator {
    n: usize,
    nodes: Vec<f64>,
    bary: Vec<f64>,
}

impl ElementInterpolator {
    /// Build from a reference-element basis.
    pub fn new(basis: &Basis) -> Self {
        ElementInterpolator {
            n: basis.n,
            nodes: basis.nodes.clone(),
            bary: barycentric_weights(&basis.nodes),
        }
    }

    /// Element order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The 1D Lagrange cardinal values `l_i(x)` at one coordinate.
    pub fn cardinal(&self, x: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "cardinal buffer length");
        // exact node hit: delta
        if let Some(hit) = kernels::node_hit(&self.nodes, x) {
            out.fill(0.0);
            out[hit] = 1.0;
            return;
        }
        let mut denom = 0.0;
        for i in 0..self.n {
            let w = self.bary[i] / (x - self.nodes[i]);
            out[i] = w;
            denom += w;
        }
        for v in out.iter_mut() {
            *v /= denom;
        }
    }

    /// Evaluate `field` in element `e` at reference coordinates
    /// `(r, s, t)` (each in `[-1, 1]`).
    pub fn eval(&self, field: &Field, e: usize, rst: [f64; 3]) -> f64 {
        assert_eq!(field.n(), self.n, "field order mismatch");
        let n = self.n;
        let mut lr = vec![0.0; n];
        let mut ls = vec![0.0; n];
        let mut lt = vec![0.0; n];
        self.cardinal(rst[0], &mut lr);
        self.cardinal(rst[1], &mut ls);
        self.cardinal(rst[2], &mut lt);
        let data = field.element(e);
        let mut acc = 0.0;
        for k in 0..n {
            let wk = lt[k];
            if wk == 0.0 {
                continue;
            }
            for j in 0..n {
                let wjk = wk * ls[j];
                if wjk == 0.0 {
                    continue;
                }
                let row = &data[(k * n + j) * n..(k * n + j) * n + n];
                let mut s = 0.0;
                for (li, ui) in lr.iter().zip(row) {
                    s += li * ui;
                }
                acc += wjk * s;
            }
        }
        acc
    }

    /// Evaluate three fields (the velocity vector) at [`LANES`] points of
    /// one element side by side with the `variant`'s particle kernel:
    /// [`kernels::simd::interp3_lanes`] for `simd`, the scalar lanes
    /// [`kernels::interp3_lanes`] otherwise. `data[f]` is field `f`'s
    /// element block, `rst[d][l]` lane `l`'s coordinate in direction `d`,
    /// `basis` is `3 n` entries of caller-owned scratch; returns
    /// `out[f][l]`.
    ///
    /// Per lane this is one fixed sequence: `s += l_i(r) u_ijk` over `i`,
    /// then `acc += (l_k(t) l_j(s)) s` over `(k, j)` rows in memory order.
    /// The lane is only the fast index, so a lane's result does not
    /// depend on its neighbours, its position in the group or the
    /// variant.
    pub fn eval_lanes(
        &self,
        variant: KernelVariant,
        data: [&[f64]; 3],
        rst: &[[f64; LANES]; 3],
        basis: &mut [[f64; LANES]],
    ) -> [[f64; LANES]; 3] {
        let (nodes, bary) = (&self.nodes[..], &self.bary[..]);
        match variant {
            KernelVariant::Simd => kernels::simd::interp3_lanes(nodes, bary, data, rst, basis),
            KernelVariant::Basic | KernelVariant::Optimized => {
                kernels::interp3_lanes(nodes, bary, data, rst, basis)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_core::poly::Basis;

    #[test]
    fn cardinal_is_delta_at_nodes() {
        let basis = Basis::new(6);
        let interp = ElementInterpolator::new(&basis);
        let mut l = vec![0.0; 6];
        for (i, &x) in basis.nodes.iter().enumerate() {
            interp.cardinal(x, &mut l);
            for (j, &v) in l.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "l_{j}({x}) = {v}");
            }
        }
    }

    #[test]
    fn cardinal_partition_of_unity() {
        let basis = Basis::new(7);
        let interp = ElementInterpolator::new(&basis);
        let mut l = vec![0.0; 7];
        for step in 0..21 {
            let x = -1.0 + step as f64 * 0.1;
            interp.cardinal(x, &mut l);
            let sum: f64 = l.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "sum at {x} = {sum}");
        }
    }

    #[test]
    fn eval_exact_on_polynomials() {
        let basis = Basis::new(5);
        let interp = ElementInterpolator::new(&basis);
        let x = basis.nodes.clone();
        let f = |r: f64, s: f64, t: f64| 1.0 - r + 2.0 * s * s + r * s * t - t.powi(3);
        let field = Field::from_fn(5, 2, |_, i, j, k| f(x[i], x[j], x[k]));
        for &(r, s, t) in &[
            (0.0, 0.0, 0.0),
            (0.3, -0.7, 0.9),
            (-1.0, 1.0, -0.5),
            (0.123, 0.456, -0.789),
        ] {
            for e in 0..2 {
                let got = interp.eval(&field, e, [r, s, t]);
                let want = f(r, s, t);
                assert!(
                    (got - want).abs() < 1e-11,
                    "eval({r},{s},{t}) = {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn eval_lanes_matches_eval_in_every_lane() {
        // `eval` is the independent oracle: its own scalar loop, with a
        // zero-weight skip `eval_lanes` does not have. In the first group
        // one lane sits on a node in every direction (the delta branch);
        // the second has no node hit, so `simd` runs its vector kernel.
        // One lane extrapolates in both.
        let n = 4;
        let basis = Basis::new(n);
        let interp = ElementInterpolator::new(&basis);
        let fields = [
            Field::from_fn(n, 2, |e, i, j, k| (e + i + 2 * j + 3 * k) as f64),
            Field::from_fn(n, 2, |_, i, j, k| (i * j * k) as f64),
            Field::from_fn(n, 2, |_, i, j, k| 0.5 - (i * i) as f64 + (j * k) as f64),
        ];
        let x = &basis.nodes;
        let groups = [
            [
                [0.25, -0.4, 0.8],
                [x[1], x[0], x[3]],
                [-1.02, 0.0, 1.01],
                [0.999, x[2], -0.3],
            ],
            [
                [0.25, -0.4, 0.8],
                [0.1, -0.9, 0.3],
                [-1.02, 0.0, 1.01],
                [0.999, 0.6, -0.3],
            ],
        ];
        let mut scratch = vec![[0.0; LANES]; 3 * n];
        for (pts, variant) in groups
            .iter()
            .flat_map(|g| KernelVariant::ALL.map(|v| (g, v)))
        {
            let rst: [[f64; LANES]; 3] =
                std::array::from_fn(|d| std::array::from_fn(|l| pts[l][d]));
            for e in 0..2 {
                let data = [0, 1, 2].map(|f| fields[f].element(e));
                let got = interp.eval_lanes(variant, data, &rst, &mut scratch);
                for f in 0..3 {
                    for l in 0..LANES {
                        let want = interp.eval(&fields[f], e, pts[l]);
                        assert!(
                            (got[f][l] - want).abs() < 1e-12,
                            "{} field {f} lane {l}: {} vs {want}",
                            variant.name(),
                            got[f][l]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eval_at_node_reads_the_nodal_value() {
        let basis = Basis::new(5);
        let interp = ElementInterpolator::new(&basis);
        let field = Field::from_fn(5, 1, |_, i, j, k| (100 * i + 10 * j + k) as f64);
        let got = interp.eval(&field, 0, [basis.nodes[2], basis.nodes[0], basis.nodes[4]]);
        assert!((got - field.get(0, 2, 0, 4)).abs() < 1e-12);
    }
}
