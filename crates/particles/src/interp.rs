//! Tensor-product barycentric Lagrange interpolation inside one element.
//!
//! Evaluates spectral-element fields at arbitrary reference coordinates
//! `(r, s, t) in [-1, 1]^3` — the kernel a point-particle solver runs for
//! every particle every stage. Barycentric evaluation is numerically
//! stable at and between nodes and costs `O(N)` per direction plus an
//! `O(N^3)` contraction.

use cmt_core::poly::{barycentric_weights, Basis};
use cmt_core::Field;

/// Points interpolated side by side by [`ElementInterpolator::eval_lanes`].
pub const LANES: usize = 4;

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

    /// The node `x` coincides with, if any.
    fn node_hit(&self, x: f64) -> Option<usize> {
        self.nodes.iter().position(|&xn| (xn - x).abs() < 1e-14)
    }

    /// The 1D Lagrange cardinal values `l_i(x)` at one coordinate.
    pub fn cardinal(&self, x: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "cardinal buffer length");
        // exact node hit: delta
        if let Some(hit) = self.node_hit(x) {
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

    /// [`ElementInterpolator::cardinal`] for [`LANES`] coordinates side by
    /// side, lane-major (`out[i][l] = l_i(x[l])`). Each lane performs
    /// `cardinal`'s operations in `cardinal`'s order, so the values are
    /// bitwise those of `LANES` scalar calls.
    fn cardinal_lanes(&self, x: [f64; LANES], out: &mut [[f64; LANES]]) {
        let mut denom = [0.0; LANES];
        let mut near = false;
        for ((o, &xn), &b) in out.iter_mut().zip(&self.nodes).zip(&self.bary) {
            for l in 0..LANES {
                let d = x[l] - xn;
                near |= d.abs() < 1e-14;
                o[l] = b / d;
                denom[l] += o[l];
            }
        }
        for o in out.iter_mut() {
            for l in 0..LANES {
                o[l] /= denom[l];
            }
        }
        if near {
            // a lane sits on a node: that lane takes the scalar delta
            for l in 0..LANES {
                if let Some(hit) = self.node_hit(x[l]) {
                    for (i, o) in out.iter_mut().enumerate() {
                        o[l] = if i == hit { 1.0 } else { 0.0 };
                    }
                }
            }
        }
    }

    /// Evaluate three fields (the velocity vector) at [`LANES`] points of
    /// one element side by side. `data[f]` is field `f`'s element block,
    /// `rst[d][l]` lane `l`'s coordinate in direction `d`, `basis` is `3 n`
    /// entries of caller-owned scratch; returns `out[f][l]`.
    ///
    /// Per lane this is one fixed sequence: `s += l_i(r) u_ijk` over `i`,
    /// then `acc += (l_k(t) l_j(s)) s` over `(k, j)` rows in memory order.
    /// The lane is only the fast index, so a lane's result does not
    /// depend on its neighbours or its position in the group.
    pub fn eval_lanes(
        &self,
        data: [&[f64]; 3],
        rst: &[[f64; LANES]; 3],
        basis: &mut [[f64; LANES]],
    ) -> [[f64; LANES]; 3] {
        let n = self.n;
        assert_eq!(basis.len(), 3 * n, "lane scratch length");
        let (lr, rest) = basis.split_at_mut(n);
        let (ls, lt) = rest.split_at_mut(n);
        self.cardinal_lanes(rst[0], lr);
        self.cardinal_lanes(rst[1], ls);
        self.cardinal_lanes(rst[2], lt);
        let mut acc = [[0.0; LANES]; 3];
        for k in 0..n {
            for j in 0..n {
                let at = (k * n + j) * n;
                let rows = data.map(|d| &d[at..at + n]);
                let mut s = [[0.0; LANES]; 3];
                for (i, li) in lr.iter().enumerate() {
                    for f in 0..3 {
                        let u = rows[f][i];
                        for l in 0..LANES {
                            s[f][l] += li[l] * u;
                        }
                    }
                }
                for f in 0..3 {
                    for l in 0..LANES {
                        acc[f][l] += (lt[k][l] * ls[j][l]) * s[f][l];
                    }
                }
            }
        }
        acc
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
        // zero-weight skip `eval_lanes` does not have. One lane sits on a
        // node in every direction (the delta branch), one extrapolates.
        let n = 4;
        let basis = Basis::new(n);
        let interp = ElementInterpolator::new(&basis);
        let fields = [
            Field::from_fn(n, 2, |e, i, j, k| (e + i + 2 * j + 3 * k) as f64),
            Field::from_fn(n, 2, |_, i, j, k| (i * j * k) as f64),
            Field::from_fn(n, 2, |_, i, j, k| 0.5 - (i * i) as f64 + (j * k) as f64),
        ];
        let x = &basis.nodes;
        let pts = [
            [0.25, -0.4, 0.8],
            [x[1], x[0], x[3]],
            [-1.02, 0.0, 1.01],
            [0.999, x[2], -0.3],
        ];
        let rst: [[f64; LANES]; 3] = std::array::from_fn(|d| std::array::from_fn(|l| pts[l][d]));
        let mut scratch = vec![[0.0; LANES]; 3 * n];
        for e in 0..2 {
            let data = [0, 1, 2].map(|f| fields[f].element(e));
            let got = interp.eval_lanes(data, &rst, &mut scratch);
            for f in 0..3 {
                for l in 0..LANES {
                    let want = interp.eval(&fields[f], e, pts[l]);
                    assert!(
                        (got[f][l] - want).abs() < 1e-12,
                        "field {f} lane {l}: {} vs {want}",
                        got[f][l]
                    );
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
