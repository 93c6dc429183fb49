//! The periodic Cartesian box the serial reference solvers
//! ([`crate::diffusion`], [`crate::euler`]) run on: element numbering,
//! GLL point coordinates, quadrature, the local neighbor-trace exchange,
//! and the serial BR1 viscous term built on it.
//!
//! The exchange is deliberately independent of `cmt-mesh` and `cmt-gs`:
//! it is the half the distributed-vs-serial tests hold the
//! gather–scatter exchange against. Everything else a solver does to its
//! traces comes from [`crate::ops`] and [`crate::euler`], shared with the
//! distributed mini-app.

use crate::face::{self, Face};
use crate::field::Field;
use crate::kernels::{self, DerivDir, KernelVariant};
use crate::ops::{br1_central_correction, br1_gradient_lift, ElementGeom};
use crate::poly::Basis;

/// A periodic box of `elems` congruent elements of order `n`.
pub(crate) struct PeriodicBox {
    pub n: usize,
    elems: [usize; 3],
    pub basis: Basis,
    pub geom: ElementGeom,
}

impl PeriodicBox {
    /// # Panics
    /// Panics if any element count is zero or `n < 2`.
    pub fn new(n: usize, elems: [usize; 3], lengths: [f64; 3]) -> Self {
        assert!(
            elems.iter().all(|&e| e > 0),
            "element counts must be positive"
        );
        PeriodicBox {
            n,
            elems,
            basis: Basis::new(n),
            geom: ElementGeom {
                hx: lengths[0] / elems[0] as f64,
                hy: lengths[1] / elems[1] as f64,
                hz: lengths[2] / elems[2] as f64,
            },
        }
    }

    /// Total number of elements.
    pub fn nel(&self) -> usize {
        self.elems.iter().product()
    }

    /// Zero-initialized surface buffer for all elements.
    pub fn traces(&self) -> Vec<f64> {
        vec![0.0; face::face_values_per_element(self.n) * self.nel()]
    }

    /// Element index of the periodic neighbor of `e` across face `f`.
    pub fn neighbor(&self, e: usize, f: Face) -> usize {
        let [ex, ey, _] = self.elems;
        let mut idx = [e % ex, (e / ex) % ey, e / (ex * ey)];
        let (a, len) = (f.axis(), self.elems[f.axis()]);
        idx[a] = if f.sign() < 0 {
            (idx[a] + len - 1) % len
        } else {
            (idx[a] + 1) % len
        };
        (idx[2] * ey + idx[1]) * ex + idx[0]
    }

    /// Add each face's neighbor trace to its own, in place: `faces` holds
    /// [`face::full2face`] traces on entry and own + neighbor sums on
    /// return — what an Add gather–scatter of the same traces delivers.
    ///
    /// On a conforming Cartesian mesh the face-point ordering of a face
    /// and of its neighbor's opposite face coincide, so every minus face
    /// and the plus face across it are one pair of point-wise sums — the
    /// same identity the distributed gather–scatter exchange relies on.
    pub fn exchange(&self, faces: &mut [f64]) {
        let n2 = self.n * self.n;
        let fpe = face::face_values_per_element(self.n);
        for e in 0..self.nel() {
            for f in [Face::RMinus, Face::SMinus, Face::TMinus] {
                let a = e * fpe + f.index() * n2;
                let b = self.neighbor(e, f) * fpe + f.opposite().index() * n2;
                for p in 0..n2 {
                    let s = faces[a + p] + faces[b + p];
                    faces[a + p] = s;
                    faces[b + p] = s;
                }
            }
        }
    }

    /// Visit every GLL point `(e, i, j, k)` in `Field` order.
    pub fn for_each_point(&self, mut visit: impl FnMut(usize, usize, usize, usize)) {
        let n = self.n;
        for e in 0..self.nel() {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        visit(e, i, j, k);
                    }
                }
            }
        }
    }

    /// Physical coordinates of GLL point `(i, j, k)` of element `e`.
    pub fn point_coords(&self, e: usize, i: usize, j: usize, k: usize) -> [f64; 3] {
        let [ex, ey, _] = self.elems;
        let map = |idx: usize, cell: usize, h: f64| {
            (cell as f64 + (self.basis.nodes[idx] + 1.0) / 2.0) * h
        };
        [
            map(i, e % ex, self.geom.hx),
            map(j, (e / ex) % ey, self.geom.hy),
            map(k, e / (ex * ey), self.geom.hz),
        ]
    }

    /// GLL-quadrature integral of `u` over the box.
    pub fn integral(&self, u: &Field) -> f64 {
        let w = &self.basis.weights;
        let jac = self.geom.hx * self.geom.hy * self.geom.hz / 8.0;
        let mut total = 0.0;
        self.for_each_point(|e, i, j, k| total += w[i] * w[j] * w[k] * jac * u.get(e, i, j, k));
        total
    }
}

/// The serial BR1 viscous term `rhs += nu lap u` and its workspace: per
/// axis the gradient component `q`, its exchanged traces, and the
/// divergence scratch.
pub(crate) struct Viscous {
    nu: f64,
    q: Field,
    scratch: Field,
    qfaces: Vec<f64>,
}

impl Viscous {
    pub fn new(bx: &PeriodicBox, nu: f64) -> Self {
        Viscous {
            nu,
            q: Field::zeros(bx.n, bx.nel()),
            scratch: Field::zeros(bx.n, bx.nel()),
            qfaces: bx.traces(),
        }
    }

    /// Add `nu lap u` to `rhs`, given `u`'s exchanged trace sum
    /// ([`PeriodicBox::exchange`]). Per axis: the gradient component with
    /// its central-trace lift, the volume divergence, then the q-trace
    /// exchange and central flux correction.
    pub fn add_to(
        &mut self,
        bx: &PeriodicBox,
        variant: KernelVariant,
        u: &Field,
        sum: &[f64],
        rhs: &mut Field,
    ) {
        let (n, nel, d) = (bx.n, bx.nel(), &bx.basis.d);
        for (axis, dir) in [(0, DerivDir::R), (1, DerivDir::S), (2, DerivDir::T)] {
            let scale = bx.geom.dscale(axis);
            kernels::deriv(variant, dir, n, nel, d, u.as_slice(), self.q.as_mut_slice());
            self.q.scale(scale);
            let q = self.q.as_mut_slice();
            br1_gradient_lift(&bx.basis, &bx.geom, axis, u.as_slice(), sum, q);
            let (q, scratch) = (self.q.as_slice(), self.scratch.as_mut_slice());
            kernels::deriv(variant, dir, n, nel, d, q, scratch);
            rhs.axpy(self.nu * scale, &self.scratch);
            face::full2face(n, nel, q, &mut self.qfaces);
            bx.exchange(&mut self.qfaces);
            let rhs = rhs.as_mut_slice();
            br1_central_correction(&bx.basis, &bx.geom, axis, self.nu, q, &self.qfaces, rhs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_lookup_is_periodic_and_symmetric() {
        let bx = PeriodicBox::new(2, [3, 4, 2], [1.0; 3]);
        for e in 0..bx.nel() {
            for f in Face::ALL {
                let ne = bx.neighbor(e, f);
                assert!(ne < bx.nel());
                assert_ne!(ne, e, "e={e} f={f:?}");
                // stepping back across the opposite face returns home
                assert_eq!(bx.neighbor(ne, f.opposite()), e, "e={e} f={f:?}");
            }
        }
    }

    #[test]
    fn exchange_adds_each_face_its_neighbors_opposite_face() {
        // two elements along x: each one's r-faces see the other's
        let bx = PeriodicBox::new(2, [2, 1, 1], [1.0; 3]);
        let own: Vec<f64> = (0..bx.traces().len()).map(|v| v as f64).collect();
        let mut sum = own.clone();
        bx.exchange(&mut sum);
        let face = |buf: &[f64], e: usize, f: Face| buf[(e * 6 + f.index()) * 4..][..4].to_vec();
        let plus =
            |a: Vec<f64>, b: Vec<f64>| a.iter().zip(&b).map(|(x, y)| x + y).collect::<Vec<_>>();
        for (e, f, ne) in [
            (0, Face::RPlus, 1),
            (0, Face::RMinus, 1),
            (1, Face::RMinus, 0),
            // a single element along y: the box wraps onto itself
            (0, Face::SPlus, 0),
            (1, Face::TMinus, 1),
        ] {
            let want = plus(face(&own, e, f), face(&own, ne, f.opposite()));
            assert_eq!(face(&sum, e, f), want, "e={e} {f:?}");
        }
    }
}
