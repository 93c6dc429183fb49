//! A single-process compressible Euler DG solver — the physics step from
//! the advection proxy toward CMT-nek itself.
//!
//! The paper (§III): "The current version of CMT-nek is an explicit
//! solver for compressible Navier-Stokes equations". This module
//! implements the inviscid (Euler) core of that solver with exactly the
//! mini-app's computational ingredients: tensor-product GLL elements, the
//! derivative kernels for the flux divergence, `full2face` extraction
//! with a conforming surface exchange for the numerical flux (Rusanov /
//! local Lax–Friedrichs), and SSP-RK3 time stepping, for all five
//! conserved variables `U = (rho, rho u, rho v, rho w, E)`.
//!
//! Strong-form DG-SEM:
//!
//! ```text
//! U_t = -div F(U)  -  L( (F* - F) . n_hat )
//! ```
//!
//! with the same endpoint lifting as the advection terms. The volume term
//! ([`volume_rhs`]) and the Rusanov lift ([`rusanov_lift`]) are free
//! functions: [`EulerSolver`] calls them on a local periodic exchange, and
//! the distributed mini-app (`cmt_bone::Config::euler`) on the
//! gather–scatter exchange. Optional Laplacian artificial viscosity (the
//! BR1 terms of [`crate::ops`]) is the shock capturing the paper lists as
//! CMT-nek future work. The solver is validated on smooth flows (exact
//! preservation of uniform states, spectral convergence on traveling
//! density waves, the isentropic vortex, discrete conservation of all five
//! invariants) and on Sod's shock tube against the exact Riemann solution.

use crate::eos::{IdealGas, Primitive, NVARS};
use crate::face::{self, Face};
use crate::field::Field;
use crate::kernels::{self, DerivDir, KernelVariant};
use crate::ops::{self, ElementGeom};
use crate::periodic::{PeriodicBox, Viscous};
use crate::poly::Basis;
use crate::rk;

/// The conserved state at flat point index `idx` of the five fields `u`.
#[inline]
fn point_state<U: AsRef<[f64]>>(u: &[U], idx: usize) -> [f64; NVARS] {
    std::array::from_fn(|c| u[c].as_ref()[idx])
}

/// Largest wave speed `|u_n| + c` over every point and axis of `u`.
pub fn max_wave_speed(gas: &IdealGas, u: &[Field]) -> f64 {
    (0..u[0].len()).fold(0.0f64, |s, idx| {
        let w = point_state(u, idx);
        (0..3).fold(s, |s, axis| s.max(gas.max_wave_speed(&w, axis)))
    })
}

/// Whether every point of `u` is physically admissible.
pub fn is_admissible(gas: &IdealGas, u: &[Field]) -> bool {
    (0..u[0].len()).all(|idx| gas.is_admissible(&point_state(u, idx)))
}

/// Volume term of the Euler right-hand side,
/// `rhs_c = -sum_a dscale_a D_a F_a,c(U)`, one element block at a time:
/// `scratch` and the five `flux` fields hold one block, any number of
/// elements from one up (`u`'s count or more is one block of all). `u`
/// and `rhs` hold the same whole elements of `basis`'s order: whole
/// fields, or one element range of each.
///
/// Per block and axis, one fused pointwise pass evaluates each point's
/// full five-component flux vector once into `flux`; each component is
/// then differentiated into `scratch` and accumulated into the block's
/// part of `rhs`. Every point gets the same operations for any blocking.
///
/// # Panics
/// Panics if `scratch` holds no element, or a `flux` field is not
/// `scratch`'s shape.
#[allow(clippy::too_many_arguments)]
pub fn volume_rhs<U: AsRef<[f64]>, R: AsMut<[f64]>>(
    variant: KernelVariant,
    basis: &Basis,
    geom: &ElementGeom,
    gas: &IdealGas,
    u: &[U],
    flux: &mut [Field],
    scratch: &mut Field,
    rhs: &mut [R],
) {
    let n = basis.n;
    let n3 = n * n * n;
    let nel = u[0].as_ref().len() / n3;
    let block = scratch.nel();
    assert!(
        block >= 1 && scratch.n() == n,
        "scratch: order {n}, at least one element"
    );
    for fc in flux.iter() {
        assert_eq!((fc.n(), fc.nel()), (n, block), "flux shape");
    }
    for first in (0..nel).step_by(block) {
        let pts = first * n3..(first + block).min(nel) * n3;
        let len = pts.len();
        for r in rhs.iter_mut() {
            r.as_mut()[pts.clone()].fill(0.0);
        }
        for (axis, dir) in [(0, DerivDir::R), (1, DerivDir::S), (2, DerivDir::T)] {
            for (i, idx) in pts.clone().enumerate() {
                let f = gas.flux(&point_state(u, idx), axis);
                for (c, &fc) in f.iter().enumerate() {
                    flux[c].as_mut_slice()[i] = fc;
                }
            }
            let a = -geom.dscale(axis);
            let s = &mut scratch.as_mut_slice()[..len];
            for (fc, r) in flux.iter().zip(rhs.iter_mut()) {
                let fc = &fc.as_slice()[..len];
                kernels::deriv(variant, dir, n, len / n3, &basis.d, fc, s);
                for (r, &s) in r.as_mut()[pts.clone()].iter_mut().zip(s.iter()) {
                    *r += a * s;
                }
            }
        }
    }
}

/// Rusanov (local Lax–Friedrichs) surface lift of the Euler right-hand
/// side: on every face point,
///
/// ```text
/// rhs_c[face node] -= (2 / h_axis) / w_end * (F*_c - sign F_axis,c(U_in))
/// ```
///
/// with `F*` the Rusanov flux of the own and neighbor traces. Each face
/// point reads its own state from the conserved fields `u` and recovers
/// the neighbor's as `sum[c] - own`, where `sum[c]` is component `c`'s
/// exchanged trace sum, as for [`ops::upwind_lift`]. `u`, `sum` and
/// `rhs` hold the same whole elements of `basis`'s order: whole fields,
/// or one element range of each.
pub fn rusanov_lift<U: AsRef<[f64]>, S: AsRef<[f64]>, R: AsMut<[f64]>>(
    gas: &IdealGas,
    basis: &Basis,
    geom: &ElementGeom,
    u: &[U],
    sum: &[S],
    rhs: &mut [R],
) {
    let n = basis.n;
    let (n2, n3) = (n * n, n * n * n);
    let fpe = face::face_values_per_element(n);
    let nel = rhs[0].as_mut().len() / n3;
    for (uc, sc) in u.iter().zip(sum) {
        assert_eq!(uc.as_ref().len(), n3 * nel, "volume length");
        assert_eq!(sc.as_ref().len(), fpe * nel, "trace sum length");
    }
    let w_end = basis.weights[0];
    for e in 0..nel {
        for f in Face::ALL {
            let axis = f.axis();
            let sign = f.sign() as f64;
            let lift = geom.dscale(axis) / w_end;
            let off = e * fpe + f.index() * n2;
            face::for_each_face_index(n, f, |p, i| {
                let idx = e * n3 + i;
                let ul = point_state(u, idx);
                let ur: [f64; NVARS] = std::array::from_fn(|c| sum[c].as_ref()[off + p] - ul[c]);
                let fstar = gas.rusanov_flux(&ul, &ur, axis, sign);
                let fown = gas.flux(&ul, axis);
                for c in 0..NVARS {
                    rhs[c].as_mut()[idx] -= lift * (fstar[c] - sign * fown[c]);
                }
            });
        }
    }
}

/// Configuration of the periodic-box Euler solver.
#[derive(Debug, Clone)]
pub struct EulerConfig {
    /// GLL points per direction per element.
    pub n: usize,
    /// Elements per direction.
    pub elems: [usize; 3],
    /// Box extents.
    pub lengths: [f64; 3],
    /// The gas model.
    pub gas: IdealGas,
    /// Derivative-kernel implementation.
    pub variant: KernelVariant,
    /// Artificial viscosity `nu >= 0` applied as a Laplacian on every
    /// conserved variable (BR1 discretization) — the simplest
    /// shock-capturing regularization, the first feature on the paper's
    /// CMT-nek roadmap ("in the following years ... shock capturing ...
    /// will be added"). Zero disables it; smooth-flow accuracy tests run
    /// with it off.
    pub artificial_viscosity: f64,
}

impl Default for EulerConfig {
    fn default() -> Self {
        EulerConfig {
            n: 8,
            elems: [2, 2, 2],
            lengths: [1.0, 1.0, 1.0],
            gas: IdealGas::default(),
            variant: KernelVariant::Optimized,
            artificial_viscosity: 0.0,
        }
    }
}

/// Periodic compressible Euler DG solver.
pub struct EulerSolver {
    cfg: EulerConfig,
    bx: PeriodicBox,
    /// The five conserved fields.
    u: Vec<Field>,
    u0: Vec<Field>,
    rhs: Vec<Field>,
    /// All five flux components of the current axis ([`volume_rhs`]).
    flux: Vec<Field>,
    scratch: Field,
    /// Each conserved field's face traces, exchanged to own + neighbor
    /// sums.
    faces: Vec<Vec<f64>>,
    /// The BR1 workspace, present when artificial viscosity is on.
    viscous: Option<Viscous>,
    time: f64,
}

impl EulerSolver {
    /// Build the solver with a vacuum (all-zero) state; call
    /// [`EulerSolver::init`] before stepping.
    pub fn new(cfg: EulerConfig) -> Self {
        assert!(
            cfg.artificial_viscosity >= 0.0,
            "artificial viscosity must be non-negative"
        );
        let bx = PeriodicBox::new(cfg.n, cfg.elems, cfg.lengths);
        let fields = || (0..NVARS).map(|_| Field::zeros(cfg.n, bx.nel())).collect();
        EulerSolver {
            u: fields(),
            u0: fields(),
            rhs: fields(),
            flux: fields(),
            scratch: Field::zeros(cfg.n, bx.nel()),
            faces: (0..NVARS).map(|_| bx.traces()).collect(),
            viscous: (cfg.artificial_viscosity > 0.0)
                .then(|| Viscous::new(&bx, cfg.artificial_viscosity)),
            time: 0.0,
            bx,
            cfg,
        }
    }

    /// Total elements.
    pub fn nel(&self) -> usize {
        self.bx.nel()
    }

    /// Simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The conserved fields (rho, rho u, rho v, rho w, E).
    pub fn state(&self) -> &[Field] {
        &self.u
    }

    /// Physical coordinates of a GLL point.
    pub fn point_coords(&self, e: usize, i: usize, j: usize, k: usize) -> [f64; 3] {
        self.bx.point_coords(e, i, j, k)
    }

    /// Initialize from a primitive-state function of physical coordinates
    /// and reset the clock.
    pub fn init(&mut self, f: impl Fn(f64, f64, f64) -> Primitive) {
        let (bx, u, gas) = (&self.bx, &mut self.u, self.cfg.gas);
        bx.for_each_point(|e, i, j, k| {
            let [x, y, z] = bx.point_coords(e, i, j, k);
            for (uc, v) in u.iter_mut().zip(gas.conserved(f(x, y, z))) {
                uc.set(e, i, j, k, v);
            }
        });
        self.time = 0.0;
    }

    /// Conserved state at one point.
    pub fn conserved_at(&self, e: usize, i: usize, j: usize, k: usize) -> [f64; NVARS] {
        point_state(&self.u, self.u[0].index(e, i, j, k))
    }

    /// Primitive state at one point.
    pub fn primitive_at(&self, e: usize, i: usize, j: usize, k: usize) -> Primitive {
        self.cfg.gas.primitive(&self.conserved_at(e, i, j, k))
    }

    /// Largest wave speed anywhere in the domain (CFL driver).
    pub fn max_wave_speed(&self) -> f64 {
        max_wave_speed(&self.cfg.gas, &self.u)
    }

    /// CFL-stable timestep ([`ops::stable_dt`] at the largest wave speed
    /// on every axis, plus the diffusive limit when artificial viscosity
    /// is on).
    pub fn stable_dt(&self, cfl: f64) -> f64 {
        let s = self.max_wave_speed().max(1e-30);
        let nu = self.cfg.artificial_viscosity;
        ops::stable_dt(self.cfg.n, &self.bx.geom, [s; 3], nu, cfl)
    }

    /// GLL-quadrature integrals of the five conserved fields (the
    /// invariants a periodic run must preserve).
    pub fn totals(&self) -> [f64; NVARS] {
        std::array::from_fn(|c| self.bx.integral(&self.u[c]))
    }

    /// Whether every point is physically admissible.
    pub fn is_admissible(&self) -> bool {
        is_admissible(&self.cfg.gas, &self.u)
    }

    /// Evaluate the DG right-hand side of all five equations.
    fn eval_rhs(&mut self) {
        let (bx, gas, variant) = (&self.bx, &self.cfg.gas, self.cfg.variant);
        let (basis, geom) = (&bx.basis, &bx.geom);
        let (u, flux, scratch, rhs) = (&self.u, &mut self.flux, &mut self.scratch, &mut self.rhs);
        volume_rhs(variant, basis, geom, gas, u, flux, scratch, rhs);
        for (uc, faces) in u.iter().zip(self.faces.iter_mut()) {
            face::full2face(bx.n, bx.nel(), uc.as_slice(), faces);
            bx.exchange(faces);
        }
        rusanov_lift(gas, basis, geom, u, &self.faces, rhs);
        // artificial viscosity: rhs_c += nu lap u_c
        if let Some(v) = &mut self.viscous {
            for c in 0..NVARS {
                v.add_to(bx, variant, &u[c], &self.faces[c], &mut rhs[c]);
            }
        }
    }

    /// Advance one SSP-RK3 step.
    pub fn step(&mut self, dt: f64) {
        for (u0, u) in self.u0.iter_mut().zip(&self.u) {
            u0.as_mut_slice().copy_from_slice(u.as_slice());
        }
        for s in 0..rk::STAGES {
            self.eval_rhs();
            for c in 0..NVARS {
                rk::stage_update(s, &mut self.u[c], &self.u0[c], &self.rhs[c], dt);
            }
        }
        self.time += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn uniform(rho: f64, vel: [f64; 3], p: f64) -> impl Fn(f64, f64, f64) -> Primitive {
        move |_x, _y, _z| Primitive { rho, vel, p }
    }

    /// Exact smooth solution: a density wave carried by uniform velocity
    /// and pressure (a contact wave — exact for the full nonlinear
    /// equations).
    fn density_wave(u0: f64) -> impl Fn(f64, f64, f64) -> Primitive {
        move |x, _y, _z| Primitive {
            rho: 1.0 + 0.2 * (2.0 * PI * x).sin(),
            vel: [u0, 0.0, 0.0],
            p: 1.0,
        }
    }

    #[test]
    fn uniform_state_is_preserved_exactly() {
        let mut s = EulerSolver::new(EulerConfig {
            n: 5,
            elems: [2, 2, 1],
            ..Default::default()
        });
        s.init(uniform(1.3, [0.4, -0.2, 0.1], 0.9));
        let before: Vec<Vec<f64>> = s.state().iter().map(|f| f.as_slice().to_vec()).collect();
        let dt = s.stable_dt(0.3);
        for _ in 0..10 {
            s.step(dt);
        }
        for (c, b) in before.iter().enumerate() {
            for (x, y) in s.state()[c].as_slice().iter().zip(b) {
                assert!(
                    (x - y).abs() < 1e-11 * (1.0 + y.abs()),
                    "field {c}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn density_wave_advects_with_spectral_accuracy() {
        let u0 = 1.0;
        let mut errs = Vec::new();
        for &n in &[4usize, 6, 8] {
            let mut s = EulerSolver::new(EulerConfig {
                n,
                elems: [2, 1, 1],
                ..Default::default()
            });
            s.init(density_wave(u0));
            let t_end = 0.1;
            let dt = s.stable_dt(0.2).min(2e-4);
            let steps = (t_end / dt).ceil() as usize;
            let dt = t_end / steps as f64;
            for _ in 0..steps {
                s.step(dt);
            }
            // density error vs exact advected profile; u and p unchanged
            let mut err = 0.0f64;
            for e in 0..s.nel() {
                for k in 0..n {
                    for j in 0..n {
                        for i in 0..n {
                            let [x, _, _] = s.point_coords(e, i, j, k);
                            let xe = (x - u0 * s.time()).rem_euclid(1.0);
                            let want = 1.0 + 0.2 * (2.0 * PI * xe).sin();
                            let w = s.primitive_at(e, i, j, k);
                            err = err.max((w.rho - want).abs());
                            assert!((w.p - 1.0).abs() < 2e-2, "pressure disturbed: {}", w.p);
                        }
                    }
                }
            }
            errs.push(err);
        }
        assert!(errs[2] < errs[0] * 0.05, "no spectral decay: {errs:?}");
        assert!(errs[2] < 5e-4, "final error too large: {errs:?}");
    }

    #[test]
    fn conserves_all_five_invariants() {
        let mut s = EulerSolver::new(EulerConfig {
            n: 6,
            elems: [2, 2, 1],
            ..Default::default()
        });
        s.init(|x, y, _z| Primitive {
            rho: 1.0 + 0.1 * (2.0 * PI * x).sin() * (2.0 * PI * y).cos(),
            vel: [0.5, 0.2, 0.0],
            p: 1.0 + 0.05 * (2.0 * PI * y).sin(),
        });
        let before = s.totals();
        let dt = s.stable_dt(0.2);
        for _ in 0..20 {
            s.step(dt);
        }
        let after = s.totals();
        for c in 0..NVARS {
            let scale = before[c].abs().max(1.0);
            assert!(
                (after[c] - before[c]).abs() < 1e-10 * scale,
                "invariant {c} drifted: {} -> {}",
                before[c],
                after[c]
            );
        }
        assert!(s.is_admissible());
    }

    #[test]
    fn axis_symmetry_of_the_discretization() {
        // The same wave along x and along y must produce identical error
        // by the solver's Cartesian symmetry.
        let run_axis = |axis: usize| {
            let mut elems = [1usize, 1, 1];
            elems[axis] = 2;
            let mut s = EulerSolver::new(EulerConfig {
                n: 6,
                elems,
                ..Default::default()
            });
            s.init(move |x, y, z| {
                let c = [x, y, z][axis];
                let mut vel = [0.0; 3];
                vel[axis] = 0.7;
                Primitive {
                    rho: 1.0 + 0.15 * (2.0 * PI * c).sin(),
                    vel,
                    p: 1.0,
                }
            });
            let dt = 1e-3;
            for _ in 0..40 {
                s.step(dt);
            }
            // density max/min fingerprint
            let n = 6;
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for e in 0..s.nel() {
                for k in 0..n {
                    for j in 0..n {
                        for i in 0..n {
                            let r = s.primitive_at(e, i, j, k).rho;
                            lo = lo.min(r);
                            hi = hi.max(r);
                        }
                    }
                }
            }
            (lo, hi)
        };
        let (lx, hx) = run_axis(0);
        let (ly, hy) = run_axis(1);
        let (lz, hz) = run_axis(2);
        assert!(
            (lx - ly).abs() < 1e-10 && (hx - hy).abs() < 1e-10,
            "x vs y asymmetric"
        );
        assert!(
            (lx - lz).abs() < 1e-10 && (hx - hz).abs() < 1e-10,
            "x vs z asymmetric"
        );
    }

    /// The classic isentropic-vortex accuracy test: an exact smooth
    /// solution of the full nonlinear 2D Euler equations that translates
    /// with the free stream. Unlike the density wave (a contact), the
    /// vortex exercises the pressure–velocity coupling of all five
    /// equations.
    #[test]
    fn isentropic_vortex_translates_with_the_free_stream() {
        let gamma = 1.4f64;
        let beta = 5.0f64;
        let (u0, v0) = (1.0, 0.5);
        let l = 10.0;
        let center = 5.0;
        let vortex = move |x: f64, y: f64| -> Primitive {
            let (dx, dy) = (x - center, y - center);
            let r2 = dx * dx + dy * dy;
            let e = ((1.0 - r2) / 2.0).exp();
            let du = -beta / (2.0 * PI) * e * dy;
            let dv = beta / (2.0 * PI) * e * dx;
            let t = 1.0 - (gamma - 1.0) * beta * beta / (8.0 * gamma * PI * PI) * (1.0 - r2).exp();
            let rho = t.powf(1.0 / (gamma - 1.0));
            Primitive {
                rho,
                vel: [u0 + du, v0 + dv, 0.0],
                p: rho.powf(gamma),
            }
        };
        let mut s = EulerSolver::new(EulerConfig {
            n: 8,
            elems: [5, 5, 1],
            lengths: [l, l, 2.0],
            ..Default::default()
        });
        s.init(|x, y, _z| vortex(x, y));
        let t_end = 0.5;
        let mut t = 0.0;
        while t < t_end {
            let dt = s.stable_dt(0.25).min(t_end - t);
            s.step(dt);
            t += dt;
        }
        // exact solution: the initial vortex translated by (u0, v0) t
        // (periodic wrap; the vortex decays like e^{-r^2} so the wrap
        // images are negligible at distance 5)
        let n = 8;
        let mut max_err = 0.0f64;
        for e in 0..s.nel() {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let [x, y, _] = s.point_coords(e, i, j, k);
                        let xe = (x - u0 * t).rem_euclid(l);
                        let ye = (y - v0 * t).rem_euclid(l);
                        let want = vortex(xe, ye).rho;
                        let got = s.primitive_at(e, i, j, k).rho;
                        max_err = max_err.max((got - want).abs());
                    }
                }
            }
        }
        assert!(max_err < 0.02, "vortex density error {max_err}");
        assert!(s.is_admissible());
        // isentropy is preserved where the flow is smooth: p / rho^gamma
        // stays near 1 everywhere
        for e in 0..s.nel() {
            let w = s.primitive_at(e, 4, 4, 0);
            let entropy = w.p / w.rho.powf(gamma);
            assert!((entropy - 1.0).abs() < 0.02, "entropy drift {entropy}");
        }
    }

    /// Shock capturing: the Sod shock tube with Laplacian artificial
    /// viscosity, validated against the exact Riemann solution.
    ///
    /// The periodic box [0, 2] holds the Sod discontinuity at x = 1 (and
    /// its mirror at the periodic seam); before the wave families meet,
    /// the window around x = 1 follows the exact self-similar solution.
    #[test]
    fn sod_shock_tube_with_artificial_viscosity() {
        use crate::riemann::{solve, State1d};
        let n = 4;
        let mut s = EulerSolver::new(EulerConfig {
            n,
            elems: [16, 1, 1],
            lengths: [2.0, 1.0, 1.0],
            artificial_viscosity: 0.04,
            ..Default::default()
        });
        let left = State1d {
            rho: 1.0,
            u: 0.0,
            p: 1.0,
        };
        let right = State1d {
            rho: 0.125,
            u: 0.0,
            p: 0.1,
        };
        // smooth the jump over ~half an element so the initial data is
        // representable; the artificial viscosity handles the steepening
        let delta = 0.06;
        s.init(|x, _y, _z| {
            let w = 0.5 * (1.0 + ((x - 1.0) / delta).tanh());
            Primitive {
                rho: left.rho + w * (right.rho - left.rho),
                vel: [0.0; 3],
                p: left.p + w * (right.p - left.p),
            }
        });
        let t_end = 0.15;
        let mut t = 0.0;
        while t < t_end {
            let dt = s.stable_dt(0.3).min(t_end - t);
            s.step(dt);
            t += dt;
        }
        assert!(s.is_admissible(), "negative density/pressure appeared");

        let exact = solve(s.cfg.gas, left, right);
        // compare density in the window the x=1 waves own
        let mut l1 = 0.0;
        let mut count = 0usize;
        let mut max_plateau_err = 0.0f64;
        for e in 0..s.nel() {
            for i in 0..n {
                let [x, _, _] = s.point_coords(e, i, 0, 0);
                if !(0.4..=1.6).contains(&x) {
                    continue;
                }
                let xi = (x - 1.0) / t_end;
                let want = exact.sample(xi).rho;
                let got = s.primitive_at(e, i, 0, 0).rho;
                l1 += (got - want).abs();
                count += 1;
                // plateau regions away from the smeared waves
                let u_star = exact.u_star;
                let in_left_plateau = xi > u_star - 0.55 && xi < u_star - 0.25;
                let in_right_plateau = xi > u_star + 0.15 && xi < u_star + 0.55;
                if in_left_plateau || in_right_plateau {
                    max_plateau_err = max_plateau_err.max((got - want).abs() / want);
                }
            }
        }
        let l1 = l1 / count as f64;
        assert!(l1 < 0.05, "L1 density error {l1}");
        assert!(
            max_plateau_err < 0.15,
            "plateau density error {max_plateau_err}"
        );
        // mass stays conserved through the shock
        let totals = s.totals();
        let exact_mass = 2.0 * 0.5 * (left.rho + right.rho); // box average x area
        assert!((totals[0] - exact_mass).abs() < 0.02, "mass {}", totals[0]);
    }

    #[test]
    fn artificial_viscosity_shrinks_dt_and_preserves_uniform_flow() {
        let mut a = EulerSolver::new(EulerConfig {
            n: 5,
            elems: [2, 1, 1],
            artificial_viscosity: 0.0,
            ..Default::default()
        });
        let mut b = EulerSolver::new(EulerConfig {
            n: 5,
            elems: [2, 1, 1],
            artificial_viscosity: 0.5,
            ..Default::default()
        });
        a.init(uniform(1.0, [0.3, 0.0, 0.0], 1.0));
        b.init(uniform(1.0, [0.3, 0.0, 0.0], 1.0));
        assert!(b.stable_dt(0.3) < a.stable_dt(0.3));
        // viscosity of a constant state is zero: uniform flow unchanged
        let dt = b.stable_dt(0.3);
        for _ in 0..5 {
            b.step(dt);
        }
        for c in 0..NVARS {
            let want = b.cfg.gas.conserved(Primitive {
                rho: 1.0,
                vel: [0.3, 0.0, 0.0],
                p: 1.0,
            })[c];
            for &v in b.state()[c].as_slice() {
                assert!((v - want).abs() < 1e-11 * (1.0 + want.abs()));
            }
        }
    }

    #[test]
    fn stable_dt_shrinks_with_faster_flow() {
        let mk = |mach_u: f64| {
            let mut s = EulerSolver::new(EulerConfig::default());
            s.init(uniform(1.0, [mach_u, 0.0, 0.0], 1.0));
            s.stable_dt(0.3)
        };
        assert!(mk(2.0) < mk(0.1));
    }

    /// The Rusanov lift as it was when it took own and neighbor traces.
    fn old_rusanov_lift(
        gas: &IdealGas,
        basis: &Basis,
        geom: &ElementGeom,
        own: &[Vec<f64>],
        nbr: &[Vec<f64>],
        rhs: &mut [Field],
    ) {
        let (n, nel) = (rhs[0].n(), rhs[0].nel());
        let (n2, n3) = (n * n, n * n * n);
        let fpe = face::face_values_per_element(n);
        let w_end = basis.weights[0];
        for e in 0..nel {
            for f in Face::ALL {
                let axis = f.axis();
                let sign = f.sign() as f64;
                let lift = geom.dscale(axis) / w_end;
                let off = e * fpe + f.index() * n2;
                for p in 0..n2 {
                    let ul: [f64; NVARS] = std::array::from_fn(|c| own[c][off + p]);
                    let ur: [f64; NVARS] = std::array::from_fn(|c| nbr[c][off + p]);
                    let fstar = gas.rusanov_flux(&ul, &ur, axis, sign);
                    let fown = gas.flux(&ul, axis);
                    let idx = e * n3 + face::face_point_volume_index(n, f, p);
                    for c in 0..NVARS {
                        rhs[c].as_mut()[idx] -= lift * (fstar[c] - sign * fown[c]);
                    }
                }
            }
        }
    }

    #[test]
    fn rusanov_lift_is_bitwise_the_recovered_trace_path() {
        let (n, nel) = (5, 3);
        let gas = IdealGas::default();
        let basis = Basis::new(n);
        let geom = ElementGeom {
            hx: 0.5,
            hy: 1.25,
            hz: 2.0,
        };
        let n3 = n * n * n;
        // a perturbed stream into each face in turn
        for (seed, f) in Face::ALL.into_iter().enumerate() {
            let state = |seed: u64| -> Vec<Field> {
                let r = crate::ops::tests::noise(5 * n3 * nel, seed);
                let mut u: Vec<Field> = (0..NVARS).map(|_| Field::zeros(n, nel)).collect();
                for idx in 0..n3 * nel {
                    let d = |k: usize| r[k * n3 * nel + idx];
                    let mut vel = [0.2 * d(1), 0.2 * d(2), 0.2 * d(3)];
                    vel[f.axis()] -= 0.6 * f.sign() as f64;
                    let w = gas.conserved(Primitive {
                        rho: 1.0 + 0.3 * d(0),
                        vel,
                        p: 1.0 + 0.3 * d(4),
                    });
                    for c in 0..NVARS {
                        u[c].as_mut_slice()[idx] = w[c];
                    }
                }
                u
            };
            let traces = |u: &[Field]| -> Vec<Vec<f64>> {
                u.iter()
                    .map(|uc| {
                        let mut t = vec![0.0; face::face_values_per_element(n) * nel];
                        face::full2face(n, nel, uc.as_slice(), &mut t);
                        t
                    })
                    .collect()
            };
            let (u, other) = (state(100 + seed as u64), state(200 + seed as u64));
            let own = traces(&u);
            let sum: Vec<Vec<f64>> = own
                .iter()
                .zip(traces(&other))
                .map(|(o, b)| o.iter().zip(&b).map(|(o, b)| o + b).collect())
                .collect();
            let nbr: Vec<Vec<f64>> = own
                .iter()
                .zip(&sum)
                .map(|(o, s)| crate::ops::tests::recovered(o, s))
                .collect();
            let start: Vec<Field> = (0..NVARS)
                .map(|c| {
                    Field::from_fn(n, nel, |e, i, j, k| {
                        0.1 * (c + e + 2 * i + 3 * j + k) as f64
                    })
                })
                .collect();
            let (mut new, mut old) = (start.clone(), start);
            rusanov_lift(&gas, &basis, &geom, &u, &sum, &mut new);
            old_rusanov_lift(&gas, &basis, &geom, &own, &nbr, &mut old);
            for c in 0..NVARS {
                let bits = |f: &Field| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&new[c]),
                    bits(&old[c]),
                    "inflow face {f:?}, component {c}"
                );
            }
        }
    }
}
