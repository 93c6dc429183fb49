//! Advection–diffusion DG solver: the serial reference for the mini-app's
//! proxy step, and the second-derivative (viscous) machinery of a
//! compressible Navier–Stokes code, validated in isolation.
//!
//! CMT-bone is a *proxy*: its timestep loop performs the derivative,
//! face-extraction and exchange operations without claiming the results
//! mean anything physically. This solver assembles the same terms
//! ([`crate::ops`]) into a periodic solve of
//!
//! ```text
//! u_t + c . grad u = nu lap u
//! ```
//!
//! with upwind advective fluxes and SSP-RK3. At `nu = 0` it is pure
//! linear advection, bit for bit the distributed proxy's inviscid step.
//!
//! CMT-nek solves the *Navier–Stokes* equations: its flux
//! `f(U, grad U)` in the paper's conservation law (eq. 1) depends on the
//! solution gradient, which discontinuous Galerkin methods obtain with a
//! first-order rewrite (here the classic **BR1** scheme of Bassi &
//! Rebay): an auxiliary gradient `q = grad u` is computed with
//! central-averaged traces, exchanged like any other surface data, and
//! the viscous flux `nu q` is then differenced like the inviscid one.
//! Each right-hand-side evaluation with `nu > 0` therefore runs the
//! kernel pipeline **twice** (gradient pass + divergence pass), with four
//! surface exchanges (`u` and the three `q` components) instead of one —
//! the communication-intensity step-up viscous physics brings.
//!
//! The tests validate against the exact decaying traveling wave
//! `u = exp(-nu k^2 t) sin(k . (x - c t))` (spectral convergence in `N`
//! and correct decay rate), plus conservation of the mean.

use crate::face;
use crate::field::Field;
use crate::kernels::KernelVariant;
use crate::ops::{self, advect_volume_rhs, upwind_lift};
use crate::periodic::{PeriodicBox, Viscous};
use crate::rk;
use std::f64::consts::PI;

/// Configuration of the periodic advection–diffusion solver.
#[derive(Debug, Clone)]
pub struct AdvDiffConfig {
    /// GLL points per direction per element.
    pub n: usize,
    /// Elements per direction.
    pub elems: [usize; 3],
    /// Box extents.
    pub lengths: [f64; 3],
    /// Advection velocity.
    pub velocity: [f64; 3],
    /// Diffusivity `nu >= 0`; zero is pure advection.
    pub nu: f64,
    /// Kernel implementation.
    pub variant: KernelVariant,
}

impl Default for AdvDiffConfig {
    fn default() -> Self {
        AdvDiffConfig {
            n: 8,
            elems: [2, 1, 1],
            lengths: [1.0, 1.0, 1.0],
            velocity: [1.0, 0.0, 0.0],
            nu: 0.01,
            variant: KernelVariant::Optimized,
        }
    }
}

/// Periodic advection–diffusion DG solver (upwind advection, BR1 viscous
/// fluxes).
pub struct AdvDiffSolver {
    cfg: AdvDiffConfig,
    bx: PeriodicBox,
    u: Field,
    u0: Field,
    rhs: Field,
    scratch: Field,
    /// `u`'s face traces, exchanged to own + neighbor sums.
    faces: Vec<f64>,
    /// The BR1 workspace, present when `nu > 0`.
    viscous: Option<Viscous>,
    time: f64,
}

impl AdvDiffSolver {
    /// Build with a zero field.
    ///
    /// # Panics
    /// Panics if `nu < 0`, any element count is zero, or `n < 2`.
    pub fn new(cfg: AdvDiffConfig) -> Self {
        assert!(cfg.nu >= 0.0, "diffusivity must be non-negative");
        let bx = PeriodicBox::new(cfg.n, cfg.elems, cfg.lengths);
        let field = || Field::zeros(cfg.n, bx.nel());
        AdvDiffSolver {
            u: field(),
            u0: field(),
            rhs: field(),
            scratch: field(),
            faces: bx.traces(),
            viscous: (cfg.nu > 0.0).then(|| Viscous::new(&bx, cfg.nu)),
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

    /// The solution field.
    pub fn solution(&self) -> &Field {
        &self.u
    }

    /// Physical coordinates of GLL point `(i, j, k)` of element `e`.
    pub fn point_coords(&self, e: usize, i: usize, j: usize, k: usize) -> [f64; 3] {
        self.bx.point_coords(e, i, j, k)
    }

    /// Initialize from a function of physical coordinates and reset the
    /// clock to zero.
    pub fn init(&mut self, f: impl Fn(f64, f64, f64) -> f64) {
        self.u = Field::from_fn(self.cfg.n, self.nel(), |e, i, j, k| {
            let [x, y, z] = self.bx.point_coords(e, i, j, k);
            f(x, y, z)
        });
        self.time = 0.0;
    }

    /// Full right-hand side: upwind advection, plus the BR1 viscous
    /// divergence when `nu > 0`.
    fn eval_rhs(&mut self) {
        let (bx, variant, vel) = (&self.bx, self.cfg.variant, self.cfg.velocity);
        let (basis, geom) = (&bx.basis, &bx.geom);
        let (u, rhs, scratch) = (&self.u, &mut self.rhs, &mut self.scratch);
        advect_volume_rhs(variant, basis, geom, vel, u, rhs, scratch);
        face::full2face(bx.n, bx.nel(), u.as_slice(), &mut self.faces);
        bx.exchange(&mut self.faces);
        upwind_lift(
            basis,
            geom,
            vel,
            u.as_slice(),
            &self.faces,
            rhs.as_mut_slice(),
        );
        if let Some(v) = &mut self.viscous {
            v.add_to(bx, variant, u, &self.faces, rhs);
        }
    }

    /// Advance one SSP-RK3 step.
    pub fn step(&mut self, dt: f64) {
        self.u0.as_mut_slice().copy_from_slice(self.u.as_slice());
        for s in 0..rk::STAGES {
            self.eval_rhs();
            rk::stage_update(s, &mut self.u, &self.u0, &self.rhs, dt);
        }
        self.time += dt;
    }

    /// Stable timestep ([`ops::stable_dt`]): the minimum of the advective
    /// CFL limit and the diffusive limit `~ h^2 / (nu N^4)`.
    pub fn stable_dt(&self, cfl: f64) -> f64 {
        let cfg = &self.cfg;
        ops::stable_dt(cfg.n, &self.bx.geom, cfg.velocity, cfg.nu, cfl)
    }

    /// GLL-quadrature integral of `u` (conserved: both advection and
    /// diffusion preserve the mean on a periodic box).
    pub fn integral(&self) -> f64 {
        self.bx.integral(&self.u)
    }

    /// Max-norm error against the exact decaying traveling wave solution
    /// for initial data `sin(k_vec . x)` (`k_vec = 2 pi m / L` per
    /// direction): `u = exp(-nu |k|^2 t) sin(k . (x - c t))`. At `nu = 0`
    /// this is the exact advected profile.
    pub fn error_vs_decaying_wave(&self, modes: [i32; 3]) -> f64 {
        let (c, t) = (self.cfg.velocity, self.time);
        let kvec: [f64; 3] =
            std::array::from_fn(|a| 2.0 * PI * modes[a] as f64 / self.cfg.lengths[a]);
        let k2 = kvec[0] * kvec[0] + kvec[1] * kvec[1] + kvec[2] * kvec[2];
        let amp = (-self.cfg.nu * k2 * t).exp();
        let mut err = 0.0f64;
        self.bx.for_each_point(|e, i, j, k| {
            let [x, y, z] = self.bx.point_coords(e, i, j, k);
            let phase =
                kvec[0] * (x - c[0] * t) + kvec[1] * (y - c[1] * t) + kvec[2] * (z - c[2] * t);
            err = err.max((self.u.get(e, i, j, k) - amp * phase.sin()).abs());
        });
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_x(x: f64, _y: f64, _z: f64) -> f64 {
        (2.0 * PI * x).sin()
    }

    fn gaussian(x: f64, y: f64, z: f64) -> f64 {
        let d2 = (x - 0.5).powi(2) + (y - 0.5).powi(2) + (z - 0.5).powi(2);
        (-40.0 * d2).exp()
    }

    /// Step to `t_end` in equal steps of at most `stable_dt(0.25)` and at
    /// least `min_steps` of them.
    fn run_to(
        cfg: AdvDiffConfig,
        t_end: f64,
        min_steps: usize,
        init: impl Fn(f64, f64, f64) -> f64,
    ) -> AdvDiffSolver {
        let mut s = AdvDiffSolver::new(cfg);
        s.init(init);
        let dt = s.stable_dt(0.25).min(t_end / min_steps as f64);
        let steps = (t_end / dt).ceil() as usize;
        let dt = t_end / steps as f64;
        for _ in 0..steps {
            s.step(dt);
        }
        s
    }

    #[test]
    fn spectral_convergence_in_n() {
        // Smooth sine advected in x (nu = 0); error must drop fast with N.
        let errs: Vec<f64> = [4usize, 6, 8]
            .iter()
            .map(|&n| {
                let cfg = AdvDiffConfig {
                    n,
                    nu: 0.0,
                    ..Default::default()
                };
                run_to(cfg, 0.25, 40, sine_x).error_vs_decaying_wave([1, 0, 0])
            })
            .collect();
        assert!(
            errs[1] < errs[0] * 0.2 && errs[2] < errs[1] * 0.2,
            "not spectral: {errs:?}"
        );
        assert!(errs[2] < 1e-4, "final error too large: {errs:?}");
    }

    #[test]
    fn advects_in_all_three_directions() {
        for axis in 0..3 {
            let mut velocity = [0.0; 3];
            velocity[axis] = 1.0;
            let cfg = AdvDiffConfig {
                elems: [2, 2, 2],
                velocity,
                nu: 0.0,
                ..Default::default()
            };
            let s = run_to(cfg, 0.1, 1, move |x, y, z| {
                (2.0 * PI * [x, y, z][axis]).sin()
            });
            let mut modes = [0i32; 3];
            modes[axis] = 1;
            let err = s.error_vs_decaying_wave(modes);
            assert!(err < 5e-4, "axis {axis}: err = {err}");
        }
    }

    #[test]
    fn diagonal_advection_of_a_multi_mode_sine() {
        let cfg = AdvDiffConfig {
            n: 10,
            elems: [3, 3, 3],
            velocity: [1.0, 0.5, -0.5],
            nu: 0.0,
            ..Default::default()
        };
        let s = run_to(cfg, 0.05, 1, |x, y, z| (2.0 * PI * (x + 2.0 * y - z)).sin());
        let err = s.error_vs_decaying_wave([1, 2, -1]);
        assert!(err < 2e-5, "err = {err}");
    }

    #[test]
    fn conserves_integral_under_pure_advection() {
        let mut s = AdvDiffSolver::new(AdvDiffConfig {
            n: 7,
            elems: [2, 2, 1],
            velocity: [1.0, -0.3, 0.0],
            nu: 0.0,
            ..Default::default()
        });
        s.init(gaussian);
        let before = s.integral();
        let dt = s.stable_dt(0.3);
        for _ in 0..50 {
            s.step(dt);
        }
        let after = s.integral();
        assert!(
            (before - after).abs() < 1e-10 * before.abs().max(1.0),
            "integral drifted: {before} -> {after}"
        );
    }

    #[test]
    fn kernel_variants_give_identical_dynamics() {
        for nu in [0.0, 0.02] {
            let sols: Vec<Field> = KernelVariant::ALL
                .into_iter()
                .map(|variant| {
                    let mut s = AdvDiffSolver::new(AdvDiffConfig {
                        n: 6,
                        elems: [2, 2, 2],
                        velocity: [0.7, 0.2, 0.1],
                        nu,
                        variant,
                        ..Default::default()
                    });
                    s.init(gaussian);
                    for _ in 0..10 {
                        s.step(1e-3);
                    }
                    s.solution().clone()
                })
                .collect();
            for s in &sols[1..] {
                for (a, b) in sols[0].as_slice().iter().zip(s.as_slice()) {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "nu {nu}: variant mismatch: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn pure_diffusion_decays_at_the_exact_rate() {
        let nu = 0.02;
        let s = run_to(
            AdvDiffConfig {
                n: 8,
                elems: [2, 1, 1],
                velocity: [0.0, 0.0, 0.0],
                nu,
                ..Default::default()
            },
            0.5,
            20,
            sine_x,
        );
        let err = s.error_vs_decaying_wave([1, 0, 0]);
        assert!(err < 5e-4, "decay-rate error {err}");
        // the wave really decayed (by ~ e^{-nu 4 pi^2 t} ~ 0.67). The GLL
        // grid does not sample the sine's peak exactly, so compare the
        // grid max against the *initial* grid max scaled by the decay.
        let max = s.solution().norm_inf();
        let expect = (-nu * 4.0 * PI * PI * 0.5f64).exp();
        assert!(
            max < expect && max > expect * 0.9,
            "amplitude {max} vs decay factor {expect}"
        );
    }

    #[test]
    fn advection_diffusion_matches_exact_traveling_decaying_wave() {
        let s = run_to(
            AdvDiffConfig {
                n: 8,
                elems: [2, 1, 1],
                velocity: [1.0, 0.0, 0.0],
                nu: 0.05,
                ..Default::default()
            },
            0.25,
            20,
            sine_x,
        );
        let err = s.error_vs_decaying_wave([1, 0, 0]);
        assert!(err < 1e-4, "err = {err}");
    }

    #[test]
    fn spectral_convergence_with_viscosity() {
        let mut errs = Vec::new();
        for &n in &[4usize, 6, 8] {
            let s = run_to(
                AdvDiffConfig {
                    n,
                    elems: [2, 1, 1],
                    velocity: [0.7, 0.0, 0.0],
                    nu: 0.03,
                    ..Default::default()
                },
                0.2,
                20,
                sine_x,
            );
            errs.push(s.error_vs_decaying_wave([1, 0, 0]));
        }
        assert!(errs[2] < errs[0] * 0.05, "no spectral decay: {errs:?}");
    }

    #[test]
    fn diffusion_works_along_every_axis() {
        for axis in 0..3 {
            let mut elems = [1usize, 1, 1];
            elems[axis] = 2;
            let s = run_to(
                AdvDiffConfig {
                    n: 7,
                    elems,
                    velocity: [0.0; 3],
                    nu: 0.02,
                    ..Default::default()
                },
                0.3,
                20,
                move |x, y, z| (2.0 * PI * [x, y, z][axis]).sin(),
            );
            let mut modes = [0i32; 3];
            modes[axis] = 1;
            let err = s.error_vs_decaying_wave(modes);
            assert!(err < 1e-3, "axis {axis}: err {err}");
        }
    }

    #[test]
    fn mean_is_conserved_under_advection_diffusion() {
        let mut s = AdvDiffSolver::new(AdvDiffConfig {
            n: 6,
            elems: [2, 2, 1],
            velocity: [0.5, -0.2, 0.0],
            nu: 0.04,
            ..Default::default()
        });
        s.init(|x, y, _z| 1.0 + 0.5 * (2.0 * PI * x).sin() * (2.0 * PI * y).cos());
        let before = s.integral();
        let dt = s.stable_dt(0.25);
        for _ in 0..30 {
            s.step(dt);
        }
        let after = s.integral();
        assert!(
            (before - after).abs() < 1e-10 * before.abs().max(1.0),
            "mean drifted {before} -> {after}"
        );
    }

    #[test]
    #[should_panic]
    fn negative_viscosity_rejected() {
        let _ = AdvDiffSolver::new(AdvDiffConfig {
            nu: -0.1,
            ..Default::default()
        });
    }
}
