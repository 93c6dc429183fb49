//! Which physics a run steps — the advection proxy or compressible Euler
//! ([`Config::euler`]) — decided here and nowhere else. Everything the two
//! differ in is one method of [`Physics`]: the initial state, the setup
//! and adapted timestep (and whether a checkpoint carries it), which
//! fields the element pass takes together, the volume term, the lift,
//! and the velocity the tracers ride. The step schedule,
//! the checkpoint code and the particle phase call these without knowing
//! which physics runs.

use std::ops::Range;

use cmt_core::eos::{IdealGas, Primitive, NVARS};
use cmt_core::euler::{max_wave_speed, rusanov_lift, volume_rhs};
use cmt_core::face;
use cmt_core::ops::{advect_volume, stable_dt, upwind_lift};
use cmt_core::Field;
use cmt_perf::Profiler;
use cmt_resilience::Values;
use simmpi::{Rank, ReduceOp};

use super::stage::BlockScratch;
use super::{regions, Env};
use crate::config::Config;

pub(super) enum Physics {
    /// Every field advected at [`Config::velocity`], optionally viscous;
    /// `dt` is fixed at setup.
    Advection,
    /// The five conserved variables of this gas; `dt` follows the global
    /// wave speed.
    Euler(IdealGas),
}

impl Physics {
    pub fn of(cfg: &Config) -> Physics {
        if cfg.euler {
            Physics::Euler(IdealGas::default())
        } else {
            Physics::Advection
        }
    }

    /// Field `f`'s smooth initial profile is separable, periodic in the
    /// global box: each axis contributes a factor of its phase
    /// `t = 2 pi x / L` (this method), and [`Physics::initial_combine`]
    /// joins one point's three factors. The proxy fields are phase-shifted
    /// waves, `sin(tx + 0.3 f) cos(ty) + 0.25 cos(tz + 0.7 f)`; Euler
    /// starts on a density wave carried by a uniform stream with a
    /// transverse shear: `rho = 1 + 0.15 sin(tx)`,
    /// `vel = [0.6, 0.1 cos(ty), 0]`, `p = 1`.
    pub fn initial_factor(&self, f: usize, axis: usize, t: f64) -> f64 {
        match (self, axis) {
            (Physics::Advection, 0) => (t + 0.3 * f as f64).sin(),
            (Physics::Advection, 1) => t.cos(),
            (Physics::Advection, _) => (t + 0.7 * f as f64).cos(),
            (Physics::Euler(_), 0) => t.sin(),
            (Physics::Euler(_), 1) => t.cos(),
            // uniform along z
            (Physics::Euler(_), _) => 0.0,
        }
    }

    /// Field `f`'s initial value at a point whose per-axis factors
    /// ([`Physics::initial_factor`]) are `[a, b, c]`.
    pub fn initial_combine(&self, f: usize, [a, b, c]: [f64; 3]) -> f64 {
        match self {
            Physics::Advection => a * b + 0.25 * c,
            Physics::Euler(gas) => gas.conserved(Primitive {
                rho: 1.0 + 0.15 * a,
                vel: [0.6, 0.1 * b, 0.0],
                p: 1.0,
            })[f],
        }
    }

    /// The per-axis flux scratch of every conserved variable Euler's
    /// volume term needs for one block of `nel` elements (empty for the
    /// proxy).
    pub fn flux_scratch(&self, n: usize, nel: usize) -> Vec<Field> {
        match self {
            Physics::Advection => Vec::new(),
            Physics::Euler(_) => (0..NVARS).map(|_| Field::zeros(n, nel)).collect(),
        }
    }

    /// Arrays the volume term touches per point of one derivative block,
    /// the count [`super::stage::BlockScratch`] sizes its block by: the
    /// proxy's field, right-hand side and derivative (the viscous
    /// divergence's `q`, right-hand side and derivative alike); Euler's
    /// five conserved variables, five flux components, five right-hand
    /// sides and the derivative.
    pub fn volume_arrays(&self) -> usize {
        match self {
            Physics::Advection => 3,
            Physics::Euler(_) => 3 * NVARS + 1,
        }
    }

    /// The fluid velocity the tracers ride, one field per axis over the
    /// rank's `nel` elements, which [`Physics::tracer_velocity`] fills:
    /// empty without `particles`, and for the proxy, whose tracers ride
    /// its fields.
    pub fn velocity_scratch(&self, n: usize, nel: usize, particles: bool) -> Vec<Field> {
        match self {
            Physics::Euler(_) if particles => (0..3).map(|_| Field::zeros(n, nel)).collect(),
            _ => Vec::new(),
        }
    }

    /// The setup timestep. Collective under Euler (one `cfl` allreduce).
    pub fn setup_dt(&self, env: &Env, rank: &mut Rank, u: &[Field]) -> f64 {
        let cfg = &env.cfg;
        match self {
            // the serial reference solvers' formula, so both step alike
            Physics::Advection => {
                let nu = cfg.viscosity.unwrap_or(0.0);
                stable_dt(cfg.n, &env.geom, cfg.velocity, nu, cfg.cfl)
            }
            Physics::Euler(gas) => wave_speed_dt(env, rank, gas, u),
        }
    }

    /// Vector reduction: the timestep-control allreduce. Under Euler it
    /// re-adapts `dt` to the wave speed; the proxy's advection speed is
    /// fixed, so there it reduces the field maximum and `dt` stays.
    pub fn cfl_reduce(&self, env: &Env, rank: &mut Rank, u: &[Field], dt: &mut f64) {
        match self {
            Physics::Advection => {
                rank.set_context("cfl");
                let local_max = u.iter().fold(0.0f64, |m, f| m.max(f.norm_inf()));
                let _global_max = rank.allreduce_scalar(local_max, ReduceOp::Max);
                rank.set_context("main");
            }
            Physics::Euler(gas) => *dt = wave_speed_dt(env, rank, gas, u),
        }
    }

    /// The timestep a checkpoint carries as its last scalar: Euler's,
    /// which a rollback must restore; the proxy's is fixed at setup.
    pub fn carried_dt(&self, dt: f64) -> Option<f64> {
        matches!(self, Physics::Euler(_)).then_some(dt)
    }

    /// Take the carried timestep from the back of a checkpoint's scalars,
    /// leaving the element-owner vector; `None` when the timestep this
    /// physics carries is missing.
    pub fn take_carried_dt(&self, scalars: &mut Values) -> Option<Option<f64>> {
        match self {
            Physics::Advection => Some(None),
            Physics::Euler(_) => scalars.next_back().map(Some),
        }
    }

    /// The fields whose right-hand side the element pass computes
    /// together, the group holding field `f`: the proxy one field at a
    /// time, Euler all five conserved variables, since each flux reads
    /// them all.
    pub fn group(&self, f: usize) -> Range<usize> {
        match self {
            Physics::Advection => f..f + 1,
            Physics::Euler(_) => 0..NVARS,
        }
    }

    /// The volume term of the fields `group` on the elements `es` into
    /// `work`'s right-hand side, then per field the dealiasing round
    /// trip.
    pub fn volume(
        &self,
        env: &Env,
        prof: &mut Profiler,
        u: &[Field],
        work: &mut BlockScratch,
        group: &Range<usize>,
        es: &Range<usize>,
    ) {
        let (cfg, basis, geom) = (&env.cfg, &env.basis, &env.geom);
        let n3 = cfg.n.pow(3);
        let pts = es.start * n3..es.end * n3;
        let BlockScratch {
            deriv, flux, rhs, ..
        } = &mut *work;
        prof.enter(regions::DERIV);
        match self {
            Physics::Advection => {
                let (uf, rhs) = (
                    &u[group.start].as_slice()[pts.clone()],
                    &mut rhs[..pts.len()],
                );
                let deriv = deriv.as_mut_slice();
                advect_volume(cfg.variant, basis, geom, cfg.velocity, uf, rhs, deriv);
            }
            Physics::Euler(gas) => {
                let ub = field_blocks(u, &pts);
                let mut rb = rhs_blocks(rhs, deriv.len(), pts.len());
                volume_rhs(cfg.variant, basis, geom, gas, &ub, flux, deriv, &mut rb);
            }
        }
        prof.exit();
        work.dealias(env, prof, group.len(), pts.len());
    }

    /// The lift of the numerical flux into the right-hand side of the
    /// fields `group` on the elements `es` (`add_face2full`). `sums`
    /// holds each field's own + neighbor trace sums; the lifts read the
    /// own side from `u` and recover the neighbor as `sum - own`. The
    /// proxy lifts an upwind flux, Euler one Rusanov flux over all five
    /// conserved variables.
    #[allow(clippy::too_many_arguments)]
    pub fn lift(
        &self,
        env: &Env,
        prof: &mut Profiler,
        u: &[Field],
        sums: &[&mut [f64]],
        work: &mut BlockScratch,
        group: &Range<usize>,
        es: &Range<usize>,
    ) {
        let (cfg, basis, geom) = (&env.cfg, &env.basis, &env.geom);
        let (n3, fpe) = (cfg.n.pow(3), face::face_values_per_element(cfg.n));
        let (pts, fpts) = (es.start * n3..es.end * n3, es.start * fpe..es.end * fpe);
        let block_pts = work.deriv.len();
        prof.enter(regions::FLUX_LIFT);
        match self {
            Physics::Advection => {
                let f = group.start;
                let (uf, sum) = (&u[f].as_slice()[pts.clone()], &sums[f][fpts]);
                let rhs = &mut work.rhs[..pts.len()];
                upwind_lift(basis, geom, cfg.velocity, uf, sum, rhs);
            }
            Physics::Euler(gas) => {
                let ub = field_blocks(u, &pts);
                let sb: [&[f64]; NVARS] = std::array::from_fn(|c| &sums[c][fpts.clone()]);
                let mut rb = rhs_blocks(&mut work.rhs, block_pts, pts.len());
                rusanov_lift(gas, basis, geom, &ub, &sb, &mut rb);
            }
        }
        prof.exit();
    }

    /// The velocity the tracers ride: the first three proxy fields
    /// (cycled when fewer), or the fluid velocity `m / rho`, written into
    /// `velocity` ([`Physics::velocity_scratch`]).
    pub fn tracer_velocity<'a>(&self, u: &'a [Field], velocity: &'a mut [Field]) -> [&'a Field; 3] {
        match self {
            Physics::Advection => {
                let fields = u.len();
                [&u[0], &u[1 % fields], &u[2 % fields]]
            }
            Physics::Euler(_) => {
                let rho = u[0].as_slice();
                for (v, m) in velocity.iter_mut().zip(&u[1..4]) {
                    let (v, m) = (v.as_mut_slice(), m.as_slice());
                    for (v, (m, r)) in v.iter_mut().zip(m.iter().zip(rho)) {
                        *v = m / r;
                    }
                }
                [&velocity[0], &velocity[1], &velocity[2]]
            }
        }
    }
}

/// Euler's stable timestep at the global maximum wave speed of `u` (one
/// `cfl` allreduce).
fn wave_speed_dt(env: &Env, rank: &mut Rank, gas: &IdealGas, u: &[Field]) -> f64 {
    rank.set_context("cfl");
    let smax = rank.allreduce_scalar(max_wave_speed(gas, u), ReduceOp::Max);
    rank.set_context("main");
    stable_dt(env.cfg.n, &env.geom, [smax.max(1e-30); 3], 0.0, env.cfg.cfl)
}

/// The points `pts` of each of the five conserved variables `u`.
fn field_blocks<'a>(u: &'a [Field], pts: &Range<usize>) -> [&'a [f64]; NVARS] {
    std::array::from_fn(|c| &u[c].as_slice()[pts.clone()])
}

/// The first `len` values of each of the five right-hand sides in the
/// block scratch `rhs`, which holds one per `block_pts` values.
fn rhs_blocks(rhs: &mut [f64], block_pts: usize, len: usize) -> [&mut [f64]; NVARS] {
    let mut blocks = rhs.chunks_exact_mut(block_pts);
    std::array::from_fn(|_| &mut blocks.next().expect("a right-hand side per variable")[..len])
}
