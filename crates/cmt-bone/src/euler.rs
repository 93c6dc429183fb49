//! Distributed compressible Euler stepping — the mini-app's proxy loop
//! upgraded to the parent application's physics.
//!
//! CMT-nek "solves the conservation law for each component of the vector
//! of conserved variables" (paper §III.B); this module does exactly that
//! across ranks: per RK stage and per conserved variable it computes the
//! flux divergence with the derivative kernels, extracts surfaces with
//! `full2face`, exchanges neighbor traces through the gather–scatter
//! library, applies the Rusanov numerical flux, and finishes with the RK
//! update — the identical operation sequence as the advection proxy, with
//! the real compressible flux in the middle.
//!
//! The volume term and the Rusanov lift are [`cmt_core::euler`]'s, the
//! same functions [`cmt_core::euler::EulerSolver`] calls; only the trace
//! exchange differs. `tests/distributed_vs_serial.rs` holds the two
//! point-for-point.

use cmt_core::eos::{IdealGas, Primitive, NVARS};
use cmt_core::euler::{is_admissible, max_wave_speed, rusanov_lift, volume_rhs};
use cmt_core::face;
use cmt_core::ops::{stable_dt, ElementGeom};
use cmt_core::poly::Basis;
use cmt_core::{rk, Field, KernelVariant};
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_mesh::{MeshConfig, RankMesh};
use cmt_perf::{MpipReport, Profiler};
use simmpi::{Rank, ReduceOp, World};

/// Configuration of a distributed Euler run.
#[derive(Debug, Clone)]
pub struct EulerRunConfig {
    /// GLL points per direction per element.
    pub n: usize,
    /// Elements per rank.
    pub elems_per_rank: usize,
    /// Rank count.
    pub ranks: usize,
    /// Timesteps.
    pub steps: usize,
    /// Gas model.
    pub gas: IdealGas,
    /// Kernel implementation.
    pub variant: KernelVariant,
    /// Gather-scatter method for the surface exchange.
    pub method: GsMethod,
    /// CFL number; the timestep adapts every [`EulerRunConfig::cfl_interval`]
    /// steps from a global wave-speed allreduce (the paper's "adaptive
    /// time stepping" future-work item).
    pub cfl: f64,
    /// Steps between timestep adaptations.
    pub cfl_interval: usize,
    /// Lagrangian point particles seeded per element (0 disables). When
    /// enabled, particles are advected every step by the interpolated
    /// fluid velocity and migrated between ranks with the crystal router
    /// — the "compressible *multiphase*" coupling the paper's title
    /// promises and its §III.A development plan schedules.
    pub particles_per_elem: usize,
}

impl Default for EulerRunConfig {
    fn default() -> Self {
        EulerRunConfig {
            n: 6,
            elems_per_rank: 8,
            ranks: 4,
            steps: 10,
            gas: IdealGas::default(),
            variant: KernelVariant::Optimized,
            method: GsMethod::PairwiseExchange,
            cfl: 0.2,
            cfl_interval: 5,
            particles_per_elem: 0,
        }
    }
}

impl EulerRunConfig {
    /// Validate parameter sanity; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=25).contains(&self.n) {
            return Err(format!("n must be in 2..=25, got {}", self.n));
        }
        if self.ranks == 0 {
            return Err("ranks must be positive".into());
        }
        if self.elems_per_rank == 0 {
            return Err("elems_per_rank must be positive".into());
        }
        if self.cfl_interval == 0 {
            return Err("cfl_interval must be positive".into());
        }
        if !(self.cfl > 0.0) {
            return Err("cfl must be positive".into());
        }
        Ok(())
    }
}

/// Outcome of a distributed Euler run.
#[derive(Debug)]
pub struct EulerRunReport {
    /// Mesh summary block.
    pub mesh_summary: String,
    /// Conserved-quantity totals before stepping.
    pub totals_before: [f64; NVARS],
    /// Conserved-quantity totals after stepping.
    pub totals_after: [f64; NVARS],
    /// Simulated time reached.
    pub time: f64,
    /// Merged region profile.
    pub profile: cmt_perf::ProfileReport,
    /// Communication statistics.
    pub comm: MpipReport,
    /// Whether every rank's final state is physically admissible.
    pub admissible: bool,
    /// World-wide particle count at the end (0 when tracking is off);
    /// must equal `particles_per_elem * total_elems`.
    pub particle_count: u64,
    /// Total particle migrations over the run, summed over ranks/steps.
    pub particles_migrated: u64,
    /// Per-rank final fields + element map (for validation), rank order.
    pub solutions: Vec<EulerSolution>,
}

/// One rank's final Euler state.
#[derive(Debug, Clone)]
pub struct EulerSolution {
    /// Global element ids in local order.
    pub global_elem_ids: Vec<usize>,
    /// The five conserved fields, flat `Field` layout.
    pub fields: Vec<Vec<f64>>,
}

impl EulerRunReport {
    /// Render a human-readable summary of the run.
    pub fn render(&self) -> String {
        let mut out = String::from("Setup:\n");
        out.push_str(&self.mesh_summary);
        out.push_str(&format!(
            "\n\nreached t = {:.6}; physically admissible: {}\n",
            self.time, self.admissible
        ));
        let names = ["mass", "x-momentum", "y-momentum", "z-momentum", "energy"];
        out.push_str("conserved totals (before -> after):\n");
        for (c, name) in names.iter().enumerate() {
            out.push_str(&format!(
                "  {name:11} {:+.9e} -> {:+.9e}\n",
                self.totals_before[c], self.totals_after[c]
            ));
        }
        if self.particle_count > 0 {
            out.push_str(&format!(
                "particles: {} tracked, {} rank-to-rank migrations\n",
                self.particle_count, self.particles_migrated
            ));
        }
        out.push_str("\nExecution profile:\n");
        out.push_str(&self.profile.render_flat());
        out
    }
}

struct RankOut {
    profiler: Profiler,
    totals_before: [f64; NVARS],
    totals_after: [f64; NVARS],
    time: f64,
    admissible: bool,
    particle_count: u64,
    particles_migrated: u64,
    solution: EulerSolution,
}

/// Run the distributed Euler solver with the given smooth initial
/// primitive state (a function of global physical coordinates; elements
/// are unit cubes, so the box is `global_elems` wide).
///
/// # Panics
/// Panics with `invalid Euler configuration` when
/// [`EulerRunConfig::validate`] rejects `cfg`.
pub fn run_euler(
    cfg: &EulerRunConfig,
    init: impl Fn(f64, f64, f64) -> Primitive + Send + Sync,
) -> EulerRunReport {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid Euler configuration: {e}"));
    let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
    let init = &init;
    let result = World::new().run(cfg.ranks, |rank| rank_main(rank, cfg, &mesh_cfg, init));

    let mut merged = Profiler::new();
    let mut totals_before = [0.0; NVARS];
    let mut totals_after = [0.0; NVARS];
    let mut time = 0.0;
    let mut admissible = true;
    let mut particle_count = 0;
    let mut particles_migrated = 0;
    let mut solutions = Vec::new();
    for out in result.results {
        merged.merge(&out.profiler);
        totals_before = out.totals_before; // identical on all ranks (allreduced)
        totals_after = out.totals_after;
        time = out.time;
        admissible &= out.admissible;
        particle_count = out.particle_count; // allreduced, identical
        particles_migrated = out.particles_migrated;
        solutions.push(out.solution);
    }
    EulerRunReport {
        mesh_summary: mesh_cfg.summary(),
        totals_before,
        totals_after,
        time,
        profile: merged.report(),
        comm: MpipReport::from_stats(&result.stats),
        admissible,
        particle_count,
        particles_migrated,
        solutions,
    }
}

fn rank_main(
    rank: &mut Rank,
    cfg: &EulerRunConfig,
    mesh_cfg: &MeshConfig,
    init: &(impl Fn(f64, f64, f64) -> Primitive + Send + Sync),
) -> RankOut {
    let mut prof = Profiler::new();
    let n = cfg.n;
    let basis = Basis::new(n);
    let geom = ElementGeom::cube(1.0);
    let gas = cfg.gas;

    prof.enter("setup");
    let mesh = RankMesh::new(mesh_cfg.clone(), rank.rank());
    let gids = mesh.face_exchange_gids();
    let handle = GsHandle::setup(rank, &gids);
    prof.exit();

    let nel = mesh.nel();
    let coords = |e: usize, i: usize, j: usize, k: usize| {
        let gc = mesh.global_elem_coords(e);
        [
            gc[0] as f64 + (basis.nodes[i] + 1.0) / 2.0,
            gc[1] as f64 + (basis.nodes[j] + 1.0) / 2.0,
            gc[2] as f64 + (basis.nodes[k] + 1.0) / 2.0,
        ]
    };
    let mut u: Vec<Field> = (0..NVARS).map(|_| Field::zeros(n, nel)).collect();
    for e in 0..nel {
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let [x, y, z] = coords(e, i, j, k);
                    let cons = gas.conserved(init(x, y, z));
                    for (c, &v) in cons.iter().enumerate() {
                        u[c].set(e, i, j, k, v);
                    }
                }
            }
        }
    }
    let mut u0 = u.clone();
    let mut rhs: Vec<Field> = (0..NVARS).map(|_| Field::zeros(n, nel)).collect();
    // one flux field per conserved variable: the fused pointwise pass
    // evaluates each point's full flux vector once per axis
    let mut flux: Vec<Field> = (0..NVARS).map(|_| Field::zeros(n, nel)).collect();
    let mut scratch = Field::zeros(n, nel);
    let fpe = face::face_values_per_element(n);
    let mut faces_own: Vec<Vec<f64>> = (0..NVARS).map(|_| vec![0.0; fpe * nel]).collect();
    let mut faces_nbr: Vec<Vec<f64>> = (0..NVARS).map(|_| vec![0.0; fpe * nel]).collect();

    let totals = |u: &[Field], rank: &mut Rank| -> [f64; NVARS] {
        let w = &basis.weights;
        let jac = 1.0 / 8.0;
        let mut loc = [0.0; NVARS];
        for (c, t) in loc.iter_mut().enumerate() {
            for e in 0..nel {
                for k in 0..n {
                    for j in 0..n {
                        for i in 0..n {
                            *t += w[i] * w[j] * w[k] * jac * u[c].get(e, i, j, k);
                        }
                    }
                }
            }
        }
        rank.set_context("totals");
        let red = rank.allreduce_f64(&loc, ReduceOp::Sum);
        rank.set_context("main");
        [red[0], red[1], red[2], red[3], red[4]]
    };
    let totals_before = totals(&u, rank);

    // Adaptive dt from the global wave speed (allreduce Max) — the
    // mini-app's vector-reduction component doing real work.
    let global_dt = |u: &[Field], rank: &mut Rank| -> f64 {
        rank.set_context("cfl");
        let smax = rank.allreduce_scalar(max_wave_speed(&gas, u), ReduceOp::Max);
        rank.set_context("main");
        stable_dt(n, &geom, [smax.max(1e-30); 3], 0.0, cfg.cfl)
    };

    let eval_rhs = |u: &[Field],
                    rhs: &mut [Field],
                    flux: &mut [Field],
                    scratch: &mut Field,
                    faces_own: &mut [Vec<f64>],
                    faces_nbr: &mut [Vec<f64>],
                    rank: &mut Rank,
                    prof: &mut Profiler| {
        prof.enter("ax_cmt (flux divergence derivs)");
        volume_rhs(cfg.variant, &basis, &geom, &gas, u, flux, scratch, rhs);
        prof.exit();

        // surface extraction + exchange: neighbor trace = gs_add - own
        prof.enter("full2face_cmt");
        for c in 0..NVARS {
            face::full2face(n, nel, u[c].as_slice(), &mut faces_own[c]);
            faces_nbr[c].copy_from_slice(&faces_own[c]);
        }
        prof.exit();
        prof.enter("gs_op_ (numerical flux exchange)");
        rank.set_context("faces");
        // vector gather-scatter: all five conserved traces in one bundled
        // exchange per neighbor
        {
            let mut refs: Vec<&mut [f64]> =
                faces_nbr.iter_mut().map(|v| v.as_mut_slice()).collect();
            handle.gs_op_many(rank, &mut refs, GsOp::Add, cfg.method);
        }
        rank.set_context("main");
        prof.exit();
        prof.enter("add_face2full (flux lift)");
        for c in 0..NVARS {
            for (nb, own) in faces_nbr[c].iter_mut().zip(&faces_own[c]) {
                *nb -= own;
            }
        }
        rusanov_lift(&gas, &basis, &geom, faces_own, faces_nbr, rhs);
        prof.exit();
    };

    // Lagrangian particles riding the carrier flow.
    let mut pset = (cfg.particles_per_elem > 0).then(|| {
        let mut set = cmt_particles::ParticleSet::new(mesh.clone(), &basis);
        set.seed_uniform(cfg.particles_per_elem);
        set
    });
    let mut particles_migrated = 0u64;
    let mut vel_fields: Option<[Field; 3]> = pset.as_ref().map(|_| {
        [
            Field::zeros(n, nel),
            Field::zeros(n, nel),
            Field::zeros(n, nel),
        ]
    });

    prof.enter("timestep_loop");
    let mut time = 0.0;
    let mut dt = global_dt(&u, rank);
    for step in 0..cfg.steps {
        if step > 0 && step % cfg.cfl_interval == 0 {
            prof.enter("cfl_allreduce");
            dt = global_dt(&u, rank);
            prof.exit();
        }
        for (u0f, uf) in u0.iter_mut().zip(&u) {
            u0f.as_mut_slice().copy_from_slice(uf.as_slice());
        }
        for s in 0..rk::STAGES {
            eval_rhs(
                &u,
                &mut rhs,
                &mut flux,
                &mut scratch,
                &mut faces_own,
                &mut faces_nbr,
                rank,
                &mut prof,
            );
            prof.enter("rk_stage_update");
            for c in 0..NVARS {
                rk::stage_update(s, &mut u[c], &u0[c], &rhs[c], dt);
            }
            prof.exit();
        }
        time += dt;

        // One particle step per fluid step: interpolate the fluid
        // velocity (u_i = momentum_i / density), advect, migrate.
        if let (Some(set), Some(vf)) = (pset.as_mut(), vel_fields.as_mut()) {
            prof.enter(cmt_perf::regions::PARTICLE_ADVECT);
            for axis in 0..3 {
                let vfs = vf[axis].as_mut_slice();
                let rho = u[0].as_slice();
                let mom = u[1 + axis].as_slice();
                for (v, (r, m)) in vfs.iter_mut().zip(rho.iter().zip(mom)) {
                    *v = m / r;
                }
            }
            set.advect_field(dt, [&vf[0], &vf[1], &vf[2]]);
            prof.exit();
            prof.enter(cmt_perf::regions::PARTICLE_MIGRATE);
            let stats = set.migrate(rank);
            particles_migrated += stats.sent as u64;
            prof.exit();
        }
    }
    prof.exit();

    let particle_count = match pset.as_ref() {
        Some(set) => set.global_count(rank),
        None => 0,
    };
    rank.set_context("particle_totals");
    let particles_migrated = rank.allreduce_u64(&[particles_migrated], ReduceOp::Sum)[0];
    rank.set_context("main");

    let totals_after = totals(&u, rank);
    let admissible = is_admissible(&gas, &u);

    RankOut {
        profiler: prof,
        totals_before,
        totals_after,
        time,
        admissible,
        particle_count,
        particles_migrated,
        solution: EulerSolution {
            global_elem_ids: (0..nel).map(|le| mesh.global_elem_id(le)).collect(),
            fields: u.iter().map(|f| f.as_slice().to_vec()).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn wave(lengths: [f64; 3]) -> impl Fn(f64, f64, f64) -> Primitive + Send + Sync {
        move |x, y, _z| Primitive {
            rho: 1.0 + 0.15 * (2.0 * PI * x / lengths[0]).sin(),
            vel: [0.6, 0.1 * (2.0 * PI * y / lengths[1]).cos(), 0.0],
            p: 1.0,
        }
    }

    #[test]
    fn conserves_invariants_and_stays_admissible() {
        let cfg = EulerRunConfig {
            ranks: 4,
            elems_per_rank: 8,
            n: 5,
            steps: 8,
            ..Default::default()
        };
        let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
        let ge = mesh_cfg.global_elems();
        let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
        let rep = run_euler(&cfg, wave(lengths));
        assert!(rep.admissible);
        for c in 0..NVARS {
            let scale = rep.totals_before[c].abs().max(1.0);
            assert!(
                (rep.totals_after[c] - rep.totals_before[c]).abs() < 1e-9 * scale,
                "invariant {c}: {} -> {}",
                rep.totals_before[c],
                rep.totals_after[c]
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid Euler configuration")]
    fn zero_cfl_interval_rejected() {
        let cfg = EulerRunConfig {
            cfl_interval: 0,
            steps: 2,
            ..Default::default()
        };
        let _ = run_euler(&cfg, wave([1.0; 3]));
    }

    #[test]
    fn validation_catches_bad_params() {
        for breaker in [
            &(|c: &mut EulerRunConfig| c.n = 1) as &dyn Fn(&mut EulerRunConfig),
            &|c| c.n = 26,
            &|c| c.ranks = 0,
            &|c| c.elems_per_rank = 0,
            &|c| c.cfl_interval = 0,
            &|c| c.cfl = 0.0,
            &|c| c.cfl = f64::NAN,
        ] {
            let mut c = EulerRunConfig::default();
            assert!(c.validate().is_ok());
            breaker(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn particle_laden_flow_conserves_particles_and_tracks_the_stream() {
        let cfg = EulerRunConfig {
            ranks: 4,
            elems_per_rank: 8,
            n: 5,
            steps: 40,
            particles_per_elem: 4,
            ..Default::default()
        };
        let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
        let ge = mesh_cfg.global_elems();
        let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
        let rep = run_euler(&cfg, wave(lengths));
        assert_eq!(
            rep.particle_count,
            (mesh_cfg.total_elems() * 4) as u64,
            "particles lost or duplicated"
        );
        // with bulk velocity ~0.6 across rank blocks, some particles must
        // actually have migrated
        assert!(rep.particles_migrated > 0, "no particle ever migrated");
        // fluid untouched by (one-way-coupled) particles: invariants hold
        for c in 0..NVARS {
            let scale = rep.totals_before[c].abs().max(1.0);
            assert!((rep.totals_after[c] - rep.totals_before[c]).abs() < 1e-9 * scale);
        }
        // profile shows the particle regions
        assert!(rep.profile.flat.iter().any(|(n, _)| n == "particle_advect"));
        assert!(rep
            .profile
            .flat
            .iter()
            .any(|(n, _)| n.starts_with("particle_migrate")));
    }

    #[test]
    fn all_gs_methods_give_same_physics() {
        let mut sums = Vec::new();
        for method in GsMethod::ALL {
            let cfg = EulerRunConfig {
                ranks: 2,
                elems_per_rank: 4,
                n: 4,
                steps: 4,
                method,
                ..Default::default()
            };
            let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
            let ge = mesh_cfg.global_elems();
            let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
            let rep = run_euler(&cfg, wave(lengths));
            sums.push(rep.totals_after);
        }
        for s in &sums[1..] {
            for c in 0..NVARS {
                assert!((s[c] - sums[0][c]).abs() < 1e-9 * (1.0 + sums[0][c].abs()));
            }
        }
    }
}
