//! The mini-app driver: setup, autotune, and the instrumented timestep
//! loop. [`rank_main`] is the loop; the per-partition state lives in
//! [`block`], the RK stage schedules in [`stage`], the load-balancer
//! step in [`balance`], and the result codecs in [`wire`].

mod balance;
mod block;
mod physics;
mod stage;
mod wire;

use std::sync::Arc;
use std::time::Instant;

use cmt_core::ops::ElementGeom;
use cmt_core::poly::Basis;
use cmt_gs::{autotune, AutotuneReport, GsMethod};
use cmt_mesh::{ElemPartition, MeshConfig};
use cmt_perf::{MpipReport, Profiler};
use cmt_resilience::{hash, load_checkpoint, Resilience};
use cmt_verify::Verifier;
use simmpi::{Rank, ReduceOp, World};

use crate::config::Config;
use crate::report::{modeled_flops, LbSummary, RunReport};
use balance::{balance, setup_partition};
use block::{checkpoint_scalars, State};
use physics::Physics;
use stage::rk_step;

/// Profiler region names used by the driver, mirroring the routines of
/// the paper's Fig. 4 call graph.
pub(crate) mod regions {
    /// The derivative (flux-divergence) kernel — the paper's `ax_`.
    pub const DERIV: &str = "ax_cmt (flux divergence derivs)";
    /// Surface extraction — the paper's `full2face_cmt`.
    pub const FULL2FACE: &str = "full2face_cmt";
    /// The gather-scatter surface exchange — the paper's `gs_op_`.
    pub const GS_OP: &str = "gs_op_ (numerical flux exchange)";
    /// Split-phase exchange start: gather and post the halo, then combine
    /// the rank-interior ids in place. Nested under [`GS_OP`] so the
    /// parent row keeps the total exchange time.
    pub const GS_START: &str = "gs_op_start (post + interior combine)";
    /// Split-phase exchange finish: wait, fold the neighbors' halo
    /// values and scatter them.
    pub const GS_FINISH: &str = "gs_op_finish (wait + halo)";
    /// Upwind lifting of the exchanged fluxes back into the volume.
    pub const FLUX_LIFT: &str = "add_face2full (flux lift)";
    /// Runge-Kutta stage update.
    pub const RK: &str = "rk_stage_update";
    /// Timestep-control reduction.
    pub const CFL: &str = "cfl_allreduce";
    /// Dealiasing fine-mesh map (paper §V's second matmul workload).
    pub const DEALIAS: &str = "dealias (fine-mesh map)";
    /// BR1 viscous passes (gradient + viscous divergence).
    pub const VISCOUS: &str = "viscous_br1 (grad + div)";
    /// Whole setup phase: the step-0 state (the partition's block with
    /// its `gs_setup` child region, the initial profile, the setup `dt`,
    /// the seeded particles), then the gs autotune, which runs only when
    /// no `--method` is given.
    pub const SETUP: &str = "setup (gs_setup + autotune)";
    /// The whole timestep loop.
    pub const LOOP: &str = "timestep_loop";
}

/// Final state of one rank's fields, for validation against the serial
/// reference solver.
#[derive(Debug, Clone)]
pub struct SolutionDump {
    /// Global element id of each local element, in local order.
    pub global_elem_ids: Vec<usize>,
    /// Final per-field data, each in `Field` layout.
    pub fields: Vec<Vec<f64>>,
    /// This rank's final tracers as flat `[id, x, y, z]` records (empty
    /// without particles).
    pub particles: Vec<f64>,
    /// Simulated time reached.
    pub time: f64,
    /// The timestep at the end of the run (under Euler, the last one
    /// the wave-speed reduction set).
    pub dt: f64,
}

struct RankOutput {
    profiler: Profiler,
    autotune: Option<AutotuneReport>,
    chosen: GsMethod,
    checksum: f64,
    /// Global ids of the elements this rank finished owning, with their
    /// per-element state hashes — merged host-side in ascending-gid
    /// order so the run fingerprint is independent of the partition.
    elem_gids: Vec<u64>,
    elem_hashes: Vec<u64>,
    lb: Option<LbSummary>,
    wall_s: f64,
    solution: Option<SolutionDump>,
}

/// Per-rank invariants of a run: everything the step reads that no
/// migration or rollback changes.
struct Env<'a> {
    cfg: &'a Config,
    /// The physics `cfg` selects.
    physics: Physics,
    mesh_cfg: &'a MeshConfig,
    basis: Basis,
    /// Unit-cube elements.
    geom: ElementGeom,
    /// Dealiasing operators `(m, up, down)`: interpolation to the
    /// m-point fine mesh and back (paper §V: "an element is first mapped
    /// to a finer mesh and later mapped back").
    dealias: Option<(usize, Vec<f64>, Vec<f64>)>,
}

impl<'a> Env<'a> {
    fn new(cfg: &'a Config, mesh_cfg: &'a MeshConfig, basis: Basis) -> Self {
        Env {
            dealias: cfg
                .dealias_m
                .map(|m| (m, basis.dealias_to(m), basis.dealias_from(m))),
            physics: Physics::of(cfg),
            cfg,
            mesh_cfg,
            basis,
            geom: ElementGeom::cube(1.0),
        }
    }
}

fn rank_main(rank: &mut Rank, cfg: &Config, mesh_cfg: &MeshConfig, collect: bool) -> RankOutput {
    let start = Instant::now();
    let mut prof = Profiler::new();

    // A restart checkpoint loads first: with the load balancer on it
    // records the partition its fields were captured under, and the
    // collective gather-scatter setup must run on that partition. A fresh
    // balanced run starts on the balancer's decision over the seeded
    // cloud; the setup reading counts toward the peak imbalance.
    let restart = cfg.restart_from.as_ref().map(|dir| {
        load_checkpoint(dir, rank.rank())
            .unwrap_or_else(|e| panic!("rank {}: restart: {e}", rank.rank()))
    });
    let mut lb = LbSummary::default();
    let part = match &restart {
        Some(c) => checkpoint_scalars(&Physics::of(cfg), c, mesh_cfg, rank.size())
            .0
            .unwrap_or_else(|| ElemPartition::initial(mesh_cfg)),
        None if cfg.lb_every > 0 => {
            let (part, imbalance) = setup_partition(cfg, mesh_cfg);
            lb.peak_imbalance = imbalance;
            part
        }
        None => ElemPartition::initial(mesh_cfg),
    };

    // ---- setup: the step-0 state (gs discovery included), gs autotune
    prof.enter(regions::SETUP);
    let env = Env::new(cfg, mesh_cfg, Basis::new(cfg.n));
    let mut st = State::initial(&env, rank, &mut prof, part);
    let (chosen, tune_report) = match cfg.method {
        Some(m) => (m, None),
        None => {
            let rep = autotune(rank, &st.blk.handle, cfg.autotune);
            (rep.chosen, Some(rep))
        }
    };
    prof.exit();
    if let Some(ck) = &restart {
        st.restore(&env, rank, &mut prof, ck);
    }

    // ---- timestep loop --------------------------------------------------
    let mut rz = Resilience::new(cfg.checkpoint_every as u64, cfg.checkpoint_dir.clone());
    let steps = cfg.steps as u64;
    prof.enter(regions::LOOP);
    while st.step < steps {
        // Checkpoint at the top of the step, before any kill scheduled
        // here can fire, so a kill at step s rolls back to a capture
        // taken at (or before) s.
        if rz.checkpoint_due(st.step) {
            prof.enter(cmt_perf::regions::CHECKPOINT);
            rz.save_with(rank, |rank, buf| st.encode_checkpoint(&env, rank, buf));
            prof.exit();
        }
        // Scheduled rank kills: SPMD-known, so every rank detects them
        // without communication and runs the coordinated rollback.
        let killed = rz.killed_at(rank, st.step);
        if !killed.is_empty() {
            prof.enter(cmt_perf::regions::RECOVERY);
            let back = rz.recover(rank, &killed);
            st.restore(&env, rank, &mut prof, &back);
            prof.exit();
            continue;
        }

        rk_step(&env, chosen, rank, &mut prof, &mut st.blk, st.dt);
        st.time += st.dt;
        lb.particles_moved += st.particle_phase(&env, rank, &mut prof);
        if (st.step + 1) % cfg.cfl_interval as u64 == 0 {
            prof.enter(regions::CFL);
            env.physics.cfl_reduce(&env, rank, &st.blk.u, &mut st.dt);
            prof.exit();
        }
        st.step += 1;

        // Load balancer, between steps; skipped after the last one (no
        // work left to balance).
        if cfg.lb_every > 0 && st.step % cfg.lb_every as u64 == 0 && st.step < steps {
            balance(&env, rank, &mut prof, &mut st, &mut lb);
        }
    }
    prof.exit();

    // Determinism checksum: global sum over all fields. (Unlike the
    // state hash this groups the sum by rank, so it is *not* bitwise
    // partition-independent — the LB identity tests compare hashes.)
    let local_sum: f64 = st.blk.u.iter().map(|f| f.sum()).sum();
    rank.set_context("checksum");
    let checksum = rank.allreduce_scalar(local_sum, ReduceOp::Sum);
    rank.set_context("main");
    let (elem_gids, elem_hashes) = st.hash_elements();

    // Finalize-time verification sweep (leaked messages), timed as its
    // own region so overhead comparisons can isolate the checker's cost.
    // `World::run` would run the sweep anyway; doing it here puts it on
    // this rank's profile.
    if rank.verifying() {
        prof.enter(cmt_perf::regions::VERIFY);
        rank.verify_finalize();
        prof.exit();
    }

    RankOutput {
        profiler: prof,
        autotune: tune_report,
        chosen,
        checksum,
        elem_gids,
        elem_hashes,
        lb: (cfg.lb_every > 0).then_some(lb),
        wall_s: start.elapsed().as_secs_f64(),
        solution: collect.then(|| SolutionDump {
            global_elem_ids: st.blk.owned.clone(),
            fields: st.blk.u.iter().map(|f| f.as_slice().to_vec()).collect(),
            particles: {
                let mut rec = Vec::new();
                st.write_particle_records(&mut rec);
                rec
            },
            time: st.time,
            dt: st.dt,
        }),
    }
}

fn run_inner(cfg: &Config, collect: bool) -> (RunReport, Vec<SolutionDump>) {
    cfg.validate().expect("invalid CMT-bone configuration");
    let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
    let mut world = World::new();
    if let Some(plan) = &cfg.fault_plan {
        world = world.with_fault_plan(plan.clone());
    }
    let verifier = cfg.verify.then(|| Arc::new(Verifier::new()));
    if let Some(v) = &verifier {
        world = world.with_verifier(v.clone());
    }
    world = world.with_transport(cfg.transport.clone());
    // run_dist: inproc worlds run rank threads exactly as before; socket
    // worlds spawn one child process per rank (or run this process's
    // single rank and exit, when the launcher spawned us).
    let result = world.run_dist(cfg.ranks, |rank| rank_main(rank, cfg, &mesh_cfg, collect));

    let mut merged = Profiler::new();
    let mut autotune_rep = None;
    let mut chosen = None;
    let mut checksum = f64::NAN;
    let mut elem_pairs: Vec<(u64, u64)> = Vec::new();
    let mut lb_total: Option<LbSummary> = None;
    let mut rank_wall = Vec::with_capacity(cfg.ranks);
    let mut rank_compute = Vec::with_capacity(cfg.ranks);
    let mut dumps = Vec::new();
    // The physics regions the load balancer redistributes; their summed
    // self time per rank is the compute side of the critical path.
    const COMPUTE_REGIONS: &[&str] = &[
        regions::DERIV,
        regions::FULL2FACE,
        regions::FLUX_LIFT,
        regions::RK,
        regions::DEALIAS,
        regions::VISCOUS,
        cmt_perf::regions::PARTICLE_ADVECT,
    ];
    for out in result.results {
        let rank_report = out.profiler.report();
        rank_compute.push(
            rank_report
                .flat
                .iter()
                .filter(|(name, _)| COMPUTE_REGIONS.contains(&name.as_str()))
                .map(|(_, s)| s.self_s())
                .sum::<f64>(),
        );
        merged.merge(&out.profiler);
        if out.autotune.is_some() && autotune_rep.is_none() {
            autotune_rep = out.autotune;
        }
        chosen.get_or_insert(out.chosen);
        checksum = out.checksum; // identical on every rank
        elem_pairs.extend(
            out.elem_gids
                .iter()
                .copied()
                .zip(out.elem_hashes.iter().copied()),
        );
        if let Some(l) = out.lb {
            let t = lb_total.get_or_insert_with(LbSummary::default);
            // rebalances and the peak are SPMD-identical across ranks;
            // the traffic counters are per-rank and sum
            t.rebalances = t.rebalances.max(l.rebalances);
            t.peak_imbalance = t.peak_imbalance.max(l.peak_imbalance);
            t.elems_moved += l.elems_moved;
            t.particles_moved += l.particles_moved;
        }
        rank_wall.push(out.wall_s);
        if let Some(d) = out.solution {
            dumps.push(d);
        }
    }
    // Combine the per-element hashes host-side in ascending global-id
    // order: the fingerprint is then independent of which rank owned
    // which element at the end of the run.
    elem_pairs.sort_unstable_by_key(|&(gid, _)| gid);
    let mut state_hash = hash::FNV_OFFSET;
    for (gid, h) in &elem_pairs {
        hash::fnv1a(&mut state_hash, &gid.to_le_bytes());
        hash::fnv1a(&mut state_hash, &h.to_le_bytes());
    }
    // The ISA only applies to the simd tier.
    let kernel_isa = if cfg.variant == cmt_core::KernelVariant::Simd {
        cmt_core::kernels::simd::active_isa().name()
    } else {
        "-"
    };
    let flops = modeled_flops(cfg, &mesh_cfg);
    let report = RunReport {
        mesh_summary: mesh_cfg.summary(),
        mesh: mesh_cfg,
        chosen_method: chosen.expect("at least one rank"),
        autotune: autotune_rep,
        kernel_variant: cfg.variant,
        kernel_isa,
        profile: merged.report(),
        comm: MpipReport::from_stats(&result.stats),
        rank_wall_s: rank_wall,
        rank_compute_s: rank_compute,
        checksum,
        state_hash,
        lb: lb_total,
        steps: cfg.steps,
        fields: cfg.fields,
        modeled_flops: flops,
        verify: verifier.map(|v| v.findings()),
    };
    (report, dumps)
}

/// Execute the mini-app and collect the full measurement set.
pub fn run(cfg: &Config) -> RunReport {
    run_inner(cfg, false).0
}

/// Execute the mini-app and additionally return every rank's final fields
/// (rank order), for validation against the serial reference solver.
pub fn run_collecting_solution(cfg: &Config) -> (RunReport, Vec<SolutionDump>) {
    run_inner(cfg, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pipeline;
    use cmt_core::KernelVariant;

    fn small_cfg() -> Config {
        Config {
            n: 5,
            elems_per_rank: 8,
            ranks: 4,
            steps: 4,
            fields: 2,
            cfl_interval: 2,
            ..Default::default()
        }
    }

    #[test]
    fn run_is_deterministic() {
        // Force the method: the autotuned choice is timing-dependent, but
        // a fixed method must yield a bitwise-identical checksum.
        let cfg = Config {
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert!(a.checksum.is_finite());
        assert_eq!(a.checksum, b.checksum, "checksum not deterministic");
        assert_eq!(a.chosen_method, GsMethod::PairwiseExchange);
    }

    /// The simd tier's end-to-end contract: runtime-dispatched
    /// lane-parallel kernels must not change a single bit relative to
    /// the scalar `opt` run — on both transports, under the dynamic
    /// checker, and through a kill + rollback recovery. Particles ride
    /// along (9 per element: two full lane groups and a ragged one), so
    /// the particle kernel is held to the same bits.
    #[test]
    fn simd_variant_is_bitwise_identical_to_opt() {
        let base = Config {
            method: Some(GsMethod::PairwiseExchange),
            dealias_m: Some(7),
            particles_per_elem: 9,
            ..small_cfg()
        };
        let opt = run(&base);
        let simd_cfg = Config {
            variant: KernelVariant::Simd,
            ..base.clone()
        };
        let simd = run(&simd_cfg);
        assert_eq!(opt.state_hash, simd.state_hash, "simd diverged from opt");
        assert_eq!(opt.checksum, simd.checksum);
        assert_eq!(simd.kernel_variant, KernelVariant::Simd);
        assert!(["avx2", "sse2", "scalar"].contains(&simd.kernel_isa));
        assert!(simd.render().contains(&format!(
            "kernel variant: simd (effective isa: {})",
            simd.kernel_isa
        )));

        // multi-process socket backend (thread mode): same bits
        let socket = run(&Config {
            transport: simmpi::TransportKind::Socket(simmpi::SocketConfig {
                addr: None,
                threads: true,
            }),
            ..simd_cfg.clone()
        });
        assert_eq!(opt.state_hash, socket.state_hash, "socket simd diverged");
        assert_eq!(socket.kernel_isa, simd.kernel_isa);

        // verified run stays clean and identical
        let verified = run(&Config {
            verify: true,
            ..simd_cfg.clone()
        });
        assert_eq!(opt.state_hash, verified.state_hash);
        assert!(verified.verify.as_ref().is_some_and(|f| f.is_empty()));

        // kill + rollback recovery lands on the same bits
        let ckpt = Config {
            steps: 8,
            checkpoint_every: 2,
            ..simd_cfg
        };
        let clean = run(&ckpt);
        let recovered = run(&Config {
            fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=2,step=5").unwrap()),
            ..ckpt
        });
        assert_eq!(
            clean.state_hash, recovered.state_hash,
            "simd recovery diverged"
        );
    }

    #[test]
    fn forced_methods_agree_numerically() {
        let mut cfg = small_cfg();
        let mut sums = Vec::new();
        for m in GsMethod::ALL {
            cfg.method = Some(m);
            sums.push(run(&cfg).checksum);
        }
        for s in &sums[1..] {
            assert!((s - sums[0]).abs() < 1e-9 * (1.0 + sums[0].abs()));
        }
    }

    #[test]
    fn profile_contains_fig4_regions_and_deriv_dominates() {
        let cfg = Config {
            steps: 6,
            ..small_cfg()
        };
        let rep = run(&cfg);
        for name in [
            regions::DERIV,
            regions::FULL2FACE,
            regions::GS_OP,
            regions::RK,
        ] {
            assert!(
                rep.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        // Fig. 4's headline: the derivative kernel is the dominant
        // compute region (compare against other compute, not against the
        // thread-contended exchange).
        let deriv = rep.profile.share(regions::DERIV);
        assert!(deriv > rep.profile.share(regions::FULL2FACE));
        assert!(deriv > rep.profile.share(regions::RK));
    }

    #[test]
    fn dealias_roundtrip_changes_nothing_but_adds_the_workload() {
        let base = Config {
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let plain = run(&base);
        let dealiased = run(&Config {
            dealias_m: Some(base.n + 3),
            ..base.clone()
        });
        // identity on the polynomial data: same physics to roundoff
        assert!(
            (plain.checksum - dealiased.checksum).abs() < 1e-9 * (1.0 + plain.checksum.abs()),
            "{} vs {}",
            plain.checksum,
            dealiased.checksum
        );
        // but the dealias region exists and did work
        assert!(dealiased.profile.share(regions::DEALIAS) > 0.0);
        assert!(plain.profile.share(regions::DEALIAS) == 0.0);
    }

    #[test]
    fn dealias_mesh_must_be_at_least_n() {
        let cfg = Config {
            dealias_m: Some(3),
            n: 5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn viscosity_adds_regions_and_shrinks_dt() {
        let base = Config {
            n: 6,
            elems_per_rank: 8,
            ranks: 2,
            steps: 2,
            fields: 1,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let (_, inviscid) = run_collecting_solution(&base);
        let (rep, viscous) = run_collecting_solution(&Config {
            viscosity: Some(0.5),
            ..base.clone()
        });
        assert!(viscous[0].dt < inviscid[0].dt);
        assert!(rep.profile.share(regions::VISCOUS) > 0.0);
        // viscous trace exchanges recorded under their own context
        assert!(rep
            .comm
            .sites
            .iter()
            .any(|s| s.site.context.contains("faces_visc")));
    }

    /// The overlapped schedule only reorders *independent* work (volume
    /// kernels of other fields run between start and finish), and `finish`
    /// folds neighbor contributions in the same fixed order as the
    /// blocking path — so the inviscid solve must be bitwise identical.
    #[test]
    fn overlapped_pipeline_is_bitwise_identical_to_blocking_inviscid() {
        let base = Config {
            n: 5,
            elems_per_rank: 8,
            ranks: 4,
            steps: 3,
            fields: 3,
            dealias_m: Some(8),
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let (_, blocking) = run_collecting_solution(&Config {
            pipeline: Pipeline::Blocking,
            ..base.clone()
        });
        let (_, overlapped) = run_collecting_solution(&Config {
            pipeline: Pipeline::Overlapped,
            ..base.clone()
        });
        assert_eq!(blocking.len(), overlapped.len());
        for (a, b) in blocking.iter().zip(&overlapped) {
            assert_eq!(a.global_elem_ids, b.global_elem_ids);
            for (fa, fb) in a.fields.iter().zip(&b.fields) {
                assert_eq!(fa, fb, "overlapped inviscid must match blocking bitwise");
            }
        }
    }

    /// Both viscous schedules add the three axis divergences before the
    /// three surface corrections, so they agree bit for bit.
    #[test]
    fn overlapped_viscous_is_bitwise_identical_to_blocking() {
        let base = Config {
            n: 5,
            elems_per_rank: 4,
            ranks: 4,
            steps: 3,
            fields: 2,
            viscosity: Some(0.02),
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let a = run(&Config {
            pipeline: Pipeline::Blocking,
            ..base.clone()
        })
        .state_hash;
        let b = run(&Config {
            pipeline: Pipeline::Overlapped,
            ..base.clone()
        })
        .state_hash;
        assert_eq!(a, b, "overlapped viscous must match blocking bitwise");
    }

    /// One batched exchange carries all fields: the overlapped schedule
    /// must send `fields`x fewer face messages than the blocking one.
    #[test]
    fn overlapped_pipeline_batches_field_exchanges() {
        let base = Config {
            n: 5,
            elems_per_rank: 8,
            ranks: 4,
            steps: 2,
            fields: 5,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let face_isends = |rep: &RunReport| -> u64 {
            rep.comm
                .sites
                .iter()
                .filter(|s| {
                    s.site.op == simmpi::MpiOp::Isend && s.site.context == "faces/gs:pairwise"
                })
                .map(|s| s.calls)
                .sum()
        };
        let blocking = run(&Config {
            pipeline: Pipeline::Blocking,
            ..base.clone()
        });
        let overlapped = run(&Config {
            pipeline: Pipeline::Overlapped,
            ..base.clone()
        });
        let (nb, no) = (face_isends(&blocking), face_isends(&overlapped));
        assert!(no > 0, "overlapped run sent no face messages");
        assert_eq!(
            nb,
            base.fields as u64 * no,
            "blocking sent {nb} face messages, overlapped {no}; expected a {}x reduction",
            base.fields
        );
    }

    #[test]
    fn overlapped_profile_splits_gs_into_start_and_finish() {
        let rep = run(&Config {
            steps: 4,
            ..small_cfg()
        });
        for name in [regions::GS_OP, regions::GS_START, regions::GS_FINISH] {
            assert!(
                rep.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        // start/finish nest under the gs_op_ parent row
        for child in [regions::GS_START, regions::GS_FINISH] {
            assert!(
                rep.profile
                    .edges
                    .iter()
                    .any(|(p, c, _, _)| p == regions::GS_OP && c == child),
                "missing call-graph edge {} -> {child}",
                regions::GS_OP
            );
        }
        // the blocking baseline keeps the undivided gs_op_ row
        let blocking = run(&Config {
            steps: 2,
            pipeline: Pipeline::Blocking,
            ..small_cfg()
        });
        assert!(!blocking
            .profile
            .flat
            .iter()
            .any(|(n, _)| n == regions::GS_START));
    }

    #[test]
    fn comm_stats_include_face_exchange() {
        let rep = run(&Config {
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        });
        // pairwise exchange under the "faces" context shows Isend/Wait
        let found =
            rep.comm.sites.iter().any(|s| {
                s.site.op == simmpi::MpiOp::Wait && s.site.context.contains("gs:pairwise")
            });
        assert!(found, "missing MPI_Wait at gs:pairwise site");
        let cfl = rep
            .comm
            .sites
            .iter()
            .any(|s| s.site.op == simmpi::MpiOp::Allreduce && s.site.context == "cfl");
        assert!(cfl, "missing cfl allreduce site");
    }

    #[test]
    #[should_panic(expected = "invalid CMT-bone configuration")]
    fn invalid_config_rejected() {
        let _ = run(&Config {
            n: 1,
            ..Default::default()
        });
    }

    #[test]
    fn injected_kill_recovers_to_identical_state() {
        let base = Config {
            steps: 8,
            checkpoint_every: 2,
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let clean = run(&base);
        let faulty = run(&Config {
            fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=2,step=5").unwrap()),
            ..base.clone()
        });
        // coordinated rollback + deterministic solver: the interrupted run
        // must finish bitwise identical to the uninterrupted one
        assert_eq!(clean.checksum, faulty.checksum);
        assert_eq!(
            clean.state_hash, faulty.state_hash,
            "recovered run diverged from the uninterrupted run"
        );
        // recovery shows up as its own region in the Fig. 4 profile...
        for name in [cmt_perf::regions::CHECKPOINT, cmt_perf::regions::RECOVERY] {
            assert!(
                faulty.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        assert!(!clean
            .profile
            .flat
            .iter()
            .any(|(n, _)| n == cmt_perf::regions::RECOVERY));
        // ...and its traffic is a distinct context in the mpiP report
        for ctx in ["checkpoint", "recovery"] {
            assert!(
                faulty.comm.sites.iter().any(|s| s.site.context == ctx),
                "missing '{ctx}' comm context"
            );
        }
    }

    #[test]
    fn message_faults_are_reported_and_harmless() {
        let base = Config {
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let clean = run(&base);
        let faulty = run(&Config {
            fault_plan: Some(simmpi::FaultPlan::parse("delay:prob=0.3,us=50;seed=11").unwrap()),
            ..base.clone()
        });
        // delays never change what arrives
        assert_eq!(clean.state_hash, faulty.state_hash);
        assert_eq!(clean.checksum, faulty.checksum);
        // injected events are distinct entries in the mpiP-style report
        let injected: u64 = faulty
            .comm
            .sites
            .iter()
            .filter(|s| s.site.op.is_fault())
            .map(|s| s.calls)
            .sum();
        assert!(injected > 0, "fault plan injected nothing");
        assert!(!clean.comm.sites.iter().any(|s| s.site.op.is_fault()));
    }

    #[test]
    #[should_panic(expected = "checkpointing is off")]
    fn kills_without_checkpointing_rejected() {
        let _ = run(&Config {
            fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=1,step=2").unwrap()),
            ..small_cfg()
        });
    }

    /// A clustered-particle config that leaves most particles on a few
    /// ranks: the canonical load-balancer workload.
    fn lb_cfg() -> Config {
        Config {
            steps: 8,
            particles_per_elem: 6,
            particle_cluster: Some(0.25),
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        }
    }

    /// A persistent straggler on rank 1: an imbalance the setup decision
    /// cannot see (it reads the seeded cloud only), so the in-run monitor
    /// is what fires and elements migrate. Delays never change the physics.
    const STRAGGLER: &str = "delay:prob=1.0,us=500,rank=1;seed=9";

    /// [`lb_cfg`] with the balancer on at an aggressive threshold, under
    /// `plan` (the straggler, optionally with more clauses).
    fn lb_on(plan: &str) -> Config {
        Config {
            lb_every: 2,
            lb_threshold: 1.05,
            fault_plan: Some(simmpi::FaultPlan::parse(plan).unwrap()),
            ..lb_cfg()
        }
    }

    /// The balancer's first decision is taken at setup on the seeded
    /// counts: a clustered run starts on the balanced partition, so no
    /// element migrates, the setup reading is the peak imbalance, and the
    /// physics is the static run's.
    #[test]
    fn clustered_run_starts_balanced() {
        let off = run(&lb_cfg());
        let on = run(&Config {
            lb_every: 2,
            lb_threshold: 1.05,
            ..lb_cfg()
        });
        let lb = on.lb.expect("lb summary present when enabled");
        assert_eq!(lb.rebalances, 0, "the setup partition was not kept: {lb:?}");
        assert_eq!(lb.elems_moved, 0);
        assert!(
            lb.peak_imbalance > 1.05,
            "the setup reading of the clustered cloud is missing: {lb:?}"
        );
        assert!(!on
            .comm
            .sites
            .iter()
            .any(|s| s.site.op == simmpi::MpiOp::LbMigrate && s.site.context == "lb"));
        assert_eq!(
            off.state_hash, on.state_hash,
            "the setup partition changed the physics"
        );
    }

    /// A restart resumes on the partition its checkpoint recorded — here
    /// the setup decision's — and lands on the uninterrupted run's bits.
    #[test]
    fn restart_resumes_on_the_setup_partition() {
        let dir = std::env::temp_dir().join(format!("cmt_lb_setup_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = Config {
            lb_every: 2,
            lb_threshold: 1.05,
            checkpoint_every: 4,
            ..lb_cfg()
        };
        let full = run(&Config {
            checkpoint_dir: Some(dir.clone()),
            ..base.clone()
        });
        assert_eq!(full.lb.expect("lb summary").rebalances, 0);
        // steps 8, every 4: the last checkpoint on disk is step 4's
        let resumed = run(&Config {
            restart_from: Some(dir.clone()),
            ..base.clone()
        });
        assert_eq!(
            full.state_hash, resumed.state_hash,
            "restart from the step-4 checkpoint diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The load balancer's first law: migrating elements must not change
    /// the physics. The per-element state hash (fields + resident
    /// particles, merged in global-id order) must be bitwise identical
    /// with the balancer off and on — including the particle cloud.
    #[test]
    fn rebalanced_run_is_bitwise_identical_to_static_run() {
        let off = run(&lb_cfg());
        let on = run(&lb_on(STRAGGLER));
        let lb = on.lb.expect("lb summary present when enabled");
        assert!(
            lb.rebalances >= 1,
            "a straggler at threshold 1.05 should trigger: {lb:?}"
        );
        assert!(lb.peak_imbalance > 1.05);
        assert_eq!(
            off.state_hash, on.state_hash,
            "rebalancing changed the physics"
        );
        assert!(off.lb.is_none());
        // the balancer's traffic is first-class in the mpiP report:
        // monitor gathers and element migration under the "lb" context
        use simmpi::MpiOp;
        for (op, ctx) in [(MpiOp::LbGather, "lb"), (MpiOp::LbMigrate, "lb")] {
            assert!(
                on.comm
                    .sites
                    .iter()
                    .any(|s| s.site.op == op && s.site.context == ctx),
                "missing {op:?} under context {ctx:?}"
            );
        }
        // particle drift between ranks is badged too
        assert!(on
            .comm
            .sites
            .iter()
            .any(|s| s.site.op == MpiOp::LbMigrate && s.site.context == "particle_migration"));
        // and the monitor/migration phases appear in the Fig. 4 profile
        for name in [cmt_perf::regions::LB_MONITOR, cmt_perf::regions::LB_MIGRATE] {
            assert!(
                on.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        assert!(on.render().contains("load balancing:"));
    }

    /// Deterministic straggler: a seeded per-rank delay hazard feeds the
    /// monitor's injected-delay signal, the policy sheds elements from
    /// the slow rank, and the run still reproduces the clean run exactly
    /// (delays and migrations are both physics-neutral).
    #[test]
    fn straggler_delay_triggers_rebalance_and_preserves_state() {
        let base = Config {
            particles_per_elem: 4,
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let clean = run(&base);
        let balanced = run(&Config {
            lb_every: 2,
            lb_threshold: 1.1,
            fault_plan: Some(simmpi::FaultPlan::parse(STRAGGLER).unwrap()),
            ..base.clone()
        });
        let lb = balanced.lb.expect("lb summary");
        assert!(
            lb.rebalances >= 1,
            "persistent straggler should trigger a rebalance: {lb:?}"
        );
        assert!(lb.elems_moved > 0);
        assert_eq!(
            clean.state_hash, balanced.state_hash,
            "straggler-driven rebalance changed the physics"
        );
    }

    /// Converged steady state: once the policy has evened out the load,
    /// re-evaluations must not keep shuffling elements. With a steady
    /// imbalance source the rebalance count stays far below the number
    /// of monitor evaluations.
    #[test]
    fn rebalance_converges_instead_of_thrashing() {
        let rep = run(&Config {
            steps: 16,
            ..lb_on(STRAGGLER)
        });
        let lb = rep.lb.expect("lb summary");
        // 7 in-run evaluations (steps 2..14) of a steady straggler over
        // a cloud that barely moves: after the first correction the
        // greedy plan is stable
        assert!(
            (1..=3).contains(&lb.rebalances),
            "expected 1-3 rebalances over 16 steps, got {lb:?}"
        );
    }

    /// Load balancing composes with checkpoint/rollback: a kill after a
    /// rebalance rolls back to a checkpoint that may predate it; the
    /// restored owner vector rebuilds that partition and the run still
    /// finishes bitwise identical to the clean static run.
    #[test]
    fn lb_with_kill_and_rollback_stays_identical() {
        let off = run(&lb_cfg());
        let on = run(&Config {
            checkpoint_every: 2,
            ..lb_on(&format!("{STRAGGLER};kill:rank=2,step=5"))
        });
        assert!(on.lb.expect("lb summary").rebalances >= 1);
        assert_eq!(
            off.state_hash, on.state_hash,
            "kill+rollback under load balancing diverged"
        );
    }

    /// The message-level verifier stays clean across migrations: every
    /// shipped element and particle is received exactly once.
    #[test]
    fn lb_run_passes_verification() {
        let rep = run(&Config {
            verify: true,
            ..lb_on(STRAGGLER)
        });
        assert!(rep.lb.expect("lb summary").rebalances >= 1);
        let findings = rep.verify.expect("verification ran");
        assert!(
            findings.is_empty(),
            "verifier found protocol violations in a balanced run: {findings:?}"
        );
    }
}
