//! The tentpole assertion: with pooling on, a steady-state timestep
//! performs ZERO heap allocations inside the gather–scatter regions of
//! both mini-apps — measured, not claimed.
//!
//! The counting global allocator comes from the root package's
//! `[dev-dependencies] cmt-perf` entry (feature `count-alloc`), so plain
//! `cargo test` runs these with the counter live; every test asserts
//! `cmt_perf::alloc::counting()` rather than pass on frozen zeros.
//!
//! Method: run short and long versions of the same configuration and
//! difference the per-region allocation counters, so setup, autotune,
//! first-touch pool warm-up, and teardown are excluded and only the
//! steady-state steps remain. A failing assertion prints every region's
//! delta, so the stray allocation is localised without a second run.
//!
//! One row bounds setup rather than the steady state: the bytes
//! `GsHandle::setup` allocates per local id.

use cmt_bone::{Config, Pipeline};
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_mesh::{MeshConfig, RankMesh};
use cmt_particles::ParticleSet;
use cmt_perf::ProfileReport;
use simmpi::World;

/// Steady-state `(allocs, bytes)` of each region: its self counters in
/// the `long` run minus those in the `short` one.
fn region_deltas<'a>(
    long: &'a ProfileReport,
    short: &'a ProfileReport,
) -> impl Iterator<Item = (&'a str, u64, u64)> {
    long.flat.iter().map(|(name, l)| {
        let (a_s, b_s) = short
            .flat
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0), |(_, s)| (s.self_allocs(), s.self_alloc_bytes()));
        (
            name.as_str(),
            l.self_allocs().saturating_sub(a_s),
            l.self_alloc_bytes().saturating_sub(b_s),
        )
    })
}

/// Steady-state `(allocs, bytes)` summed over the regions whose name
/// starts with `prefix`.
fn steady_delta(long: &ProfileReport, short: &ProfileReport, prefix: &str) -> (u64, u64) {
    region_deltas(long, short)
        .filter(|(name, ..)| name.starts_with(prefix))
        .fold((0, 0), |(a, b), (_, da, db)| (a + da, b + db))
}

/// Assert the `prefix*` regions are allocation-free at steady state; on
/// failure list every region that is not.
fn assert_quiet(what: &str, long: &ProfileReport, short: &ProfileReport, prefix: &str) {
    let (allocs, bytes) = steady_delta(long, short, prefix);
    if (allocs, bytes) != (0, 0) {
        let table: String = region_deltas(long, short)
            .filter(|&(_, da, _)| da > 0)
            .map(|(name, da, db)| format!("{da:>10} {db:>14}  {name}\n"))
            .collect();
        panic!(
            "{what}: {allocs} allocs / {bytes} bytes at steady state in {prefix}* regions; \
             per-region deltas (allocs, bytes):\n{table}"
        );
    }
}

fn bone_cfg(method: GsMethod, pipeline: Pipeline, steps: usize) -> Config {
    Config {
        ranks: 4,
        n: 6,
        elems_per_rank: 8,
        steps,
        fields: 3,
        method: Some(method),
        pipeline,
        ..Default::default()
    }
}

/// The 6-step and 2-step profiles whose difference is 4 steady-state
/// CMT-bone steps.
fn bone_profiles(cfg: impl Fn(usize) -> Config) -> (ProfileReport, ProfileReport) {
    (
        cmt_bone::run(&cfg(6)).profile,
        cmt_bone::run(&cfg(2)).profile,
    )
}

#[test]
fn cmt_bone_gs_regions_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        for method in GsMethod::ALL {
            let (long, short) = bone_profiles(|steps| bone_cfg(method, pipeline, steps));
            let what = format!("{method:?}/{}", pipeline.name());
            assert_quiet(&what, &long, &short, "gs_op");
        }
    }
}

#[test]
fn cmt_bone_no_pool_baseline_does_allocate() {
    // The assertion above is only meaningful if the instrument can see
    // the allocations the pool removes: CMT-bone's face exchange on the
    // mesh above, four steady-state rounds per rank after two warm-up
    // rounds, counted on the rank thread, with the world's buffer pool
    // off and on.
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = bone_cfg(GsMethod::PairwiseExchange, Pipeline::Blocking, 0);
    let mesh = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
    let steady = |pooling: bool| {
        let mesh = mesh.clone();
        World::new()
            .with_pooling(pooling)
            .run(cfg.ranks, move |rank| {
                let ids = RankMesh::new(mesh.clone(), rank.rank()).face_exchange_gids();
                let handle = GsHandle::setup(rank, &ids);
                let mut v = vec![1.0f64; ids.len()];
                let mut round = |rank: &mut simmpi::Rank| {
                    handle.gs_op(rank, &mut v, GsOp::Add, GsMethod::PairwiseExchange)
                };
                round(rank);
                round(rank);
                let (a0, b0) = cmt_perf::alloc::thread_counts();
                for _ in 0..4 {
                    round(rank);
                }
                let (a1, b1) = cmt_perf::alloc::thread_counts();
                (a1 - a0, b1 - b0)
            })
            .results
    };
    for (r, (allocs, bytes)) in steady(false).into_iter().enumerate() {
        assert!(
            allocs > 0 && bytes > 0,
            "rank {r}: fresh-alloc baseline shows no gs allocations ({allocs}/{bytes}) — \
             the counter or the differential is broken"
        );
    }
    for (r, counts) in steady(true).into_iter().enumerate() {
        assert_eq!(counts, (0, 0), "rank {r}: pooled exchange allocated");
    }
}

/// A user point-to-point send copies into a buffer from the sender's
/// pool, and `wait_recv_pooled` parks it in the receiver's: two ranks
/// trading 64-element `f64` messages with `isend` in both directions
/// allocate nothing once warm.
#[test]
fn simmpi_isend_exchange_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let res = World::new().run(2, |rank| {
        let peer = 1 - rank.rank();
        let data = vec![rank.rank() as f64; 64];
        let round = |rank: &mut simmpi::Rank| {
            rank.isend(peer, 5, &data);
            let req = rank.irecv(peer, 5);
            let got = rank.wait_recv_pooled::<f64>(req);
            assert_eq!(got[..], [peer as f64; 64]);
        };
        round(rank);
        round(rank);
        let (a0, b0) = cmt_perf::alloc::thread_counts();
        for _ in 0..8 {
            round(rank);
        }
        let (a1, b1) = cmt_perf::alloc::thread_counts();
        (a1 - a0, b1 - b0)
    });
    for (r, counts) in res.results.into_iter().enumerate() {
        assert_eq!(counts, (0, 0), "rank {r}: warm isend exchange allocated");
    }
}

/// The volume-kernel regions (flux-divergence derivatives and the
/// dealias maps) stay at zero allocations per step: the dealias scratch
/// is sized once per partition (it was once `vec!`-allocated per call).
/// The simd tier is held to the same zero: vector dispatch uses stack
/// scratch only (the transposed-D buffer lives on the stack, dealias
/// reuses the caller's scratch).
#[test]
fn cmt_bone_volume_kernels_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    for variant in [
        cmt_core::KernelVariant::Optimized,
        cmt_core::KernelVariant::Simd,
    ] {
        let (long, short) = bone_profiles(|steps| Config {
            variant,
            dealias_m: Some(8),
            ..bone_cfg(GsMethod::PairwiseExchange, Pipeline::Overlapped, steps)
        });
        for prefix in ["ax_cmt", "dealias"] {
            assert_quiet(variant.name(), &long, &short, prefix);
        }
    }
}

/// The particle phase allocates nothing per step: the lane scratch, the
/// cell-grid sort's buffers and the migration's per-owner buckets and
/// router lists live in the `ParticleSet` (the per-particle
/// interpolation this replaced made six `Vec`s per particle per step,
/// the sort four per call, the migration a bucket table per call). 5
/// residents per element is a ragged lane group.
#[test]
fn cmt_bone_particle_advect_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    for variant in [
        cmt_core::KernelVariant::Optimized,
        cmt_core::KernelVariant::Simd,
    ] {
        let (long, short) = bone_profiles(|steps| Config {
            particles_per_elem: 5,
            variant,
            ..bone_cfg(GsMethod::PairwiseExchange, Pipeline::Overlapped, steps)
        });
        assert!(
            long.flat.iter().any(|(name, _)| name == "particle_advect"),
            "the particle phase did not run"
        );
        let what = format!("5 particles/elem, {}", variant.name());
        assert_quiet(&what, &long, &short, "particle_advect");
        assert_quiet(&what, &long, &short, "particle_migrate");
    }
}

/// A warm `ParticleSet::migrate` allocates nothing even when particles
/// cross ranks every call: a shipped bucket is refilled with a payload
/// that arrived on the previous call. Four ranks in an x ring; before
/// each call the uniform cloud moves one element in +x, so every rank
/// ships its last element plane to its right neighbour and receives as
/// many from its left one. (A population or payload above every earlier
/// one still grows its buffer once; that is amortized, not per call.)
#[test]
fn particle_migrate_with_traffic_allocation_free_when_warm() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let mesh = MeshConfig {
        n: 4,
        proc_dims: [4, 1, 1],
        local_elems: [2, 2, 1],
        periodic: true,
    };
    let res = World::new().run(4, |rank| {
        let pmesh = RankMesh::new(mesh.clone(), rank.rank());
        let mut set = ParticleSet::new(pmesh, &cmt_core::Basis::new(mesh.n));
        set.seed_uniform(8);
        let mut moved = 0;
        let mut counts = (0, 0);
        for call in 0..12 {
            set.advect_analytic(1.0, |_| [1.0, 0.0, 0.0]);
            let (a0, b0) = cmt_perf::alloc::thread_counts();
            let stats = set.migrate(rank);
            let (a1, b1) = cmt_perf::alloc::thread_counts();
            assert_eq!((stats.sent, stats.received), (16, 16), "call {call}");
            if call >= 4 {
                counts = (counts.0 + a1 - a0, counts.1 + b1 - b0);
                moved += stats.sent;
            }
        }
        (counts, moved)
    });
    for (r, (counts, moved)) in res.results.into_iter().enumerate() {
        assert!(moved > 0);
        assert_eq!(
            counts,
            (0, 0),
            "rank {r}: warm migrate of {moved} particles allocated"
        );
    }
}

/// The load-balance monitor is the one steady-state region that does
/// allocate, by design. A step that evaluates the balancer and does not
/// rebalance costs exactly 7 allocations and 960 bytes per rank at this
/// shape (32 elements, 4 ranks): the owned-element particle counts,
/// `gather_costs`' dense `O(E + P)` staging vector, the allreduce's owned
/// result and the delay tail split off it, and `decide`'s three
/// per-element/per-rank cost tables. Pinned exactly, so any allocation
/// slipping in (or out) is a failure. (A rebalancing step migrates
/// elements; it is not steady state and stays unasserted.)
#[test]
fn cmt_bone_lb_monitor_allocations_per_quiet_step_are_bounded() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = |steps| Config {
        particles_per_elem: 5,
        lb_every: 1,
        lb_threshold: 1e9,
        ..bone_cfg(GsMethod::PairwiseExchange, Pipeline::Overlapped, steps)
    };
    let (long, short) = (cmt_bone::run(&cfg(6)), cmt_bone::run(&cfg(2)));
    assert_eq!(long.lb.expect("lb ran").rebalances, 0);
    let (allocs, bytes) =
        steady_delta(&long.profile, &short.profile, cmt_perf::regions::LB_MONITOR);
    // 4 steps on each of 4 ranks, merged into one profile
    let rank_steps = 16;
    assert_eq!(
        (allocs, bytes),
        (7 * rank_steps, 960 * rank_steps),
        "lb monitor: allocs / bytes over {rank_steps} quiet rank-steps \
         (expected 7 allocs and 960 bytes each)"
    );
}

#[test]
fn nekbone_dssum_regions_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = |iters: usize| nekbone::Config {
        ranks: 4,
        n: 6,
        elems_per_rank: 8,
        cg_iters: iters,
        tol: 0.0,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let long = nekbone::run(&cfg(12)).profile;
    let short = nekbone::run(&cfg(4)).profile;
    // the assembled apply: the exchange and the local `ax_e` kernel
    for prefix in ["dssum", "ax_e"] {
        assert_quiet("8 CG iterations", &long, &short, prefix);
    }
}

/// `GsHandle::setup`'s allocated bytes per local id, the most over the
/// two ranks, at the benchmark's two gather shapes: CMT-bone's face ids
/// (`surf_n5`: N=5, 782 elements per rank) and Nekbone's vertex-conforming
/// point ids (`cg_n10`: N=10, 100 elements per rank). Discovery's
/// transients are buffers sized from counts; a buffer grown by doubling
/// shows here as bytes allocated more than once.
fn gs_setup_bytes_per_id(n: usize, elems_per_rank: usize, face: bool) -> f64 {
    let mesh = MeshConfig::for_ranks(2, elems_per_rank, n, true);
    World::new()
        .run(2, move |rank| {
            let rm = RankMesh::new(mesh.clone(), rank.rank());
            let ids = if face {
                rm.face_exchange_gids()
            } else {
                rm.volume_point_gids()
            };
            let (_, b0) = cmt_perf::alloc::thread_counts();
            let handle = GsHandle::setup(rank, &ids);
            let (_, b1) = cmt_perf::alloc::thread_counts();
            drop(handle);
            (b1 - b0) as f64 / ids.len() as f64
        })
        .results
        .into_iter()
        .fold(0.0, f64::max)
}

/// The bounds sit just above today's figures (67.3 and 84.7 bytes per
/// id); before discovery sized its buffers and sorted once they read
/// 95.5 and 161.6.
#[test]
fn gs_setup_allocated_bytes_per_id_are_bounded() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let surf = gs_setup_bytes_per_id(5, 782, true);
    assert!(
        surf <= 72.0,
        "surf_n5 face ids: {surf:.1} bytes per id (was 95.5)"
    );
    let cg = gs_setup_bytes_per_id(10, 100, false);
    assert!(
        cg <= 90.0,
        "cg_n10 point ids: {cg:.1} bytes per id (was 161.6)"
    );
}

/// Bytes the setup region allocates per element at a two-rank cmt-bone
/// shape with zero steps: the block's fields, face traces and volume
/// scratch, and the face ids handed to `GsHandle::setup` (whose own
/// allocations land in its `gs_setup` child region, not counted here).
fn setup_bytes_per_elem(cfg: Config) -> f64 {
    let elems = cfg.ranks * cfg.elems_per_rank;
    let report = cmt_bone::run(&Config { steps: 0, ..cfg });
    let (_, setup) = report
        .profile
        .flat
        .iter()
        .find(|(name, _)| name.starts_with("setup ("))
        .expect("a setup region");
    setup.self_alloc_bytes() as f64 / elems as f64
}

/// The element pass's scratch holds one element block, not one value per
/// point of the partition, and no right-hand side the size of the
/// partition exists: at `vol_n10` (N = 10, 100 elements per rank,
/// 5 fields, M = 15) setup allocates 111.0 KB per element, where it
/// allocated 150.6 KB with a rank-sized right-hand side per field and
/// 184.4 KB when the fine dealias mesh and the derivative scratch were
/// sized by the element count too; at `surf_n5` (N = 5, 782 elements per
/// rank, no dealias) 17.3 KB, where it allocated 22.3 and 23.2 KB. The
/// bounds sit just above today's figures.
#[test]
fn block_bytes_per_element_are_bounded() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let shape = |n, elems_per_rank, dealias_m| Config {
        ranks: 2,
        n,
        elems_per_rank,
        fields: 5,
        dealias_m,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let vol = setup_bytes_per_elem(shape(10, 100, Some(15)));
    assert!(
        vol <= 111_500.0,
        "vol_n10: {vol:.0} bytes per element (was 150 627)"
    );
    let surf = setup_bytes_per_elem(shape(5, 782, None));
    assert!(
        surf <= 17_500.0,
        "surf_n5: {surf:.0} bytes per element (was 22 266)"
    );
}

/// A warm checkpoint save allocates nothing: the state is encoded
/// straight into the rank's own buffer, and the replica moves in chunks
/// copied into the held replica in place, each chunk's pooled buffer
/// handed back to its sender. Three saves against one (every 2 steps),
/// so the difference is the two saves after the first.
#[test]
fn cmt_bone_checkpoint_allocation_free_after_the_first_save() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = |steps| Config {
        checkpoint_every: 2,
        ..bone_cfg(GsMethod::PairwiseExchange, Pipeline::Overlapped, steps)
    };
    let (long, short) = (
        cmt_bone::run(&cfg(5)).profile,
        cmt_bone::run(&cfg(1)).profile,
    );
    assert!(
        long.flat
            .iter()
            .any(|(name, _)| name == cmt_perf::regions::CHECKPOINT),
        "no checkpoint was saved"
    );
    assert_quiet(
        "3 saves against 1",
        &long,
        &short,
        cmt_perf::regions::CHECKPOINT,
    );
}

/// Mirroring to a `--checkpoint-dir` keeps a warm save allocation-free:
/// the first save creates the directory and names the rank's file, and
/// later saves write the bytes to that file. Three saves against one,
/// as above.
#[test]
fn cmt_bone_checkpoint_to_disk_allocation_free_after_the_first_save() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let dir = std::env::temp_dir().join(format!("cmt_alloc_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = |steps| Config {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..bone_cfg(GsMethod::PairwiseExchange, Pipeline::Overlapped, steps)
    };
    let (long, short) = (
        cmt_bone::run(&cfg(5)).profile,
        cmt_bone::run(&cfg(1)).profile,
    );
    assert!(dir.join("ckpt_rank0.cmtr").is_file(), "no checkpoint file");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_quiet(
        "3 saves to disk against 1",
        &long,
        &short,
        cmt_perf::regions::CHECKPOINT,
    );
}

/// Nekbone's twin of
/// `cmt_bone_checkpoint_allocation_free_after_the_first_save`: a warm
/// save encodes `x`, `r` and `p` straight into the rank's own buffer
/// and moves the replica in
/// recycled chunks, so it allocates nothing, although the residual
/// history makes each save 16 bytes longer than the last (the buffers'
/// headroom takes that). Three saves against one (every 2 iterations).
#[test]
fn nekbone_checkpoint_allocation_free_after_the_first_save() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = |iters| nekbone::Config {
        ranks: 4,
        n: 6,
        elems_per_rank: 8,
        cg_iters: iters,
        tol: 0.0,
        checkpoint_every: 2,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let (long, short) = (nekbone::run(&cfg(5)).profile, nekbone::run(&cfg(1)).profile);
    assert!(
        long.flat
            .iter()
            .any(|(name, _)| name == cmt_perf::regions::CHECKPOINT),
        "no checkpoint was saved"
    );
    assert_quiet(
        "3 saves against 1",
        &long,
        &short,
        cmt_perf::regions::CHECKPOINT,
    );
}

/// A save holds two copies of a rank's checkpoint: the first save's
/// `checkpoint` region allocates at most twice the encoded size plus two
/// replica chunks per rank — this rank's bytes and its predecessor's
/// replica, each with its growth headroom, and the chunk buffer in
/// flight. Each rank's checkpoint here spans six chunks. Gathering the
/// state into a `Checkpoint` first and replicating a full pooled copy
/// allocated about four times the encoded size.
#[test]
fn cmt_bone_first_checkpoint_save_allocates_two_copies() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = Config {
        ranks: 2,
        n: 8,
        elems_per_rank: 16,
        fields: 5,
        steps: 1,
        checkpoint_every: 1,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let report = cmt_bone::run(&cfg);
    let (_, save) = report
        .profile
        .flat
        .iter()
        .find(|(name, _)| name == cmt_perf::regions::CHECKPOINT)
        .expect("a checkpoint was saved");
    let values = cfg.fields * cfg.elems_per_rank * cfg.n.pow(3);
    let encoded = cmt_resilience::Shape {
        scalars: 2,
        fields: cfg.fields,
        values,
    }
    .encoded_len();
    assert!(encoded > 5 * cmt_resilience::CHUNK, "{encoded} bytes");
    let per_rank = save.self_alloc_bytes() as f64 / cfg.ranks as f64;
    let bound = 2 * encoded + 2 * cmt_resilience::CHUNK;
    assert!(
        per_rank <= bound as f64,
        "first save: {per_rank:.0} bytes per rank, bound {bound} ({:.2}x the {encoded}-byte checkpoint)",
        per_rank / encoded as f64
    );
}

/// The `recovery` region's allocations, summed over ranks, after one
/// kill of a 4-rank run whose `encoded`-byte checkpoints span several
/// chunks: at most the killed rank's two refilled buffers — its own
/// checkpoint, re-fetched from its replica holder, and the replica it
/// holds again, each with its growth headroom — plus two replica chunks
/// per rank. A rollback decodes straight into the live state, so no
/// rank holds a decoded copy; decoding one allocated about one more
/// encoded checkpoint per rank.
fn assert_rollback_refills_only(what: &str, profile: &ProfileReport, encoded: usize) {
    let (_, recovery) = profile
        .flat
        .iter()
        .find(|(name, _)| name == cmt_perf::regions::RECOVERY)
        .expect("a rollback ran");
    assert!(
        encoded > 3 * cmt_resilience::CHUNK,
        "{what}: {encoded} bytes"
    );
    let bytes = recovery.self_alloc_bytes();
    let bound = 2 * (encoded + encoded / 64) + 4 * 2 * cmt_resilience::CHUNK;
    assert!(
        bytes <= bound as u64,
        "{what}: rollback allocated {bytes} bytes over 4 ranks, bound {bound} \
         ({:.2}x the {encoded}-byte checkpoint)",
        bytes as f64 / encoded as f64
    );
}

#[test]
fn cmt_bone_rollback_allocates_only_the_killed_ranks_buffers() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = Config {
        ranks: 4,
        n: 8,
        elems_per_rank: 16,
        fields: 5,
        steps: 4,
        checkpoint_every: 2,
        fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=1,step=3").unwrap()),
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let encoded = cmt_resilience::Shape {
        scalars: 2,
        fields: cfg.fields,
        values: cfg.fields * cfg.elems_per_rank * cfg.n.pow(3),
    }
    .encoded_len();
    assert_rollback_refills_only("cmt-bone", &cmt_bone::run(&cfg).profile, encoded);
}

#[test]
fn nekbone_rollback_allocates_only_the_killed_ranks_buffers() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = nekbone::Config {
        ranks: 4,
        n: 8,
        elems_per_rank: 16,
        cg_iters: 4,
        tol: 0.0,
        checkpoint_every: 2,
        fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=1,step=3").unwrap()),
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    // the save at iteration 2 holds rz and three residual norms
    let encoded = cmt_resilience::Shape {
        scalars: 6,
        fields: 3,
        values: 3 * cfg.elems_per_rank * cfg.n.pow(3),
    }
    .encoded_len();
    assert_rollback_refills_only("nekbone", &nekbone::run(&cfg).profile, encoded);
}
