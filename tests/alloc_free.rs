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

use cmt_bone::{Config, Pipeline};
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_mesh::{MeshConfig, RankMesh};
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

/// The particle phase's advection allocates nothing per step: the lane
/// scratch and the cell-grid sort's buffers live in the `ParticleSet`
/// (the per-particle interpolation this replaced made six `Vec`s per
/// particle per step, the sort four per call). 5 residents per element
/// is a ragged lane group.
#[test]
fn cmt_bone_particle_advect_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let (long, short) = bone_profiles(|steps| Config {
        particles_per_elem: 5,
        ..bone_cfg(GsMethod::PairwiseExchange, Pipeline::Overlapped, steps)
    });
    assert!(
        long.flat.iter().any(|(name, _)| name == "particle_advect"),
        "the particle phase did not run"
    );
    assert_quiet("5 particles/elem", &long, &short, "particle_advect");
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
