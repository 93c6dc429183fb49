//! The tentpole assertion: with pooling on, a steady-state timestep
//! performs ZERO heap allocations inside the gather–scatter regions of
//! both mini-apps — measured, not claimed.
//!
//! Requires the counting global allocator:
//! `cargo test -p cmt-bench --features count-alloc --test alloc_free`.
//!
//! Method: run short and long versions of the same configuration and
//! difference the per-region allocation counters, so setup, autotune,
//! first-touch pool warm-up, and teardown are excluded and only the
//! steady-state steps remain.
#![cfg(feature = "count-alloc")]

use cmt_bone::{Config, Pipeline};
use cmt_gs::GsMethod;

/// Self-allocation and self-byte totals over regions whose name starts
/// with `prefix`, from a merged run profile.
fn region_allocs(profile: &cmt_perf::ProfileReport, prefix: &str) -> (u64, u64) {
    let mut allocs = 0;
    let mut bytes = 0;
    for (name, s) in &profile.flat {
        if name.starts_with(prefix) {
            allocs += s.self_allocs();
            bytes += s.self_alloc_bytes();
        }
    }
    (allocs, bytes)
}

fn bone_cfg(method: GsMethod, pipeline: Pipeline, pool: bool, steps: usize) -> Config {
    Config {
        ranks: 4,
        n: 6,
        elems_per_rank: 8,
        steps,
        fields: 3,
        method: Some(method),
        pipeline,
        pool,
        ..Default::default()
    }
}

/// Steady-state `(allocs, bytes)` per the 4 differential steps of the
/// CMT-bone gs regions.
fn bone_gs_delta(method: GsMethod, pipeline: Pipeline, pool: bool) -> (u64, u64) {
    let long = cmt_bone::run(&bone_cfg(method, pipeline, pool, 6));
    let short = cmt_bone::run(&bone_cfg(method, pipeline, pool, 2));
    let (a6, b6) = region_allocs(&long.profile, "gs_op");
    let (a2, b2) = region_allocs(&short.profile, "gs_op");
    (a6.saturating_sub(a2), b6.saturating_sub(b2))
}

#[test]
fn cmt_bone_gs_regions_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        for method in GsMethod::ALL {
            let (allocs, bytes) = bone_gs_delta(method, pipeline, true);
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "{method:?}/{}: {allocs} allocs / {bytes} bytes per 4 \
                 steady-state steps in gs_op* regions",
                pipeline.name()
            );
        }
    }
}

#[test]
fn cmt_bone_no_pool_baseline_does_allocate() {
    // The assertion above is only meaningful if the instrument can see
    // the allocations the pool removes.
    let (allocs, bytes) = bone_gs_delta(GsMethod::PairwiseExchange, Pipeline::Overlapped, false);
    assert!(
        allocs > 0 && bytes > 0,
        "fresh-alloc baseline shows no gs allocations ({allocs}/{bytes}) — \
         the counter or the differential is broken"
    );
}

/// Steady-state `(allocs, bytes)` per the 4 differential steps of the
/// two volume-kernel regions (derivatives, dealias), dealiasing on.
fn bone_volume_deltas(
    variant: cmt_core::KernelVariant,
    workers: usize,
) -> [(&'static str, u64, u64); 2] {
    let cfg = |steps: usize| Config {
        variant,
        workers,
        dealias_m: Some(8),
        ..bone_cfg(
            GsMethod::PairwiseExchange,
            Pipeline::Overlapped,
            true,
            steps,
        )
    };
    let long = cmt_bone::run(&cfg(6));
    let short = cmt_bone::run(&cfg(2));
    ["ax_cmt", "dealias"].map(|prefix| {
        let (a_l, b_l) = region_allocs(&long.profile, prefix);
        let (a_s, b_s) = region_allocs(&short.profile, prefix);
        (prefix, a_l.saturating_sub(a_s), b_l.saturating_sub(b_s))
    })
}

/// The volume-kernel regions (flux-divergence derivatives and the
/// dealias maps) stay at zero allocations per step on every path of the
/// chunked element loop: the default single inline chunk (`workers: 1`,
/// which once `vec!`-allocated its dealias scratch per call) and a
/// 4-worker pool sharing the loops. Worker-side allocations are charged
/// back to the region via `Profiler::charge_allocs`, so a regression on
/// either side of the pool shows up here. The simd tier is held to the
/// same zero: vector dispatch uses stack scratch only (the transposed-D
/// buffer lives on the stack, dealias reuses the caller's scratch).
#[test]
fn cmt_bone_volume_kernels_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    for variant in [
        cmt_core::KernelVariant::Optimized,
        cmt_core::KernelVariant::Simd,
    ] {
        for workers in [1, 4] {
            for (prefix, allocs, bytes) in bone_volume_deltas(variant, workers) {
                assert_eq!(
                    (allocs, bytes),
                    (0, 0),
                    "{prefix}* ({}, {workers} workers): {allocs} allocs / {bytes} bytes \
                     per 4 steady-state steps",
                    variant.name()
                );
            }
        }
    }
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
    let long = nekbone::run(&cfg(12));
    let short = nekbone::run(&cfg(4));
    let (a_l, b_l) = region_allocs(&long.profile, "dssum");
    let (a_s, b_s) = region_allocs(&short.profile, "dssum");
    let (allocs, bytes) = (a_l.saturating_sub(a_s), b_l.saturating_sub(b_s));
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "{allocs} allocs / {bytes} bytes per 8 steady-state CG iterations \
         in dssum* regions"
    );
}
