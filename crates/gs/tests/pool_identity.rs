//! The pooled zero-copy messaging path and the persistent exchange plans
//! are pure plumbing: every `gs_op` under a pooled world must be
//! *bitwise* identical to the fresh-allocation (pooling off) path, for
//! every method and combine op, including repeated steady-state calls
//! (which hit the recycled buffers) and split-phase overlap.

use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_mesh::{MeshConfig, RankMesh};
use simmpi::rng::SmallRng;
use simmpi::World;

const ALL_OPS: [GsOp; 4] = [GsOp::Add, GsOp::Mul, GsOp::Min, GsOp::Max];

/// Run `rounds` consecutive gs_ops per (method, op) on each rank and
/// return every round's result, under one world configuration.
fn run_rounds(
    pooling: bool,
    p: usize,
    ids: &[Vec<u64>],
    vals: &[Vec<f64>],
    method: GsMethod,
    op: GsOp,
    rounds: usize,
) -> Vec<Vec<Vec<f64>>> {
    let ids = ids.to_vec();
    let vals = vals.to_vec();
    let res = World::new().with_pooling(pooling).run(p, move |rank| {
        let me = rank.rank();
        let handle = GsHandle::setup(rank, &ids[me]);
        (0..rounds)
            .map(|round| {
                // vary the data per round so recycled buffers that leak
                // stale contents would show up
                let mut v: Vec<f64> = vals[me].iter().map(|x| x + round as f64).collect();
                handle.gs_op(rank, &mut v, op, method);
                v
            })
            .collect::<Vec<_>>()
    });
    res.results
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn pooled_gs_op_bitwise_matches_no_pool_all_methods_and_ops() {
    let p = 4;
    let mut rng = SmallRng::seed_from_u64(0x9001_0001);
    let universe = 23;
    let ids: Vec<Vec<u64>> = (0..p)
        .map(|_| {
            let len = rng.range_usize(2, 29);
            (0..len).map(|_| rng.range_u64(0, universe)).collect()
        })
        .collect();
    let vals: Vec<Vec<f64>> = ids
        .iter()
        .map(|v| v.iter().map(|_| rng.range_f64(0.25, 4.0)).collect())
        .collect();
    for method in GsMethod::ALL {
        for op in ALL_OPS {
            let fresh = run_rounds(false, p, &ids, &vals, method, op, 4);
            let pooled = run_rounds(true, p, &ids, &vals, method, op, 4);
            assert_eq!(
                fresh, pooled,
                "{method:?} {op:?}: pooled result diverged from fresh-alloc"
            );
        }
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn pooled_split_phase_bitwise_matches_no_pool_on_mesh_ids() {
    let p = 4;
    let cfg = MeshConfig::for_ranks(p, 8, 4, true);
    let run = |pooling: bool| {
        let cfg2 = cfg.clone();
        World::new()
            .with_pooling(pooling)
            .run(p, move |rank| {
                let mesh = RankMesh::new(cfg2.clone(), rank.rank());
                let ids = mesh.face_exchange_gids();
                let handle = GsHandle::setup(rank, &ids);
                let mk = |salt: usize| -> Vec<f64> {
                    ids.iter()
                        .enumerate()
                        .map(|(i, &g)| ((g as usize * 7 + i + salt) % 13) as f64 - 6.0)
                        .collect()
                };
                let mut out = Vec::new();
                for method in GsMethod::ALL {
                    // 3 steady-state repeats of a 2-field split-phase op
                    for round in 0..3 {
                        let mut a = mk(round);
                        let mut b = mk(round + 7);
                        let pending = handle.gs_op_start(rank, &[&a, &b], GsOp::Add, method);
                        let burn: f64 = a.iter().sum(); // overlap window
                        handle.gs_op_finish(rank, pending, &mut [&mut a, &mut b]);
                        assert!(burn.is_finite());
                        out.push(a);
                        out.push(b);
                    }
                }
                out
            })
            .results
    };
    assert_eq!(
        run(false),
        run(true),
        "pooled split-phase diverged from fresh-alloc"
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn pool_recycles_on_the_steady_state_path() {
    // White-box check on the mechanism itself: after warm-up, repeated
    // pairwise exchanges take every payload buffer from the pool (hits
    // grow, misses freeze).
    let res = World::new().run(4, |rank| {
        let me = rank.rank() as u64;
        let ids = vec![me, (me + 1) % 4, 100 + me];
        let handle = GsHandle::setup(rank, &ids);
        let mut v = vec![1.0, 2.0, 3.0];
        for _ in 0..3 {
            handle.gs_op(rank, &mut v, GsOp::Add, GsMethod::PairwiseExchange);
        }
        let (_, misses_warm) = rank.pool().counters();
        for _ in 0..10 {
            handle.gs_op(rank, &mut v, GsOp::Add, GsMethod::PairwiseExchange);
        }
        let (hits, misses) = rank.pool().counters();
        (hits, misses, misses_warm)
    });
    for (r, &(hits, misses, misses_warm)) in res.results.iter().enumerate() {
        assert_eq!(
            misses, misses_warm,
            "rank {r}: steady-state exchanges still missed the pool"
        );
        assert!(hits > 0, "rank {r}: pool never hit");
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn disabled_pool_world_takes_fresh_buffers() {
    let res = World::new().with_pooling(false).run(2, |rank| {
        let ids = vec![7u64, rank.rank() as u64];
        let handle = GsHandle::setup(rank, &ids);
        let mut v = vec![1.0, 2.0];
        for _ in 0..5 {
            handle.gs_op(rank, &mut v, GsOp::Add, GsMethod::PairwiseExchange);
        }
        rank.pool().counters()
    });
    for (r, &(hits, misses)) in res.results.iter().enumerate() {
        assert_eq!(hits, 0, "rank {r}: disabled pool produced hits");
        assert!(misses > 0, "rank {r}: no takes recorded");
    }
}
