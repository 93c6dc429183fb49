//! Correctness of the gather–scatter library against a dense serial
//! reference, for all three exchange methods, on structured meshes and on
//! randomized id assignments.

use std::collections::HashMap;

use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_mesh::{MeshConfig, RankMesh};
use simmpi::rng::SmallRng;
use simmpi::World;

/// Serial reference: combine every occurrence of each gid across all
/// ranks, write back to every slot.
fn dense_reference(all_ids: &[Vec<u64>], all_vals: &[Vec<f64>], op: GsOp) -> Vec<Vec<f64>> {
    let mut combined: HashMap<u64, f64> = HashMap::new();
    for (ids, vals) in all_ids.iter().zip(all_vals) {
        for (&gid, &v) in ids.iter().zip(vals) {
            combined
                .entry(gid)
                .and_modify(|acc| *acc = op.combine(*acc, v))
                .or_insert(v);
        }
    }
    all_ids
        .iter()
        .map(|ids| ids.iter().map(|gid| combined[gid]).collect())
        .collect()
}

fn run_and_compare(p: usize, ids_of: impl Fn(usize) -> Vec<u64> + Send + Sync, op: GsOp) {
    let all_ids: Vec<Vec<u64>> = (0..p).map(&ids_of).collect();
    // deterministic values varying by rank and slot
    let all_vals: Vec<Vec<f64>> = all_ids
        .iter()
        .enumerate()
        .map(|(r, ids)| {
            ids.iter()
                .enumerate()
                .map(|(i, _)| 1.0 + ((r * 37 + i * 13) % 10) as f64 * 0.25)
                .collect()
        })
        .collect();
    let expect = dense_reference(&all_ids, &all_vals, op);

    for method in GsMethod::ALL {
        let all_vals = all_vals.clone();
        let all_ids = all_ids.clone();
        let res = World::new().run(p, move |rank| {
            let ids = all_ids[rank.rank()].clone();
            let mut vals = all_vals[rank.rank()].clone();
            let handle = GsHandle::setup(rank, &ids);
            handle.gs_op(rank, &mut vals, op, method);
            vals
        });
        for (r, got) in res.results.iter().enumerate() {
            for (i, (g, e)) in got.iter().zip(&expect[r]).enumerate() {
                assert!(
                    (g - e).abs() < 1e-9 * (1.0 + e.abs()),
                    "{method:?} {op:?} p={p} rank {r} slot {i}: {g} vs {e}"
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn all_methods_match_dense_reference_simple_overlap() {
    // each rank holds ids [r, r+1] mod p: a ring of pairwise sharing
    for p in [2usize, 3, 4, 6] {
        run_and_compare(
            p,
            |r| vec![r as u64, ((r + 1) % p) as u64, 100 + r as u64],
            GsOp::Add,
        );
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn all_ops_supported() {
    for op in [GsOp::Add, GsOp::Mul, GsOp::Min, GsOp::Max] {
        run_and_compare(3, |r| vec![0, 1 + r as u64, 99], op);
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn duplicate_local_ids_are_combined() {
    // a gid that appears twice on the same rank and also remotely
    run_and_compare(2, |r| vec![5, 5, 10 + r as u64, 5], GsOp::Add);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn single_rank_world_combines_locally() {
    run_and_compare(1, |_| vec![3, 3, 4, 3, 4, 5], GsOp::Add);
    run_and_compare(1, |_| vec![3, 3, 4, 3, 4, 5], GsOp::Max);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn randomized_id_maps_match_reference() {
    let mut rng = SmallRng::seed_from_u64(20150914);
    for trial in 0..6 {
        let p = rng.range_usize(2, 7);
        let universe = rng.range_u64(4, 31);
        let ids: Vec<Vec<u64>> = (0..p)
            .map(|_| {
                let len = rng.range_usize(1, 41);
                (0..len).map(|_| rng.range_u64(0, universe)).collect()
            })
            .collect();
        let ids2 = ids.clone();
        run_and_compare(p, move |r| ids2[r].clone(), GsOp::Add);
        let ids3 = ids.clone();
        run_and_compare(p, move |r| ids3[r].clone(), GsOp::Min);
        let _ = trial;
    }
}

/// The split-phase pair must be *bitwise* identical to the blocking call:
/// `finish` folds neighbor contributions in the same fixed order, for
/// every method, on arbitrary id maps and world sizes.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn split_phase_is_bitwise_identical_to_blocking_on_random_maps() {
    let mut rng = SmallRng::seed_from_u64(0x5417_0001);
    for _trial in 0..5 {
        let p = rng.range_usize(2, 7);
        let universe = rng.range_u64(4, 25);
        let ids: Vec<Vec<u64>> = (0..p)
            .map(|_| {
                let len = rng.range_usize(1, 33);
                (0..len).map(|_| rng.range_u64(0, universe)).collect()
            })
            .collect();
        let vals: Vec<Vec<f64>> = ids
            .iter()
            .map(|v| v.iter().map(|_| rng.range_f64(-1.0, 1.0)).collect())
            .collect();
        for method in GsMethod::ALL {
            for op in [GsOp::Add, GsOp::Mul, GsOp::Min, GsOp::Max] {
                let (ids, vals) = (ids.clone(), vals.clone());
                let res = World::new().run(p, move |rank| {
                    let me = rank.rank();
                    let handle = GsHandle::setup(rank, &ids[me]);
                    let mut blocking = vals[me].clone();
                    handle.gs_op(rank, &mut blocking, op, method);
                    let mut split = vals[me].clone();
                    let pending = handle.gs_op_start(rank, &[&split], op, method);
                    // unrelated compute in the overlap window
                    let burn: f64 = split.iter().map(|v| v * v).sum();
                    handle.gs_op_finish(rank, pending, &mut [&mut split]);
                    assert!(burn.is_finite());
                    (blocking, split)
                });
                for (r, (blocking, split)) in res.results.iter().enumerate() {
                    assert_eq!(blocking, split, "{method:?} {op:?} p={p} rank {r}");
                }
            }
        }
    }
}

/// Two split-phase exchanges may be in flight at once; sequence-numbered
/// tags keep their messages from cross-matching even when they finish in
/// the reverse of start order.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn overlapping_split_phase_exchanges_do_not_cross_match() {
    let p = 4;
    let ids_of = |r: usize| vec![r as u64, ((r + 1) % p) as u64, 50 + r as u64];
    let res = World::new().run(p, move |rank| {
        let me = rank.rank();
        let handle = GsHandle::setup(rank, &ids_of(me));
        let base: Vec<f64> = (0..3).map(|i| (me * 3 + i) as f64 + 0.5).collect();

        let mut add_blocking = base.clone();
        handle.gs_op(
            rank,
            &mut add_blocking,
            GsOp::Add,
            GsMethod::PairwiseExchange,
        );
        let mut max_blocking = base.clone();
        handle.gs_op(
            rank,
            &mut max_blocking,
            GsOp::Max,
            GsMethod::PairwiseExchange,
        );

        // both exchanges outstanding at once, finished in reverse order
        let mut add_split = base.clone();
        let mut max_split = base.clone();
        let pending_add =
            handle.gs_op_start(rank, &[&add_split], GsOp::Add, GsMethod::PairwiseExchange);
        let pending_max =
            handle.gs_op_start(rank, &[&max_split], GsOp::Max, GsMethod::PairwiseExchange);
        handle.gs_op_finish(rank, pending_max, &mut [&mut max_split]);
        handle.gs_op_finish(rank, pending_add, &mut [&mut add_split]);

        assert_eq!(add_blocking, add_split, "rank {me}: Add cross-matched");
        assert_eq!(max_blocking, max_split, "rank {me}: Max cross-matched");
        add_split
    });
    assert_eq!(res.results.len(), p);
}

/// `shared_slot_flags` marks exactly the slots any `gs_op` can change:
/// a slot is flagged iff its global multiplicity exceeds one.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn shared_slot_flags_match_multiplicities_and_gs_invariance() {
    let mut rng = SmallRng::seed_from_u64(0x5417_0002);
    for _trial in 0..4 {
        let p = rng.range_usize(2, 6);
        let universe = rng.range_u64(3, 20);
        let ids: Vec<Vec<u64>> = (0..p)
            .map(|_| {
                let len = rng.range_usize(1, 25);
                (0..len).map(|_| rng.range_u64(0, universe)).collect()
            })
            .collect();
        let vals: Vec<Vec<f64>> = ids
            .iter()
            .map(|v| v.iter().map(|_| rng.range_f64(0.0, 9.0)).collect())
            .collect();
        let res = World::new().run(p, move |rank| {
            let me = rank.rank();
            let handle = GsHandle::setup(rank, &ids[me]);
            let flags = handle.shared_slot_flags();
            let mult = handle.multiplicities(rank, GsMethod::PairwiseExchange);
            let mut after = vals[me].clone();
            handle.gs_op(rank, &mut after, GsOp::Add, GsMethod::PairwiseExchange);
            for (i, &f) in flags.iter().enumerate() {
                assert_eq!(
                    f,
                    mult[i] > 1.0,
                    "rank {me} slot {i}: flag {f}, multiplicity {}",
                    mult[i]
                );
                if !f {
                    // interior slots are bitwise untouched by any combine
                    assert_eq!(after[i], vals[me][i], "rank {me} slot {i} changed");
                }
            }
            flags.len()
        });
        assert_eq!(res.results.len(), p);
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn mesh_face_exchange_multiplicities() {
    // On a periodic conforming mesh, gs_op(Add) of all-ones over the
    // face-point gids yields each point's sharer count: interior face
    // points 2, edge points 4, corner points 8 (the face array lists each
    // element's own copy once per incident face, so multiply accordingly).
    let cfg = MeshConfig {
        n: 3,
        proc_dims: [2, 1, 1],
        local_elems: [1, 2, 2],
        periodic: true,
    };
    let p = cfg.ranks();
    let cfg2 = cfg.clone();
    let res = World::new().run(p, move |rank| {
        let mesh = RankMesh::new(cfg2.clone(), rank.rank());
        let ids = mesh.face_point_gids();
        let handle = GsHandle::setup(rank, &ids);
        handle.multiplicities(rank, GsMethod::PairwiseExchange)
    });
    // Verify against a serial count of gid occurrences.
    let mut counts: HashMap<u64, f64> = HashMap::new();
    let meshes: Vec<RankMesh> = (0..p).map(|r| RankMesh::new(cfg.clone(), r)).collect();
    for mesh in &meshes {
        for gid in mesh.face_point_gids() {
            *counts.entry(gid).or_insert(0.0) += 1.0;
        }
    }
    for (r, mesh) in meshes.iter().enumerate() {
        let ids = mesh.face_point_gids();
        for (i, gid) in ids.iter().enumerate() {
            assert_eq!(res.results[r][i], counts[gid], "rank {r} slot {i}");
        }
    }
    // sanity on the expected multiplicity classes
    let n2 = cfg.n * cfg.n;
    let face_center_mult = res.results[0][n2 / 2]; // center of element 0 face 0
    assert_eq!(face_center_mult, 2.0);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn methods_agree_on_mesh_volume_ids() {
    let cfg = MeshConfig {
        n: 4,
        proc_dims: [2, 2, 1],
        local_elems: [1, 1, 2],
        periodic: true,
    };
    let p = cfg.ranks();
    let mut baselines: Option<Vec<Vec<f64>>> = None;
    for method in GsMethod::ALL {
        let cfg2 = cfg.clone();
        let res = World::new().run(p, move |rank| {
            let mesh = RankMesh::new(cfg2.clone(), rank.rank());
            let ids = mesh.volume_point_gids();
            let mut vals: Vec<f64> = ids.iter().map(|&g| (g % 17) as f64 - 8.0).collect();
            let handle = GsHandle::setup(rank, &ids);
            handle.gs_op(rank, &mut vals, GsOp::Add, method);
            vals
        });
        match &baselines {
            None => baselines = Some(res.results),
            Some(base) => {
                for (r, got) in res.results.iter().enumerate() {
                    for (a, b) in got.iter().zip(&base[r]) {
                        assert!((a - b).abs() < 1e-9, "{method:?} disagrees: {a} vs {b}");
                    }
                }
            }
        }
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn gs_op_many_equals_repeated_gs_op() {
    let p = 4;
    let cfg = MeshConfig::for_ranks(p, 8, 4, true);
    for method in GsMethod::ALL {
        let cfg2 = cfg.clone();
        let res = World::new().run(p, move |rank| {
            let mesh = RankMesh::new(cfg2.clone(), rank.rank());
            let ids = mesh.face_exchange_gids();
            let handle = GsHandle::setup(rank, &ids);
            let mk = |salt: usize| -> Vec<f64> {
                ids.iter()
                    .enumerate()
                    .map(|(i, &g)| ((g as usize * 7 + i + salt) % 13) as f64 - 6.0)
                    .collect()
            };
            // reference: three separate gs_ops
            let mut ra = mk(1);
            let mut rb = mk(2);
            let mut rc = mk(3);
            handle.gs_op(rank, &mut ra, GsOp::Add, method);
            handle.gs_op(rank, &mut rb, GsOp::Add, method);
            handle.gs_op(rank, &mut rc, GsOp::Add, method);
            // bundled: one gs_op_many
            let mut ma = mk(1);
            let mut mb = mk(2);
            let mut mc = mk(3);
            handle.gs_op_many(rank, &mut [&mut ma, &mut mb, &mut mc], GsOp::Add, method);
            (ra == ma) && (rb == mb) && (rc == mc)
        });
        assert!(
            res.results.iter().all(|&ok| ok),
            "{method:?}: gs_op_many diverged from gs_op"
        );
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn gs_op_many_sends_fewer_messages_than_repeated_gs_op() {
    let p = 4;
    let cfg = MeshConfig::for_ranks(p, 8, 4, true);
    let count_isends = |bundled: bool| {
        let cfg2 = cfg.clone();
        let res = World::new().run(p, move |rank| {
            let mesh = RankMesh::new(cfg2.clone(), rank.rank());
            let ids = mesh.face_exchange_gids();
            let handle = GsHandle::setup(rank, &ids);
            let mut a = vec![1.0; ids.len()];
            let mut b = vec![2.0; ids.len()];
            if bundled {
                handle.gs_op_many(
                    rank,
                    &mut [&mut a, &mut b],
                    GsOp::Add,
                    GsMethod::PairwiseExchange,
                );
            } else {
                handle.gs_op(rank, &mut a, GsOp::Add, GsMethod::PairwiseExchange);
                handle.gs_op(rank, &mut b, GsOp::Add, GsMethod::PairwiseExchange);
            }
        });
        res.stats
            .iter()
            .map(|st| {
                st.sites
                    .iter()
                    .filter(|(k, _)| k.op == simmpi::MpiOp::Isend)
                    .map(|(_, s)| s.calls)
                    .sum::<u64>()
            })
            .sum::<u64>()
    };
    let separate = count_isends(false);
    let bundled = count_isends(true);
    assert_eq!(
        bundled * 2,
        separate,
        "bundled {bundled} vs separate {separate}"
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn gs_op_many_empty_and_single_field() {
    let res = World::new().run(2, |rank| {
        let ids = vec![1u64, 2, 1];
        let handle = GsHandle::setup(rank, &ids);
        handle.gs_op_many(rank, &mut [], GsOp::Add, GsMethod::PairwiseExchange);
        let mut v = vec![1.0, 2.0, 3.0];
        let mut single = vec![1.0, 2.0, 3.0];
        handle.gs_op_many(rank, &mut [&mut v], GsOp::Add, GsMethod::PairwiseExchange);
        handle.gs_op(rank, &mut single, GsOp::Add, GsMethod::PairwiseExchange);
        v == single
    });
    assert!(res.results.iter().all(|&ok| ok));
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn handle_stats_report_topology() {
    let res = World::new().run(2, |rank| {
        let ids = if rank.rank() == 0 {
            vec![1, 2, 3, 3]
        } else {
            vec![3, 4]
        };
        let handle = GsHandle::setup(rank, &ids);
        handle.stats()
    });
    let s0 = res.results[0];
    assert_eq!(s0.nlocal, 4);
    assert_eq!(s0.distinct_local, 3);
    assert_eq!(s0.neighbors, 1);
    assert_eq!(s0.shared_slots, 1);
    assert_eq!(s0.total_global, 4); // ids 1,2,3,4
    let s1 = res.results[1];
    assert_eq!(s1.neighbors, 1);
    assert_eq!(s1.total_global, 4);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn ranks_with_no_ids_still_participate() {
    // rank 1 holds nothing; setup and gs_op are collectives, so it must
    // take part without deadlocking or corrupting anyone's data
    for method in GsMethod::ALL {
        let res = World::new().run(3, move |rank| {
            let ids: Vec<u64> = match rank.rank() {
                0 => vec![5, 6],
                1 => Vec::new(),
                _ => vec![6, 7],
            };
            let handle = GsHandle::setup(rank, &ids);
            let mut vals: Vec<f64> = ids.iter().map(|&g| g as f64).collect();
            handle.gs_op(rank, &mut vals, GsOp::Add, method);
            vals
        });
        assert_eq!(res.results[0], vec![5.0, 12.0], "{method:?}");
        assert!(res.results[1].is_empty());
        assert_eq!(res.results[2], vec![12.0, 7.0], "{method:?}");
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn crystal_router_self_only_messages() {
    let res = World::new().run(4, |rank| {
        let me = rank.rank();
        rank.crystal_router(vec![(me, vec![me as u64 * 3])])
    });
    for (r, got) in res.results.iter().enumerate() {
        assert_eq!(got, &vec![(r, vec![r as u64 * 3])]);
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn crystal_router_moves_more_bytes_than_pairwise() {
    // The router moves every payload through log2(P) hops (plus routing
    // headers); direct pairwise sends it once. The measured mpiP byte
    // books must show that, whatever the wall clock says.
    use simmpi::MpiOp;
    let p = 8;
    let cfg = MeshConfig::for_ranks(p, 27, 6, true);
    let bytes = |method: GsMethod, op: MpiOp| {
        let cfg2 = cfg.clone();
        let res = World::new().run(p, move |rank| {
            let mesh = RankMesh::new(cfg2.clone(), rank.rank());
            let ids = mesh.face_exchange_gids();
            let handle = GsHandle::setup(rank, &ids);
            let mut vals = vec![1.0; ids.len()];
            rank.with_context("measured", |rank| {
                for _ in 0..5 {
                    handle.gs_op(rank, &mut vals, GsOp::Add, method);
                }
            });
        });
        res.stats
            .iter()
            .flat_map(|st| &st.sites)
            .filter(|(k, _)| k.op == op && k.context.starts_with("measured"))
            .map(|(_, s)| s.bytes)
            .sum::<u64>()
    };
    let pw = bytes(GsMethod::PairwiseExchange, MpiOp::Isend);
    let cr = bytes(GsMethod::CrystalRouter, MpiOp::CrystalRouter);
    assert!(pw > 0, "pairwise sent nothing");
    assert!(cr > pw, "crystal moved {cr} bytes, pairwise sent {pw}");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn gs_setup_records_communication() {
    let res = World::new().run(4, |rank| {
        let ids = vec![rank.rank() as u64, 42];
        let _ = GsHandle::setup(rank, &ids);
    });
    for st in &res.stats {
        // discovery uses alltoallv under the gs_setup context
        let found = st
            .sites
            .iter()
            .any(|(k, _)| k.context == "gs_setup" && k.op == simmpi::MpiOp::Alltoallv);
        assert!(found, "rank {} missing gs_setup alltoallv record", st.rank);
    }
}

/// Naive oracle in the documented combine order: rank `r`'s result for
/// an id is its own copies folded in ascending slot, then each other
/// holder's own fold, in ascending rank.
fn ordered_reference(all_ids: &[Vec<u64>], all_vals: &[Vec<f64>], op: GsOp) -> Vec<Vec<f64>> {
    let local_fold = |q: usize, gid: u64| {
        all_ids[q]
            .iter()
            .zip(&all_vals[q])
            .filter(|(&g, _)| g == gid)
            .map(|(_, &v)| v)
            .reduce(|acc, v| op.combine(acc, v))
    };
    (0..all_ids.len())
        .map(|r| {
            all_ids[r]
                .iter()
                .map(|&gid| {
                    let own = local_fold(r, gid).expect("rank holds its own id");
                    (0..all_ids.len())
                        .filter(|&q| q != r)
                        .filter_map(|q| local_fold(q, gid))
                        .fold(own, |acc, v| op.combine(acc, v))
                })
                .collect()
        })
        .collect()
}

fn views(fields: &mut [Vec<f64>]) -> Vec<&mut [f64]> {
    fields.iter_mut().map(|f| f.as_mut_slice()).collect()
}

fn bits(fields: &[Vec<f64>]) -> Vec<u64> {
    fields.iter().flatten().map(|v| v.to_bits()).collect()
}

/// Property: `gs_op_many` equals the naive oracle on random id maps with
/// 1–6 copies per id scattered over 2–5 ranks — bitwise for the two
/// neighbor-ordered methods, to rounding for all_reduce's tree order
/// (bitwise there too for the order-free Min/Max). `overlapped` equals
/// per-field `gs_op` bitwise, with an empty window and with one that
/// returns early.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn gs_op_matches_ordered_oracle_on_random_copy_counts() {
    let mut rng = SmallRng::seed_from_u64(0x0EAC_1E17);
    for _trial in 0..5 {
        let p = rng.range_usize(2, 6);
        let mut ids: Vec<Vec<u64>> = vec![Vec::new(); p];
        for gid in 0..rng.range_u64(8, 40) {
            for _copy in 0..rng.range_usize(1, 7) {
                let holder = rng.range_usize(0, p);
                // a random slot position, so copies of an id interleave
                let at = rng.range_usize(0, ids[holder].len() + 1);
                ids[holder].insert(at, gid * 3 + 1);
            }
        }
        for k in [1usize, 3] {
            let vals: Vec<Vec<Vec<f64>>> = (0..k)
                .map(|_| {
                    ids.iter()
                        .map(|v| v.iter().map(|_| rng.range_f64(-2.0, 2.0)).collect())
                        .collect()
                })
                .collect();
            for op in [GsOp::Add, GsOp::Mul, GsOp::Min, GsOp::Max] {
                let expect: Vec<Vec<Vec<f64>>> = vals
                    .iter()
                    .map(|field| ordered_reference(&ids, field, op))
                    .collect();
                for method in GsMethod::ALL {
                    let (ids_c, vals_c) = (ids.clone(), vals.clone());
                    let res = World::new().run(p, move |rank| {
                        let me = rank.rank();
                        let handle = GsHandle::setup(rank, &ids_c[me]);
                        let mine: Vec<Vec<f64>> =
                            vals_c.iter().map(|field| field[me].clone()).collect();
                        let mut blocking = mine.clone();
                        for f in &mut blocking {
                            handle.gs_op(rank, f, op, method);
                        }
                        let mut empty = mine.clone();
                        handle.overlapped(rank, &mut views(&mut empty), op, method, |_, _| ());
                        let mut early = mine.clone();
                        handle.overlapped(rank, &mut views(&mut early), op, method, |_, f| {
                            if f.iter().flat_map(|x| x.iter()).all(|v| v.is_finite()) {
                                return; // leaves the window, as seeded defect M1 does
                            }
                            panic!("non-finite input");
                        });
                        assert_eq!(bits(&empty), bits(&blocking), "empty window, rank {me}");
                        assert_eq!(bits(&early), bits(&blocking), "early return, rank {me}");
                        let mut many = mine;
                        handle.gs_op_many(rank, &mut views(&mut many), op, method);
                        many
                    });
                    let exact =
                        method != GsMethod::AllReduce || matches!(op, GsOp::Min | GsOp::Max);
                    for (r, got) in res.results.iter().enumerate() {
                        for (fi, field) in got.iter().enumerate() {
                            for (i, (&g, &e)) in field.iter().zip(&expect[fi][r]).enumerate() {
                                let ok = if exact {
                                    g.to_bits() == e.to_bits()
                                } else {
                                    (g - e).abs() <= 1e-12 * (1.0 + e.abs())
                                };
                                assert!(
                                    ok,
                                    "{method:?} {op:?} p={p} k={k} rank {r} field {fi} slot {i}: \
                                     {g:e} vs {e:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Regression: a slot no other rank shares — a singleton or a
/// rank-interior pair — never enters an exchange, so every method leaves
/// it the same bits. The all_reduce method used to route such ids through
/// its identity-filled dense vector, turning `-0.0` into `+0.0`.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn unshared_slots_keep_their_bits_under_every_method() {
    // per rank: a singleton, an interior pair, and one id all ranks share
    let ids_of = |r: u64| vec![100 + r, 200 + r, 7, 200 + r];
    let bits_of = |method: GsMethod| {
        World::new()
            .run(3, move |rank| {
                let handle = GsHandle::setup(rank, &ids_of(rank.rank() as u64));
                assert_eq!(handle.shared_slot_flags(), [false, true, true, true]);
                let mut vals = vec![-0.0, -0.0, 1.5, -0.0];
                handle.gs_op(rank, &mut vals, GsOp::Add, method);
                vals.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            })
            .results
    };
    let pairwise = bits_of(GsMethod::PairwiseExchange);
    let neg_zero = (-0.0f64).to_bits();
    for got in &pairwise {
        assert_eq!(got[0], neg_zero, "singleton changed");
        assert_eq!([got[1], got[3]], [neg_zero; 2], "-0.0 + -0.0 is -0.0");
        assert_eq!(f64::from_bits(got[2]), 4.5);
    }
    for method in [GsMethod::CrystalRouter, GsMethod::AllReduce] {
        assert_eq!(
            bits_of(method),
            pairwise,
            "{method:?} differs from pairwise"
        );
    }
}

/// `overlapped` combines the rank-interior ids at start: inside the
/// window, under every method, a slot `halo_slots` leaves unflagged
/// reads its final value (the one `gs_op` gives) and a halo slot the
/// value it was started with; after the window every slot equals `gs_op`
/// bit for bit. Random id maps with 1–6 copies per id over 2–5 ranks
/// give interior pairs, interior multi groups and halo ids at once, and
/// two fields check the vector form.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn interior_sums_are_final_inside_the_window() {
    let mut rng = SmallRng::seed_from_u64(0x5417_0003);
    for _trial in 0..4 {
        let p = rng.range_usize(2, 6);
        let mut ids: Vec<Vec<u64>> = vec![Vec::new(); p];
        for gid in 0..rng.range_u64(8, 40) {
            for _copy in 0..rng.range_usize(1, 7) {
                let holder = rng.range_usize(0, p);
                let at = rng.range_usize(0, ids[holder].len() + 1);
                ids[holder].insert(at, gid);
            }
        }
        let vals: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|_| {
                ids.iter()
                    .map(|v| v.iter().map(|_| rng.range_f64(-2.0, 2.0)).collect())
                    .collect()
            })
            .collect();
        for method in GsMethod::ALL {
            let (ids, vals) = (ids.clone(), vals.clone());
            let res = World::new().run(p, move |rank| {
                let me = rank.rank();
                let handle = GsHandle::setup(rank, &ids[me]);
                let halo: Vec<bool> = handle.halo_slots().collect();
                let started: Vec<Vec<f64>> = vals.iter().map(|f| f[me].clone()).collect();
                let mut want = started.clone();
                for f in &mut want {
                    handle.gs_op(rank, f, GsOp::Add, method);
                }
                let mut got = started.clone();
                let (mut interior, mut halo_slots) = (0, 0);
                handle.overlapped(
                    rank,
                    &mut views(&mut got),
                    GsOp::Add,
                    method,
                    |_, inside| {
                        for (fi, f) in inside.iter().enumerate() {
                            for (i, &v) in f.iter().enumerate() {
                                let expect = if halo[i] {
                                    halo_slots += 1;
                                    started[fi][i]
                                } else {
                                    interior += 1;
                                    want[fi][i]
                                };
                                assert_eq!(
                                    v.to_bits(),
                                    expect.to_bits(),
                                    "{method:?} rank {me} field {fi} slot {i} (halo {})",
                                    halo[i]
                                );
                            }
                        }
                    },
                );
                assert_eq!(bits(&got), bits(&want), "{method:?} rank {me}");
                (interior, halo_slots)
            });
            let (interior, halo_slots) = res
                .results
                .iter()
                .fold((0, 0), |(a, b), &(i, h)| (a + i, b + h));
            assert!(interior > 0 && halo_slots > 0, "{method:?} p={p}");
        }
    }
}

/// The operation is in place: finishing into arrays other than the ones
/// the exchange was started on is refused, not silently mis-combined.
#[test]
#[should_panic(expected = "gs_op_finish must be handed the arrays gs_op_start was handed")]
#[cfg_attr(miri, ignore = "spawns a World; too slow under the interpreter")]
fn finishing_into_other_arrays_breaks_the_contract() {
    World::new().run(1, |rank| {
        let handle = GsHandle::setup(rank, &[4, 4, 9]);
        let started = vec![1.0, 2.0, 3.0];
        let mut other = started.clone();
        let pending = handle.gs_op_start(rank, &[&started], GsOp::Add, GsMethod::PairwiseExchange);
        handle.gs_op_finish(rank, pending, &mut [&mut other]);
    });
}
