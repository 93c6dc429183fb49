//! Fault-injection properties of the gather–scatter library.
//!
//! Message delays perturb timing and cost but must never perturb *results*: the delivered payloads are
//! intact and the `(source, tag)` FIFO matching order is preserved. These
//! tests check that property for all three exchange methods over
//! randomized fault plans, and that abandoning a split-phase operation
//! (dropping its `GsPending`) leaves the runtime clean for later
//! exchanges.

use cmt_gs::{GsHandle, GsMethod, GsOp};
use simmpi::rng::SmallRng;
use simmpi::{FaultPlan, World};

/// Property: any fault plan with delays but no kills yields results bitwise identical to a fault-free run, for every
/// exchange method, on randomized id maps.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn message_faults_never_change_gs_results() {
    let mut rng = SmallRng::seed_from_u64(0xFA17_0001);
    let mut injected_total = 0u64;
    for _trial in 0..4 {
        let p = rng.range_usize(2, 6);
        let universe = rng.range_u64(4, 20);
        let ids: Vec<Vec<u64>> = (0..p)
            .map(|_| {
                let len = rng.range_usize(1, 25);
                (0..len).map(|_| rng.range_u64(0, universe)).collect()
            })
            .collect();
        let vals: Vec<Vec<f64>> = ids
            .iter()
            .map(|v| v.iter().map(|_| rng.range_f64(-2.0, 2.0)).collect())
            .collect();
        // randomized delay-only plan, sometimes confined to one straggler
        let mut spec = format!(
            "delay:prob={:.2},us={}",
            rng.range_f64(0.2, 0.6),
            rng.range_u64(20, 80),
        );
        if rng.bool() {
            spec.push_str(&format!(",rank={}", rng.range_usize(0, p)));
        }
        spec.push_str(&format!(";seed={}", rng.next_u64() % 1000));
        let plan = FaultPlan::parse(&spec).expect("generated spec parses");
        assert!(plan.kills.is_empty() && plan.delay.is_some());

        for method in GsMethod::ALL {
            let program = {
                let (ids, vals) = (ids.clone(), vals.clone());
                move |rank: &mut simmpi::Rank| {
                    let me = rank.rank();
                    let handle = GsHandle::setup(rank, &ids[me]);
                    let mut v = vals[me].clone();
                    // blocking, split-phase, and bundled forms all on the
                    // faulty transport
                    handle.gs_op(rank, &mut v, GsOp::Add, method);
                    let pending = handle.gs_op_start(rank, &[&v], GsOp::Max, method);
                    handle.gs_op_finish(rank, pending, &mut [&mut v]);
                    let mut w = vals[me].clone();
                    handle.gs_op_many(rank, &mut [&mut v, &mut w], GsOp::Add, method);
                    (v, w)
                }
            };
            let clean = World::new().run(p, program.clone());
            let faulty = World::new().with_fault_plan(plan.clone()).run(p, program);
            assert_eq!(
                clean.results, faulty.results,
                "{method:?} p={p} plan {spec:?}: faults changed results"
            );
            injected_total += faulty
                .stats
                .iter()
                .flat_map(|s| s.sites.iter())
                .filter(|(k, _)| k.op.is_fault())
                .map(|(_, s)| s.calls)
                .sum::<u64>();
        }
    }
    assert!(injected_total > 0, "no faults were ever injected");
}

/// Abandoning a split-phase exchange (dropping the `GsPending` without
/// finishing) must not corrupt later exchanges or leak its in-flight
/// messages into later matching, for every method.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn dropped_pending_leaves_runtime_clean() {
    let p = 4;
    let ids_of = |r: usize| vec![r as u64, ((r + 1) % p) as u64, 30 + r as u64];
    for method in GsMethod::ALL {
        let res = World::new().run(p, move |rank| {
            let me = rank.rank();
            let handle = GsHandle::setup(rank, &ids_of(me));
            let base: Vec<f64> = (0..3).map(|i| (me * 7 + i) as f64 + 0.25).collect();

            // reference result on an undisturbed runtime
            let mut expect = base.clone();
            handle.gs_op(rank, &mut expect, GsOp::Add, method);

            // start an exchange and abandon it (every rank does, SPMD)
            let doomed = base.clone();
            let pending = handle.gs_op_start(rank, &[&doomed], GsOp::Add, method);
            drop(pending);

            // later exchanges on the same handle must be unaffected
            let mut after = base.clone();
            handle.gs_op(rank, &mut after, GsOp::Add, method);
            let mut maxed = after.clone();
            let pending = handle.gs_op_start(rank, &[&maxed], GsOp::Max, method);
            handle.gs_op_finish(rank, pending, &mut [&mut maxed]);

            assert_eq!(
                after, expect,
                "rank {me} {method:?}: abandoned exchange leaked"
            );
            maxed
        });
        assert_eq!(res.results.len(), p);
    }
}
