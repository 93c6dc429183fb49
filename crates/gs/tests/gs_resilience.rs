//! Fault-injection properties of the gather–scatter library.
//!
//! Message delays perturb timing and cost but must never perturb *results*: the delivered payloads are
//! intact and the `(source, tag)` FIFO matching order is preserved. These
//! tests check that property for all three exchange methods over
//! randomized fault plans. A split-phase operation that is started must
//! be finished: dropping its `GsPending` unfinished fails the rank, while
//! a panic inside an `overlapped` window keeps its own message.

use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// The message a panic payload carries (`panic!` with a format string
/// boxes a `String`, with a literal a `&str`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Dropping a started exchange without finishing it panics on every rank,
/// for every method, with a message that names the fix. Each rank catches
/// its own panic, so the world ends normally and reports every message.
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn dropping_an_unfinished_exchange_panics() {
    let p = 3;
    let ids_of = |r: usize| vec![r as u64, ((r + 1) % p) as u64, 30 + r as u64];
    let mut wrong = Vec::new();
    for method in GsMethod::ALL {
        let res = World::new().run(p, move |rank| {
            let handle = GsHandle::setup(rank, &ids_of(rank.rank()));
            let values = vec![1.0f64; handle.nlocal()];
            let pending = handle.gs_op_start(rank, &[&values], GsOp::Add, method);
            let dropped = catch_unwind(AssertUnwindSafe(|| drop(pending)));
            dropped.err().map(|payload| panic_message(&*payload))
        });
        for (r, msg) in res.results.iter().enumerate() {
            let names_the_fix = msg.as_deref().is_some_and(|m| {
                m.contains(method.context())
                    && m.contains("dropped unfinished")
                    && m.contains("gs_op_finish")
                    && m.contains("GsHandle::overlapped")
            });
            if !names_the_fix {
                wrong.push(format!("rank {r} {method:?}: {msg:?}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "drops that did not panic as expected:\n{}",
        wrong.join("\n")
    );
}

/// A panic inside an `overlapped` window unwinds through the in-flight
/// token: `World::run` re-raises the window's own message, not the
/// unfinished-exchange one (and a panic in a drop during unwinding would
/// abort the test binary instead).
#[test]
#[cfg_attr(
    miri,
    ignore = "multi-rank World exchange; too slow under the interpreter"
)]
fn a_panic_inside_an_overlapped_window_keeps_its_message() {
    for method in GsMethod::ALL {
        let run = catch_unwind(|| {
            World::new().run(2, |rank| {
                let me = rank.rank() as u64;
                let handle = GsHandle::setup(rank, &[7, 10 + me]);
                let mut v = vec![1.0, 2.0];
                handle.overlapped(rank, &mut [&mut v], GsOp::Add, method, |rank, _| {
                    panic!("window failed on rank {}", rank.rank())
                });
            })
        });
        let msg = panic_message(&*run.expect_err("the window's panic reaches World::run"));
        assert!(
            msg.starts_with("window failed on rank"),
            "{method:?}: {msg}"
        );
    }
}
