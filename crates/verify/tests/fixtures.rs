//! Deliberately-buggy fixture programs, each asserted to produce the
//! expected `cmt-verify` diagnostic — plus clean and chaos-perturbed
//! programs asserted to produce none.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_verify::{FindingKind, Verifier};
use simmpi::{FaultPlan, Rank, ReduceOp, World};

/// Run `f` on `p` ranks under a fresh checker, tolerating (and
/// swallowing) the world panic a fatal diagnostic triggers.
fn run_checked<F>(p: usize, f: F) -> Arc<Verifier>
where
    F: Fn(&mut Rank) + Send + Sync,
{
    let verifier = Arc::new(Verifier::new().with_grace(Duration::from_millis(150)));
    let world = World::new().with_verifier(verifier.clone());
    let _ = catch_unwind(AssertUnwindSafe(|| world.run(p, |rank| f(rank))));
    verifier
}

/// The two-rank head-to-head deadlock: each rank sends on one tag but
/// blocks receiving on a tag the peer never uses.
#[test]
fn tag_mismatch_deadlock_is_detected() {
    let verifier = run_checked(2, |rank| {
        let peer = 1 - rank.rank();
        rank.send(peer, 10 + rank.rank() as u64, &[1.0f64]);
        // Bug: both ranks wait for tag 99; the sends used tags 10/11.
        let _ = rank.recv::<f64>(peer, 99);
    });
    let deadlocks = verifier.findings_of(FindingKind::Deadlock);
    assert_eq!(deadlocks.len(), 1, "{}", verifier.render());
    let d = &deadlocks[0].detail;
    assert!(d.contains("wait-for cycle"), "diagnostic: {d}");
    assert!(
        d.contains("rank 0: blocked in recv from rank 1 on tag 0x63"),
        "diagnostic must dump rank 0's blocked state: {d}"
    );
    assert!(
        d.contains("rank 1: blocked in recv from rank 0 on tag 0x63"),
        "diagnostic must dump rank 1's blocked state: {d}"
    );
    assert!(d.contains("call site"), "diagnostic: {d}");
}

/// A deadlock through a chain: rank 0 waits on rank 1 which waits on
/// rank 2 which waits on rank 0. The dump must name all three.
#[test]
fn three_rank_cycle_deadlock_is_detected() {
    let verifier = run_checked(3, |rank| {
        let next = (rank.rank() + 1) % rank.size();
        rank.set_context("ring-hang");
        let _ = rank.recv::<u8>(next, 5);
    });
    let deadlocks = verifier.findings_of(FindingKind::Deadlock);
    assert_eq!(deadlocks.len(), 1, "{}", verifier.render());
    let d = &deadlocks[0].detail;
    assert!(d.contains("among 3 rank(s)"), "diagnostic: {d}");
    for r in 0..3 {
        assert!(d.contains(&format!("rank {r}: blocked")), "diagnostic: {d}");
    }
    assert!(
        d.contains("ring-hang"),
        "diagnostic must carry the call site: {d}"
    );
}

/// Ranks disagree on the allreduce element type.
#[test]
fn allreduce_elem_type_mismatch_is_detected() {
    let verifier = run_checked(2, |rank| {
        // Bug: rank 0 reduces doubles, rank 1 integers.
        if rank.rank() == 0 {
            let _ = rank.allreduce_f64(&[1.0], ReduceOp::Sum);
        } else {
            let _ = rank.allreduce_u64(&[1], ReduceOp::Sum);
        }
    });
    let mismatches = verifier.findings_of(FindingKind::CollectiveMismatch);
    assert!(!mismatches.is_empty(), "{}", verifier.render());
    let d = &mismatches[0].detail;
    assert!(d.contains("COLLECTIVE MISMATCH"), "diagnostic: {d}");
    assert!(
        d.contains("allreduce(f64, len=1)"),
        "diagnostic must show one type: {d}"
    );
    assert!(
        d.contains("allreduce(u64, len=1)"),
        "diagnostic must show the other type: {d}"
    );
}

/// Ranks disagree on the allreduce vector length.
#[test]
fn allreduce_length_mismatch_is_detected() {
    let verifier = run_checked(2, |rank| {
        let len = 2 + rank.rank(); // bug: 2 elements on rank 0, 3 on rank 1
        let data = vec![1.0f64; len];
        let _ = rank.allreduce_f64(&data, ReduceOp::Sum);
    });
    let mismatches = verifier.findings_of(FindingKind::CollectiveMismatch);
    assert!(!mismatches.is_empty(), "{}", verifier.render());
    let d = &mismatches[0].detail;
    assert!(d.contains("len=2"), "diagnostic must show one length: {d}");
    assert!(
        d.contains("len=3"),
        "diagnostic must show the other length: {d}"
    );
}

/// A collective-kind divergence: one rank calls barrier where the other
/// calls allreduce.
#[test]
fn collective_kind_mismatch_is_detected() {
    let verifier = run_checked(2, |rank| {
        if rank.rank() == 0 {
            rank.barrier();
        } else {
            let _ = rank.allreduce_f64(&[1.0], ReduceOp::Sum);
        }
    });
    let mismatches = verifier.findings_of(FindingKind::CollectiveMismatch);
    assert!(!mismatches.is_empty(), "{}", verifier.render());
    let d = &mismatches[0].detail;
    assert!(
        d.contains("barrier(") && d.contains("allreduce("),
        "diagnostic must name both kinds: {d}"
    );
}

/// Rank 0 sends a message rank 1 never receives.
fn leak_one_send(rank: &mut Rank) {
    if rank.rank() == 0 {
        rank.set_context("orphan-send");
        rank.send(1, 7, &[1.0f64, 2.0]); // bug: rank 1 never receives
        rank.set_context("main");
    }
    rank.barrier();
}

/// A send nobody receives is reported at finalize, with the send site.
#[test]
fn leaked_send_is_detected() {
    let verifier = run_checked(2, leak_one_send);
    let leaks = verifier.findings_of(FindingKind::MessageLeak);
    assert_eq!(leaks.len(), 1, "{}", verifier.render());
    let d = &leaks[0].detail;
    assert_eq!(leaks[0].rank, 1, "the leak lands in rank 1's mailbox");
    assert!(d.contains("from rank 0"), "diagnostic: {d}");
    assert!(d.contains("tag 0x7"), "diagnostic: {d}");
    assert!(d.contains("16 bytes"), "diagnostic: {d}");
    assert!(
        d.contains("orphan-send"),
        "diagnostic must carry the send site: {d}"
    );
}

/// A pairwise exchange through `GsHandle::overlapped` whose window
/// returns early: the `return` leaves the closure, the exchange still
/// finishes (dropping it unfinished would panic), and the run is clean.
#[test]
fn overlapped_window_returning_early_abandons_nothing() {
    let verifier = run_checked(2, |rank| {
        let ids: Vec<u64> = if rank.rank() == 0 {
            vec![0, 1]
        } else {
            vec![1, 2]
        };
        let handle = GsHandle::setup(rank, &ids);
        let mut values = vec![1.0f64; handle.nlocal()];
        let exchanged = &mut [values.as_mut_slice()];
        handle.overlapped(
            rank,
            exchanged,
            GsOp::Add,
            GsMethod::PairwiseExchange,
            |_, v| {
                if v[0].iter().all(|x| x.is_finite()) {
                    return;
                }
                unreachable!("the values are finite");
            },
        );
        assert_eq!(values.iter().sum::<f64>(), 3.0, "gid 1 was combined");
        rank.barrier();
    });
    assert!(verifier.is_clean(), "{}", verifier.render());
}

/// A clean gather–scatter workload over every method produces zero
/// findings — including the autotune warm-up phase, whose probe-and-
/// discard pattern is exactly where leaks would hide.
#[test]
fn clean_gs_workload_and_autotune_have_zero_findings() {
    let verifier = Arc::new(Verifier::new());
    let world = World::new().with_verifier(verifier.clone());
    world.run(8, |rank| {
        let p = rank.size() as u64;
        let r = rank.rank() as u64;
        // A ring of shared ids: rank r shares (r) with r-1 and (r+1) with r+1.
        let ids: Vec<u64> = vec![r, 1000 + r, (r + 1) % p];
        let handle = GsHandle::setup(rank, &ids);
        let report = cmt_gs::autotune(rank, &handle, cmt_gs::AutotuneOptions::default());
        assert!(!report.timing(report.chosen).skipped);
        let mut values = vec![r as f64 + 1.0; handle.nlocal()];
        for m in GsMethod::ALL {
            handle.gs_op(rank, &mut values, GsOp::Add, m);
        }
        // Split-phase round with an overlap window.
        let pending = handle.gs_op_start(rank, &[&values], GsOp::Add, GsMethod::PairwiseExchange);
        let _busywork: f64 = values.iter().sum();
        handle.gs_op_finish(rank, pending, &mut [&mut values]);
        rank.barrier();
    });
    assert!(verifier.is_clean(), "{}", verifier.render());
}

/// A seeded delay fault plan explores different message interleavings,
/// but a correct program's results stay bitwise identical to the
/// unperturbed run, under every seed, with zero findings — for the
/// dissemination barrier and the allreduce (the checker's CI mode).
#[test]
fn delay_plan_runs_are_bitwise_identical_and_clean() {
    let p = 8;
    let program = |rank: &mut Rank| -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0..4u64 {
            rank.barrier();
            let local = vec![
                (rank.rank() as f64 + 1.3) * (i as f64 + 0.7),
                1.0 / (rank.rank() as f64 + 2.0),
            ];
            out.extend(rank.allreduce_f64(&local, ReduceOp::Sum));
            out.push(rank.allreduce_f64(&local, ReduceOp::Max)[1]);
            out.push(rank.exscan_u64(i + rank.rank() as u64) as f64);
        }
        out
    };
    let reference = World::new().run(p, program).results;
    for seed in [1u64, 7, 42, 1234, 0xdead_beef] {
        let verifier = Arc::new(Verifier::new());
        let plan = FaultPlan::parse(&format!("delay:prob=0.25,us=150;seed={seed}")).unwrap();
        let world = World::new()
            .with_fault_plan(plan)
            .with_verifier(verifier.clone());
        let perturbed = world.run(p, program);
        assert_eq!(
            perturbed.results, reference,
            "delay seed {seed} changed results"
        );
        assert!(verifier.is_clean(), "seed {seed}: {}", verifier.render());
        // The perturbation really injected delays (it is not a no-op).
        let injected: u64 = perturbed
            .stats
            .iter()
            .flat_map(|s| s.sites.iter())
            .filter(|(k, _)| k.op.is_fault())
            .map(|(_, s)| s.calls)
            .sum();
        assert!(injected > 0, "seed {seed} perturbed nothing");
    }
}

/// Point-to-point and collective traffic in a clean program leaves the
/// checker silent, and the finalize sweep reports nothing.
#[test]
fn clean_p2p_and_collectives_have_zero_findings() {
    let verifier = run_checked(5, |rank| {
        let next = (rank.rank() + 1) % rank.size();
        let prev = (rank.rank() + rank.size() - 1) % rank.size();
        for round in 0..3u64 {
            rank.send(next, round, &[rank.rank() as f64]);
            let _ = rank.recv::<f64>(prev, round);
            let _ = rank.allreduce_u64(&[round], ReduceOp::Sum);
        }
        let _ = rank.exscan_u64(rank.rank() as u64);
        let _ = rank.alltoallv(vec![vec![rank.rank() as u64; rank.rank()]; rank.size()]);
        let outgoing = vec![(next, vec![9.0f64])];
        let _ = rank.crystal_router(outgoing);
        rank.barrier();
    });
    assert!(verifier.is_clean(), "{}", verifier.render());
}
