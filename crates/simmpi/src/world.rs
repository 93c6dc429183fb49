//! World construction: spawning ranks and collecting results.
//!
//! Both backends run every rank through `execute_rank`, which builds
//! the [`Rank`] over a boxed transport. A world's verifier runs
//! in-process only: [`World::run_dist`] refuses a socket world that has
//! one, because the checker's state (wait-for graph, collective
//! fingerprints) spans ranks and the socket transport carries data only.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::faults::{FaultPlan, FaultState};
use crate::mailbox::Mailbox;
use crate::pool::BufferPool;
use crate::rank::Rank;
use crate::stats::{CommRecorder, CommStats, MpiOp};
use crate::transport::{InprocTransport, Transport, TransportKind};
use crate::verify::VerifyHooks;
use crate::wire::WireCodec;

/// A world of `P` simulated MPI ranks. Construct once, then [`World::run`]
/// an SPMD closure on it.
///
/// ```
/// use simmpi::{World, ReduceOp};
///
/// let res = World::new().run(4, |rank| {
///     // every rank contributes its id; everyone receives the sum
///     rank.allreduce_scalar(rank.rank() as f64, ReduceOp::Sum)
/// });
/// assert_eq!(res.results, vec![6.0; 4]);
/// // per-rank mpiP-style statistics come back alongside the results
/// assert_eq!(res.stats.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct World {
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) verify: Option<Arc<dyn VerifyHooks>>,
    pub(crate) pooling: bool,
    pub(crate) transport: TransportKind,
}

impl Default for World {
    fn default() -> Self {
        World {
            faults: None,
            verify: None,
            pooling: true,
            transport: TransportKind::Inproc,
        }
    }
}

/// Everything a [`World::run`] produces: the per-rank return values and
/// the per-rank communication statistics, both indexed by rank.
#[derive(Debug)]
pub struct WorldResult<T> {
    /// Per-rank return values of the SPMD closure.
    pub results: Vec<T>,
    /// Per-rank communication statistics (the mpiP books).
    pub stats: Vec<CommStats>,
}

impl World {
    /// A world with the in-process transport, pooling on, and no fault
    /// plan or verifier.
    pub fn new() -> Self {
        World::default()
    }

    /// Install a deterministic [`FaultPlan`]. Message delays are
    /// injected by the runtime on every
    /// point-to-point and collective-internal send; scheduled rank kills
    /// are surfaced to drivers via [`Rank::fault_plan`].
    ///
    /// # Panics
    /// Panics if the plan fails [`FaultPlan::validate`] at `run` time
    /// (e.g. a kill targets a rank outside the world).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Install a dynamic verifier (the `cmt-verify` checker, or any
    /// [`VerifyHooks`] implementation). The runtime then feeds it every
    /// blocked-receive episode and collective fingerprint, stamps each
    /// message envelope with its send site,
    /// and runs a finalize-time message-leak sweep as each rank's closure
    /// returns. The verifier runs in-process only: [`World::run_dist`]
    /// refuses a [`TransportKind::Socket`] world that has one.
    pub fn with_verifier(mut self, hooks: Arc<dyn VerifyHooks>) -> Self {
        self.verify = Some(hooks);
        self
    }

    /// Enable or disable per-rank payload-buffer recycling (the
    /// [`BufferPool`]); on by default. With pooling off, every receive
    /// allocates and every returned buffer is freed — the baseline the
    /// pool-identity and allocation tests compare the pooled path against.
    pub fn with_pooling(mut self, on: bool) -> Self {
        self.pooling = on;
        self
    }

    /// Select the transport backend for [`World::run_dist`]:
    /// [`TransportKind::Inproc`] (the default — ranks as threads of this
    /// process) or [`TransportKind::Socket`] (ranks as child processes
    /// over Unix-domain sockets). [`World::run`] always uses the
    /// in-process backend regardless of this setting, because it cannot
    /// ship arbitrary `T` results across a process boundary.
    pub fn with_transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Run `f` as an SPMD program on `p` ranks (one OS thread each) and
    /// wait for completion.
    ///
    /// # Panics
    /// Panics if `p == 0`, or if any rank panics (after poisoning the
    /// remaining ranks so they abort instead of deadlocking).
    pub fn run<T, F>(&self, p: usize, f: F) -> WorldResult<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Send + Sync,
    {
        assert!(p > 0, "world needs at least one rank");
        if let Some(plan) = &self.faults {
            if let Err(e) = plan.validate(p) {
                panic!("invalid fault plan: {e}");
            }
        }
        let mailboxes: Arc<Vec<Mailbox>> = Arc::new((0..p).map(|_| Mailbox::new()).collect());
        let poisoned = Arc::new(AtomicBool::new(false));
        if let Some(v) = &self.verify {
            v.on_start(p);
        }
        let f = &f;
        let world = self;

        let mut slots: Vec<Option<(T, CommStats)>> = Vec::with_capacity(p);
        for _ in 0..p {
            slots.push(None);
        }

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for r in 0..p {
                let mailboxes = Arc::clone(&mailboxes);
                let poisoned = Arc::clone(&poisoned);
                handles.push(scope.spawn(move || {
                    let transport = Box::new(InprocTransport::new(mailboxes, r));
                    let pool = BufferPool::new(world.pooling);
                    execute_rank(world, r, p, transport, pool, poisoned, f)
                }));
            }
            for (r, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(pair) => slots[r] = Some(pair),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        let mut results = Vec::with_capacity(p);
        let mut stats = Vec::with_capacity(p);
        for s in slots {
            let (out, st) = s.expect("rank finished without result");
            results.push(out);
            stats.push(st);
        }
        WorldResult { results, stats }
    }

    /// Run `f` as an SPMD program on `p` ranks over the configured
    /// transport backend ([`World::with_transport`]).
    ///
    /// On [`TransportKind::Inproc`] this is exactly [`World::run`]. On
    /// [`TransportKind::Socket`] this process becomes the launcher hub:
    /// it spawns `p` copies of the current executable (one per rank,
    /// re-invoked with the same arguments), routes their wire-format
    /// frames, and decodes their [`WireCodec`]-encoded results — which is
    /// why `T` needs the extra bound. When the current process *is* one
    /// of those spawned children (detected from the environment the
    /// launcher set), this call runs that single rank against the hub
    /// and exits the process without returning; driver code after
    /// `run_dist` therefore executes on the launcher only.
    ///
    /// # Panics
    /// Panics if `p == 0`, the fault plan is invalid, any rank fails, the
    /// socket handshake cannot be established, or a socket world has a
    /// verifier (the verifier runs in-process only; this is refused
    /// before anything binds or spawns).
    pub fn run_dist<T, F>(&self, p: usize, f: F) -> WorldResult<T>
    where
        T: Send + WireCodec,
        F: Fn(&mut Rank) -> T + Send + Sync,
    {
        match &self.transport {
            TransportKind::Inproc => self.run(p, f),
            TransportKind::Socket(cfg) => {
                assert!(
                    self.verify.is_none(),
                    "a verifier runs in-process only: run the checked world on TransportKind::Inproc"
                );
                if let Some((rank, size, addr)) = crate::socket::child_env() {
                    crate::socket::run_child_process(self, rank, size, &addr, &f)
                } else {
                    assert!(p > 0, "world needs at least one rank");
                    if let Some(plan) = &self.faults {
                        if let Err(e) = plan.validate(p) {
                            panic!("invalid fault plan: {e}");
                        }
                    }
                    crate::socket::run_launcher(self, p, cfg, &f)
                }
            }
        }
    }
}

/// Run one rank to completion over `transport`: build the [`Rank`],
/// execute the SPMD closure, run the finalize-time leak check, drain the
/// transport's receive-side accounting into the mpiP books, and finish
/// the statistics. Shared by the in-process backend (one call per rank
/// thread) and the socket backend (one call per rank process). The rank
/// takes the world's own verifier, which only an in-process world has.
pub(crate) fn execute_rank<T, F>(
    world: &World,
    r: usize,
    p: usize,
    transport: Box<dyn Transport>,
    pool: BufferPool,
    poisoned: Arc<AtomicBool>,
    f: &F,
) -> (T, CommStats)
where
    F: Fn(&mut Rank) -> T,
{
    // Poison the world if this rank unwinds, so blocked peers abort
    // promptly instead of deadlocking.
    struct PoisonOnPanic(Arc<AtomicBool>);
    impl Drop for PoisonOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Relaxed);
            }
        }
    }
    let _guard = PoisonOnPanic(Arc::clone(&poisoned));
    let faults = world
        .faults
        .as_ref()
        .map(|plan| FaultState::for_rank(Arc::clone(plan), r));
    let mut rank = Rank {
        rank: r,
        size: p,
        pending: VecDeque::with_capacity(128),
        transport,
        pool,
        ctx_spares: Vec::with_capacity(8),
        poisoned,
        recorder: CommRecorder::default(),
        context: String::from("main"),
        coll_seq: 0,
        user_seq: 0,
        faults,
        injected_delay_us: 0,
        op_badge: None,
        verify: world.verify.clone(),
        finalized: false,
    };
    let start = Instant::now();
    let out = f(&mut rank);
    // Finalize-time leak check (idempotent; drivers may have run it
    // already under a profiler region).
    rank.verify_finalize();
    let app_time = start.elapsed().as_secs_f64();
    let drain = rank.transport.rx_drain();
    if drain.frames > 0 {
        rank.recorder.record_bulk(
            MpiOp::TransportSer,
            "transport:rx",
            drain.frames,
            drain.deser_s,
            drain.bytes,
            drain.max_frame,
        );
    }
    (out, rank.recorder.finish(r, app_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MpiOp, ReduceOp};

    #[test]
    fn single_rank_world_runs() {
        let res = World::new().run(1, |rank| rank.rank() + rank.size());
        assert_eq!(res.results, vec![1]);
        assert_eq!(res.stats.len(), 1);
    }

    #[test]
    fn ring_send_recv() {
        for p in [2usize, 3, 5, 8] {
            let res = World::new().run(p, |rank| {
                let next = (rank.rank() + 1) % rank.size();
                let prev = (rank.rank() + rank.size() - 1) % rank.size();
                rank.send(next, 7, &[rank.rank() as u64]);
                rank.recv::<u64>(prev, 7)[0]
            });
            for (r, &got) in res.results.iter().enumerate() {
                assert_eq!(got as usize, (r + p - 1) % p, "p={p}");
            }
        }
    }

    #[test]
    fn tag_matching_is_fifo_per_source_tag() {
        let res = World::new().run(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 1, &[10.0f64]);
                rank.send(1, 2, &[20.0f64]);
                rank.send(1, 1, &[11.0f64]);
                Vec::new()
            } else {
                // receive out of posting order: tag 2 first
                let a = rank.recv::<f64>(0, 2);
                let b = rank.recv::<f64>(0, 1);
                let c = rank.recv::<f64>(0, 1);
                vec![a[0], b[0], c[0]]
            }
        });
        assert_eq!(res.results[1], vec![20.0, 10.0, 11.0]);
    }

    #[test]
    fn isend_wait_recv_records_wait_time() {
        let res = World::new().run(2, |rank| {
            if rank.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                rank.isend(1, 5, &[1.0f64; 100]);
            } else {
                let req = rank.irecv(1 - 1, 5);
                let data = rank.wait_recv::<f64>(req);
                assert_eq!(data.len(), 100);
            }
        });
        let wait = res.stats[1].site(MpiOp::Wait, "main").expect("wait site");
        assert_eq!(wait.calls, 1);
        assert_eq!(wait.bytes, 800);
        assert!(wait.time_s > 0.02, "wait time {} too small", wait.time_s);
    }

    #[test]
    fn barrier_completes_for_odd_and_even_worlds() {
        for p in [1usize, 2, 3, 4, 7, 16] {
            let res = World::new().run(p, |rank| {
                for _ in 0..3 {
                    rank.barrier();
                }
                true
            });
            assert!(res.results.iter().all(|&b| b), "p={p}");
        }
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        for p in [1usize, 2, 3, 6, 8, 11] {
            let res = World::new().run(p, |rank| {
                let local = vec![rank.rank() as f64, 1.0, -(rank.rank() as f64)];
                rank.allreduce_f64(&local, ReduceOp::Sum)
            });
            let sum_ranks: f64 = (0..p).map(|r| r as f64).sum();
            for r in 0..p {
                assert_eq!(res.results[r][0], sum_ranks, "p={p} rank {r}");
                assert_eq!(res.results[r][1], p as f64);
                assert_eq!(res.results[r][2], -sum_ranks);
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let res = World::new().run(5, |rank| {
            let v = rank.rank() as u64 + 10;
            (
                rank.allreduce_u64(&[v], ReduceOp::Min)[0],
                rank.allreduce_u64(&[v], ReduceOp::Max)[0],
            )
        });
        for &(mn, mx) in &res.results {
            assert_eq!(mn, 10);
            assert_eq!(mx, 14);
        }
    }

    #[test]
    fn exscan_matches_serial_prefix_sums() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            let res = World::new().run(p, |rank| {
                let v = (rank.rank() as u64 + 1) * 10;
                rank.exscan_u64(v)
            });
            let mut expect = 0u64;
            for (r, &got) in res.results.iter().enumerate() {
                assert_eq!(got, expect, "p={p} rank {r}");
                expect += (r as u64 + 1) * 10;
            }
        }
    }

    #[test]
    fn exscan_of_zeros_is_zero() {
        let res = World::new().run(4, |rank| rank.exscan_u64(0));
        assert!(res.results.iter().all(|&v| v == 0));
    }

    #[test]
    fn alltoallv_exchanges_everything() {
        for p in [1usize, 2, 3, 4, 7] {
            let res = World::new().run(p, |rank| {
                let sends: Vec<Vec<u64>> = (0..rank.size())
                    .map(|q| vec![(rank.rank() * 100 + q) as u64; q + 1])
                    .collect();
                rank.alltoallv(sends)
            });
            for r in 0..p {
                for q in 0..p {
                    let buf = &res.results[r][q];
                    assert_eq!(buf.len(), r + 1, "p={p}");
                    assert!(buf.iter().all(|&v| v == (q * 100 + r) as u64));
                }
            }
        }
    }

    #[test]
    fn crystal_router_delivers_all_messages() {
        for p in [1usize, 2, 3, 5, 6, 8, 12, 16] {
            let res = World::new().run(p, |rank| {
                // every rank sends one message to every rank (incl. self)
                let outgoing: Vec<(usize, Vec<u64>)> = (0..rank.size())
                    .map(|q| (q, vec![(rank.rank() * 1000 + q) as u64]))
                    .collect();
                rank.crystal_router(outgoing)
            });
            for r in 0..p {
                let arrived = &res.results[r];
                assert_eq!(arrived.len(), p, "p={p} rank {r}");
                for (src, data) in arrived {
                    assert_eq!(data, &vec![(src * 1000 + r) as u64], "p={p}");
                }
            }
        }
    }

    #[test]
    fn crystal_router_sparse_pattern() {
        // only rank 0 sends, to the highest rank
        let p = 6;
        let res = World::new().run(p, |rank| {
            let outgoing = if rank.rank() == 0 {
                vec![(p - 1, vec![9.0f64, 8.0])]
            } else {
                Vec::new()
            };
            rank.crystal_router(outgoing)
        });
        for r in 0..p - 1 {
            assert!(res.results[r].is_empty());
        }
        assert_eq!(res.results[p - 1], vec![(0, vec![9.0, 8.0])]);
    }

    #[test]
    fn stats_account_send_bytes() {
        let res = World::new().run(2, |rank| {
            rank.set_context("exchange");
            if rank.rank() == 0 {
                rank.send(1, 3, &[0u64; 16]);
            } else {
                let _ = rank.recv::<u64>(0, 3);
            }
        });
        let s = res.stats[0].site(MpiOp::Send, "exchange").unwrap();
        assert_eq!(s.calls, 1);
        assert_eq!(s.bytes, 128);
        let r = res.stats[1].site(MpiOp::Recv, "exchange").unwrap();
        assert_eq!(r.bytes, 128);
        assert!(res.stats[0].mpi_fraction() <= 1.0 + 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_rank_world_rejected() {
        let _ = World::new().run(0, |_| ());
    }

    /// Failure injection: when one rank dies, peers blocked in receives
    /// must abort promptly (poisoned world) instead of deadlocking, and
    /// a panic must propagate to the caller (whichever rank's panic is
    /// joined first — the injected one or a poisoned receiver's abort).
    #[test]
    #[should_panic]
    fn peer_failure_poisons_blocked_ranks() {
        let _ = World::new().run(3, |rank| match rank.rank() {
            1 => panic!("rank 1 exploded"),
            // ranks 0 and 2 wait for messages that will never arrive;
            // they must abort via the poison flag, not hang the test
            _ => {
                let from = (rank.rank() + 1) % rank.size();
                let _ = rank.recv::<f64>(from, 99);
            }
        });
    }

    /// Injected message delays perturb timing only: results are identical to a fault-free run, and every injected
    /// event appears in the mpiP-style books under its own operation.
    #[test]
    fn message_faults_preserve_results_and_are_recorded() {
        let p = 4;
        let program = |rank: &mut Rank| {
            let mut acc = Vec::new();
            for round in 0..3u64 {
                let next = (rank.rank() + 1) % rank.size();
                let prev = (rank.rank() + rank.size() - 1) % rank.size();
                rank.send(next, round, &[(rank.rank() as u64) << round]);
                acc.push(rank.recv::<u64>(prev, round)[0]);
                acc.push(rank.allreduce_u64(&[acc[acc.len() - 1]], ReduceOp::Sum)[0]);
            }
            acc
        };
        let clean = World::new().run(p, program);
        let plan = crate::FaultPlan::parse("delay:prob=0.5,us=300;seed=3").unwrap();
        let faulty = World::new().with_fault_plan(plan).run(p, program);
        assert_eq!(clean.results, faulty.results);
        let injected: u64 = faulty
            .stats
            .iter()
            .flat_map(|s| s.sites.iter())
            .filter(|(k, _)| k.op.is_fault())
            .map(|(_, s)| s.calls)
            .sum();
        assert!(injected > 0, "hazards with prob=0.5 injected nothing");
        // fault-free run has no fault entries at all
        assert!(clean
            .stats
            .iter()
            .flat_map(|s| s.sites.iter())
            .all(|(k, _)| !k.op.is_fault()));
    }

    /// Fault schedules are deterministic: same plan, same world, same
    /// injected event counts.
    #[test]
    fn fault_schedule_is_deterministic() {
        let plan = crate::FaultPlan::parse("delay:prob=0.4,us=50;seed=11").unwrap();
        let count = |res: &WorldResult<()>| -> Vec<u64> {
            res.stats
                .iter()
                .map(|s| {
                    s.sites
                        .iter()
                        .filter(|(k, _)| k.op.is_fault())
                        .map(|(_, st)| st.calls)
                        .sum()
                })
                .collect()
        };
        let run = || {
            World::new().with_fault_plan(plan.clone()).run(3, |rank| {
                for i in 0..5u64 {
                    let next = (rank.rank() + 1) % rank.size();
                    let prev = (rank.rank() + rank.size() - 1) % rank.size();
                    rank.send(next, i, &[i]);
                    let _ = rank.recv::<u64>(prev, i);
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(count(&a), count(&b));
        assert!(count(&a).iter().sum::<u64>() > 0);
    }

    /// A rank-selected delay hazard stalls only the targeted rank, and
    /// the stall total is exposed deterministically via
    /// [`Rank::injected_delay_us`] — the load balancer's straggler
    /// signal.
    #[test]
    fn rank_selected_delay_targets_one_rank() {
        let plan = crate::FaultPlan::parse("delay:prob=1,us=100,rank=1;seed=2").unwrap();
        let run = || {
            World::new().with_fault_plan(plan.clone()).run(3, |rank| {
                for i in 0..4u64 {
                    let next = (rank.rank() + 1) % rank.size();
                    let prev = (rank.rank() + rank.size() - 1) % rank.size();
                    rank.send(next, i, &[i]);
                    let _ = rank.recv::<u64>(prev, i);
                }
                rank.injected_delay_us()
            })
        };
        let res = run();
        assert_eq!(res.results[0], 0);
        assert_eq!(res.results[1], 400, "prob=1: every send of rank 1 stalls");
        assert_eq!(res.results[2], 0);
        assert_eq!(run().results, res.results, "stall totals are deterministic");
    }

    /// `with_op_badge` relabels the underlying collective's statistics
    /// row — the badged op appears *instead of* the collective, never in
    /// addition, so total MPI time still sums cleanly.
    #[test]
    fn op_badge_replaces_underlying_row() {
        let res = World::new().run(2, |rank| {
            rank.with_context("lb", |rank| {
                rank.with_op_badge(MpiOp::LbGather, |rank| {
                    rank.allreduce_u64(&[rank.rank() as u64], ReduceOp::Sum)
                })
            });
            // Outside the badge, the same collective books normally.
            rank.allreduce_u64(&[1], ReduceOp::Sum);
        });
        for s in &res.stats {
            let badged = s.site(MpiOp::LbGather, "lb").expect("lb_gather row");
            assert_eq!(badged.calls, 1);
            assert!(s.site(MpiOp::Allreduce, "lb").is_none(), "double-booked");
            assert_eq!(s.site(MpiOp::Allreduce, "main").unwrap().calls, 1);
        }
    }

    /// An invalid fault plan is rejected at `run` time.
    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn out_of_range_kill_is_rejected() {
        let plan = crate::FaultPlan::parse("kill:rank=9,step=1").unwrap();
        let _ = World::new().with_fault_plan(plan).run(2, |_| ());
    }

    /// Failure injection mid-collective: a death during a barrier must
    /// not hang the remaining ranks.
    #[test]
    #[should_panic]
    fn failure_inside_collective_does_not_deadlock() {
        let _ = World::new().run(4, |rank| {
            if rank.rank() == 2 {
                panic!("boom");
            }
            for _ in 0..10 {
                rank.barrier();
            }
        });
    }
}
