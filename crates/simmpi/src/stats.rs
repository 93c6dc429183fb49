//! Per-rank communication statistics — the mpiP analogue.
//!
//! The paper instruments CMT-bone with mpiP, "a lightweight, task-local,
//! and scalable profiling library for MPI applications", and reports
//! (Figs. 8-10) per-rank MPI time fractions, the most expensive call
//! sites, and per-call-site message volumes. `simmpi` keeps the same
//! task-local books: every operation appends to its rank's
//! [`CommRecorder`] under a key of `(operation, context)`, where the
//! context string is set by the application ([`crate::Rank::set_context`])
//! and plays the role of mpiP's call-site stack signature.

use std::collections::HashMap;
use std::time::Duration;

/// The MPI operation kinds distinguished by the recorder: exactly the
/// operations CMT-bone and Nekbone call, plus the fault-injection, wire
/// and load-balancer rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MpiOp {
    /// Blocking send.
    Send,
    /// Non-blocking send initiation.
    Isend,
    /// Blocking receive.
    Recv,
    /// Non-blocking receive initiation.
    Irecv,
    /// Completion wait on a non-blocking request.
    Wait,
    /// Barrier.
    Barrier,
    /// Allreduce.
    Allreduce,
    /// Prefix scan.
    Scan,
    /// All-to-all with per-peer counts.
    Alltoallv,
    /// Crystal-router generalized all-to-all.
    CrystalRouter,
    /// Injected message delay (fault injection; time is the delay served).
    FaultDelay,
    /// Wire serialization/deserialization performed by a non-in-process
    /// transport (the socket backend). Recorded as its own row so wire
    /// overhead never silently folds into `MPI_Send`/`MPI_Wait`.
    TransportSer,
    /// Load-balancer cost-vector gather (the `cmt-lb` allgather of
    /// per-element and per-rank cost samples). Recorded *instead of* the
    /// underlying collective row via [`crate::Rank::with_op_badge`], so
    /// LB monitoring traffic is a first-class mpiP line item and never
    /// double-counts against `MPI_Allreduce`.
    LbGather,
    /// Load-balancer migration traffic: element state blocks and resident
    /// particles shipped to their new owners over the crystal router.
    /// Badged over the underlying `crystal_router` row, same rule as
    /// [`MpiOp::LbGather`].
    LbMigrate,
}

impl MpiOp {
    /// Display name styled after the MPI profiling literature.
    pub fn mpi_name(self) -> &'static str {
        match self {
            MpiOp::Send => "MPI_Send",
            MpiOp::Isend => "MPI_Isend",
            MpiOp::Recv => "MPI_Recv",
            MpiOp::Irecv => "MPI_Irecv",
            MpiOp::Wait => "MPI_Wait",
            MpiOp::Barrier => "MPI_Barrier",
            MpiOp::Allreduce => "MPI_Allreduce",
            MpiOp::Scan => "MPI_Scan",
            MpiOp::Alltoallv => "MPI_Alltoallv",
            MpiOp::CrystalRouter => "crystal_router",
            MpiOp::FaultDelay => "fault_delay",
            MpiOp::TransportSer => "transport_ser",
            MpiOp::LbGather => "lb_gather",
            MpiOp::LbMigrate => "lb_migrate",
        }
    }

    /// Whether this entry is an injected-fault record rather than a real
    /// communication operation.
    pub fn is_fault(self) -> bool {
        self == MpiOp::FaultDelay
    }
}

/// Identity of a profiled call site: operation + application context label.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteKey {
    /// Which operation.
    pub op: MpiOp,
    /// Application-provided context (e.g. `"gs:pairwise"`).
    pub context: String,
}

/// Accumulated statistics of one call site on one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteStats {
    /// Number of invocations.
    pub calls: u64,
    /// Total wall time spent inside the operation, seconds.
    pub time_s: f64,
    /// Total bytes sent and received by the operation.
    pub bytes: u64,
    /// Largest single-call byte count.
    pub max_bytes: u64,
}

/// Task-local recorder owned by each [`crate::Rank`].
///
/// Keyed two-level (op, then context) so the hot path — recording into an
/// existing site — is a borrowed-`&str` lookup with no allocation; the
/// context string is only cloned the first time a site appears.
#[derive(Debug, Default)]
pub struct CommRecorder {
    sites: HashMap<MpiOp, HashMap<String, SiteStats>>,
}

impl CommRecorder {
    /// Record one completed operation.
    pub fn record(&mut self, op: MpiOp, context: &str, elapsed: Duration, bytes: u64) {
        let by_ctx = self.sites.entry(op).or_default();
        let entry = match by_ctx.get_mut(context) {
            Some(e) => e,
            None => by_ctx.entry(context.to_owned()).or_default(),
        };
        entry.calls += 1;
        entry.time_s += elapsed.as_secs_f64();
        entry.bytes += bytes;
        entry.max_bytes = entry.max_bytes.max(bytes);
    }

    /// Record many completed operations in one shot — the drain path for
    /// work performed off the rank thread (a socket transport's rx
    /// deserialization, say), where per-event timing was accumulated
    /// elsewhere and only the totals and the largest single call's bytes
    /// reach the recorder.
    pub fn record_bulk(
        &mut self,
        op: MpiOp,
        context: &str,
        calls: u64,
        time_s: f64,
        bytes: u64,
        max_bytes: u64,
    ) {
        if calls == 0 {
            return;
        }
        let by_ctx = self.sites.entry(op).or_default();
        let entry = match by_ctx.get_mut(context) {
            Some(e) => e,
            None => by_ctx.entry(context.to_owned()).or_default(),
        };
        entry.calls += calls;
        entry.time_s += time_s;
        entry.bytes += bytes;
        entry.max_bytes = entry.max_bytes.max(max_bytes);
    }

    /// Finish recording, producing the immutable per-rank stats.
    pub fn finish(self, rank: usize, app_time_s: f64) -> CommStats {
        let mut sites: Vec<(SiteKey, SiteStats)> = self
            .sites
            .into_iter()
            .flat_map(|(op, by_ctx)| {
                by_ctx
                    .into_iter()
                    .map(move |(context, s)| (SiteKey { op, context }, s))
            })
            .collect();
        sites.sort_by(|a, b| a.0.cmp(&b.0));
        CommStats {
            rank,
            app_time_s,
            sites,
        }
    }
}

/// Immutable communication statistics of one rank over one [`crate::World`]
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct CommStats {
    /// The rank these statistics belong to.
    pub rank: usize,
    /// Total wall time the rank spent in the application closure, seconds.
    pub app_time_s: f64,
    /// Per-call-site statistics, sorted by key for determinism.
    pub sites: Vec<(SiteKey, SiteStats)>,
}

impl CommStats {
    /// Total time spent in communication operations, seconds.
    pub fn mpi_time_s(&self) -> f64 {
        self.sites.iter().map(|(_, s)| s.time_s).sum()
    }

    /// Fraction of application time spent in communication (the paper's
    /// Fig. 8 quantity), in `[0, 1]` barring clock skew.
    pub fn mpi_fraction(&self) -> f64 {
        if self.app_time_s > 0.0 {
            self.mpi_time_s() / self.app_time_s
        } else {
            0.0
        }
    }

    /// Look up one site's stats.
    pub fn site(&self, op: MpiOp, context: &str) -> Option<&SiteStats> {
        self.sites
            .iter()
            .find(|(k, _)| k.op == op && k.context == context)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_per_site() {
        let mut r = CommRecorder::default();
        r.record(MpiOp::Send, "a", Duration::from_millis(10), 100);
        r.record(MpiOp::Send, "a", Duration::from_millis(20), 300);
        r.record(MpiOp::Recv, "a", Duration::from_millis(5), 50);
        r.record(MpiOp::Send, "b", Duration::from_millis(1), 7);
        let stats = r.finish(2, 1.0);
        assert_eq!(stats.rank, 2);
        assert_eq!(stats.sites.len(), 3);
        let send_a = stats.site(MpiOp::Send, "a").unwrap();
        assert_eq!(send_a.calls, 2);
        assert_eq!(send_a.bytes, 400);
        assert_eq!(send_a.max_bytes, 300);
        assert!((send_a.time_s - 0.030).abs() < 1e-9);
        assert!((stats.mpi_time_s() - 0.036).abs() < 1e-9);
        assert!((stats.mpi_fraction() - 0.036).abs() < 1e-9);
    }

    #[test]
    fn zero_app_time_gives_zero_fraction() {
        let stats = CommRecorder::default().finish(0, 0.0);
        assert_eq!(stats.mpi_fraction(), 0.0);
        assert_eq!(stats.mpi_time_s(), 0.0);
    }

    #[test]
    fn mpi_names_are_stable() {
        assert_eq!(MpiOp::Wait.mpi_name(), "MPI_Wait");
        assert_eq!(MpiOp::Alltoallv.mpi_name(), "MPI_Alltoallv");
    }
}
