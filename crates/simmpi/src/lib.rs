//! # simmpi
//!
//! A thread-based message-passing runtime with MPI-like semantics, built as
//! the communication substrate for the CMT-bone reproduction.
//!
//! The CMT-bone paper (CLUSTER 2015) characterizes its mini-app's MPI
//! behaviour — which gather-scatter algorithm wins (Fig. 7), the fraction
//! of time each rank spends in MPI (Fig. 8), the most expensive call sites
//! (Fig. 9, dominated by `MPI_Wait`), and per-call-site message sizes
//! (Fig. 10). Reproducing those experiments needs an MPI whose *schedule*
//! is faithful (who sends what to whom, with which algorithm, in which
//! order) and whose operations can be timed and byte-counted per call
//! site. It does not need InfiniBand. `simmpi` therefore runs each MPI
//! rank as an OS thread and moves messages over channels:
//!
//! * [`World::run`] spawns `P` ranks and hands each a [`Rank`] handle;
//! * point-to-point: [`Rank::send`] / [`Rank::recv`] with `(source, tag)`
//!   matching, plus non-blocking [`Rank::isend`] / [`Rank::irecv`] and
//!   [`Rank::wait_recv`] (time blocked in wait is attributed to a `Wait`
//!   op, exactly how mpiP attributes it in the paper's Fig. 9);
//! * collectives implemented with the textbook distributed algorithms over
//!   the same p2p layer, exactly the ones the mini-apps call:
//!   dissemination barrier, binomial-tree allreduce, Hillis–Steele
//!   exclusive scan, pairwise-exchange alltoallv;
//! * the [`crystal`] module implements Nek5000's crystal-router
//!   generalized all-to-all (hypercube staging, `log2 P` rounds, with the
//!   fold/unfold extension for non-power-of-two rank counts);
//! * every operation records `(op, context, duration, bytes)` into a
//!   per-rank [`stats::CommStats`], where `context` is a user-set label
//!   ([`Rank::set_context`]) standing in for mpiP's call-site stacks.
//!   Link latency and bandwidth are measured, not modelled: the
//!   benchmark's ping-pong and bandwidth probes time both transports.
//!
//! Determinism: message *matching* is deterministic (FIFO per
//! source/tag); completion *order* across ranks is scheduled by the OS, as
//! with real MPI. All collectives produce bitwise-deterministic results
//! because their reduction trees are fixed by rank arithmetic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod crystal;
pub mod envelope;
pub mod faults;
pub(crate) mod mailbox;
pub mod pool;
pub mod rank;
pub mod rng;
pub(crate) mod socket;
pub mod stats;
pub mod transport;
pub mod verify;
pub mod wire;
pub mod world;

pub use envelope::Msg;
pub use faults::{DelayFault, FaultPlan, KillEvent};
pub use pool::{BufferPool, PooledVec};
pub use rank::{Rank, RecvRequest, Tag};
pub use stats::{CommStats, MpiOp, SiteKey, SiteStats};
pub use transport::{SocketConfig, TransportKind};
pub use verify::{CollFingerprint, CollKind, LeakInfo, VerifyHooks};
pub use wire::{frame_sum, WireCodec, WireError, WireReader};
pub use world::{World, WorldResult};

/// Elementwise reduction operators for the typed collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    /// Apply the operator to a pair of `f64` values.
    #[inline]
    pub fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Apply the operator to a pair of `u64` values.
    #[inline]
    pub fn apply_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}
