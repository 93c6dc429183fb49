//! # cmt-perf
//!
//! Performance instrumentation for the CMT-bone reproduction — the
//! measurement machinery behind every figure of the paper's evaluation:
//!
//! * [`profiler`] — a gprof-style hierarchical region profiler (call
//!   counts, self/total time, flat profile and partial call graph): the
//!   instrument behind Fig. 4's execution profile.
//! * [`papi`] — a documented analytic model translating the exact
//!   per-kernel operation counts of [`cmt_core::cost`] into estimated
//!   total-instruction and total-cycle counts per kernel *variant* and
//!   *direction*, standing in for the PAPI hardware counters of
//!   Figs. 5-6. The model's parameters are calibrated so the basic-vs-
//!   optimized ratios match the paper's measurements on the AMD Opteron
//!   6378 (dudt ~2.3x, dudr ~1.0x, duds ~1x).
//! * [`alloc`] — thread-local heap-allocation counters (feature-gated
//!   counting global allocator) that the profiler attributes to regions,
//!   turning "zero allocations at steady state" into an asserted fact.
//! * [`mpip`] — mpiP-style aggregation of [`simmpi::CommStats`] across
//!   ranks: per-rank MPI time fractions (Fig. 8), the most expensive call
//!   sites (Fig. 9), and per-call-site message volumes (Fig. 10), with
//!   plain-text renderers shaped like the paper's plots.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod mpip;
pub mod papi;
pub mod profiler;

/// Profiler region names shared across the solver drivers, so
/// cross-cutting machinery (checkpoint/restart, recovery) shows up under
/// one name in every mini-app's Fig. 4-style profile.
pub mod regions {
    /// Checkpoint capture: encode solver state, replicate to the partner
    /// rank, optionally mirror to disk.
    pub const CHECKPOINT: &str = "checkpoint (encode + replicate)";
    /// Rollback recovery: re-fetch a killed rank's checkpoint from its
    /// replica holder, restore solver state, re-enter the loop.
    pub const RECOVERY: &str = "recovery (restore + rollback)";
    /// `cmt-verify` finalize sweep: the end-of-run barrier plus the
    /// mailbox scan for leaked messages. Also isolates the verifier's
    /// cost in overhead comparisons.
    pub const VERIFY: &str = "verify (finalize sweep)";
    /// Load-balancer monitor + decision: gather the per-element /
    /// per-rank cost vector and run the deterministic repartition
    /// policy.
    pub const LB_MONITOR: &str = "lb monitor (gather + decide)";
    /// Load-balancer migration: ship element state blocks and resident
    /// particles to their new owners, then rebuild gather–scatter plans
    /// and local buffers.
    pub const LB_MIGRATE: &str = "lb migrate (ship + rebuild)";
    /// Passive-particle advection (interpolate velocity at each particle,
    /// RK2 push).
    pub const PARTICLE_ADVECT: &str = "particle_advect";
    /// Passive-particle ownership migration over the crystal router.
    pub const PARTICLE_MIGRATE: &str = "particle_migrate (crystal router)";
}

pub use mpip::{MpipReport, SiteAggregate};
pub use papi::{model_kernel, PapiEstimate};
pub use profiler::{ProfileReport, Profiler};
