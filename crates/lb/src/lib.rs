//! # cmt-lb
//!
//! Dynamic load balancing for the CMT-bone reproduction.
//!
//! CMT-nek's particle phase concentrates work wherever the particle
//! cloud happens to be dense, so a static Cartesian element partition
//! degenerates into a straggler problem: every per-step collective runs
//! at the pace of the most loaded rank. This crate supplies the three
//! pieces the driver wires together to fix that at runtime:
//!
//! * [`monitor`] — the **cost monitor** [`monitor::gather_costs`], the
//!   collective that allgathers the *deterministic* cost inputs
//!   (per-element particle counts, per-rank injected-delay totals) every
//!   `--lb-every` steps — badged as the dedicated `lb_gather` mpiP
//!   operation.
//! * [`policy`] — the deterministic **rebalance policy**: an analytic
//!   [`CostModel`] built from the exact operation counts of
//!   [`cmt_core::cost`] turns the gathered vector into per-element
//!   costs, and a threshold-triggered greedy chain partitioner emits a
//!   new owner vector. Every rank feeds the identical gathered vector
//!   through the identical pure-f64 arithmetic, so every rank computes
//!   the identical decision with no further communication — and no
//!   wall-clock reading is ever an input.
//! * [`migrate`] — the **migration engine**: ships per-element state
//!   blocks (field values plus resident particles, packed by the
//!   caller) to their new owners over the pooled crystal router, badged
//!   as the `lb_migrate` mpiP operation. Plan rebuilds (gather–scatter,
//!   checkpoint partners) stay with the driver, which owns those
//!   handles.
//!
//! The split keeps a hard line between *observation* (wall-clock
//! timers, free to differ across ranks and runs) and *decision* (pure
//! function of SPMD-identical integers), which is what lets a
//! load-balanced run reproduce the unbalanced run's physics bit for
//! bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod migrate;
pub mod monitor;
pub mod policy;

pub use migrate::{migrate_blocks, MigrationStats};
pub use monitor::{gather_costs, GlobalCost};
pub use policy::{decide, CostModel, Decision};
