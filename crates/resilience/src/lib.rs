//! # cmt-resilience
//!
//! Checkpoint/restart for the CMT-bone reproduction's solvers, paired
//! with `simmpi`'s deterministic fault injection.
//!
//! The paper's target machines make faults routine at scale, and the
//! CMT line of work (dynamic load balancing, production Nek-family
//! checkpoint/restart) assumes mid-run state capture machinery. This
//! crate provides the storage half of that story:
//!
//! * [`Checkpoint`] — one rank's solver state (step/stage indices,
//!   simulation time, solver scalars and fields, and the fault-RNG
//!   state needed for bitwise replay) as versioned `simmpi` wire bytes
//!   under a `frame_sum` trailer, refused as a [`simmpi::WireError`]
//!   when foreign, of another version, truncated or corrupt. One
//!   [`Encoder`] writes that layout, from a `Checkpoint` or straight
//!   from a solver's live state;
//! * [`Resilience`] — the driver-facing orchestrator: cadence,
//!   partner-rank in-memory redundancy over a ring (each rank's
//!   checkpoint is mirrored on `(r + 1) % P`, moved in [`CHUNK`]-sized
//!   messages into the replica the holder already has), optional disk mirroring
//!   for cross-run `--restart`, and the coordinated-rollback recovery
//!   protocol that restores a killed rank's state from its replica
//!   holder.
//!
//! The solvers stay deterministic, so rolling every rank back to the
//! same checkpoint replays the identical trajectory: a run that
//! suffered an injected kill finishes bitwise identical to an
//! uninterrupted run at the same checkpoint cadence — the property the
//! workspace's end-to-end resilience tests assert.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod hash;
pub mod store;

pub use checkpoint::{App, Checkpoint, Encoder, FieldSink, Head, Shape, MAGIC, VERSION};
pub use store::{load_checkpoint, Resilience, CHUNK};
