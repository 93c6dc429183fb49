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
//! * the checkpoint layout — one rank's solver state (step/stage
//!   indices, simulation time, solver scalars and fields, and the
//!   fault-RNG state needed for bitwise replay) as versioned `simmpi`
//!   wire bytes under a `frame_sum` trailer, which one [`Encoder`]
//!   writes from a solver's live state and one [`Decoder`] reads back
//!   into it, refusing foreign, truncated or corrupt bytes;
//! * [`Resilience`] — the driver-facing orchestrator: cadence,
//!   partner-rank in-memory redundancy over a ring (each rank's
//!   checkpoint is mirrored on `(r + 1) % P`, moved in [`CHUNK`]-sized
//!   messages into the replica the holder already has), optional disk
//!   mirroring for cross-run `--restart`, the coordinated-rollback
//!   recovery protocol, and [`validate`], which both drivers run.
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

pub use checkpoint::{
    App, Checkpoint, Decoder, Encoder, FieldSink, Head, Mismatch, Shape, Values, MAGIC, VERSION,
};
pub use store::{load_checkpoint, validate, Resilience, CHUNK};
