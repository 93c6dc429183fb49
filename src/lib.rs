//! # cmt-repro
//!
//! Umbrella crate of the CMT-bone reproduction workspace: re-exports every
//! subsystem crate so the examples and cross-crate integration tests have
//! a single import root.
//!
//! See the workspace `README.md` for the architecture overview and
//! `DESIGN.md` for the paper-to-code experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cmt_bone;
pub use cmt_core;
pub use cmt_gs;
pub use cmt_mesh;
pub use cmt_perf;
pub use nekbone;
pub use simmpi;
