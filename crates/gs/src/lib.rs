//! # cmt-gs
//!
//! The gather–scatter library: a Rust analogue of Nek5000's `gslib`, the
//! machinery behind both CMT-bone's nearest-neighbor surface exchange and
//! Nekbone's `dssum`.
//!
//! From the paper (§VI): *"spectral element coefficients are stored
//! redundantly (and locally) on each processor instead of maintaining a
//! global matrix and each processor is given index sets containing the
//! global ids of the elements using `gs_setup`. This requires a discovery
//! phase using all-to-all communication to identify for every global index
//! `i` on process `p`, all the processes `q` that also have `i`."* and
//! *"At the beginning of each CMT-nek and CMT-bone simulation, three
//! gather-scatter methods are evaluated to determine which one performs
//! the best for the given problem setup and machine. These three exchange
//! strategies are: (1) pairwise exchange, (2) crystal-router, and (3)
//! all_reduce onto a big vector."*
//!
//! This crate implements all of it:
//!
//! * [`GsHandle::setup`] — the discovery phase: distinct local ids are
//!   routed to home ranks (`gid % P`) with an all-to-all, homes assign a
//!   globally consistent compact numbering and return each id's sharer
//!   list, and the flat exchange plan is built from it: *halo* ids
//!   (shared with a neighbor rank; per-neighbor lists sorted by id, hence
//!   identical on both sides), rank-interior *pairs* (the DG face case)
//!   and rank-interior ids with more copies, as index arrays. An id with
//!   one copy in the world is in no list and is never touched.
//! * [`GsHandle::gs_op`] — the combine-over-all-occurrences operation
//!   (`Add`/`Mul`/`Min`/`Max`) with the three methods of [`GsMethod`]:
//!   pairwise exchange (isend/irecv/wait with each touching neighbor),
//!   crystal router (bundled hypercube routing, `log2 P` stages), and
//!   all_reduce onto a dense vector over the compact id universe. Only
//!   the halo goes through a method; the interior is combined locally.
//! * [`GsHandle::overlapped`] — the split-phase form, in place as
//!   gslib's is: [`GsHandle::gs_op_start`] snapshots and packs the halo
//!   and posts the exchange; the caller's window computes while the
//!   messages are in flight, seeing the exchanged arrays read-only;
//!   [`GsHandle::gs_op_finish`] drains the receives, scatters the halo
//!   and combines the interior in one sweep, however the window
//!   returns. The blocking `gs_op` and the multi-field `gs_op_many` are
//!   `overlapped` with an empty window.
//! * [`autotune`] — times all three methods on the actual handle and
//!   picks the fastest, exactly the startup protocol the paper describes;
//!   its report is the paper's Fig. 7 table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod autotune;
mod handle;
mod ops;
mod plan;
mod wire;

pub use autotune::{autotune, AutotuneOptions, AutotuneReport, MethodTiming};
pub use handle::{GsHandle, HandleStats};
pub use ops::{GsMethod, GsOp};
