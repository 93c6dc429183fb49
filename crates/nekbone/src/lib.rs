//! # nekbone
//!
//! A Rust implementation of the Nekbone mini-app — the CESAR proxy for
//! Nek5000's spectral-element solver, and the comparison baseline of the
//! CMT-bone paper's Fig. 7.
//!
//! Nekbone solves a standard-Poisson-plus-mass (Helmholtz) system on the
//! spectral-element mesh with unpreconditioned conjugate gradients:
//!
//! * the **`ax` kernel** ([`ax`]) applies the element-local stiffness +
//!   mass operator — the same small-matrix-multiply workload as CMT-bone's
//!   derivative kernel, but six contractions per element (`D` forward and
//!   `D^T` back for each direction);
//! * **`dssum`** — direct-stiffness summation over the *continuous*
//!   (vertex-conforming) global numbering via the gather-scatter library:
//!   every face, edge and corner point (up to 8 sharers) participates, a
//!   denser exchange topology than CMT-bone's face-only DG exchange. This
//!   difference is exactly why the two mini-apps can legitimately choose
//!   different gather-scatter methods in Fig. 7, even on identical
//!   problem parameters;
//! * **dot products** — multiplicity-weighted local sums completed with
//!   `MPI_Allreduce` (the paper's "vector reductions").
//!
//! Entry points: [`Config`] + [`run`] for the instrumented proxy run
//! (autotune table, profile, comm statistics), [`cg::cg_solve`] for the
//! bare solver, and the `nekbone` binary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ax;
pub mod cg;
mod driver;

pub use driver::{run, Config, NekboneReport};
