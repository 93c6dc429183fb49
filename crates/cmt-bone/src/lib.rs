//! # cmt-bone
//!
//! The CMT-bone mini-app (Kumar et al., CLUSTER 2015): a performance proxy
//! for CMT-nek, the discontinuous-Galerkin spectral-element compressible
//! multiphase turbulence solver built on Nek5000.
//!
//! Per the paper (§IV), the mini-app abstracts CMT-nek's timestep into
//!
//! 1. the **flux-divergence** term — small matrix multiplications of the
//!    `N x N` derivative operator against the `(N, N, N, Nel)` element
//!    data ([`cmt_core::kernels`], the dominant `ax_`-like cost of
//!    Fig. 4);
//! 2. the **numerical-flux** term — `full2face` surface extraction and a
//!    nearest-neighbor gather–scatter exchange ([`cmt_gs`]);
//! 3. **vector reductions** — global allreduces for timestep control.
//!
//! The proxy's five fields stand in for the conserved variables (mass,
//! momentum, energy). Rather than stepping meaningless data, this
//! implementation advances each field with a *real* DG advection operator
//! assembled from exactly the proxy kernels (upwind fluxes recovered from
//! the gather-scatter exchange), so the mini-app is simultaneously a
//! faithful performance proxy and a numerically verifiable program. Its
//! DG terms are `cmt-core`'s, the ones the single-process reference
//! solvers ([`cmt_core::diffusion::AdvDiffSolver`],
//! [`cmt_core::euler::EulerSolver`]) call, and the test suite checks the
//! distributed runs against those solvers.
//!
//! With [`Config::euler`] set, the same driver and operation sequence step
//! compressible Euler instead: the real flux divergence, a Rusanov lift,
//! and `dt` adapted to the global wave speed at every timestep-control
//! allreduce.
//!
//! Entry points:
//! * [`Config`] + [`run`] — execute the mini-app and collect the full
//!   measurement set ([`RunReport`]: Fig. 4 profile, Fig. 7 autotune
//!   table, Figs. 8-10 communication statistics);
//! * [`run_collecting_solution`] — same, returning the final fields for
//!   validation;
//! * the `cmt-bone` binary — command-line driver printing the paper-style
//!   reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod driver;
mod report;

pub use config::{Config, Pipeline};
pub use driver::{run, run_collecting_solution, SolutionDump};
pub use report::{LbSummary, RunReport};
