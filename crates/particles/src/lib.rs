//! # cmt-particles
//!
//! Lagrangian point-particle tracking — the multiphase half of
//! "compressible multiphase turbulence". The paper's development plan
//! (§III.A) lists "lagrangian point particle tracking" as the next
//! CMT-nek capability whose abstraction will be added to CMT-bone; this
//! crate is that abstraction, built from the same substrates as the rest
//! of the mini-app:
//!
//! * **In-element spectral interpolation** ([`interp`]): particle
//!   velocities are evaluated from the carrier field by tensor-product
//!   barycentric Lagrange interpolation at arbitrary reference
//!   coordinates — exact for the polynomial data the spectral elements
//!   hold, validated as such.
//! * **Time integration** ([`tracker`]): RK2 (midpoint) advection of
//!   particle positions with periodic wrap-around.
//! * **Migration** ([`tracker::ParticleSet::migrate`]): particles that
//!   leave a rank's element block are routed to their new owner with the
//!   **crystal router** — the generalized all-to-all the paper
//!   highlights, because after a few steps particle traffic is *not*
//!   nearest-neighbor.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod interp;
pub mod tracker;

pub use interp::ElementInterpolator;
pub use tracker::{seeded_count, Particle, ParticleSet};
