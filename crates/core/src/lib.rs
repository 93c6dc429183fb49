//! # cmt-core
//!
//! Numerical core of the CMT-bone mini-app (Kumar et al., *CMT-bone: A
//! Mini-App for Compressible Multiphase Turbulence Simulation Software*,
//! CLUSTER 2015).
//!
//! CMT-bone abstracts the CMT-nek discontinuous-Galerkin spectral-element
//! solver into three operations; this crate implements the local
//! (per-process) computational pieces of all of them:
//!
//! * **Derivative kernels** ([`kernels`]): the `O(N^4)` small
//!   matrix-multiplications that compute partial derivatives `du/dr`,
//!   `du/ds`, `du/dt` of `N x N x N` tensor-product element data against the
//!   `N x N` spectral differentiation matrix. This is the `ax_`-like hot
//!   spot of the paper's Fig. 4 and the subject of its Figs. 5-6. Three
//!   variants are provided: a straightforward [`kernels::basic`]
//!   implementation, a loop-fused/vectorizing [`kernels::opt`]
//!   implementation, and the hand-vectorized [`kernels::simd`] tier,
//!   bitwise identical to `opt`.
//! * **Face extraction** ([`face`]): `full2face` / `face2full`, building the
//!   contiguous surface arrays exchanged with nearest neighbors.
//! * **Polynomial machinery** ([`poly`]): Legendre-Gauss-Lobatto nodes,
//!   quadrature weights, spectral differentiation matrices, and barycentric
//!   interpolation operators (used for the dealiasing fine-mesh mapping the
//!   paper mentions in Section V).
//! * **Time stepping** ([`rk`]): the 3-stage low-storage TVD Runge-Kutta
//!   scheme used by CMT-nek's explicit solver.
//! * **DG terms** ([`ops`], [`euler`]): the upwind advection lift, the
//!   BR1 viscous lifts, the Euler volume term and Rusanov lift, and the
//!   stable timestep — each written once and called by both the serial
//!   reference solvers and the distributed mini-app.
//! * **Serial reference solvers** ([`diffusion`], [`euler`]): periodic
//!   advection–diffusion (pure advection at `nu = 0`) and compressible
//!   Euler on one process, with their own local trace exchange. Their
//!   tests check the shared terms against exact solutions: spectral
//!   convergence, decay rates, conservation, and Sod against [`riemann`].
//!
//! The data layout follows Nek5000: element data is stored `[e][k][j][i]`
//! with `i` fastest (Fortran-like), so the three derivative directions have
//! genuinely different memory-access patterns — which is the entire point of
//! the paper's kernel study.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod diffusion;
pub mod eos;
pub mod euler;
pub mod face;
pub mod field;
pub mod kernels;
pub mod ops;
mod periodic;
pub mod poly;
pub mod riemann;
pub mod rk;

pub use field::Field;
pub use kernels::{DerivDir, KernelVariant};
pub use poly::Basis;
