//! Spectral-convergence study: the DG machinery underlying the mini-app's
//! proxy kernels solves a real advection problem, and its error decays
//! exponentially in the element order N — the signature property of the
//! spectral element method CMT-nek is built on. Asserts the error falls
//! with every step in N, and by six orders from N = 4 to N = 12.
//!
//! ```text
//! cargo run --release --example advection_convergence
//! ```

use std::f64::consts::PI;

use cmt_core::diffusion::{AdvDiffConfig, AdvDiffSolver};
use cmt_core::KernelVariant;

fn main() {
    println!("Periodic advection of sin(2*pi*x), 2x1x1 elements, t = 0.25");
    println!("(upwind DG-SEM + SSP-RK3, built from the CMT-bone kernels)\n");
    println!("  N    max error      decay vs previous");
    let profile = |x: f64, _y: f64, _z: f64| (2.0 * PI * x).sin();
    let mut errors = Vec::new();
    for n in [4usize, 5, 6, 7, 8, 10, 12] {
        let mut solver = AdvDiffSolver::new(AdvDiffConfig {
            n,
            elems: [2, 1, 1],
            lengths: [1.0, 1.0, 1.0],
            velocity: [1.0, 0.0, 0.0],
            nu: 0.0,
            variant: KernelVariant::Simd,
        });
        solver.init(profile);
        let t_end = 0.25;
        let dt = solver.stable_dt(0.2).min(t_end / 50.0);
        let steps = (t_end / dt).ceil() as usize;
        let dt = t_end / steps as f64;
        for _ in 0..steps {
            solver.step(dt);
        }
        let err = solver.error_vs_decaying_wave([1, 0, 0]);
        match errors.last() {
            Some(p) if err > 0.0 => println!("{n:3}    {err:12.3e}   {:8.1}x", p / err),
            _ => println!("{n:3}    {err:12.3e}          -"),
        }
        errors.push(err);
    }
    assert!(
        errors.windows(2).all(|w| w[1] < w[0]),
        "error did not fall with N: {errors:?}"
    );
    assert!(errors[errors.len() - 1] < 1e-6 * errors[0], "{errors:?}");
    println!("\nExponential decay with N (until the RK3 time error floor) is");
    println!("what distinguishes a genuine spectral-element kernel from a stand-in.");
}
