//! Distributed compressible Euler: a density wave carried through a
//! periodic box by uniform flow — an exact solution of the full nonlinear
//! equations — solved across thread-ranks with the mini-app's own
//! kernels, surface exchange and adaptive timestep reductions.
//!
//! ```text
//! cargo run --release --example euler_wave [ranks]
//! ```

use std::f64::consts::PI;

use cmt_bone::{run_euler, EulerRunConfig};
use cmt_core::eos::Primitive;
use cmt_mesh::MeshConfig;

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let cfg = EulerRunConfig {
        ranks,
        elems_per_rank: 8,
        n: 5,
        steps: 40,
        // one-way-coupled Lagrangian tracers, enough that some cross a
        // rank boundary within the run
        particles_per_elem: 4,
        ..Default::default()
    };
    let mesh = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
    let ge = mesh.global_elems();
    let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
    println!(
        "Compressible Euler on {} ranks, {} global elements, N = {}\n",
        cfg.ranks,
        mesh.total_elems(),
        cfg.n
    );

    let init = move |x: f64, _y: f64, _z: f64| Primitive {
        rho: 1.0 + 0.2 * (2.0 * PI * x / lengths[0]).sin(),
        vel: [0.5, 0.0, 0.0],
        p: 1.0,
    };
    let rep = run_euler(&cfg, init);

    println!(
        "reached t = {:.4} in {} steps (adaptive CFL dt)",
        rep.time, cfg.steps
    );
    println!("physically admissible everywhere: {}", rep.admissible);
    println!("\nconserved-quantity drift over the run:");
    let names = ["mass", "x-momentum", "y-momentum", "z-momentum", "energy"];
    for (c, name) in names.iter().enumerate() {
        let (b, a) = (rep.totals_before[c], rep.totals_after[c]);
        println!(
            "  {name:11} {b:+.12e} -> {a:+.12e}   (drift {:.2e})",
            (a - b).abs()
        );
    }
    println!(
        "\nLagrangian tracers: {} particles, {} rank-to-rank migrations (crystal router)",
        rep.particle_count, rep.particles_migrated
    );
    println!("\nexecution profile:");
    println!("{}", rep.profile.render_flat());

    assert!(rep.admissible, "the flow left the admissible set");
    assert_eq!(
        rep.particle_count,
        (mesh.total_elems() * cfg.particles_per_elem) as u64,
        "particles lost or duplicated"
    );
    assert!(
        cfg.ranks == 1 || rep.particles_migrated > 0,
        "no tracer crossed a rank boundary"
    );
}
