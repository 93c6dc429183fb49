//! Lagrangian point-particle tracking across ranks — the paper's named
//! future-work capability, built on the crystal router: particles swirl
//! through the periodic box under an analytic velocity field, migrating
//! between ranks whenever they cross block boundaries. Asserts that no
//! particle is lost or duplicated and that some do migrate.
//!
//! ```text
//! cargo run --release --example particle_tracking [ranks]
//! ```

use cmt_core::poly::Basis;
use cmt_mesh::{MeshConfig, RankMesh};
use cmt_particles::ParticleSet;
use simmpi::World;

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let cfg = MeshConfig::for_ranks(ranks, 8, 4, true);
    println!(
        "Particle tracking on {ranks} ranks, {} elements\n",
        cfg.total_elems()
    );
    println!("step | global particles | migrated this step (sum over ranks)");

    let cfg_run = cfg.clone();
    let res = World::new().run(ranks, move |rank| {
        let basis = Basis::new(cfg_run.n);
        let mesh = RankMesh::new(cfg_run.clone(), rank.rank());
        let ge = mesh.config().global_elems();
        let (lx, ly) = (ge[0] as f64, ge[1] as f64);
        let mut set = ParticleSet::new(mesh, &basis);
        set.seed_uniform(4);
        let seeded = set.global_count(rank);
        // a swirling, divergence-free-ish velocity field
        let vel = move |p: [f64; 3]| {
            let (x, y) = (p[0] / lx, p[1] / ly);
            [
                0.9 + 0.3 * (2.0 * std::f64::consts::PI * y).sin(),
                0.4 * (2.0 * std::f64::consts::PI * x).sin(),
                0.2,
            ]
        };
        let mut log = Vec::new();
        for step in 0..12 {
            set.advect_analytic(0.25, vel);
            let stats = set.migrate(rank);
            let total = set.global_count(rank);
            let moved = rank.allreduce_u64(&[stats.sent as u64], simmpi::ReduceOp::Sum)[0];
            if rank.rank() == 0 {
                log.push((step, total, moved));
            }
        }
        (seeded, log)
    });
    let (seeded, log) = &res.results[0];
    for (step, total, moved) in log {
        println!("{step:4} | {total:16} | {moved}");
    }
    assert!(
        log.iter().all(|(_, total, _)| total == seeded),
        "the global particle count left {seeded}"
    );
    if ranks > 1 {
        assert!(
            log.iter().any(|&(_, _, moved)| moved > 0),
            "no particle migrated"
        );
    }
    println!("\nEvery migration is a crystal-router exchange: particle traffic");
    println!("quickly stops being nearest-neighbor, which is exactly the");
    println!("generalized all-to-all the paper's gs library carries.");
}
