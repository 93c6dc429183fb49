//! Distributed compressible Euler: a density wave carried through a
//! periodic box by a uniform stream with a transverse shear, solved
//! across thread-ranks by the mini-app driver (`Config::euler`) with its
//! own kernels, surface exchange and adaptive timestep reductions, under
//! the `cmt-verify` dynamic checker.
//!
//! ```text
//! cargo run --release --example euler_wave [ranks]
//! ```

use cmt_bone::{run_collecting_solution, Config};
use cmt_core::eos::{IdealGas, NVARS};
use cmt_core::euler::is_admissible;
use cmt_core::Field;
use cmt_gs::GsMethod;
use cmt_mesh::{ElemPartition, MeshConfig};

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let gas = IdealGas::default();
    let cfg = Config {
        ranks,
        elems_per_rank: 8,
        n: 5,
        steps: 40,
        fields: NVARS,
        euler: true,
        method: Some(GsMethod::PairwiseExchange),
        cfl: 0.2,
        cfl_interval: 5,
        // one-way-coupled Lagrangian tracers, enough that some cross a
        // rank boundary within the run
        particles_per_elem: 4,
        verify: true,
        ..Default::default()
    };
    let mesh = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
    println!(
        "Compressible Euler on {} ranks, {} global elements, N = {}\n",
        cfg.ranks,
        mesh.total_elems(),
        cfg.n
    );

    let (rep, dumps) = run_collecting_solution(&cfg);
    println!(
        "reached t = {:.4} in {} steps (adaptive CFL dt, last dt = {:.3e})",
        dumps[0].time, cfg.steps, dumps[0].dt
    );

    let admissible = dumps.iter().all(|d| {
        let nel = d.global_elem_ids.len();
        let u: Vec<Field> = d
            .fields
            .iter()
            .map(|f| Field::from_vec(cfg.n, nel, f.clone()))
            .collect();
        is_admissible(&gas, &u)
    });
    println!("physically admissible everywhere: {admissible}");

    // Tracer ids are `seed element * per_elem + q`: a tracer whose final
    // rank differs from its seed element's initial owner crossed a rank
    // boundary.
    let seeded = ElemPartition::initial(&mesh);
    let mut tracers = 0;
    let mut moved = 0;
    for (r, d) in dumps.iter().enumerate() {
        for rec in d.particles.chunks_exact(4) {
            tracers += 1;
            let seed_elem = rec[0] as usize / cfg.particles_per_elem;
            moved += usize::from(seeded.owner_of(seed_elem) != r);
        }
    }
    println!("\nLagrangian tracers: {tracers} particles, {moved} on another rank than seeded");
    let findings = rep.verify.as_deref().expect("verification ran");
    println!("cmt-verify findings: {}", findings.len());
    println!("\nexecution profile:");
    println!("{}", rep.profile.render_flat());

    assert!(admissible, "the flow left the admissible set");
    assert_eq!(
        tracers,
        mesh.total_elems() * cfg.particles_per_elem,
        "particles lost or duplicated"
    );
    assert!(
        cfg.ranks == 1 || moved > 0,
        "no tracer crossed a rank boundary"
    );
    assert!(findings.is_empty(), "verifier findings: {findings:?}");
}
