//! Multi-rank particle migration tests: conservation of particles across
//! crystal-router migrations, determinism, and long-range (non-nearest-
//! neighbor) routing.

use cmt_core::poly::Basis;
use cmt_mesh::{MeshConfig, RankMesh};
use cmt_particles::{Particle, ParticleSet};
use simmpi::World;

fn world_cfg(ranks: usize) -> MeshConfig {
    MeshConfig::for_ranks(ranks, 8, 4, true)
}

#[test]
fn migration_conserves_count_and_ids() {
    for ranks in [2usize, 4, 6] {
        let cfg = world_cfg(ranks);
        let cfg_run = cfg.clone();
        let res = World::new().run(ranks, move |rank| {
            let cfg = cfg_run.clone();
            let basis = Basis::new(cfg.n);
            let mesh = RankMesh::new(cfg.clone(), rank.rank());
            let mut set = ParticleSet::new(mesh, &basis);
            set.seed_uniform(2);
            let before = set.global_count(rank);
            // sweep all particles diagonally so most leave their rank
            for _ in 0..5 {
                set.advect_analytic(0.8, |_| [1.0, 0.7, 0.4]);
                let stats = set.migrate(rank);
                let _ = stats;
            }
            let after = set.global_count(rank);
            assert_eq!(before, after, "particles lost/duplicated");
            // ids on this rank (to be checked globally outside)
            set.particles().iter().map(|p| p.id).collect::<Vec<u64>>()
        });
        let mut all_ids: Vec<u64> = res.results.into_iter().flatten().collect();
        all_ids.sort_unstable();
        let expect: Vec<u64> = (0..(cfg.total_elems() * 2) as u64).collect();
        assert_eq!(all_ids, expect, "ranks={ranks}: id multiset changed");
    }
}

#[test]
fn particles_land_on_the_owning_rank() {
    let ranks = 4;
    let cfg = world_cfg(ranks);
    let res = World::new().run(ranks, move |rank| {
        let basis = Basis::new(cfg.n);
        let mesh = RankMesh::new(cfg.clone(), rank.rank());
        let my = rank.rank();
        let mut set = ParticleSet::new(mesh, &basis);
        set.seed_uniform(1);
        set.advect_analytic(1.0, |_| [2.3, 1.1, 0.0]);
        set.migrate(rank);
        // after migration, every particle locates to this rank
        set.particles().iter().all(|p| set.locate(p.pos).0 == my)
    });
    assert!(res.results.iter().all(|&ok| ok));
}

#[test]
fn residents_ascend_by_id_after_migration() {
    // A shear that moves part of each element's residents into the next
    // element, across rank boundaries too: arrivals join the stayers of
    // their new element, and each element's residents must still come
    // out in ascending id order (the state hash walks them in it).
    let ranks = 4;
    let cfg = world_cfg(ranks);
    let res = World::new().run(ranks, move |rank| {
        let basis = Basis::new(cfg.n);
        let mut set = ParticleSet::new(RankMesh::new(cfg.clone(), rank.rank()), &basis);
        set.seed_uniform(5);
        let mut ascending = true;
        for _ in 0..3 {
            set.advect_analytic(0.6, |p| [1.0, 0.5 + 0.1 * p[0].sin(), 0.3]);
            set.migrate(rank);
            ascending &= (0..set.owned_elems().len())
                .all(|slot| set.residents_of(slot).is_sorted_by_key(|p| p.id));
        }
        ascending
    });
    assert!(res.results.iter().all(|&ok| ok));
}

#[test]
fn long_range_migration_via_crystal_router() {
    // Teleport all particles of rank 0 clear across the box: the
    // destination is not a neighbor rank, exercising multi-stage routing.
    let ranks = 8;
    let cfg = world_cfg(ranks);
    let res = World::new().run(ranks, move |rank| {
        let basis = Basis::new(cfg.n);
        let mesh = RankMesh::new(cfg.clone(), rank.rank());
        let ge = mesh.config().global_elems();
        let far = [ge[0] as f64 - 0.5, ge[1] as f64 - 0.5, ge[2] as f64 - 0.5];
        let mut set = ParticleSet::new(mesh, &basis);
        if rank.rank() == 0 {
            for q in 0..10 {
                set.insert(Particle {
                    id: q,
                    pos: [0.1 + 0.01 * q as f64, 0.1, 0.1],
                });
            }
            // jump them all toward the far corner (constant velocity is
            // integrated exactly by RK2)
            let jump = [far[0] - 0.2, far[1] - 0.2, far[2] - 0.2];
            set.advect_analytic(1.0, move |_| jump);
        }
        let stats = set.migrate(rank);
        (set.global_count(rank), set.len(), stats)
    });
    // total conserved and the far-corner rank received all ten
    for (total, _, _) in &res.results {
        assert_eq!(*total, 10);
    }
    let received: usize = res.results.iter().map(|(_, l, _)| l).sum();
    assert_eq!(received, 10);
    let far_rank = res
        .results
        .iter()
        .position(|(_, l, _)| *l == 10)
        .expect("one rank holds all particles");
    assert_ne!(far_rank, 0, "particles should have left rank 0");
}

#[test]
fn migration_is_deterministic() {
    let ranks = 4;
    let cfg = world_cfg(ranks);
    let run_once = || {
        let cfg = cfg.clone();
        let res = World::new().run(ranks, move |rank| {
            let basis = Basis::new(cfg.n);
            let mesh = RankMesh::new(cfg.clone(), rank.rank());
            let mut set = ParticleSet::new(mesh, &basis);
            set.seed_uniform(3);
            for _ in 0..4 {
                set.advect_analytic(0.3, |p| [0.9, (p[0] * 0.5).sin(), 0.2]);
                set.migrate(rank);
            }
            set.particles().to_vec()
        });
        res.results
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra, rb, "nondeterministic particle state");
    }
}
