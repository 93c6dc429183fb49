//! The strongest cross-crate correctness statement in the repository: the
//! distributed mini-app (mesh partitioning + gather-scatter exchange +
//! kernels + RK, over the thread-rank runtime) computes the *same numbers*
//! as the single-process reference DG solver, for several rank counts,
//! kernel variants and exchange methods.

use cmt_bone::{run_collecting_solution, Config};
use cmt_core::solver::{AdvectionConfig, AdvectionSolver};
use cmt_core::KernelVariant;
use cmt_gs::GsMethod;
use cmt_mesh::MeshConfig;
use std::f64::consts::PI;

/// Must match `cmt-bone`'s internal initial profile for field 0.
fn initial_profile(x: f64, y: f64, z: f64, lengths: [f64; 3]) -> f64 {
    let fx = 2.0 * PI * x / lengths[0];
    let fy = 2.0 * PI * y / lengths[1];
    let fz = 2.0 * PI * z / lengths[2];
    fx.sin() * fy.cos() + 0.25 * fz.cos()
}

fn check(ranks: usize, elems: usize, n: usize, variant: KernelVariant, method: GsMethod) {
    let cfg = Config {
        n,
        elems_per_rank: elems,
        ranks,
        steps: 4,
        fields: 1,
        variant,
        method: Some(method),
        ..Default::default()
    };
    let mesh_cfg = MeshConfig::for_ranks(ranks, elems, n, true);
    let ge = mesh_cfg.global_elems();
    let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
    let (_, dumps) = run_collecting_solution(&cfg);
    let dt = dumps[0].dt;

    let mut serial = AdvectionSolver::new(AdvectionConfig {
        n,
        elems: ge,
        lengths,
        velocity: cfg.velocity,
        variant,
    });
    serial.init(|x, y, z| initial_profile(x, y, z, lengths));
    for _ in 0..cfg.steps {
        serial.step(dt);
    }

    let npts = n * n * n;
    let mut max_diff = 0.0f64;
    let mut total = 0usize;
    for dump in &dumps {
        for (le, &geid) in dump.global_elem_ids.iter().enumerate() {
            let data = &dump.fields[0][le * npts..(le + 1) * npts];
            for (a, b) in data.iter().zip(serial.solution().element(geid)) {
                max_diff = max_diff.max((a - b).abs());
                total += 1;
            }
        }
    }
    assert_eq!(total, serial.nel() * npts);
    assert!(
        max_diff < 1e-10,
        "ranks={ranks} n={n} {variant:?} {method:?}: max diff {max_diff}"
    );
}

#[test]
fn two_ranks_pairwise_optimized() {
    check(
        2,
        8,
        5,
        KernelVariant::Optimized,
        GsMethod::PairwiseExchange,
    );
}

#[test]
fn eight_ranks_pairwise_simd() {
    check(8, 8, 5, KernelVariant::Simd, GsMethod::PairwiseExchange);
}

#[test]
fn six_ranks_crystal_router() {
    // non-power-of-two world exercises the fold/unfold path
    check(6, 8, 4, KernelVariant::Optimized, GsMethod::CrystalRouter);
}

#[test]
fn four_ranks_allreduce_basic_kernels() {
    check(4, 8, 4, KernelVariant::Basic, GsMethod::AllReduce);
}

#[test]
fn single_rank_degenerate_world() {
    check(
        1,
        27,
        5,
        KernelVariant::Optimized,
        GsMethod::PairwiseExchange,
    );
}
