//! The strongest cross-crate correctness statement in the repository: the
//! distributed mini-apps (mesh partitioning + gather-scatter exchange +
//! kernels + RK, over the thread-rank runtime) compute the *same numbers*
//! as the single-process reference DG solvers, for several rank counts,
//! kernel variants, exchange methods and both exchange schedules.
//!
//! Both sides call the same DG terms from `cmt_core`; what is compared is
//! the neighbor-trace exchange (gather–scatter against a local periodic
//! copy) and the stepping around it.

use cmt_bone::{run_collecting_solution, Config, Pipeline};
use cmt_core::diffusion::{AdvDiffConfig, AdvDiffSolver};
use cmt_core::eos::{IdealGas, Primitive};
use cmt_core::euler::{is_admissible, EulerConfig, EulerSolver};
use cmt_core::{Field, KernelVariant};
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

/// The global element grid of a `ranks` x `elems` run and its extents
/// (elements are unit cubes).
fn global_box(ranks: usize, elems: usize, n: usize) -> ([usize; 3], [f64; 3]) {
    let ge = MeshConfig::for_ranks(ranks, elems, n, true).global_elems();
    (ge, ge.map(|e| e as f64))
}

/// Largest pointwise difference between the ranks' final fields (in
/// their global element order) and the serial `fields`.
fn max_diff(
    n: usize,
    dumps: impl IntoIterator<Item = (Vec<usize>, Vec<Vec<f64>>)>,
    serial: &[cmt_core::Field],
) -> f64 {
    let npts = n * n * n;
    let mut max_diff = 0.0f64;
    let mut total = 0usize;
    for (gids, fields) in dumps {
        for (le, &geid) in gids.iter().enumerate() {
            for (field, reference) in fields.iter().zip(serial) {
                let data = &field[le * npts..(le + 1) * npts];
                for (a, b) in data.iter().zip(reference.element(geid)) {
                    max_diff = max_diff.max((a - b).abs());
                    total += 1;
                }
            }
        }
    }
    assert_eq!(total, serial.iter().map(|f| f.len()).sum::<usize>());
    max_diff
}

fn check(
    ranks: usize,
    elems: usize,
    n: usize,
    variant: KernelVariant,
    method: GsMethod,
    viscosity: Option<f64>,
    pipeline: Pipeline,
) {
    let cfg = Config {
        n,
        elems_per_rank: elems,
        ranks,
        steps: 4,
        fields: 1,
        variant,
        method: Some(method),
        viscosity,
        pipeline,
        ..Default::default()
    };
    let (ge, lengths) = global_box(ranks, elems, n);
    let (_, dumps) = run_collecting_solution(&cfg);
    let dt = dumps[0].dt;

    let mut serial = AdvDiffSolver::new(AdvDiffConfig {
        n,
        elems: ge,
        lengths,
        velocity: cfg.velocity,
        nu: viscosity.unwrap_or(0.0),
        variant,
    });
    assert_eq!(serial.stable_dt(cfg.cfl), dt);
    serial.init(|x, y, z| initial_profile(x, y, z, lengths));
    for _ in 0..cfg.steps {
        serial.step(dt);
    }

    let dumps = dumps.into_iter().map(|d| (d.global_elem_ids, d.fields));
    let diff = max_diff(n, dumps, std::slice::from_ref(serial.solution()));
    assert!(
        diff < 1e-10,
        "ranks={ranks} n={n} {variant:?} {method:?} nu={viscosity:?} {}: max diff {diff}",
        pipeline.name()
    );
}

fn check_inviscid(ranks: usize, elems: usize, n: usize, variant: KernelVariant, method: GsMethod) {
    check(ranks, elems, n, variant, method, None, Pipeline::default());
}

#[test]
fn two_ranks_pairwise_optimized() {
    check_inviscid(
        2,
        8,
        5,
        KernelVariant::Optimized,
        GsMethod::PairwiseExchange,
    );
}

#[test]
fn eight_ranks_pairwise_simd() {
    check_inviscid(8, 8, 5, KernelVariant::Simd, GsMethod::PairwiseExchange);
}

#[test]
fn six_ranks_crystal_router() {
    // non-power-of-two world exercises the fold/unfold path
    check_inviscid(6, 8, 4, KernelVariant::Optimized, GsMethod::CrystalRouter);
}

#[test]
fn four_ranks_allreduce_basic_kernels() {
    check_inviscid(4, 8, 4, KernelVariant::Basic, GsMethod::AllReduce);
}

#[test]
fn single_rank_degenerate_world() {
    check_inviscid(
        1,
        27,
        5,
        KernelVariant::Optimized,
        GsMethod::PairwiseExchange,
    );
}

/// The BR1 viscous passes under both schedules: the blocking one
/// interleaves each axis's divergence with its correction, the
/// overlapped one bundles the three q-trace exchanges.
#[test]
fn four_ranks_viscous_under_both_pipelines() {
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        check(
            4,
            4,
            5,
            KernelVariant::Optimized,
            GsMethod::PairwiseExchange,
            Some(0.02),
            pipeline,
        );
    }
}

/// The Euler configuration of a `ranks` x `elems` run at order `n`.
fn euler_cfg(ranks: usize, elems: usize, n: usize, method: GsMethod) -> Config {
    Config {
        ranks,
        elems_per_rank: elems,
        n,
        steps: 5,
        fields: 5,
        euler: true,
        method: Some(method),
        cfl: 0.2,
        cfl_interval: 1000, // fixed dt over the run
        ..Default::default()
    }
}

/// Distributed compressible Euler (`Config::euler`) against
/// [`EulerSolver`] on the same global box and timestep.
fn check_euler(cfg: Config) {
    let (ranks, n) = (cfg.ranks, cfg.n);
    let (ge, lengths) = global_box(ranks, cfg.elems_per_rank, n);
    // the driver's Euler initial state
    let wave = move |x: f64, y: f64, _z: f64| Primitive {
        rho: 1.0 + 0.15 * (2.0 * PI * x / lengths[0]).sin(),
        vel: [0.6, 0.1 * (2.0 * PI * y / lengths[1]).cos(), 0.0],
        p: 1.0,
    };
    let gas = IdealGas::default();
    let (_, dumps) = run_collecting_solution(&cfg);
    for d in &dumps {
        let nel = d.global_elem_ids.len();
        let u: Vec<Field> = d
            .fields
            .iter()
            .map(|f| Field::from_vec(n, nel, f.clone()))
            .collect();
        assert!(
            is_admissible(&gas, &u),
            "rank state left the admissible set"
        );
    }

    let mut serial = EulerSolver::new(EulerConfig {
        n,
        elems: ge,
        lengths,
        gas,
        variant: cfg.variant,
        artificial_viscosity: 0.0,
    });
    serial.init(wave);
    // unit-cube elements and the same initial wave speeds: the distributed
    // run's dt, bit for bit
    let dt = serial.stable_dt(cfg.cfl);
    assert_eq!(dumps[0].dt, dt);
    for _ in 0..cfg.steps {
        serial.step(dt);
    }
    assert_eq!(serial.time(), dumps[0].time);

    let label = format!(
        "Euler ranks={ranks} n={n} {:?} {} dealias={:?}",
        cfg.method,
        cfg.pipeline.name(),
        cfg.dealias_m
    );
    let dumps = dumps.into_iter().map(|d| (d.global_elem_ids, d.fields));
    let diff = max_diff(n, dumps, serial.state());
    assert!(diff < 1e-9, "{label}: max diff {diff}");
}

#[test]
fn euler_four_ranks_pairwise() {
    check_euler(euler_cfg(4, 4, 5, GsMethod::PairwiseExchange));
}

#[test]
fn euler_two_ranks_crystal_router() {
    check_euler(euler_cfg(2, 6, 4, GsMethod::CrystalRouter));
}

#[test]
fn euler_three_ranks_allreduce() {
    check_euler(euler_cfg(3, 4, 4, GsMethod::AllReduce));
}

#[test]
fn euler_blocking_pipeline() {
    check_euler(Config {
        pipeline: Pipeline::Blocking,
        ..euler_cfg(4, 4, 5, GsMethod::PairwiseExchange)
    });
}

/// The per-field dealias round trip on top of Euler's volume term is
/// the identity to roundoff.
#[test]
fn euler_dealiased() {
    check_euler(Config {
        dealias_m: Some(7),
        ..euler_cfg(4, 4, 5, GsMethod::PairwiseExchange)
    });
}
