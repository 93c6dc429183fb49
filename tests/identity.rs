//! Golden `state_hash` identities: one literal per configuration,
//! recorded at the commit before the driver was split, asserted on every
//! path that must not change a bit — both exchange schedules, both
//! transports, every kernel tier, and a kill + rollback through a
//! rebalanced partition. Rank count is an axis too: decompositions of
//! one global grid are asserted equal to each other.
//!
//! A refactor of either mini-app's step is bitwise neutral exactly when
//! this file passes unchanged.

use cmt_bone::{Config as BoneConfig, Pipeline};
use cmt_core::KernelVariant;
use cmt_gs::GsMethod;
use nekbone::Config as NekConfig;
use simmpi::{FaultPlan, SocketConfig, TransportKind};

const G1: u64 = 0x81795925d0dba6b3;
const G2: u64 = 0xeff671c5e0ad0c4d;
const G3: u64 = 0x5e324d3607a72e6a;
const G4: u64 = 0x23c764f9896122dd;
/// The viscous pass: both schedules add the three volume divergences
/// before the three surface corrections, so they share one golden.
const G5: u64 = 0x24342c951705f08b;
/// Compressible Euler with tracers and adaptive dt, recorded when Euler
/// joined the driver (its final fields matched the former stand-alone
/// Euler driver bit for bit).
const G6: u64 = 0x6523912c40a2a015;
/// G1 at a mixed-sign velocity: the plus faces of the y axis are the
/// inflow ones, so the upwind lift reads own traces on both face kinds.
const G7: u64 = 0xaa1d3736840007f4;
/// G4 with Dirichlet boundaries: pins the 0/1 mask, which the periodic G4
/// never applies. The masked arm of the interior dot product runs here
/// too, but its `* mask` factor cannot move a bit: `p` is already zero
/// wherever the mask is.
const G8: u64 = 0xe8063245e96a038a;
/// The step-0 state (`--steps 0`) at the benchmark's `surf_n5` shape:
/// the initial profile alone, as the setup phase writes it.
const S0_SURF: u64 = 0x75af74a953b09803;
/// The step-0 state at the benchmark's `vol_n10` shape (dealiased, N=10).
const S0_VOL: u64 = 0x619d61e776208c24;

const VARIANTS: [KernelVariant; 3] = [
    KernelVariant::Optimized,
    KernelVariant::Simd,
    KernelVariant::Basic,
];

fn transports() -> [TransportKind; 2] {
    [
        TransportKind::Inproc,
        TransportKind::Socket(SocketConfig {
            addr: None,
            threads: true,
        }),
    ]
}

fn g1() -> BoneConfig {
    BoneConfig {
        ranks: 4,
        n: 5,
        elems_per_rank: 8,
        steps: 8,
        fields: 2,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

fn g2() -> BoneConfig {
    BoneConfig {
        ranks: 2,
        n: 6,
        elems_per_rank: 12,
        steps: 6,
        fields: 5,
        dealias_m: Some(9),
        method: Some(GsMethod::CrystalRouter),
        ..Default::default()
    }
}

/// A persistent straggler on rank 1. The balancer's setup decision
/// already evens out G3's clustered cloud, so the straggler is the
/// imbalance that makes the in-run monitor migrate elements.
const G3_STRAGGLER: &str = "delay:prob=1.0,us=500,rank=1;seed=9";

fn g3() -> BoneConfig {
    BoneConfig {
        fields: 3,
        particles_per_elem: 8,
        particle_cluster: Some(0.25),
        lb_every: 2,
        lb_threshold: 1.05,
        checkpoint_every: 2,
        fault_plan: Some(FaultPlan::parse(G3_STRAGGLER).expect("fault plan")),
        ..g1()
    }
}

fn g5() -> BoneConfig {
    BoneConfig {
        ranks: 4,
        n: 5,
        elems_per_rank: 4,
        steps: 4,
        fields: 2,
        viscosity: Some(0.02),
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

fn g7() -> BoneConfig {
    BoneConfig {
        velocity: [0.7, -0.45, 0.3],
        ..g1()
    }
}

/// The `euler_wave` example's setup: five conserved variables, tracers,
/// and `dt` re-adapted to the wave speed every 5 steps.
fn g6() -> BoneConfig {
    BoneConfig {
        ranks: 4,
        n: 5,
        elems_per_rank: 8,
        steps: 10,
        fields: 5,
        euler: true,
        particles_per_elem: 4,
        cfl: 0.2,
        cfl_interval: 5,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

/// Run `base` over transports × kernels under `pipeline` and assert
/// every run lands on `golden`.
fn assert_bone(name: &str, base: &BoneConfig, pipeline: Pipeline, golden: u64) {
    for transport in transports() {
        for variant in VARIANTS {
            let rep = cmt_bone::run(&BoneConfig {
                pipeline,
                transport: transport.clone(),
                variant,
                ..base.clone()
            });
            assert_eq!(
                rep.state_hash,
                golden,
                "{name}: {:016x} != {golden:016x} under {}/{transport:?}/{}",
                rep.state_hash,
                pipeline.name(),
                variant.name(),
            );
        }
    }
}

#[test]
fn g1_plain_advection() {
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        assert_bone("G1", &g1(), pipeline, G1);
    }
}

#[test]
fn g2_dealiased_five_fields_crystal_router() {
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        assert_bone("G2", &g2(), pipeline, G2);
    }
}

#[test]
fn g3_particles_rebalance_checkpoints_and_kill() {
    let rep = cmt_bone::run(&g3());
    let lb = rep.lb.expect("lb summary");
    assert_eq!((lb.rebalances, lb.elems_moved), (1, 9));
    let killed = BoneConfig {
        fault_plan: Some(
            FaultPlan::parse(&format!("{G3_STRAGGLER};kill:rank=2,step=5")).expect("fault plan"),
        ),
        ..g3()
    };
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        assert_bone("G3", &g3(), pipeline, G3);
        assert_bone("G3+kill", &killed, pipeline, G3);
    }
}

/// Nekbone's CG over the transports × kernels grid.
fn assert_nek(name: &str, periodic: bool, golden: u64) {
    for transport in transports() {
        for variant in VARIANTS {
            let rep = nekbone::run(&NekConfig {
                ranks: 4,
                n: 6,
                elems_per_rank: 8,
                cg_iters: 20,
                periodic,
                method: Some(GsMethod::PairwiseExchange),
                transport: transport.clone(),
                variant,
                ..Default::default()
            });
            assert_eq!(
                rep.state_hash,
                golden,
                "{name}: {:016x} under {transport:?}/{}",
                rep.state_hash,
                variant.name(),
            );
        }
    }
}

#[test]
fn g4_nekbone_cg() {
    assert_nek("G4", true, G4);
}

#[test]
fn g8_nekbone_cg_dirichlet() {
    assert_nek("G8", false, G8);
}

#[test]
fn g5_viscous_per_schedule() {
    assert_bone("G5", &g5(), Pipeline::Overlapped, G5);
    assert_bone("G5", &g5(), Pipeline::Blocking, G5);
}

#[test]
fn g6_euler_tracers_adaptive_dt() {
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        assert_bone("G6", &g6(), pipeline, G6);
    }
    let verified = cmt_bone::run(&BoneConfig {
        verify: true,
        ..g6()
    });
    assert_eq!(verified.state_hash, G6, "G6 under --verify");
    let findings = verified.verify.expect("verification ran");
    assert!(findings.is_empty(), "G6 findings: {findings:?}");
    // The kill rolls back to the step-3 checkpoint, taken before the
    // step-5 dt adaptation: the rerun of steps 3-4 needs the dt the
    // checkpoint carries.
    let kill = |plan: &str| BoneConfig {
        checkpoint_every: 3,
        fault_plan: Some(FaultPlan::parse(plan).expect("fault plan")),
        ..g6()
    };
    let killed = cmt_bone::run(&kill("kill:rank=2,step=5"));
    assert_eq!(killed.state_hash, G6, "G6 kill + rollback");
    // The uniform tracers barely drift in 10 steps, so a straggling rank
    // is what makes the balancer migrate elements; with the kill on top,
    // the checkpoint carries the owner vector and dt side by side.
    let straggler = "delay:prob=1.0,us=500,rank=1;seed=9";
    for plan in [
        straggler.to_string(),
        format!("{straggler};kill:rank=2,step=5"),
    ] {
        let balanced = cmt_bone::run(&BoneConfig {
            lb_every: 2,
            lb_threshold: 1.1,
            ..kill(&plan)
        });
        let lb = balanced.lb.expect("lb summary");
        assert!(lb.rebalances >= 1, "G6 straggler did not rebalance: {lb:?}");
        assert_eq!(
            balanced.state_hash, G6,
            "G6 under the load balancer ({plan})"
        );
    }
}

#[test]
fn g7_mixed_sign_velocity() {
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        assert_bone("G7", &g7(), pipeline, G7);
    }
}

/// The initial profile at the benchmark's two cmt-bone shapes, with no
/// step taken: pins the setup phase's table fill at N=5 and N=10.
#[test]
fn step0_state_at_the_benchmark_shapes() {
    let surf = BoneConfig {
        ranks: 2,
        n: 5,
        elems_per_rank: 782,
        steps: 0,
        fields: 5,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let vol = BoneConfig {
        n: 10,
        elems_per_rank: 100,
        dealias_m: Some(15),
        ..surf.clone()
    };
    assert_bone("S0 surf_n5", &surf, Pipeline::Overlapped, S0_SURF);
    assert_bone("S0 vol_n10", &vol, Pipeline::Overlapped, S0_VOL);
}

/// Rank count is an identity axis: the hash folds per-element hashes in
/// global-id order, so two decompositions of one global grid must agree
/// bit for bit, under both the scalar and the vector kernels. The third
/// row adds dealiasing and a clustered particle cloud.
#[test]
fn equal_global_grids_hash_equal_across_rank_counts() {
    let cli = BoneConfig {
        steps: 4,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let particles = BoneConfig {
        n: 5,
        dealias_m: Some(7),
        particles_per_elem: 16,
        particle_cluster: Some(0.3),
        ..cli.clone()
    };
    let rows = [
        (&cli, [(1, 64), (8, 8)]),
        (&cli, [(2, 32), (4, 16)]),
        (&particles, [(1, 64), (8, 8)]),
    ];
    for (base, shapes) in rows {
        let hashes: Vec<(usize, KernelVariant, u64)> = shapes
            .into_iter()
            .flat_map(|(ranks, elems_per_rank)| {
                [KernelVariant::Optimized, KernelVariant::Simd].map(|variant| {
                    let cfg = BoneConfig {
                        ranks,
                        elems_per_rank,
                        variant,
                        ..base.clone()
                    };
                    (ranks, variant, cmt_bone::run(&cfg).state_hash)
                })
            })
            .collect();
        assert!(
            hashes.iter().all(|&(.., h)| h == hashes[0].2),
            "{shapes:?}: {hashes:x?}"
        );
    }
}
