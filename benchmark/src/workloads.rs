//! The five workloads: what each runs, how a seed becomes its input, and
//! how one run is checked.
//!
//! The programs are driven only through `cmt_bone::run(&Config)` and
//! `nekbone::run(&Config)`; they see the generated `Config` and nothing
//! else of the seed.

use cmt_bone::Pipeline;
use cmt_core::KernelVariant;
use cmt_gs::GsMethod;
use cmt_perf::{MpipReport, ProfileReport};
use simmpi::{MpiOp, SocketConfig, TransportKind};

/// Ranks of every workload: one thread per core of the 2-vCPU host the
/// benchmark was sized on. More ranks than cores would time the
/// scheduler, not the program.
pub const RANKS: usize = 2;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layers do the work.
    pub why: &'static str,
    /// Timesteps (cmt-bone) or CG iterations (nekbone) per unit.
    pub unit_steps: usize,
    /// Zero-step `run()` calls per setup sample, enough that the sample
    /// lasts at least 50 ms.
    pub setup_batch: usize,
}

/// The workloads in the order a round visits them.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "vol_n10",
        why: "cmt-bone Fig. 7 block (N=10, 100 elems/rank, dealias 15): volume kernels do the work, comm 15%",
        unit_steps: 2,
        setup_batch: 2,
    },
    Workload {
        name: "surf_n5",
        why: "cmt-bone Fig. 4 shape (N=5, 782 elems/rank): face ops, gs pack/unpack and memory-bound RK; no dealias",
        unit_steps: 6,
        setup_batch: 1,
    },
    Workload {
        name: "cg_n10",
        why: "nekbone CG (N=10, 100 elems/rank): ax kernel, continuous dssum, two allreduce dots per iteration",
        unit_steps: 60,
        setup_batch: 2,
    },
    Workload {
        name: "msg_socket",
        why: "cmt-bone N=4, 27 elems/rank over the socket transport: latency-bound, wire codec and hub on the path",
        unit_steps: 220,
        setup_batch: 8,
    },
    Workload {
        name: "multiphase",
        why: "cmt-bone N=6 with a clustered particle cloud: the only one running particles, load balancer, checkpoints",
        unit_steps: 12,
        setup_batch: 4,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: the seed's only use is to draw a few input parameters.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The configuration one of the two programs receives.
#[derive(Debug, Clone)]
pub enum Program {
    /// `cmt_bone::run`.
    Bone(Box<cmt_bone::Config>),
    /// `nekbone::run`.
    Nek(Box<nekbone::Config>),
}

impl Workload {
    /// The measured configuration for `seed`, one unit long.
    ///
    /// The seed perturbs only inputs that leave every operation count
    /// unchanged: the advection velocity components (all three stay
    /// non-zero, so all three derivative directions run), the particle
    /// cluster fraction within one element plane, and nekbone's mass
    /// coefficient. Gather-scatter method and kernel variant are pinned:
    /// left to the startup autotunes a workload is bimodal (the autotunes
    /// are measured as layers instead).
    pub fn program(&self, seed: u64) -> Program {
        let mut rng = SplitMix(seed ^ 0xC0DE_B0DE_5EED_0000);
        let velocity = [
            rng.uniform(0.3, 0.9),
            rng.uniform(0.3, 0.9),
            rng.uniform(0.3, 0.9),
        ];
        // ceil(frac * 12 element planes) = 3 over the whole range, so the
        // seeded population is the same for every seed.
        let cluster = rng.uniform(0.20, 0.25);
        let lambda = rng.uniform(0.5, 2.0);
        let bone = cmt_bone::Config {
            ranks: RANKS,
            fields: 5,
            steps: self.unit_steps,
            variant: KernelVariant::Simd,
            method: Some(GsMethod::PairwiseExchange),
            velocity,
            ..Default::default()
        };
        match self.name {
            "vol_n10" => Program::Bone(Box::new(cmt_bone::Config {
                n: 10,
                elems_per_rank: 100,
                dealias_m: Some(15),
                ..bone
            })),
            "surf_n5" => Program::Bone(Box::new(cmt_bone::Config {
                n: 5,
                elems_per_rank: 782,
                ..bone
            })),
            "cg_n10" => Program::Nek(Box::new(nekbone::Config {
                n: 10,
                elems_per_rank: 100,
                ranks: RANKS,
                cg_iters: self.unit_steps,
                tol: 0.0,
                lambda,
                variant: KernelVariant::Simd,
                method: Some(GsMethod::PairwiseExchange),
                ..Default::default()
            })),
            "msg_socket" => Program::Bone(Box::new(cmt_bone::Config {
                n: 4,
                elems_per_rank: 27,
                cfl_interval: 1,
                transport: TransportKind::Socket(SocketConfig {
                    addr: None,
                    threads: true,
                }),
                ..bone
            })),
            "multiphase" => Program::Bone(Box::new(cmt_bone::Config {
                n: 6,
                elems_per_rank: 108,
                particles_per_elem: 256,
                particle_cluster: Some(cluster),
                lb_every: 4,
                lb_threshold: 1.1,
                checkpoint_every: 4,
                ..bone
            })),
            other => unreachable!("workload {other} has no configuration"),
        }
    }
}

impl Program {
    /// The same configuration running `steps` timesteps / CG iterations
    /// (zero gives the setup-only run).
    pub fn with_steps(&self, steps: usize) -> Program {
        match self {
            Program::Bone(c) => Program::Bone(Box::new(cmt_bone::Config {
                steps,
                ..(**c).clone()
            })),
            Program::Nek(c) => Program::Nek(Box::new(nekbone::Config {
                cg_iters: steps,
                ..(**c).clone()
            })),
        }
    }

    /// The reference configuration: the plainest code path through the
    /// same physics — scalar `basic` kernels, blocking exchanges, the
    /// in-process transport, no load balancer, no checkpoints. Its final
    /// state is bitwise equal to the measured configuration's, which
    /// makes it a machine-independent oracle computed inside each run.
    pub fn reference(&self) -> Program {
        match self {
            Program::Bone(c) => Program::Bone(Box::new(cmt_bone::Config {
                variant: KernelVariant::Basic,
                pipeline: Pipeline::Blocking,
                transport: TransportKind::Inproc,
                lb_every: 0,
                checkpoint_every: 0,
                ..(**c).clone()
            })),
            Program::Nek(c) => Program::Nek(Box::new(nekbone::Config {
                variant: KernelVariant::Basic,
                transport: TransportKind::Inproc,
                checkpoint_every: 0,
                ..(**c).clone()
            })),
        }
    }

    /// Timesteps / CG iterations this configuration runs.
    #[cfg(test)]
    pub fn steps(&self) -> usize {
        match self {
            Program::Bone(c) => c.steps,
            Program::Nek(c) => c.cg_iters,
        }
    }

    /// Grid-point degrees of freedom advanced per step over all ranks:
    /// `ranks * elems/rank * N^3 * fields` (one field for the CG solve;
    /// particles are not counted).
    pub fn dofs_per_step(&self) -> u64 {
        let (ranks, elems, n, fields) = match self {
            Program::Bone(c) => (c.ranks, c.elems_per_rank, c.n, c.fields),
            Program::Nek(c) => (c.ranks, c.elems_per_rank, c.n, 1),
        };
        (ranks * elems * n * n * n * fields) as u64
    }

    /// Run the program once through its public entry point.
    pub fn run(&self) -> Outcome {
        match self {
            Program::Bone(c) => {
                let r = cmt_bone::run(c);
                let compute: f64 = r.rank_compute_s.iter().sum();
                let wall: f64 = r.rank_wall_s.iter().sum();
                Outcome {
                    state_hash: r.state_hash,
                    checksum: r.checksum,
                    cg: None,
                    comm_frac: 1.0 - compute / wall,
                    compute_spread: r.compute_spread(),
                    lb: r.lb,
                    sends: sends(&r.comm),
                    regions: region_calls(&r.profile),
                }
            }
            Program::Nek(c) => {
                let r = nekbone::run(c);
                // nekbone reports no per-rank compute time; its compute
                // regions are the ax kernel and the overlapped interior
                // dot product.
                let compute: f64 = r
                    .profile
                    .flat
                    .iter()
                    .filter(|(name, _)| name.starts_with("ax_e") || name.starts_with("glsc3_"))
                    .map(|(_, s)| s.self_s())
                    .sum();
                let wall: f64 = r.rank_wall_s.iter().sum();
                Outcome {
                    state_hash: r.state_hash,
                    checksum: r.checksum,
                    cg: Some((r.cg.iterations, r.cg.final_residual())),
                    comm_frac: 1.0 - compute / wall,
                    compute_spread: 1.0,
                    lb: None,
                    sends: sends(&r.comm),
                    regions: region_calls(&r.profile),
                }
            }
        }
    }
}

/// Point-to-point sends posted over all ranks, `(messages, bytes)`: the
/// `MPI_Send` and `MPI_Isend` rows of the mpiP books.
fn sends(comm: &MpipReport) -> (u64, u64) {
    comm.sites
        .iter()
        .filter(|s| matches!(s.site.op, MpiOp::Send | MpiOp::Isend))
        .fold((0, 0), |(m, b), s| (m + s.calls, b + s.bytes))
}

/// Profiler regions entered over all ranks.
fn region_calls(profile: &ProfileReport) -> u64 {
    profile.flat.iter().map(|(_, s)| s.calls).sum()
}

/// What one `run()` returned, reduced to what the benchmark checks and
/// reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Bitwise fingerprint of the final state.
    pub state_hash: u64,
    /// Global field checksum.
    pub checksum: f64,
    /// nekbone only: iterations performed and the final residual norm.
    pub cg: Option<(usize, f64)>,
    /// `1 - sum(rank compute) / sum(rank wall)`: the paper's Fig. 8
    /// quantity (fraction of time not spent in the physics kernels).
    pub comm_frac: f64,
    /// Slowest rank's compute over the mean rank compute.
    pub compute_spread: f64,
    /// Load-balancer activity (multiphase only).
    pub lb: Option<cmt_bone::LbSummary>,
    /// Point-to-point sends over all ranks, `(messages, bytes)`.
    pub sends: (u64, u64),
    /// Profiler regions entered over all ranks.
    pub regions: u64,
}

/// What a measured run must reproduce bit for bit: the reference run's
/// final state hash and (nekbone) its final residual norm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// `state_hash` of the reference run.
    pub state_hash: u64,
    /// nekbone only: final residual norm of the reference run.
    pub residual: Option<f64>,
}

impl Outcome {
    /// This run as the oracle for others.
    pub fn as_reference(&self) -> Reference {
        Reference {
            state_hash: self.state_hash,
            residual: self.cg.map(|(_, res)| res),
        }
    }

    /// Why this run counts as failed against the reference run, if it
    /// does: a final state that differs in any bit, a checksum that is
    /// not finite, or (nekbone) a wrong iteration count or a residual
    /// that differs in any bit.
    pub fn failure(&self, reference: &Reference, steps: usize) -> Option<String> {
        if self.state_hash != reference.state_hash {
            return Some(format!(
                "state hash {:016x} differs from the reference {:016x}",
                self.state_hash, reference.state_hash
            ));
        }
        if !self.checksum.is_finite() {
            return Some(format!("checksum {} is not finite", self.checksum));
        }
        if let (Some((iters, res)), Some(ref_res)) = (self.cg, reference.residual) {
            if iters != steps {
                return Some(format!("CG ran {iters} iterations, not {steps}"));
            }
            if res.to_bits() != ref_res.to_bits() {
                return Some(format!(
                    "final residual {res:e} differs from the reference {ref_res:e}"
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bone(p: &Program) -> &cmt_bone::Config {
        match p {
            Program::Bone(c) => c,
            Program::Nek(_) => panic!("not a cmt-bone workload"),
        }
    }

    #[test]
    fn same_seed_same_config() {
        for w in ALL {
            assert_eq!(
                format!("{:?}", w.program(7)),
                format!("{:?}", w.program(7)),
                "{}",
                w.name
            );
        }
    }

    /// A different seed changes only velocity, cluster fraction and
    /// lambda, and none of them far enough to change an operation count.
    #[test]
    fn different_seed_same_operation_counts() {
        for w in ALL {
            for seed in 1..=40u64 {
                let (a, b) = (w.program(1), w.program(seed));
                assert_eq!(a.steps(), b.steps());
                assert_eq!(a.dofs_per_step(), b.dofs_per_step());
                match (&a, &b) {
                    (Program::Bone(x), Program::Bone(y)) => {
                        // every derivative direction runs
                        assert!(y.velocity.iter().all(|&v| (0.3..0.9).contains(&v)));
                        // the cluster covers the same element planes
                        let planes = |c: &cmt_bone::Config| {
                            c.particle_cluster.map(|f| (f * 12.0).ceil() as usize)
                        };
                        assert_eq!(planes(x), planes(y));
                        let neutral = |c: &cmt_bone::Config| cmt_bone::Config {
                            velocity: [0.0; 3],
                            particle_cluster: None,
                            ..c.clone()
                        };
                        assert_eq!(
                            format!("{:?}", neutral(x)),
                            format!("{:?}", neutral(y)),
                            "{} seed {seed}",
                            w.name
                        );
                    }
                    (Program::Nek(x), Program::Nek(y)) => {
                        assert!((0.5..2.0).contains(&y.lambda));
                        let neutral = |c: &nekbone::Config| nekbone::Config {
                            lambda: 1.0,
                            ..c.clone()
                        };
                        assert_eq!(format!("{:?}", neutral(x)), format!("{:?}", neutral(y)));
                    }
                    _ => panic!("{} changed program with the seed", w.name),
                }
            }
            assert_ne!(
                format!("{:?}", w.program(1)),
                format!("{:?}", w.program(2)),
                "{} ignores the seed",
                w.name
            );
        }
    }

    /// No workload leaves the gather-scatter method or the kernel variant
    /// to a startup autotune.
    #[test]
    fn method_and_variant_are_pinned() {
        for w in ALL {
            match w.program(1) {
                Program::Bone(c) => {
                    assert_eq!(c.method, Some(GsMethod::PairwiseExchange));
                    assert_eq!(c.variant, KernelVariant::Simd);
                    assert!(!c.kernel_autotune);
                    assert_eq!((c.ranks, c.workers), (RANKS, 1));
                    c.validate().expect("valid configuration");
                }
                Program::Nek(c) => {
                    assert_eq!(c.method, Some(GsMethod::PairwiseExchange));
                    assert_eq!(c.variant, KernelVariant::Simd);
                    assert!(!c.kernel_autotune);
                    assert_eq!((c.ranks, c.workers), (RANKS, 1));
                    c.validate().expect("valid configuration");
                }
            }
        }
    }

    #[test]
    fn reference_is_the_plain_path_on_the_same_inputs() {
        let p = by_name("multiphase").unwrap().program(3);
        let r = p.reference();
        let (c, rc) = (bone(&p), bone(&r));
        assert_eq!(rc.variant, KernelVariant::Basic);
        assert_eq!(rc.pipeline, Pipeline::Blocking);
        assert_eq!((rc.lb_every, rc.checkpoint_every), (0, 0));
        assert_eq!(rc.velocity, c.velocity);
        assert_eq!(rc.particle_cluster, c.particle_cluster);
        assert_eq!(rc.steps, c.steps);
        let s = by_name("msg_socket").unwrap().program(3).reference();
        assert_eq!(bone(&s).transport, TransportKind::Inproc);
    }

    #[test]
    fn setup_run_has_zero_steps() {
        for w in ALL {
            let p = w.program(1);
            assert_eq!(p.steps(), w.unit_steps);
            assert_eq!(p.with_steps(0).steps(), 0);
        }
    }

    #[test]
    fn a_hash_mismatch_is_a_failure() {
        let good = Outcome {
            state_hash: 1,
            checksum: 1.0,
            cg: Some((80, 1e-3)),
            comm_frac: 0.0,
            compute_spread: 1.0,
            lb: None,
            sends: (0, 0),
            regions: 0,
        };
        let reference = good.as_reference();
        assert_eq!(good.failure(&reference, 80), None);
        let bad_hash = Outcome {
            state_hash: 2,
            ..good.clone()
        };
        assert!(bad_hash.failure(&reference, 80).is_some());
        let nan = Outcome {
            checksum: f64::NAN,
            ..good.clone()
        };
        assert!(nan.failure(&reference, 80).is_some());
        let short = Outcome {
            cg: Some((79, 1e-3)),
            ..good.clone()
        };
        assert!(short.failure(&reference, 80).is_some());
        let drift = Outcome {
            cg: Some((80, 1.000001e-3)),
            ..good.clone()
        };
        assert!(drift.failure(&reference, 80).is_some());
    }
}
