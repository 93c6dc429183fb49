//! Run reports: everything the paper's evaluation section measures, from
//! one mini-app execution.

use cmt_gs::{AutotuneReport, GsMethod};
use cmt_mesh::MeshConfig;
use cmt_perf::{MpipReport, ProfileReport};

use crate::config::Config;

/// Aggregate load-balancer activity over one run (all ranks), present
/// when `Config::lb_every` enabled the balancer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LbSummary {
    /// Times the rebalance trigger fired in the run and elements
    /// migrated to a new partition (the setup decision moves nothing and
    /// is not counted).
    pub rebalances: u64,
    /// Elements shipped between ranks by rebalances (sum over ranks).
    pub elems_moved: u64,
    /// Particle ownership moves (advective drift + rebalances, sum over
    /// ranks).
    pub particles_moved: u64,
    /// Largest max-over-mean effective load the balancer read at any
    /// evaluation point, the setup decision on the seeded cloud included.
    pub peak_imbalance: f64,
}

/// The full measurement set of one CMT-bone (or Nekbone) run.
#[derive(Debug)]
pub struct RunReport {
    /// The mesh/partition configuration used.
    pub mesh: MeshConfig,
    /// Paper-style setup block (the Fig. 7 header).
    pub mesh_summary: String,
    /// The gather-scatter method actually used for the surface exchange.
    pub chosen_method: GsMethod,
    /// The startup tuning table (Fig. 7 body), when autotuning ran.
    pub autotune: Option<AutotuneReport>,
    /// The derivative-kernel variant that ran (the configured one).
    pub kernel_variant: cmt_core::KernelVariant,
    /// The instruction set the simd kernel tier dispatched to
    /// (`avx2` / `sse2` / `scalar`); `-` when a non-simd variant ran.
    pub kernel_isa: &'static str,
    /// Region profile merged over all ranks (Fig. 4).
    pub profile: ProfileReport,
    /// mpiP-style communication statistics (Figs. 8-10).
    pub comm: MpipReport,
    /// Per-rank wall time of the whole rank program, seconds.
    pub rank_wall_s: Vec<f64>,
    /// Per-rank *compute* self time, seconds: the physics regions only
    /// (derivatives, surface ops, RK, dealias, viscous, particle
    /// advection), excluding exchanges and waits. This is the quantity
    /// the load balancer redistributes, and its max over ranks is the
    /// step-loop critical path a parallel host's wall time follows. (On
    /// a host with fewer cores than ranks the *process* wall is the SUM
    /// of rank computes — partition-independent — so balancing effects
    /// are only visible here.)
    pub rank_compute_s: Vec<f64>,
    /// Sum of every final field value: each rank sums its own, and an
    /// allreduce adds the ranks' sums in rank order. Deterministic for
    /// one configuration, but a floating sum grouped by rank, so it can
    /// differ between decompositions of one global grid (1 × 64 against
    /// 8 × 8 elements) at an equal [`RunReport::state_hash`]: the hash,
    /// not the checksum, is the identity across rank counts.
    pub checksum: f64,
    /// FNV-1a hash over every element's final state (field bytes plus
    /// resident particles), combined in ascending global-element-id
    /// order — a bitwise, *partition-independent* fingerprint of the
    /// final state. Used by the resilience tests and the CI
    /// fault-injection smoke job to compare recovered runs against
    /// uninterrupted ones, and by the load-balancer tests to prove a
    /// rebalanced run reproduces the static run exactly.
    pub state_hash: u64,
    /// Load-balancer activity, when `Config::lb_every` enabled it.
    pub lb: Option<LbSummary>,
    /// Timesteps executed.
    pub steps: usize,
    /// Conserved-variable fields stepped.
    pub fields: usize,
    /// The modeled flop count of the run; `None` when it ran work the model
    /// does not count.
    pub modeled_flops: Option<u64>,
    /// `cmt-verify` findings when the run was checked (`Config::verify`);
    /// `None` when verification was off, `Some(vec![])` for a clean run.
    pub verify: Option<Vec<cmt_verify::Finding>>,
}

/// Modelled floating-point work of a whole run of `cfg` on `mesh` (all
/// ranks): per field per RK stage the derivative kernels, the dealias
/// round trip when it is on, the RK update and the face lift — from the
/// exact operation counts of [`cmt_core::cost`]. `None` when the run does
/// work the model has no counts for: Euler fluxes, the BR1 viscous
/// passes, or the particle phase.
pub(crate) fn modeled_flops(cfg: &Config, mesh: &MeshConfig) -> Option<u64> {
    use cmt_core::cost;
    if cfg.euler || cfg.viscosity.is_some() || cfg.particles_per_elem > 0 {
        return None;
    }
    let n = mesh.n as u64;
    let nel = mesh.total_elems() as u64;
    let mut per_stage = cost::grad_counts(n, nel)
        .plus(cost::rk_stage_counts(n, nel))
        .plus(cost::face2full_counts(n, nel));
    if let Some(m) = cfg.dealias_m.map(|m| m as u64) {
        per_stage = per_stage
            .plus(cost::tensor3_counts(m, n, nel))
            .plus(cost::tensor3_counts(n, m, nel));
    }
    let stages = cmt_core::rk::STAGES as u64;
    Some(
        per_stage
            .times(stages * cfg.steps as u64 * cfg.fields as u64)
            .flops,
    )
}

impl RunReport {
    /// Achieved modelled flop rate over the slowest rank's wall time,
    /// flops/second (a coarse utilization indicator, not a benchmark);
    /// `None` when the run is not modelled.
    pub fn flop_rate(&self) -> Option<f64> {
        self.modeled_flops
            .map(|flops| flops as f64 / self.max_wall_s().max(1e-12))
    }

    /// Slowest rank's wall time (the run's critical path).
    pub fn max_wall_s(&self) -> f64 {
        self.rank_wall_s.iter().fold(0.0f64, |m, &v| m.max(v))
    }

    /// Slowest rank's compute self time — the step-loop critical path on
    /// a parallel host (see [`RunReport::rank_compute_s`]).
    pub fn compute_critical_path_s(&self) -> f64 {
        self.rank_compute_s.iter().fold(0.0f64, |m, &v| m.max(v))
    }

    /// Straggler signature: slowest rank's compute over the mean rank
    /// compute (1.0 = perfectly balanced).
    pub fn compute_spread(&self) -> f64 {
        if self.rank_compute_s.is_empty() {
            return 1.0;
        }
        let avg = self.rank_compute_s.iter().sum::<f64>() / self.rank_compute_s.len() as f64;
        self.compute_critical_path_s() / avg.max(1e-12)
    }

    /// Mean rank wall time.
    pub fn avg_wall_s(&self) -> f64 {
        if self.rank_wall_s.is_empty() {
            0.0
        } else {
            self.rank_wall_s.iter().sum::<f64>() / self.rank_wall_s.len() as f64
        }
    }

    /// Render the complete paper-style report (setup block, autotune
    /// table, flat profile, communication summaries).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Setup:\n");
        out.push_str(&self.mesh_summary);
        out.push('\n');
        out.push_str(&format!(
            "\nsteps = {}  fields = {}  checksum = {:.12e}\n",
            self.steps, self.fields, self.checksum
        ));
        out.push_str(&format!("state hash: {:016x}\n", self.state_hash));
        out.push_str(&format!(
            "wall time: avg {:.4}s  max {:.4}s",
            self.avg_wall_s(),
            self.max_wall_s(),
        ));
        if let (Some(flops), Some(rate)) = (self.modeled_flops, self.flop_rate()) {
            out.push_str(&format!(
                "   modelled kernel work: {:.2} Gflop ({:.2} Gflop/s)",
                flops as f64 / 1e9,
                rate / 1e9,
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "chosen gs method: {}\n",
            self.chosen_method.name()
        ));
        out.push_str(&format!(
            "kernel variant: {} (effective isa: {})\n",
            self.kernel_variant.name(),
            self.kernel_isa
        ));
        if let Some(lb) = &self.lb {
            out.push_str(&format!(
                "load balancing: {} rebalances, {} elements migrated, \
                 {} particle moves, peak imbalance {:.3}\n",
                lb.rebalances, lb.elems_moved, lb.particles_moved, lb.peak_imbalance
            ));
        }
        if let Some(findings) = &self.verify {
            out.push_str(&cmt_verify::render_findings(findings));
        }
        if let Some(t) = &self.autotune {
            out.push_str("\nAutotune (Fig. 7):\n");
            out.push_str(
                "mini-app   | method             |      avg (s) |      min (s) |      max (s)\n",
            );
            out.push_str(&t.table("CMT-bone"));
        }
        out.push_str("\nExecution profile (Fig. 4):\n");
        out.push_str(&self.profile.render_flat());
        out.push_str("\nCall graph edges:\n");
        out.push_str(&self.profile.render_call_graph());
        out.push_str("\nMPI time per rank (Fig. 8):\n");
        out.push_str(&self.comm.render_rank_bars());
        out.push_str("\nTop MPI call sites (Fig. 9):\n");
        out.push_str(&self.comm.render_top_sites(20));
        out.push_str("\nMessage sizes (Fig. 10):\n");
        out.push_str(&self.comm.render_msg_sizes(10));
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, Config};
    use cmt_gs::GsMethod;

    #[test]
    fn render_produces_all_sections() {
        let rep = run(&Config {
            n: 4,
            elems_per_rank: 4,
            ranks: 2,
            steps: 2,
            fields: 1,
            ..Default::default()
        });
        let text = rep.render();
        for needle in [
            "Setup:",
            "Autotune (Fig. 7)",
            "Execution profile (Fig. 4)",
            "MPI time per rank (Fig. 8)",
            "Top MPI call sites (Fig. 9)",
            "Message sizes (Fig. 10)",
            "chosen gs method:",
        ] {
            assert!(text.contains(needle), "missing section {needle}");
        }
    }

    #[test]
    fn forced_method_skips_autotune_section() {
        let rep = run(&Config {
            n: 4,
            elems_per_rank: 2,
            ranks: 2,
            steps: 1,
            fields: 1,
            method: Some(GsMethod::CrystalRouter),
            ..Default::default()
        });
        assert!(rep.autotune.is_none());
        assert_eq!(rep.chosen_method, GsMethod::CrystalRouter);
        assert!(!rep.render().contains("Autotune"));
    }

    #[test]
    fn modeled_flops_scale_with_steps_and_fields() {
        let base = Config {
            n: 4,
            elems_per_rank: 2,
            ranks: 2,
            steps: 2,
            fields: 1,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let a = run(&base);
        let b = run(&Config {
            steps: 4,
            fields: 2,
            ..base
        });
        let flops = |r: &crate::RunReport| r.modeled_flops.expect("the proxy is modelled");
        assert_eq!(flops(&b), 4 * flops(&a));
        assert!(a.flop_rate().is_some_and(|r| r > 0.0));
        assert!(a.render().contains("Gflop"));
    }

    #[test]
    fn dealiased_run_counts_the_dealias_round_trip() {
        let base = Config {
            n: 4,
            elems_per_rank: 2,
            ranks: 2,
            steps: 2,
            fields: 2,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let plain = run(&base);
        let dealiased = run(&Config {
            dealias_m: Some(6),
            ..base
        });
        let (n, m, nel) = (4, 6, 4);
        let round_trip = cmt_core::cost::tensor3_counts(m, n, nel)
            .plus(cmt_core::cost::tensor3_counts(n, m, nel))
            .times(cmt_core::rk::STAGES as u64 * 2 * 2)
            .flops;
        assert_eq!(
            dealiased.modeled_flops,
            plain.modeled_flops.map(|f| f + round_trip)
        );
        assert!(dealiased.render().contains("Gflop/s"));
    }

    #[test]
    fn euler_run_prints_no_flop_rate() {
        let rep = run(&Config {
            n: 4,
            elems_per_rank: 2,
            ranks: 2,
            steps: 2,
            fields: 5,
            euler: true,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        });
        assert_eq!((rep.modeled_flops, rep.flop_rate()), (None, None));
        let text = rep.render();
        assert!(
            text.contains("wall time:") && !text.contains("Gflop"),
            "{text}"
        );
    }

    #[test]
    fn wall_time_stats_sane() {
        let rep = run(&Config {
            n: 4,
            elems_per_rank: 2,
            ranks: 3,
            steps: 1,
            fields: 1,
            ..Default::default()
        });
        assert_eq!(rep.rank_wall_s.len(), 3);
        assert!(rep.avg_wall_s() > 0.0);
        assert!(rep.max_wall_s() >= rep.avg_wall_s());
    }
}
