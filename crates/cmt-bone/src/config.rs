//! Mini-app configuration.

use std::path::PathBuf;

use cmt_core::eos::NVARS;
use cmt_core::KernelVariant;
use cmt_gs::{AutotuneOptions, GsMethod};
use simmpi::{FaultPlan, TransportKind};

/// How the RK stage schedules its face exchanges relative to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pipeline {
    /// Legacy schedule: one blocking `gs_op` per field per stage, issued
    /// between surface extraction and flux lifting. Kept as the baseline
    /// the overlap measurements compare against.
    Blocking,
    /// Split-phase schedule: extract faces for *all* fields, start one
    /// batched exchange (`k` fields in one message per neighbor), run the
    /// flux-divergence and dealias volume kernels while messages are in
    /// flight, then finish the exchange and lift. Hides exchange latency
    /// behind compute and cuts per-stage message count by the field
    /// count.
    #[default]
    Overlapped,
}

impl Pipeline {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::Blocking => "blocking",
            Pipeline::Overlapped => "overlapped",
        }
    }
}

/// CMT-bone run configuration. The defaults are a laptop-scale version of
/// the paper's canonical setup (its Fig. 7 block is 256 ranks x 100
/// elements x N = 10; thread-rank worlds reproduce that exactly when
/// asked, see the `figures` binary).
///
/// ```
/// use cmt_bone::{run, Config};
///
/// let report = run(&Config {
///     ranks: 2,
///     n: 4,
///     elems_per_rank: 4,
///     steps: 2,
///     fields: 1,
///     ..Default::default()
/// });
/// assert!(report.checksum.is_finite());
/// assert!(report.render().contains("Execution profile"));
/// ```
#[derive(Debug, Clone)]
pub struct Config {
    /// GLL points per direction per element (the paper's `N`, 5..=25).
    pub n: usize,
    /// Elements per rank (the paper's `Nel` per process).
    pub elems_per_rank: usize,
    /// Number of ranks (`P`).
    pub ranks: usize,
    /// Timesteps to run.
    pub steps: usize,
    /// Number of conserved-variable fields (5 = mass, 3 momentum, energy).
    /// The advection proxy steps any count; [`Config::euler`] needs
    /// exactly 5.
    pub fields: usize,
    /// Derivative-kernel implementation (ignored when `kernel_autotune`
    /// is set — the startup kernel autotune picks it instead).
    pub variant: KernelVariant,
    /// Autotune the derivative kernel at startup (`--variant auto`): time
    /// every variant on this run's `(N, elems)` shape, average across
    /// ranks, and run the winner — the gs-style Fig. 7 protocol applied
    /// to compute.
    pub kernel_autotune: bool,
    /// Worker threads per rank for the hybrid MPI+X element loops (1 =
    /// pure MPI; >1 shares the overlap-window element loops across a
    /// work-stealing pool while ranks stay the communication unit).
    pub workers: usize,
    /// Force a gather-scatter method; `None` runs the startup autotune,
    /// as CMT-nek/CMT-bone do.
    pub method: Option<GsMethod>,
    /// Autotune options (trials, all_reduce size cap).
    pub autotune: AutotuneOptions,
    /// Steps between timestep-control allreduces (the vector-reduction
    /// workload component).
    pub cfl_interval: usize,
    /// Dealiasing: map each field's RHS to an `m`-point fine mesh and
    /// back every stage (the paper's §V "dealiasing reference elements,
    /// where an element is first mapped to a finer mesh and later mapped
    /// back"). `None` disables; `Some(m)` requires `m >= n`. The mapping
    /// is numerically the identity on the polynomial data (validated in
    /// tests) but adds the paper's second small-matrix-multiply workload.
    pub dealias_m: Option<usize>,
    /// Viscosity `nu` of the proxy fields (`None` = inviscid advection).
    /// With viscosity on, every stage also runs the BR1 gradient and
    /// viscous-divergence passes — doubling the derivative-kernel load
    /// and quadrupling the surface exchanges, the workload step-up the
    /// full Navier–Stokes CMT-nek brings over the inviscid core.
    pub viscosity: Option<f64>,
    /// Constant advection velocity driving the proxy fields.
    pub velocity: [f64; 3],
    /// Step the compressible Euler equations of an ideal gas (gamma 1.4)
    /// instead of the advection proxy. The five fields are then the
    /// conserved variables, started on a density/shear wave; the volume
    /// term is the real flux divergence, the lift a Rusanov flux, and
    /// `dt` follows the global wave speed, re-adapted every
    /// `cfl_interval` steps. Tracers ride the fluid velocity. Needs
    /// `fields = 5` and no `viscosity`.
    pub euler: bool,
    /// CFL number for the stable-timestep formula.
    pub cfl: f64,
    /// Exchange scheduling: blocking per-field `gs_op`s (the legacy
    /// baseline) or the batched split-phase overlap.
    pub pipeline: Pipeline,
    /// Checkpoint every this many steps (0 disables). Required non-zero
    /// when the fault plan schedules rank kills.
    pub checkpoint_every: usize,
    /// Mirror every checkpoint to this directory (enables cross-run
    /// `--restart`); `None` keeps checkpoints in memory only.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the per-rank checkpoints in this directory instead of
    /// starting at step 0.
    pub restart_from: Option<PathBuf>,
    /// Deterministic fault schedule injected into the world (message
    /// delays, scheduled rank kills). A delay-only plan
    /// such as `delay:prob=0.25,us=150;seed=7` perturbs the message
    /// schedule without changing any result.
    pub fault_plan: Option<FaultPlan>,
    /// Run under the `cmt-verify` dynamic checker: deadlock detection
    /// over blocked receives, collective-matching verification, and the
    /// finalize sweep for leaked messages and abandoned exchanges.
    /// Findings land in [`crate::RunReport::verify`]. In-process only:
    /// [`Config::validate`] refuses it with the socket transport.
    pub verify: bool,
    /// Communication backend: in-process mailboxes (the default, every
    /// rank a thread) or the multi-process socket transport (`--transport
    /// socket`, every rank a spawned child over Unix-domain
    /// sockets). Results are bitwise identical between backends.
    pub transport: TransportKind,
    /// Passive tracer particles per element seeded at startup (0
    /// disables the particle phase).
    pub particles_per_elem: usize,
    /// Cluster the seeded particles into the leading `frac` of the
    /// domain's x extent instead of spreading them uniformly — the
    /// imbalanced cloud the load balancer exists for. Requires
    /// `particles_per_elem > 0`; `frac` in `(0, 1]`.
    pub particle_cluster: Option<f64>,
    /// Evaluate the dynamic load balancer every this many steps (0
    /// disables). Its first decision is taken at setup, on the seeded
    /// particle counts, so a run without `restart_from` starts on the
    /// balanced partition. Requires the particle phase — the particle
    /// cloud is what creates the imbalance the balancer redistributes.
    pub lb_every: usize,
    /// Rebalance trigger: repartition when max-over-mean effective rank
    /// load exceeds this (1.0 = perfectly balanced; must be > 1.0 so
    /// the balanced state is a fixed point).
    pub lb_threshold: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 10,
            elems_per_rank: 27,
            ranks: 8,
            steps: 20,
            fields: 5,
            variant: KernelVariant::Optimized,
            kernel_autotune: false,
            workers: 1,
            method: None,
            autotune: AutotuneOptions::default(),
            cfl_interval: 5,
            dealias_m: None,
            viscosity: None,
            velocity: [0.8, 0.53, 0.31],
            euler: false,
            cfl: 0.25,
            pipeline: Pipeline::default(),
            checkpoint_every: 0,
            checkpoint_dir: None,
            restart_from: None,
            fault_plan: None,
            verify: false,
            transport: TransportKind::default(),
            particles_per_elem: 0,
            particle_cluster: None,
            lb_every: 0,
            lb_threshold: 1.25,
        }
    }
}

impl Config {
    /// Validate parameter sanity; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err(format!("n must be >= 2, got {}", self.n));
        }
        if self.n > 25 {
            return Err(format!(
                "n must be <= 25 (the paper's range), got {}",
                self.n
            ));
        }
        if self.workers == 0 {
            return Err("workers must be positive (1 = pure MPI)".into());
        }
        if self.ranks == 0 {
            return Err("ranks must be positive".into());
        }
        if self.elems_per_rank == 0 {
            return Err("elems_per_rank must be positive".into());
        }
        if self.fields == 0 {
            return Err("fields must be positive".into());
        }
        if self.cfl_interval == 0 {
            return Err("cfl_interval must be positive".into());
        }
        self.transport.validate()?;
        if self.verify && self.transport != TransportKind::Inproc {
            return Err("--verify runs in-process only: \
                 use --transport inproc (the default) or drop --verify"
                .into());
        }
        if !(self.cfl > 0.0) {
            return Err("cfl must be positive".into());
        }
        if let Some(m) = self.dealias_m {
            if m < self.n {
                return Err(format!(
                    "dealias mesh must be at least as fine as n ({m} < {})",
                    self.n
                ));
            }
        }
        if let Some(nu) = self.viscosity {
            if !(nu > 0.0) {
                return Err(format!("viscosity must be positive, got {nu}"));
            }
        }
        if self.euler {
            if self.fields != NVARS {
                return Err(format!(
                    "Euler steps {NVARS} conserved fields, got fields = {}",
                    self.fields
                ));
            }
            if self.viscosity.is_some() {
                return Err("viscosity applies to the advection proxy, not to Euler".into());
            }
        }
        if let Some(dir) = &self.restart_from {
            if !dir.is_dir() {
                return Err(format!(
                    "restart directory {} does not exist",
                    dir.display()
                ));
            }
        }
        if let Some(frac) = self.particle_cluster {
            if self.particles_per_elem == 0 {
                return Err("particle_cluster requires particles_per_elem > 0".into());
            }
            if !(frac > 0.0) || frac > 1.0 {
                return Err(format!("particle_cluster must be in (0, 1], got {frac}"));
            }
        }
        if self.lb_every > 0 {
            if self.particles_per_elem == 0 {
                return Err("load balancing (lb_every) requires particles_per_elem > 0 \
                     — particle drift is the imbalance source"
                    .into());
            }
            if !(self.lb_threshold > 1.0) {
                return Err(format!(
                    "lb_threshold must be > 1.0 (max/mean load trigger), got {}",
                    self.lb_threshold
                ));
            }
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.ranks)?;
            if !plan.kills.is_empty() && self.checkpoint_every == 0 {
                return Err("fault plan schedules rank kills but checkpointing is off \
                     (set checkpoint_every)"
                    .into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(Config::default().validate().is_ok());
        let euler = Config {
            euler: true,
            ..Default::default()
        };
        assert!(euler.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_params() {
        for breaker in [
            &(|c: &mut Config| c.n = 1) as &dyn Fn(&mut Config),
            &|c| c.n = 26,
            &|c| c.workers = 0,
            &|c| c.ranks = 0,
            &|c| c.elems_per_rank = 0,
            &|c| c.fields = 0,
            &|c| c.cfl_interval = 0,
            &|c| c.cfl = 0.0,
            &|c| c.cfl = f64::NAN,
            // LB without particles: nothing to balance
            &|c| c.lb_every = 4,
            // non-triggering threshold
            &|c| {
                c.particles_per_elem = 2;
                c.lb_every = 4;
                c.lb_threshold = 1.0;
            },
            &|c| {
                c.particles_per_elem = 2;
                c.lb_every = 4;
                c.lb_threshold = -2.0;
            },
            // clustering without particles, or with a bad fraction
            &|c| c.particle_cluster = Some(0.25),
            &|c| {
                c.particles_per_elem = 2;
                c.particle_cluster = Some(0.0);
            },
            &|c| {
                c.particles_per_elem = 2;
                c.particle_cluster = Some(1.5);
            },
            // Euler steps exactly the five conserved variables, inviscid
            &|c| {
                c.euler = true;
                c.fields = 3;
            },
            &|c| {
                c.euler = true;
                c.viscosity = Some(0.1);
            },
        ] {
            let mut c = Config::default();
            breaker(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
