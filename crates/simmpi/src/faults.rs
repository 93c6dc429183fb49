//! Deterministic fault injection for the rank runtime.
//!
//! Production Nek-family solvers run at scales where component faults are
//! routine, and resilience studies on CMT (dynamic load balancing,
//! checkpoint/restart) need a way to *provoke* faults reproducibly. A
//! [`FaultPlan`] is a seeded, deterministic description of the faults one
//! world run should experience:
//!
//! * **message delays** — with probability `prob`, a point-to-point send
//!   is held for a fixed time before delivery (a congested or degraded
//!   link);
//! * **rank kills** — at a chosen application step, a chosen rank loses
//!   its in-memory state. The runtime does not act on kill events itself:
//!   drivers consult the plan ([`FaultPlan::kills`]) and run their
//!   checkpoint/restart recovery (see the `resilience` crate).
//!
//! Every injected delay is recorded in the rank's mpiP-style statistics
//! under its own operation kind ([`crate::MpiOp::FaultDelay`]), so the
//! cost of running through faults is measurable per call site, not
//! anecdotal.
//!
//! Determinism: each rank derives its own [`crate::rng::SmallRng`] stream
//! from the plan seed and its rank id, and draws from it once per
//! configured hazard per send. SPMD code performs the same send sequence
//! on every run, so the injected schedule is bitwise reproducible. The
//! RNG state can be captured and restored ([`crate::Rank::fault_rng_state`])
//! so a rollback replays the same decisions.

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use crate::rng::SmallRng;

/// Per-rank fault-injection state: the shared plan plus this rank's own
/// deterministic hazard stream.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: Arc<FaultPlan>,
    pub(crate) rng: SmallRng,
}

impl FaultState {
    /// Derive rank `r`'s hazard stream from the plan seed. The golden-ratio
    /// multiplier decorrelates adjacent ranks' streams.
    pub(crate) fn for_rank(plan: Arc<FaultPlan>, r: usize) -> FaultState {
        let seed = plan
            .seed
            .wrapping_add((r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultState {
            plan,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

/// Message-delay hazard: each send is delayed with probability `prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayFault {
    /// Per-send probability of injecting the delay, in `[0, 1]`.
    pub prob: f64,
    /// The injected delay.
    pub delay: Duration,
    /// Restrict the hazard to one rank's sends (`delay:...,rank=R`).
    /// `None` delays every rank. A single-rank delay turns that rank
    /// into a deterministic straggler — the load-balancer test rig.
    pub rank: Option<usize>,
}

/// A scheduled rank kill: at the top of application step `step`, rank
/// `rank` loses its in-memory state. Fires once (drivers mark events
/// consumed so a post-recovery replay of the same step does not re-kill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillEvent {
    /// The rank that dies.
    pub rank: usize,
    /// The application step (timestep / CG iteration) at which it dies.
    pub step: u64,
}

/// A deterministic, seeded fault schedule for one world run.
///
/// Parse one from the `--fault-plan` command-line grammar with
/// [`FaultPlan::parse`]:
///
/// ```
/// use simmpi::FaultPlan;
///
/// let plan = FaultPlan::parse("kill:rank=2,step=5;delay:prob=0.1,us=50;seed=7").unwrap();
/// assert_eq!(plan.kills.len(), 1);
/// assert_eq!(plan.kills[0].rank, 2);
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.delay.map(|d| d.delay.as_micros()), Some(50));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the per-rank hazard RNG streams.
    pub seed: u64,
    /// Optional message-delay hazard.
    pub delay: Option<DelayFault>,
    /// Scheduled rank kills, in the order given.
    pub kills: Vec<KillEvent>,
}

impl FaultPlan {
    /// Parse the `--fault-plan` grammar: semicolon-separated clauses
    ///
    /// * `kill:rank=R,step=S` — schedule a rank kill (repeatable);
    /// * `delay:prob=P,us=U[,rank=R]` — delay each send with probability
    ///   `P` by `U` microseconds; `rank=R` restricts the hazard to rank
    ///   `R`'s sends (a deterministic straggler);
    /// * `seed=N` — RNG seed (default 0).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            if let Some(v) = clause.strip_prefix("seed=") {
                plan.seed = v
                    .parse()
                    .map_err(|_| format!("bad seed in fault plan: {clause:?}"))?;
                continue;
            }
            let (kind, args) = clause
                .split_once(':')
                .ok_or_else(|| format!("bad fault clause (want kind:k=v,...): {clause:?}"))?;
            let a = Args::parse(clause, args)?;
            match kind {
                "kill" => plan.kills.push(KillEvent {
                    rank: a.req("rank")?,
                    step: a.req("step")?,
                }),
                "delay" => {
                    plan.delay = Some(DelayFault {
                        prob: a.prob()?,
                        delay: Duration::from_micros(a.req("us")?),
                        rank: a.uint("rank")?,
                    })
                }
                other => return Err(format!("unknown fault kind {other:?} in {clause:?}")),
            }
        }
        Ok(plan)
    }

    /// Validate the plan against a world of `size` ranks: kill targets
    /// must exist, and a killed rank needs a distinct partner to restore
    /// from, so worlds of one rank cannot host kills.
    pub fn validate(&self, size: usize) -> Result<(), String> {
        for k in &self.kills {
            if k.rank >= size {
                return Err(format!(
                    "fault plan kills rank {} but the world has {size} ranks",
                    k.rank
                ));
            }
        }
        if let Some(r) = self.delay.as_ref().and_then(|d| d.rank) {
            if r >= size {
                return Err(format!(
                    "fault plan delays rank {r} but the world has {size} ranks"
                ));
            }
        }
        if !self.kills.is_empty() && size < 2 {
            return Err("rank kills need at least 2 ranks (partner redundancy)".into());
        }
        Ok(())
    }
}

/// The `key=value` arguments of one fault clause.
struct Args<'a> {
    clause: &'a str,
    kv: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    fn parse(clause: &'a str, args: &'a str) -> Result<Args<'a>, String> {
        let kv = args
            .split(',')
            .filter(|a| !a.trim().is_empty())
            .map(|a| {
                a.split_once('=')
                    .map(|(k, v)| (k.trim(), v.trim()))
                    .ok_or_else(|| format!("bad fault argument (want k=v): {a:?}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Args { clause, kv })
    }

    fn raw(&self, key: &str) -> Option<&'a str> {
        self.kv.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn missing(&self, key: &str) -> String {
        format!("fault clause {:?} missing {key}=", self.clause)
    }

    /// An optional unsigned integer argument. Digits only: a sign, a
    /// fraction or a non-number is an error, never a saturating cast.
    fn uint<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.raw(key)
            .map(|v| {
                v.bytes()
                    .all(|b| b.is_ascii_digit())
                    .then(|| v.parse().ok())
                    .flatten()
                    .ok_or_else(|| {
                        format!(
                            "fault argument {key}={v} in {:?} is not an unsigned integer",
                            self.clause
                        )
                    })
            })
            .transpose()
    }

    /// A required unsigned integer argument.
    fn req<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.uint(key)?.ok_or_else(|| self.missing(key))
    }

    /// The required `prob` argument, in `[0, 1]`.
    fn prob(&self) -> Result<f64, String> {
        let v = self.raw("prob").ok_or_else(|| self.missing("prob"))?;
        match v.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
            _ => Err(format!("probability {v} not in [0,1] in {:?}", self.clause)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan =
            FaultPlan::parse("kill:rank=2,step=5;kill:rank=0,step=9;delay:prob=0.5,us=100;seed=99")
                .unwrap();
        assert_eq!(
            plan.kills,
            vec![
                KillEvent { rank: 2, step: 5 },
                KillEvent { rank: 0, step: 9 }
            ]
        );
        let d = plan.delay.unwrap();
        assert_eq!(d.prob, 0.5);
        assert_eq!(d.delay, Duration::from_micros(100));
        assert_eq!(plan.seed, 99);
    }

    /// `drop` is not a fault kind: a plan naming it is refused, not
    /// silently read as fault-free.
    #[test]
    fn drop_clause_is_unknown() {
        let err = FaultPlan::parse("drop:prob=0.1").unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "kill:rank=2",          // missing step
            "explode:rank=1",       // unknown kind
            "delay:prob=1.5,us=10", // probability out of range
            "delay:prob=x,us=10",   // unparseable value
            "seed=abc",             // bad seed
            "justtext",             // no kind separator
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Integer arguments are unsigned integers: a sign, a fraction, an
    /// exponent or an overflow is refused, not saturated or truncated into
    /// a valid rank, step or delay.
    #[test]
    fn rejects_non_integer_arguments() {
        for bad in [
            "kill:rank=-1,step=5",
            "kill:rank=1.9,step=5",
            "kill:rank=1,step=2.5",
            "kill:rank=+1,step=5",
            "kill:rank=,step=5",
            "delay:prob=0.5,us=-100",
            "delay:prob=0.5,us=1e3",
            "delay:prob=0.5,us=10,rank=0.5",
            "delay:prob=0.1,us=99999999999999999999",
            "kill:rank=1,step=99999999999999999999999",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn delay_rank_selector_parses_and_validates() {
        let plan = FaultPlan::parse("delay:prob=1,us=300,rank=2;seed=5").unwrap();
        let d = plan.delay.unwrap();
        assert_eq!(d.rank, Some(2));
        assert_eq!(d.delay, Duration::from_micros(300));
        assert!(plan.validate(3).is_ok());
        assert!(plan.validate(2).is_err(), "rank 2 needs a 3-rank world");
        // No selector: delays everyone, validates anywhere.
        let plan = FaultPlan::parse("delay:prob=0.5,us=10").unwrap();
        assert_eq!(plan.delay.unwrap().rank, None);
        assert!(plan.validate(1).is_ok());
    }

    #[test]
    fn validate_checks_rank_bounds_and_world_size() {
        let plan = FaultPlan::parse("kill:rank=4,step=1").unwrap();
        assert!(plan.validate(4).is_err());
        assert!(plan.validate(5).is_ok());
        let plan = FaultPlan::parse("kill:rank=0,step=1").unwrap();
        assert!(plan.validate(1).is_err());
        assert!(FaultPlan::default().validate(1).is_ok());
    }
}
