//! Startup auto-tuning of the exchange method.
//!
//! "At the beginning of each CMT-nek and CMT-bone simulation, three
//! gather-scatter methods are evaluated to determine which one performs
//! the best for the given problem setup and machine" (paper §VI). This
//! module times each method over a few trial `gs_op(Add)` calls, reduces
//! the per-rank timings to world-wide average/min/max (the three columns
//! of the paper's Fig. 7), and picks the method with the smallest average
//! — pairwise exchange unless a later method beats the best so far by
//! more than 10 %, so near-ties do not flip the choice run to run.

use std::time::Instant;

use simmpi::{Rank, ReduceOp};

use crate::handle::GsHandle;
use crate::ops::{GsMethod, GsOp};

/// Options controlling the tuning pass.
#[derive(Debug, Clone, Copy)]
pub struct AutotuneOptions {
    /// Timed trials per method (after one untimed warmup call).
    pub trials: usize,
    /// Skip the all_reduce method when the dense vector would exceed this
    /// many entries. The paper's Fig. 7 only tabulates pairwise and
    /// crystal router because "all_reduce is too expensive for both
    /// mini-apps for this problem setup"; at scale it is also too
    /// expensive to *try* (the vector is the entire global id universe),
    /// so gslib-style implementations bound it.
    pub allreduce_limit: u64,
}

impl Default for AutotuneOptions {
    fn default() -> Self {
        AutotuneOptions {
            trials: 5,
            allreduce_limit: 1 << 21, // 2M entries = 16 MiB per rank
        }
    }
}

/// World-wide timing of one method (one row of the paper's Fig. 7 table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodTiming {
    /// The method measured.
    pub method: GsMethod,
    /// Average per-call seconds over ranks.
    pub avg_s: f64,
    /// Fastest rank's per-call seconds.
    pub min_s: f64,
    /// Slowest rank's per-call seconds.
    pub max_s: f64,
    /// True if the method was not run (all_reduce beyond the size limit).
    pub skipped: bool,
}

/// The full tuning outcome.
#[derive(Debug, Clone)]
pub struct AutotuneReport {
    /// The winning method: smallest average time, a later method needing
    /// a margin of more than 10 % to displace an earlier one.
    pub chosen: GsMethod,
    /// Per-method timings, in [`GsMethod::ALL`] order.
    pub timings: Vec<MethodTiming>,
}

impl AutotuneReport {
    /// Timing row for one method.
    pub fn timing(&self, method: GsMethod) -> &MethodTiming {
        self.timings
            .iter()
            .find(|t| t.method == method)
            .expect("all methods present")
    }

    /// Render the Fig. 7-style table body (method, avg, min, max).
    pub fn table(&self, label: &str) -> String {
        let mut out = String::new();
        for t in &self.timings {
            if t.skipped {
                out.push_str(&format!(
                    "{label:10} | {:18} | {:>12} | {:>12} | {:>12}\n",
                    t.method.name(),
                    "skipped",
                    "-",
                    "-"
                ));
            } else {
                out.push_str(&format!(
                    "{label:10} | {:18} | {:>12.9} | {:>12.9} | {:>12.9}\n",
                    t.method.name(),
                    t.avg_s,
                    t.min_s,
                    t.max_s
                ));
            }
        }
        out
    }
}

/// Time all three methods on `handle` and pick the fastest.
///
/// Collective; every rank receives the identical report (timings are
/// allreduced, and the choice is a deterministic function of them).
pub fn autotune(rank: &mut Rank, handle: &GsHandle, opts: AutotuneOptions) -> AutotuneReport {
    let mut values = vec![1.0f64; handle.nlocal()];
    let mut timings = Vec::with_capacity(GsMethod::ALL.len());
    for method in GsMethod::ALL {
        if method == GsMethod::AllReduce && handle.total_global_ids() > opts.allreduce_limit {
            timings.push(MethodTiming {
                method,
                avg_s: f64::INFINITY,
                min_s: f64::INFINITY,
                max_s: f64::INFINITY,
                skipped: true,
            });
            continue;
        }
        // Warmup (first-touch allocation, lazy neighbor paths).
        handle.gs_op(rank, &mut values, GsOp::Add, method);
        // Rank-synchronized timed trials.
        rank.barrier();
        let start = Instant::now();
        for _ in 0..opts.trials.max(1) {
            handle.gs_op(rank, &mut values, GsOp::Add, method);
        }
        let per_call = start.elapsed().as_secs_f64() / opts.trials.max(1) as f64;
        // Reduce to the world-wide Fig. 7 columns.
        let avg = rank.allreduce_scalar(per_call, ReduceOp::Sum) / rank.size() as f64;
        let min = rank.allreduce_scalar(per_call, ReduceOp::Min);
        let max = rank.allreduce_scalar(per_call, ReduceOp::Max);
        timings.push(MethodTiming {
            method,
            avg_s: avg,
            min_s: min,
            max_s: max,
            skipped: false,
        });
        // values grew exponentially under repeated Add; reset to keep the
        // floats healthy for the next method.
        values.fill(1.0);
    }
    let chosen = choose(&timings);
    AutotuneReport { chosen, timings }
}

/// A later method displaces the incumbent only when its world-average
/// beats it by more than this share. With the rank-interior combine
/// local to every method, near-equal methods (pairwise and crystal router
/// on two ranks are the same single message) would otherwise trade the
/// win run to run on timing noise.
const DISPLACE_MARGIN: f64 = 0.10;

/// The winner among the methods that ran, in [`GsMethod::ALL`] order.
fn choose(timings: &[MethodTiming]) -> GsMethod {
    let mut ran = timings.iter().filter(|t| !t.skipped);
    let first = ran.next().expect("at least one method must run");
    ran.fold(first, |best, t| {
        if t.avg_s < best.avg_s * (1.0 - DISPLACE_MARGIN) {
            t
        } else {
            best
        }
    })
    .method
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::World;

    fn timing(method: GsMethod, avg_s: f64) -> MethodTiming {
        MethodTiming {
            method,
            avg_s,
            min_s: avg_s,
            max_s: avg_s,
            skipped: !avg_s.is_finite(),
        }
    }

    #[test]
    fn a_later_method_must_win_by_more_than_the_margin() {
        use GsMethod::{AllReduce, CrystalRouter, PairwiseExchange};
        let pick = |pw, cr, ar| {
            choose(&[
                timing(PairwiseExchange, pw),
                timing(CrystalRouter, cr),
                timing(AllReduce, ar),
            ])
        };
        // within 10 %: the incumbent stays, whichever way the noise fell
        assert_eq!(pick(1.00, 0.95, 0.91), PairwiseExchange);
        assert_eq!(pick(1.00, 1.05, 2.00), PairwiseExchange);
        // a clear win displaces, and becomes the bar for the next method
        assert_eq!(pick(1.00, 0.80, 0.75), CrystalRouter);
        assert_eq!(pick(1.00, 0.80, 0.70), AllReduce);
        // a skipped method never wins
        assert_eq!(pick(1.00, 0.95, f64::INFINITY), PairwiseExchange);
    }

    /// Tiny world: 2 ranks sharing one id.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "timed kernel reps across a World; meaningless and slow under the interpreter"
    )]
    fn autotune_runs_and_agrees_across_ranks() {
        let res = World::new().run(4, |rank| {
            // ids: rank-private ids plus one id shared by all
            let ids = vec![1000 + rank.rank() as u64, 7, 2000 + rank.rank() as u64];
            let handle = GsHandle::setup(rank, &ids);
            let report = autotune(
                rank,
                &handle,
                AutotuneOptions {
                    trials: 2,
                    allreduce_limit: 1 << 20,
                },
            );
            (report.chosen, report.timings.len())
        });
        let first = res.results[0].0;
        assert!(res.results.iter().all(|r| r.0 == first));
        assert!(res.results.iter().all(|r| r.1 == 3));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "timed kernel reps across a World; meaningless and slow under the interpreter"
    )]
    fn allreduce_skipped_beyond_limit() {
        let res = World::new().run(2, |rank| {
            let ids: Vec<u64> = (0..100).map(|i| i + 100 * rank.rank() as u64).collect();
            let handle = GsHandle::setup(rank, &ids);
            let report = autotune(
                rank,
                &handle,
                AutotuneOptions {
                    trials: 1,
                    allreduce_limit: 10,
                },
            );
            report.timing(GsMethod::AllReduce).skipped
        });
        assert!(res.results.iter().all(|&s| s));
    }
}
