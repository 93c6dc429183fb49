//! Startup autotuning of the derivative kernels — the gs-style "time the
//! candidates, pick the winner" protocol applied to compute.
//!
//! The gather–scatter layer autotunes its three exchange algorithms at
//! setup (paper Fig. 7); with five kernel variants and a worker pool
//! whose element-chunk *grain* trades scheduling overhead against
//! steal-ability, the derivative kernels deserve the same treatment. At
//! startup each rank times every `(variant, grain)` candidate on its own
//! `(N, elems)` shape; drivers then average the timings across ranks
//! (one allreduce, mirroring `cmt-gs::autotune`) and every rank picks the
//! same winner by minimum average — an SPMD-consistent choice, so worker
//! counts and rank counts cannot diverge on which kernel runs.
//!
//! This module is MPI-free: [`time_candidates`] produces local timings,
//! [`KernelAutotuneReport::from_avg_times`] turns (globally averaged)
//! timings into the decision, and the drivers own the one allreduce in
//! between. The *grain* is the number of elements per worker-pool chunk;
//! it is exercised here by issuing one `deriv` call per grain-sized chunk
//! exactly as the pooled element loop does.

use super::{deriv, DerivDir, KernelVariant};

/// One autotune candidate: a kernel variant at a pool chunk grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCandidate {
    /// The requested kernel variant.
    pub variant: KernelVariant,
    /// Elements per chunk in the (pooled or serial) element loop.
    pub grain: usize,
}

/// Timing of one candidate, averaged over trials (and, at the driver
/// level, over ranks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// The candidate measured.
    pub candidate: KernelCandidate,
    /// Average seconds per full three-direction sweep over all elements.
    pub avg_s: f64,
}

/// Options for the timing pass.
#[derive(Debug, Clone, Copy)]
pub struct KernelAutotuneOptions {
    /// Timed trials per candidate (one warmup sweep always runs first).
    pub trials: usize,
}

impl Default for KernelAutotuneOptions {
    fn default() -> Self {
        KernelAutotuneOptions { trials: 3 }
    }
}

/// The autotune outcome: chosen candidate, the variant that actually runs
/// for this `n` (Specialized may resolve to Optimized), and the full
/// timing table.
#[derive(Debug, Clone)]
pub struct KernelAutotuneReport {
    /// The winning candidate (minimum average time).
    pub chosen: KernelCandidate,
    /// `chosen.variant.resolve(n)` — the code that actually runs.
    pub effective: KernelVariant,
    /// All candidates with their averaged timings, in candidate order.
    pub timings: Vec<KernelTiming>,
}

/// The candidate list for a rank with `nel` elements: every variant
/// crossed with a small set of chunk grains (powers of two up to the
/// whole rank, deduplicated).
pub fn candidates(nel: usize) -> Vec<KernelCandidate> {
    let mut grains: Vec<usize> = [1usize, 2, 4, 8, 16]
        .iter()
        .copied()
        .filter(|&g| g < nel)
        .collect();
    grains.push(nel.max(1));
    grains.dedup();
    let mut out = Vec::with_capacity(KernelVariant::ALL.len() * grains.len());
    for variant in KernelVariant::ALL {
        for &grain in &grains {
            out.push(KernelCandidate { variant, grain });
        }
    }
    out
}

/// Time every candidate locally: for each, run `trials` sweeps of all
/// three derivative directions over all `nel` elements in grain-sized
/// chunks, and return the per-candidate average seconds (parallel to
/// [`candidates`]` (nel)`).
pub fn time_candidates(
    n: usize,
    nel: usize,
    d: &[f64],
    opts: KernelAutotuneOptions,
) -> (Vec<KernelCandidate>, Vec<f64>) {
    let cands = candidates(nel);
    let n3 = n * n * n;
    // Deterministic sample data; values are irrelevant to timing.
    let u: Vec<f64> = (0..n3 * nel).map(|i| ((i % 311) as f64) * 1e-2).collect();
    let mut out = vec![0.0; n3 * nel];
    let sweep = |cand: &KernelCandidate, out: &mut [f64]| {
        for dir in DerivDir::ALL {
            let mut lo = 0;
            while lo < nel {
                let hi = (lo + cand.grain).min(nel);
                deriv(
                    cand.variant,
                    dir,
                    n,
                    hi - lo,
                    d,
                    &u[lo * n3..hi * n3],
                    &mut out[lo * n3..hi * n3],
                );
                lo = hi;
            }
        }
    };
    let mut avgs = Vec::with_capacity(cands.len());
    for cand in &cands {
        sweep(cand, &mut out); // warmup: faults in caches, pages
        let trials = opts.trials.max(1);
        let start = std::time::Instant::now();
        for _ in 0..trials {
            sweep(cand, &mut out);
        }
        avgs.push(start.elapsed().as_secs_f64() / trials as f64);
        std::hint::black_box(&mut out);
    }
    (cands, avgs)
}

impl KernelAutotuneReport {
    /// Build the report from (globally averaged) per-candidate timings.
    ///
    /// # Panics
    /// Panics if `cands` and `avg_s` lengths differ or are empty.
    pub fn from_avg_times(n: usize, cands: Vec<KernelCandidate>, avg_s: Vec<f64>) -> Self {
        assert_eq!(cands.len(), avg_s.len(), "candidate/timing length mismatch");
        assert!(!cands.is_empty(), "no autotune candidates");
        let timings: Vec<KernelTiming> = cands
            .iter()
            .zip(&avg_s)
            .map(|(&candidate, &avg_s)| KernelTiming { candidate, avg_s })
            .collect();
        let chosen = timings
            .iter()
            .min_by(|a, b| a.avg_s.total_cmp(&b.avg_s))
            .expect("non-empty")
            .candidate;
        KernelAutotuneReport {
            chosen,
            effective: chosen.variant.resolve(n),
            timings,
        }
    }

    /// Render the variant × grain table, gs-autotune style.
    pub fn table(&self, label: &str) -> String {
        let mut out = format!("kernel autotune ({label}):\n");
        out.push_str("  variant      grain    avg(s)\n");
        for t in &self.timings {
            let mark = if t.candidate == self.chosen {
                "  <-- chosen"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {:<11} {:>5} {:>10.6}{}\n",
                t.candidate.variant.name(),
                t.candidate.grain,
                t.avg_s,
                mark
            ));
        }
        if self.effective != self.chosen.variant {
            out.push_str(&format!(
                "  (effective variant: {} — {} has no instantiation at this N)\n",
                self.effective.name(),
                self.chosen.variant.name()
            ));
        }
        if self.effective == KernelVariant::Simd {
            out.push_str(&format!(
                "  (effective isa: {})\n",
                super::simd::active_isa().name()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Basis;

    #[test]
    fn candidate_grid_covers_variants_and_grains() {
        let c = candidates(8);
        // grains 1, 2, 4, 8 for each variant
        assert_eq!(c.len(), KernelVariant::ALL.len() * 4);
        for v in KernelVariant::ALL {
            assert!(c.iter().any(|k| k.variant == v && k.grain == 8));
        }
        // single-element rank: one grain only
        assert_eq!(candidates(1).len(), KernelVariant::ALL.len());
    }

    #[test]
    fn simd_winner_reports_effective_isa() {
        let cands = candidates(2);
        let mut avgs = vec![1.0; cands.len()];
        let idx = cands
            .iter()
            .position(|c| c.variant == KernelVariant::Simd)
            .unwrap();
        avgs[idx] = 0.25;
        let rep = KernelAutotuneReport::from_avg_times(10, cands, avgs);
        assert_eq!(rep.effective, KernelVariant::Simd);
        let table = rep.table("test");
        assert!(
            table.contains(&format!(
                "effective isa: {}",
                crate::kernels::simd::active_isa().name()
            )),
            "{table}"
        );
    }

    #[test]
    fn report_picks_min_and_resolves() {
        let cands = candidates(4);
        let mut avgs = vec![1.0; cands.len()];
        // make a Specialized candidate the winner at an unsupported n
        let idx = cands
            .iter()
            .position(|c| c.variant == KernelVariant::Specialized)
            .unwrap();
        avgs[idx] = 0.5;
        let rep = KernelAutotuneReport::from_avg_times(27, cands.clone(), avgs);
        assert_eq!(rep.chosen.variant, KernelVariant::Specialized);
        assert_eq!(rep.effective, KernelVariant::Optimized);
        assert!(rep.table("test").contains("<-- chosen"));
        assert!(rep.table("test").contains("effective variant: optimized"));
    }

    #[test]
    fn timing_pass_runs_quickly_on_tiny_shape() {
        let n = 4;
        let nel = 3;
        let b = Basis::new(n);
        let (cands, avgs) = time_candidates(n, nel, &b.d, KernelAutotuneOptions { trials: 1 });
        assert_eq!(cands.len(), avgs.len());
        assert!(avgs.iter().all(|&t| t >= 0.0 && t.is_finite()));
    }
}
