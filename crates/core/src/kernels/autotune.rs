//! Startup autotuning of the derivative kernels — the gs-style "time the
//! candidates, pick the winner" protocol applied to compute.
//!
//! The gather–scatter layer autotunes its three exchange algorithms at
//! setup (paper Fig. 7); `--variant auto` gives the three kernel variants
//! the same treatment. At startup each rank times every variant on its
//! own `(N, elems)` shape; the drivers average the timings across ranks
//! (one allreduce, mirroring `cmt-gs::autotune`) and every rank picks
//! the same winner by minimum average — an SPMD-consistent choice, so
//! worker counts and rank counts cannot diverge on which kernel runs.
//!
//! This module is MPI-free: [`time_variants`] produces local timings and
//! [`KernelAutotuneReport`] turns (globally averaged) timings into the
//! decision; `cmt_perf::kernel_tune` owns the allreduce in between.

use super::{deriv, DerivDir, KernelVariant};

/// Timed sweeps per variant (one warmup sweep always runs first).
const TRIALS: usize = 3;

/// The autotune outcome: seconds per full three-direction sweep over all
/// of the rank's elements, averaged over trials (and, at the driver
/// level, over ranks), parallel to [`KernelVariant::ALL`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelAutotuneReport {
    /// Average seconds per sweep of each variant.
    pub avg_s: [f64; KernelVariant::ALL.len()],
}

/// Time every variant locally: `TRIALS` sweeps of all three derivative
/// directions over all `nel` elements each.
pub fn time_variants(n: usize, nel: usize, d: &[f64]) -> [f64; KernelVariant::ALL.len()] {
    let n3 = n * n * n;
    // Deterministic sample data; values are irrelevant to timing.
    let u: Vec<f64> = (0..n3 * nel).map(|i| ((i % 311) as f64) * 1e-2).collect();
    let mut out = vec![0.0; n3 * nel];
    KernelVariant::ALL.map(|variant| {
        let mut sweep = || {
            for dir in DerivDir::ALL {
                deriv(variant, dir, n, nel, d, &u, &mut out);
            }
        };
        sweep(); // warmup: faults in caches, pages
        let start = std::time::Instant::now();
        for _ in 0..TRIALS {
            sweep();
        }
        let avg = start.elapsed().as_secs_f64() / TRIALS as f64;
        std::hint::black_box(&mut out);
        avg
    })
}

impl KernelAutotuneReport {
    /// The winning variant: minimum average time, the earlier member of
    /// [`KernelVariant::ALL`] on a tie.
    pub fn chosen(&self) -> KernelVariant {
        let (best, _) = self
            .avg_s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("ALL is non-empty");
        KernelVariant::ALL[best]
    }

    /// Render the per-variant table, gs-autotune style.
    pub fn table(&self, label: &str) -> String {
        let chosen = self.chosen();
        let mut out = format!("kernel autotune ({label}):\n");
        out.push_str("  variant        avg(s)\n");
        for (variant, avg_s) in KernelVariant::ALL.into_iter().zip(self.avg_s) {
            let mark = if variant == chosen {
                "  <-- chosen"
            } else {
                ""
            };
            out.push_str(&format!("  {:<11} {avg_s:>10.6}{mark}\n", variant.name()));
        }
        if chosen == KernelVariant::Simd {
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
    fn report_picks_min_and_simd_winner_reports_isa() {
        let rep = KernelAutotuneReport {
            avg_s: [1.0, 0.5, 0.75],
        };
        assert_eq!(rep.chosen(), KernelVariant::Optimized);
        let table = rep.table("test");
        assert_eq!(table.matches("<-- chosen").count(), 1, "{table}");
        assert!(!table.contains("effective isa"), "{table}");

        let rep = KernelAutotuneReport {
            avg_s: [1.0, 1.0, 0.25],
        };
        assert_eq!(rep.chosen(), KernelVariant::Simd);
        let isa = crate::kernels::simd::active_isa().name();
        let table = rep.table("test");
        assert!(table.contains(&format!("effective isa: {isa}")), "{table}");
    }

    #[test]
    fn timing_pass_runs_quickly_on_tiny_shape() {
        let b = Basis::new(4);
        let avgs = time_variants(4, 3, &b.d);
        assert!(avgs.iter().all(|&t| t >= 0.0 && t.is_finite()));
    }
}
