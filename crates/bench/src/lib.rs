//! # cmt-bench
//!
//! The `figures` binary regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` for the experiment index); this
//! library is its Fig. 5/6 derivative-kernel measurement helper.
//! Performance is measured by the `benchmark/` package, not here.
//!
//! Every experiment has two parameterizations:
//! * **scaled** — finishes in seconds on a laptop-class machine, used by
//!   default and in CI;
//! * **full** — the paper's exact parameters (e.g. Fig. 7's 256 ranks x
//!   100 elements x N = 10; Fig. 5/6's 1563 elements x 1000 steps),
//!   selected with `--full`.
//!
//! Shapes (who wins, by roughly what factor) are expected to reproduce;
//! absolute times are not — the substrate is a thread-rank runtime, not a
//! 2012 Sandia cluster.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Instant;

use cmt_core::cost::deriv_counts;
use cmt_core::kernels::{deriv, DerivDir, KernelVariant};
use cmt_core::poly::Basis;
use cmt_perf::papi::model_kernel;
use cmt_perf::PapiEstimate;

/// Parameters of the Fig. 5/6 derivative-kernel experiment.
#[derive(Debug, Clone, Copy)]
pub struct DerivExperiment {
    /// GLL points per direction.
    pub n: usize,
    /// Elements processed per step (paper: 1563).
    pub nel: usize,
    /// Timesteps (paper: 1000).
    pub steps: usize,
}

impl DerivExperiment {
    /// The paper's Fig. 5/6 setup (instruction totals indicate N = 5).
    pub fn paper() -> Self {
        DerivExperiment {
            n: 5,
            nel: 1563,
            steps: 1000,
        }
    }

    /// A seconds-scale variant of the same experiment.
    pub fn scaled() -> Self {
        DerivExperiment {
            n: 5,
            nel: 1563,
            steps: 100,
        }
    }
}

/// One measured row of the Fig. 5/6 tables.
#[derive(Debug, Clone, Copy)]
pub struct DerivMeasurement {
    /// Which derivative.
    pub dir: DerivDir,
    /// Which implementation.
    pub variant: KernelVariant,
    /// Measured wall seconds for the whole run.
    pub runtime_s: f64,
    /// Modelled PAPI counters for the whole run.
    pub papi: PapiEstimate,
}

/// Run one derivative kernel for `exp.steps` steps and measure it,
/// attaching the modelled instruction/cycle counts.
pub fn measure_deriv(
    exp: DerivExperiment,
    variant: KernelVariant,
    dir: DerivDir,
) -> DerivMeasurement {
    let basis = Basis::new(exp.n);
    let npts = exp.n * exp.n * exp.n * exp.nel;
    // deterministic, cache-realistic data
    let u: Vec<f64> = (0..npts)
        .map(|i| ((i % 1013) as f64) * 1e-3 - 0.5)
        .collect();
    let mut out = vec![0.0; npts];
    // warmup
    deriv(variant, dir, exp.n, exp.nel, &basis.d, &u, &mut out);
    let start = Instant::now();
    for _ in 0..exp.steps {
        deriv(variant, dir, exp.n, exp.nel, &basis.d, &u, &mut out);
    }
    let runtime_s = start.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    let counts = deriv_counts(exp.n as u64, exp.nel as u64).times(exp.steps as u64);
    DerivMeasurement {
        dir,
        variant,
        runtime_s,
        papi: model_kernel(variant, dir, counts),
    }
}

/// Format a Fig. 5/6-style table from measurements.
pub fn deriv_table(title: &str, rows: &[DerivMeasurement]) -> String {
    let mut out = format!(
        "{title}\nDerivatives | Runtime (seconds) | Total instructions (modelled) | Total cycles (modelled)\n"
    );
    for r in rows {
        out.push_str(&format!(
            "{:11} | {:17.3} | {:>29} | {:>23}\n",
            r.dir.kernel_name(),
            r.runtime_s,
            group_digits(r.papi.instructions),
            group_digits(r.papi.cycles),
        ));
    }
    out
}

/// `1234567 -> "1,234,567"` (the paper's figure formatting).
pub fn group_digits(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    let bytes = s.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1,000");
        assert_eq!(group_digits(1234567), "1,234,567");
        assert_eq!(group_digits(1158978395), "1,158,978,395");
    }

    #[test]
    fn measure_deriv_smoke() {
        let m = measure_deriv(
            DerivExperiment {
                n: 5,
                nel: 8,
                steps: 2,
            },
            KernelVariant::Optimized,
            DerivDir::T,
        );
        assert!(m.runtime_s >= 0.0);
        assert!(m.papi.instructions > 0);
        let table = deriv_table("t", &[m]);
        assert!(table.contains("dudt"));
    }
}
