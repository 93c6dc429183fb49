//! The statistics every reported number goes through.
//!
//! The headline of a timing is a *low quantile*, not the median: on the
//! shared 2-vCPU host this benchmark was sized on, interference is
//! one-sided and bursty (samples only ever get slower), so the lower
//! tail is the part of the distribution that repeats between runs of the
//! same code. README.md records the measurements behind that choice.

/// The headline quantile: the 15th percentile, nearest rank.
pub const Q_FRACTION: f64 = 0.15;

/// Samples that must lie strictly below the headline of unit timings, so
/// that it is a quantile and not an extreme value.
pub const MIN_BELOW: usize = 10;

/// `samples` sorted ascending (timings are finite; NaN sorts last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile: the `ceil(frac * n)`-th smallest sample.
///
/// # Panics
/// Panics on an empty sample set — every caller schedules at least one.
pub fn quantile(samples: &[f64], frac: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let v = sorted(samples);
    let rank = ((frac * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The headline `Q` of a set of timings.
pub fn q(samples: &[f64]) -> f64 {
    quantile(samples, Q_FRACTION)
}

/// Whether `n` unit samples leave at least [`MIN_BELOW`] of them below
/// the headline (67 or more do).
pub fn enough_units(n: usize) -> bool {
    (Q_FRACTION * n as f64).ceil() as usize > MIN_BELOW
}

/// `Q` of unit timings, refused unless at least [`MIN_BELOW`] samples lie
/// below it: with fewer the 15th percentile is one of the few fastest
/// samples and moves like a minimum.
pub fn q_units(samples: &[f64]) -> Result<f64, String> {
    if !enough_units(samples.len()) {
        return Err(format!(
            "{} unit samples leave fewer than {MIN_BELOW} below the 15th percentile",
            samples.len()
        ));
    }
    Ok(q(samples))
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// `(median - Q) / Q` of unit timings: how far the bulk of the samples
/// sat above the headline. Above [`NOISE_FLAG`] the run was disturbed.
pub fn noise(samples: &[f64]) -> f64 {
    let low = q(samples);
    (median(samples) - low) / low
}

/// `host.noise` above this labels a run as disturbed. Nothing is
/// corrected for it: the numbers stay raw seconds.
pub const NOISE_FLAG: f64 = 0.15;

/// Two-point step time in milliseconds: the unit's wall time minus the
/// wall time of the same run with zero steps, per step.
pub fn step_ms(wall_s: f64, setup_s: f64, steps: usize) -> f64 {
    (wall_s - setup_s) / steps as f64 * 1e3
}

/// Degrees of freedom advanced per second, in millions (the HipBone
/// figure of merit, arXiv:2202.12477, summed over ranks).
pub fn mdofs_per_s(dofs_per_step: u64, step_ms: f64) -> f64 {
    dofs_per_step as f64 / (step_ms * 1e-3) / 1e6
}

/// Relative difference `|a - b| / min(a, b)` between two measurements of
/// one metric.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_is_the_eleventh_smallest_of_72() {
        let samples: Vec<f64> = (1..=72).rev().map(f64::from).collect();
        assert_eq!(q_units(&samples), Ok(11.0));
        assert_eq!(samples.iter().filter(|&&s| s < 11.0).count(), 10);
    }

    #[test]
    fn q_units_refuses_fewer_than_ten_samples_below_it() {
        // 66 samples: rank ceil(9.9) = 10, nine below
        let few: Vec<f64> = (1..=66).map(f64::from).collect();
        assert!(q_units(&few).is_err());
        let enough: Vec<f64> = (1..=67).map(f64::from).collect();
        assert_eq!(q_units(&enough), Ok(11.0));
        assert!(q_units(&[]).is_err());
    }

    #[test]
    fn q_ignores_a_slow_tail() {
        let mut samples = vec![1.0; 72];
        for s in samples.iter_mut().skip(20) {
            *s = 1.4; // 52 of 72 samples disturbed
        }
        assert_eq!(q(&samples), 1.0);
        assert_eq!(median(&samples), 1.4);
        assert!(noise(&samples) > NOISE_FLAG);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.15), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn step_time_is_two_point() {
        // 0.25 s unit, 0.05 s of it setup, 4 steps: 50 ms per step
        assert!((step_ms(0.25, 0.05, 4) - 50.0).abs() < 1e-12);
        // 1e6 dofs per 50 ms step: 20 MDOF/s
        assert!((mdofs_per_s(1_000_000, 50.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn rel_diff_is_symmetric() {
        assert_eq!(rel_diff(1.0, 1.1), rel_diff(1.1, 1.0));
        assert!((rel_diff(2.0, 2.2) - 0.1).abs() < 1e-12);
    }
}
