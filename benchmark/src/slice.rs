//! Scheduling and sampling of the end-to-end measurement.
//!
//! A *pass* over a workload is [`Schedule::slices`] slices; a slice is a
//! child process of the harness (so peak memory is per workload) running
//! one discarded warm-up unit, then `cycles` x [1 setup sample +
//! `units_per_cycle` units]. Counts are fixed, never time-boxed, so two
//! commits do identical work.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::workloads::{Outcome, Program, Reference, Workload};

/// `--seconds` value the default schedule is sized for: 72 units of
/// about 0.2 s and 24 setup samples of about 0.1 s per workload.
pub const NOMINAL_SECONDS: u64 = 18;

/// How much one pass measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Child processes per workload per pass.
    pub slices: usize,
    /// Cycles per slice.
    pub cycles: usize,
    /// Units per cycle, after the cycle's setup sample.
    pub units_per_cycle: usize,
}

impl Schedule {
    /// The schedule for a run asked to measure for `seconds`: 4 slices of
    /// 6 cycles of 3 units at the nominal [`NOMINAL_SECONDS`], cycles
    /// scaled in proportion otherwise. A pure function of `seconds`.
    pub fn for_seconds(seconds: u64) -> Schedule {
        let cycles = (6 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
        Schedule {
            slices: 4,
            cycles: cycles.max(1) as usize,
            units_per_cycle: 3,
        }
    }

    /// One slice of one cycle: checks correctness, times nothing well.
    pub fn smoke() -> Schedule {
        Schedule {
            slices: 1,
            cycles: 1,
            units_per_cycle: 3,
        }
    }

    /// Timed units per pass.
    pub fn units(&self) -> usize {
        self.slices * self.cycles * self.units_per_cycle
    }

    /// Setup samples per pass.
    pub fn setup_samples(&self) -> usize {
        self.slices * self.cycles
    }

    /// Attempted operations of one slice: every timed unit and every
    /// zero-step `run()` call of every setup sample.
    pub fn attempted_per_slice(&self, w: &Workload) -> usize {
        self.cycles * (self.units_per_cycle + w.setup_batch)
    }

    /// Attempted operations per pass.
    pub fn attempted(&self, w: &Workload) -> usize {
        self.slices * self.attempted_per_slice(w)
    }
}

/// What the slices of one workload produced so far.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall seconds of every unit that passed its checks.
    pub unit_s: Vec<f64>,
    /// Seconds per zero-step call of every setup sample.
    pub setup_s: Vec<f64>,
    /// Largest `VmHWM` over the slices, MiB.
    pub peak_rss_mb: f64,
    /// Failed operations: panicked or wrong units, panicked setup calls,
    /// and everything a slice that died did not get to.
    pub failed: usize,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Outcome of the last good unit and of the last setup run.
    pub last: Option<(Outcome, Outcome)>,
}

impl Samples {
    fn fail(&mut self, count: usize, why: String) {
        self.failed += count;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// This process's peak resident set in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run one slice in this process, appending to `out`. A panic inside a
/// `run()` call is caught and counted as that operation's failure.
pub fn run_slice(
    w: &Workload,
    program: &Program,
    reference: &Reference,
    sched: &Schedule,
    out: &mut Samples,
) {
    let setup = program.with_steps(0);
    let quiet = |p: &Program| catch_unwind(AssertUnwindSafe(|| p.run()));
    // warm-up: page in the binary, fill the allocator, spawn-path caches
    let _ = quiet(program);
    let mut last_setup = None;
    let mut last_unit = None;
    for _ in 0..sched.cycles {
        let t = Instant::now();
        let mut ok = true;
        for _ in 0..w.setup_batch {
            match quiet(&setup) {
                Ok(o) => last_setup = Some(o),
                Err(_) => ok = false,
            }
        }
        if ok {
            out.setup_s
                .push(t.elapsed().as_secs_f64() / w.setup_batch as f64);
        } else {
            // the sample is lost, so the whole batch counts as failed
            out.fail(w.setup_batch, "a zero-step run() panicked".into());
        }
        for _ in 0..sched.units_per_cycle {
            let t = Instant::now();
            let res = quiet(program);
            let secs = t.elapsed().as_secs_f64();
            match res {
                Ok(o) => match o.failure(reference, w.unit_steps) {
                    None => {
                        out.unit_s.push(secs);
                        last_unit = Some(o);
                    }
                    Some(why) => out.fail(1, why),
                },
                Err(_) => out.fail(1, "a unit's run() panicked".into()),
            }
        }
    }
    out.peak_rss_mb = out.peak_rss_mb.max(peak_rss_mb());
    if let (Some(u), Some(s)) = (last_unit, last_setup) {
        out.last = Some((u, s));
    }
}

/// Body of a slice child process: run the slice, print its samples one
/// per line for the parent.
pub fn child_main(w: &Workload, program: &Program, reference: &Reference, sched: &Schedule) {
    let mut s = Samples::default();
    run_slice(w, program, reference, sched, &mut s);
    let mut out = std::io::stdout().lock();
    let mut emit = |line: String| writeln!(out, "{line}").expect("stdout to the harness");
    for u in &s.unit_s {
        emit(format!("unit {u:e}"));
    }
    for t in &s.setup_s {
        emit(format!("setup {t:e}"));
    }
    emit(format!("failed {}", s.failed));
    for why in &s.failures {
        emit(format!("why {why}"));
    }
    emit(format!("rss {:e}", s.peak_rss_mb));
}

/// Parse a child's report into `out`. Operations the child did not
/// account for (it died) are counted as failed.
pub fn absorb_child_report(
    report: &str,
    w: &Workload,
    sched: &Schedule,
    exited_ok: bool,
    out: &mut Samples,
) {
    let (mut units, mut setups, mut failed) = (0, 0, 0);
    for line in report.lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        match (key, value.parse::<f64>()) {
            ("unit", Ok(v)) => {
                out.unit_s.push(v);
                units += 1;
            }
            ("setup", Ok(v)) => {
                out.setup_s.push(v);
                setups += 1;
            }
            ("failed", Ok(v)) => failed = v as usize,
            ("rss", Ok(v)) => out.peak_rss_mb = out.peak_rss_mb.max(v),
            ("why", _) => out.fail(0, value.to_string()),
            _ => {}
        }
    }
    out.failed += failed;
    let accounted = units + setups * w.setup_batch + failed;
    let expected = sched.attempted_per_slice(w);
    if !exited_ok || accounted < expected {
        out.fail(
            expected.saturating_sub(accounted),
            format!("a slice of {} ended early", w.name),
        );
    }
}

/// Run one slice of `w` as a child process of this executable.
pub fn spawn_slice(
    w: &Workload,
    seed: u64,
    reference: &Reference,
    sched: &Schedule,
    tmp: Option<&std::path::Path>,
    out: &mut Samples,
) {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args(["--slice", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--cycles", &sched.cycles.to_string()])
        .args(["--ref-hash", &format!("{:x}", reference.state_hash)])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if let Some(res) = reference.residual {
        cmd.args(["--ref-residual", &format!("{:x}", res.to_bits())]);
    }
    if let Some(dir) = tmp {
        // the socket transport binds under std::env::temp_dir()
        cmd.env("TMPDIR", dir);
    }
    match cmd.output() {
        Ok(o) => absorb_child_report(
            &String::from_utf8_lossy(&o.stdout),
            w,
            sched,
            o.status.success(),
            out,
        ),
        Err(e) => out.fail(
            Schedule {
                slices: 1,
                ..*sched
            }
            .attempted(w),
            format!("cannot start a slice: {e}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn the_nominal_pass_is_72_units_and_24_setup_samples() {
        let s = Schedule::for_seconds(NOMINAL_SECONDS);
        assert_eq!((s.slices, s.cycles, s.units_per_cycle), (4, 6, 3));
        assert_eq!(s.units(), 72);
        assert_eq!(s.setup_samples(), 24);
        // enough units for ten samples below the 15th percentile
        let units: Vec<f64> = (0..s.units()).map(|i| i as f64).collect();
        assert!(crate::stats::q_units(&units).is_ok());
    }

    #[test]
    fn counts_are_a_pure_function_of_seconds() {
        assert_eq!(Schedule::for_seconds(18), Schedule::for_seconds(18));
        assert_eq!(Schedule::for_seconds(36).cycles, 12);
        assert_eq!(Schedule::for_seconds(9).cycles, 3);
        assert_eq!(Schedule::for_seconds(1).cycles, 1);
        assert_eq!(Schedule::for_seconds(0).cycles, 1);
    }

    #[test]
    fn attempted_counts_units_and_setup_calls() {
        let s = Schedule::for_seconds(NOMINAL_SECONDS);
        let msg = workloads::by_name("msg_socket").unwrap();
        assert_eq!(s.attempted(&msg), 72 + 24 * 8);
        let surf = workloads::by_name("surf_n5").unwrap();
        assert_eq!(s.attempted(&surf), 72 + 24);
    }

    #[test]
    fn a_clean_child_report_adds_no_failures() {
        let w = workloads::by_name("vol_n10").unwrap();
        let sched = Schedule {
            slices: 4,
            cycles: 2,
            units_per_cycle: 3,
        };
        let report = "unit 2e-1\nunit 2.1e-1\nunit 2e-1\nunit 2e-1\nunit 2e-1\nunit 2e-1\n\
                      setup 6e-2\nsetup 6.1e-2\nfailed 0\nrss 4.5e1\n";
        let mut s = Samples::default();
        absorb_child_report(report, &w, &sched, true, &mut s);
        assert_eq!((s.unit_s.len(), s.setup_s.len(), s.failed), (6, 2, 0));
        assert_eq!(s.peak_rss_mb, 45.0);
    }

    #[test]
    fn failures_are_counted_not_dropped() {
        let w = workloads::by_name("vol_n10").unwrap();
        let sched = Schedule {
            slices: 1,
            cycles: 2,
            units_per_cycle: 3,
        };
        // one unit failed its hash check inside the child
        let report = "unit 2e-1\nunit 2e-1\nunit 2e-1\nunit 2e-1\nunit 2e-1\n\
                      setup 6e-2\nsetup 6e-2\nfailed 1\nwhy state hash differs\nrss 4e1\n";
        let mut s = Samples::default();
        absorb_child_report(report, &w, &sched, true, &mut s);
        assert_eq!((s.unit_s.len(), s.failed), (5, 1));
        assert_eq!(s.failures, vec!["state hash differs".to_string()]);

        // a child that died after its first cycle: the rest is failed
        let report = "unit 2e-1\nunit 2e-1\nunit 2e-1\nsetup 6e-2\n";
        let mut s = Samples::default();
        absorb_child_report(report, &w, &sched, false, &mut s);
        let expected = sched.attempted(&w);
        assert_eq!(s.failed, expected - (3 + w.setup_batch));

        // a child that never started
        let mut s = Samples::default();
        absorb_child_report("", &w, &sched, false, &mut s);
        assert_eq!(s.failed, expected);
    }
}
