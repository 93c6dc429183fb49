//! `cmt-benchmark`: the end-to-end benchmark of the two mini-apps.
//!
//! ```text
//! cmt-benchmark                       all five workloads, interleaved in rounds
//! cmt-benchmark --workload W          one workload (its slices back to back)
//!     [--seed S] [--seconds T] [--trace 0|1]
//! cmt-benchmark --selfcheck           two passes, differences beside the bounds
//! cmt-benchmark --smoke               correctness and metric names only
//! ```
//!
//! `--trace 0` (default) prints the end-to-end metrics; `--trace 1` the
//! per-layer metrics. The last line of standard output of a run on one
//! workload is a JSON object `{correct, attempted, failed, metrics}`.
//! README.md explains every number.

mod host;
mod layers;
mod probes;
mod replay;
mod slice;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use layers::Effort;
use slice::{Samples, Schedule};
use workloads::{Reference, Workload};

/// End-to-end metrics: name, unit, and the share by which a later change
/// may worsen the metric before it counts as a regression (the same
/// numbers as `BENCHMARK.json`; README.md says how they were chosen).
const END_TO_END: [(&str, &str, f64); 5] = [
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("step_ms", "ms", 0.25),
    ("mdofs_per_s", "MDOF/s", 0.25),
    ("peak_rss_mb", "MiB", 0.10),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    smoke: bool,
    /// Internal: this process is one slice of `workload`.
    slice: Option<(usize, Reference)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: slice::NOMINAL_SECONDS,
        trace: false,
        selfcheck: false,
        smoke: false,
        slice: None,
    };
    let (mut is_slice, mut cycles, mut ref_hash, mut ref_residual) = (false, 1, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(workloads::by_name(&name).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => a.selfcheck = true,
            "--smoke" => a.smoke = true,
            "--slice" => is_slice = true,
            "--cycles" => {
                cycles = value("a count")?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?
            }
            "--ref-hash" => {
                ref_hash = Some(
                    u64::from_str_radix(&value("a hash")?, 16)
                        .map_err(|e| format!("--ref-hash: {e}"))?,
                )
            }
            "--ref-residual" => {
                ref_residual = Some(f64::from_bits(
                    u64::from_str_radix(&value("bits")?, 16)
                        .map_err(|e| format!("--ref-residual: {e}"))?,
                ))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if is_slice {
        let state_hash = ref_hash.ok_or("--slice needs --ref-hash")?;
        a.workload.ok_or("--slice needs --workload")?;
        a.slice = Some((
            cycles,
            Reference {
                state_hash,
                residual: ref_residual,
            },
        ));
    }
    Ok(a)
}

/// Directory for the benchmark's own files (Chrome traces, the socket
/// directory): `benchmark/out`, inside the checkout it was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory for the socket transport's Unix-domain sockets, which it
/// binds under `std::env::temp_dir()`: inside the checkout when the path
/// fits a socket address (about 100 bytes), the system's otherwise.
/// Removed again by [`remove_socket_dir`].
fn socket_dir() -> Option<PathBuf> {
    let dir = out_dir().join(format!("s{}", std::process::id()));
    (dir.as_os_str().len() <= 70 && std::fs::create_dir_all(&dir).is_ok()).then_some(dir)
}

fn remove_socket_dir(dir: Option<&Path>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The end-to-end metrics of one workload from its samples, in
/// [`END_TO_END`] order. With `strict`, too few unit samples refuse the
/// quantile instead of passing off a near-minimum as one.
fn end_to_end(w: &Workload, samples: &Samples, strict: bool) -> Result<[f64; 5], String> {
    if samples.unit_s.is_empty() || samples.setup_s.is_empty() {
        return Err(format!("{}: no unit or no setup sample succeeded", w.name));
    }
    let wall = if strict {
        stats::q_units(&samples.unit_s)?
    } else {
        stats::q(&samples.unit_s)
    };
    let setup = stats::q(&samples.setup_s);
    let step_ms = stats::step_ms(wall, setup, w.unit_steps);
    let dofs = w.program(0).dofs_per_step();
    Ok([
        wall,
        setup,
        step_ms,
        stats::mdofs_per_s(dofs, step_ms),
        samples.peak_rss_mb,
    ])
}

/// The correctness oracle: one run of each workload's reference
/// configuration on the inputs of `seed`.
fn references(ws: &[Workload], seed: u64) -> Vec<Reference> {
    ws.iter()
        .map(|w| w.program(seed).reference().run().as_reference())
        .collect()
}

/// One pass over `ws`: `sched.slices` rounds, each visiting the workloads
/// in order, one slice (child process) each.
fn pass(ws: &[Workload], seed: u64, references: &[Reference], sched: &Schedule) -> Vec<Samples> {
    let sockets = socket_dir();
    let mut samples = vec![Samples::default(); ws.len()];
    for _round in 0..sched.slices {
        for ((w, reference), out) in ws.iter().zip(references).zip(&mut samples) {
            slice::spawn_slice(w, seed, reference, sched, sockets.as_deref(), out);
        }
    }
    remove_socket_dir(sockets.as_deref());
    samples
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // a measured number keeps all its digits; NaN is not JSON
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The machine-readable end of a run: the result object alone when one
/// workload was asked for (the harness reads the last line), else one
/// object per workload.
fn print_result_lines(lines: &[(&str, String)]) {
    println!();
    if let [(_, line)] = lines {
        println!("{line}");
    } else {
        for (name, line) in lines {
            println!("{{\"workload\": \"{name}\", \"result\": {line}}}");
        }
    }
}

/// Print one workload's end-to-end block; returns its JSON line and
/// whether it is correct.
fn print_end_to_end(w: &Workload, sched: &Schedule, s: &Samples, strict: bool) -> (String, bool) {
    let attempted = sched.attempted(w);
    println!(
        "\n{} - {}\n  attempted {attempted} (units {} + setup calls {}), failed {}",
        w.name,
        w.why,
        sched.units(),
        sched.setup_samples() * w.setup_batch,
        s.failed
    );
    for why in &s.failures {
        println!("  FAILED: {why}");
    }
    let metrics = match end_to_end(w, s, strict) {
        Ok(m) => m,
        Err(why) => {
            println!("  no result: {why}");
            return (json_line(false, attempted, s.failed.max(1), &[]), false);
        }
    };
    let with_units: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(metrics)
        .map(|(&(name, unit, _), value)| (name, value, unit))
        .collect();
    for &(name, value, unit) in &with_units {
        let diag = match name {
            "wall_s" => format!(
                "   (Q of {} units; median {:.4}, p90 {:.4})",
                s.unit_s.len(),
                stats::median(&s.unit_s),
                stats::quantile(&s.unit_s, 0.9)
            ),
            "setup_s" => format!(
                "   (Q of {} samples of {} calls; median {:.4}, p90 {:.4})",
                s.setup_s.len(),
                w.setup_batch,
                stats::median(&s.setup_s),
                stats::quantile(&s.setup_s, 0.9)
            ),
            _ => String::new(),
        };
        println!("  {name:12} {value:12.4} {unit:7}{diag}");
    }
    let noise = stats::noise(&s.unit_s);
    println!(
        "  host.noise   {noise:12.4} ratio  {}",
        if noise > stats::NOISE_FLAG {
            "DISTURBED: the median unit sat more than 15% above Q"
        } else {
            ""
        }
    );
    let correct = s.failed == 0 && with_units.iter().all(|m| m.1.is_finite() && m.1 > 0.0);
    (
        json_line(correct, attempted, s.failed, &with_units),
        correct,
    )
}

fn run_end_to_end(
    ws: &[Workload],
    seed: u64,
    references: &[Reference],
    sched: &Schedule,
    strict: bool,
) -> bool {
    println!("{}", host::record());
    println!(
        "end-to-end: seed {seed}, {} slices x (1 warm-up + {} x [1 setup sample + {} units]) per workload; Q = 15th percentile",
        sched.slices, sched.cycles, sched.units_per_cycle
    );
    let samples = pass(ws, seed, references, sched);
    let mut all_correct = true;
    let mut lines = Vec::new();
    for (w, s) in ws.iter().zip(&samples) {
        let (line, correct) = print_end_to_end(w, sched, s, strict);
        all_correct &= correct;
        lines.push((w.name, line));
    }
    print_result_lines(&lines);
    all_correct
}

/// `references` are those of all five workloads: a layer is timed at its
/// home workload's shape whichever workloads `ws` asks about.
fn run_traced(ws: &[Workload], seed: u64, references: Vec<Reference>, effort: &Effort) -> bool {
    println!("{}", host::record());
    println!(
        "traced: seed {seed}; layer timings are Q over {} samples; not measured on this host: hybrid workers > 1 and more than 2 ranks \
         (more threads than cores), the NetworkModel fit, cmt-verify, cmt-lint, cmt-bench",
        effort.probe_samples
    );
    println!(
        "triad arrays: 3 x {} MiB (reported last-level cache {} MiB)",
        host::stream_array_bytes() >> 20,
        host::llc_bytes() >> 20
    );
    let sockets = socket_dir();
    if let Some(dir) = &sockets {
        // the socket transport binds under std::env::temp_dir()
        std::env::set_var("TMPDIR", dir);
    }
    let asked: Vec<usize> = ws
        .iter()
        .map(|w| workloads::ALL.iter().position(|x| x == w).expect("listed"))
        .collect();
    let shared = layers::measure_shared(seed, references, effort, &asked);
    let mut all_correct = true;
    let mut lines = Vec::new();
    for (w, &index) in ws.iter().zip(&asked) {
        let rep = layers::report(index, &shared, effort, &out_dir());
        println!(
            "\n{} per-layer (attempted {}, failed {}):",
            w.name,
            rep.attempted,
            rep.failures.len()
        );
        for why in &rep.failures {
            println!("  FAILED: {why}");
        }
        for (name, value, unit) in &rep.metrics {
            println!("  {name:32} {value:14.4} {unit}");
        }
        if let Some(path) = &rep.trace_file {
            println!(
                "  chrome trace of the {} replay: {}",
                w.name,
                path.display()
            );
        }
        let correct = rep.failures.is_empty() && rep.metrics.iter().all(|m| m.1.is_finite());
        all_correct &= correct;
        lines.push((
            w.name,
            json_line(correct, rep.attempted, rep.failures.len(), &rep.metrics),
        ));
    }
    remove_socket_dir(sockets.as_deref());
    print_result_lines(&lines);
    all_correct
}

/// Two passes of the same binary over all workloads; every end-to-end
/// metric's relative difference is printed beside its bound.
fn selfcheck(seed: u64, sched: &Schedule) -> bool {
    println!("{}", host::record());
    let mut within = true;
    let references = references(&workloads::ALL, seed);
    let a = pass(&workloads::ALL, seed, &references, sched);
    let b = pass(&workloads::ALL, seed, &references, sched);
    println!("selfcheck: two passes of the same binary, seed {seed}");
    println!(
        "{:12} {:12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "pass 1", "pass 2", "diff", "bound"
    );
    for ((w, sa), sb) in workloads::ALL.iter().zip(&a).zip(&b) {
        match (end_to_end(w, sa, true), end_to_end(w, sb, true)) {
            (Ok(ma), Ok(mb)) if sa.failed + sb.failed == 0 => {
                for (&(name, _, bound), (va, vb)) in END_TO_END.iter().zip(ma.iter().zip(&mb)) {
                    let diff = stats::rel_diff(*va, *vb);
                    let ok = diff <= bound;
                    within &= ok;
                    println!(
                        "{:12} {name:12} {va:12.4} {vb:12.4} {diff:8.4} {bound:6.2}{}",
                        w.name,
                        if ok { "" } else { "  EXCEEDED" }
                    );
                }
            }
            _ => {
                within = false;
                println!("{:12} failed operations or no samples", w.name);
            }
        }
    }
    within
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("cmt-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    if let Some((cycles, reference)) = args.slice {
        let w = args.workload.expect("checked in parse_args");
        let sched = Schedule {
            cycles,
            ..Schedule::for_seconds(slice::NOMINAL_SECONDS)
        };
        slice::child_main(&w, &w.program(args.seed), &reference, &sched);
        return ExitCode::SUCCESS;
    }
    let ws: Vec<Workload> = args.workload.map_or(workloads::ALL.to_vec(), |w| vec![w]);
    // `--smoke` and `--selfcheck` are checks: they exit non-zero on a
    // failure. A measuring run exits 0 once it has printed its result;
    // the result line says whether it is correct.
    let passed = if args.smoke {
        let all = references(&workloads::ALL, args.seed);
        let mine: Vec<Reference> = workloads::ALL
            .iter()
            .zip(&all)
            .filter(|(w, _)| ws.contains(w))
            .map(|(_, r)| *r)
            .collect();
        run_end_to_end(&ws, args.seed, &mine, &Schedule::smoke(), false)
            & run_traced(&ws, args.seed, all, &Effort::SMOKE)
    } else if args.selfcheck {
        selfcheck(args.seed, &Schedule::for_seconds(args.seconds))
    } else if args.trace {
        let all = references(&workloads::ALL, args.seed);
        run_traced(&ws, args.seed, all, &Effort::FULL);
        true
    } else {
        let sched = Schedule::for_seconds(args.seconds);
        // below the nominal length there are too few units for the
        // ten-samples-below rule; the quantile is then printed unchecked
        let strict = stats::enough_units(sched.units());
        run_end_to_end(&ws, args.seed, &references(&ws, args.seed), &sched, strict);
        true
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value after every `"key": ` in one top-level array of
    /// `BENCHMARK.json` (quotes stripped).
    fn values_in(section: &str, key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..start + text[start..].find(']').expect("array closes")];
        body.split(&format!("\"{key}\": "))
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start_matches('"');
                let end = rest.find(['"', ',', '\n']).expect("value ends");
                rest[..end].to_string()
            })
            .collect()
    }

    fn names_in(section: &str) -> Vec<String> {
        values_in(section, "name")
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_emits() {
        let workloads: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names_in("workloads"), workloads);
        let end_to_end: Vec<_> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in("end_to_end"), end_to_end);
        let bounds: Vec<f64> = END_TO_END.iter().map(|m| m.2).collect();
        let listed: Vec<f64> = values_in("end_to_end", "bound")
            .iter()
            .map(|b| b.parse().expect("a number"))
            .collect();
        assert_eq!(listed, bounds);
        let per_layer: Vec<_> = layers::PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in("per_layer"), per_layer);
    }

    #[test]
    fn result_line_is_one_json_object_with_all_digits() {
        let line = json_line(
            true,
            120,
            0,
            &[("wall_s", 0.184292458, "s"), ("bad", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.184292458, \"unit\": \"s\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    /// Failure accounting end to end: failed operations make the result
    /// incorrect, and too few good units refuse a quantile.
    #[test]
    fn failed_operations_make_the_result_incorrect() {
        let w = workloads::by_name("vol_n10").unwrap();
        let sched = Schedule::for_seconds(slice::NOMINAL_SECONDS);
        let good = Samples {
            unit_s: (0..72).map(|i| 0.2 + i as f64 * 1e-4).collect(),
            setup_s: vec![0.05; 24],
            peak_rss_mb: 50.0,
            ..Default::default()
        };
        assert!(print_end_to_end(&w, &sched, &good, true).1);
        let one_bad = Samples {
            failed: 1,
            ..good.clone()
        };
        let (line, correct) = print_end_to_end(&w, &sched, &one_bad, true);
        assert!(!correct);
        assert!(line.contains("\"correct\": false") && line.contains("\"failed\": 1"));
        let few = Samples {
            unit_s: vec![0.2; 40],
            failed: 32,
            ..good
        };
        assert!(end_to_end(&w, &few, true).is_err());
    }
}
