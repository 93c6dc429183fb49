//! The traced run: per-layer metrics from the step replay and the probes.
//!
//! Layers are the crates. A layer metric has one definition — the calls
//! it times and the workload shape it is timed at (its *home* workload,
//! named in README.md) — so its value does not depend on which workload
//! the traced run was asked for. Only the last block (`cmt-bone.*`, the
//! exact per-step counts, `simmpi.comm_frac`, `host.noise`,
//! `trace.overhead_frac`) is specific to the workload.

use std::collections::HashMap;

use cmt_core::cost;

use crate::host;
use crate::probes;
use crate::replay::{self, Replay};
use crate::slice::{self, Samples, Schedule};
use crate::stats;
use crate::trace::Name;
use crate::workloads::{self, Outcome, Program, Reference, RANKS};

/// Every per-layer metric the traced run emits, with its unit, in output
/// order. `BENCHMARK.json` lists the same names (a unit test checks it).
pub const PER_LAYER: [(&str, &str); 61] = [
    ("cmt-core.deriv_ms", "ms"),
    ("cmt-core.deriv_gflops", "GFLOP/s"),
    ("cmt-core.deriv_flops_per_byte", "flop/B"),
    ("cmt-core.deriv_roofline_frac", "ratio"),
    ("cmt-core.dealias_ms", "ms"),
    ("cmt-core.dealias_gflops", "GFLOP/s"),
    ("cmt-core.full2face_ms", "ms"),
    ("cmt-core.lift_ms", "ms"),
    ("cmt-core.rk_ms", "ms"),
    ("cmt-core.pointwise_gbs", "GB/s"),
    ("cmt-gs.setup_ms", "ms"),
    ("cmt-gs.autotune_ms", "ms"),
    ("cmt-gs.autotune_flips", "count"),
    ("cmt-gs.start_ms", "ms"),
    ("cmt-gs.finish_ms", "ms"),
    ("cmt-gs.dssum_ms", "ms"),
    ("cmt-gs.shared_slots", "count"),
    ("cmt-gs.neighbors", "count"),
    ("simmpi.world_spawn_ms", "ms"),
    ("simmpi.world_spawn_socket_ms", "ms"),
    ("simmpi.pingpong_us", "us"),
    ("simmpi.pingpong_socket_us", "us"),
    ("simmpi.allreduce_us", "us"),
    ("simmpi.allreduce_socket_us", "us"),
    ("simmpi.bw_mbs", "MB/s"),
    ("simmpi.bw_socket_mbs", "MB/s"),
    ("simmpi.crystal_us", "us"),
    ("simmpi.wire_encode_mbs", "MB/s"),
    ("simmpi.wire_decode_mbs", "MB/s"),
    ("simmpi.msgs_per_step", "count"),
    ("simmpi.bytes_per_step", "B"),
    ("simmpi.comm_frac", "ratio"),
    ("cmt-mesh.gids_ms", "ms"),
    ("cmt-particles.advect_ms", "ms"),
    ("cmt-particles.migrate_ms", "ms"),
    ("cmt-particles.bin_ms", "ms"),
    ("cmt-particles.moved_per_step", "count"),
    ("cmt-lb.gather_ms", "ms"),
    ("cmt-lb.decide_us", "us"),
    ("cmt-lb.migrate_ms", "ms"),
    ("cmt-lb.rebalances", "count"),
    ("cmt-lb.elems_moved", "count"),
    ("cmt-lb.compute_spread", "ratio"),
    ("cmt-resilience.encode_mbs", "MB/s"),
    ("cmt-resilience.decode_mbs", "MB/s"),
    ("cmt-resilience.save_ms", "ms"),
    ("cmt-resilience.ckpt_bytes", "B"),
    ("nekbone.ax_ms", "ms"),
    ("nekbone.ax_gflops", "GFLOP/s"),
    ("nekbone.dot_us", "us"),
    ("nekbone.iters", "count"),
    ("nekbone.residual", "norm"),
    ("cmt-perf.region_ns", "ns"),
    ("cmt-perf.regions_per_step", "count"),
    ("cmt-bone.replay_step_ms", "ms"),
    ("cmt-bone.coverage", "ratio"),
    ("cmt-bone.other_ms", "ms"),
    ("host.stream_gbs", "GB/s"),
    ("host.peak_gflops", "GFLOP/s"),
    ("host.noise", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// How much a traced run measures. Fixed counts, like the end-to-end
/// schedule.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Samples per probe.
    pub probe_samples: usize,
    /// Fresh units replayed with spans per workload, in
    /// [`workloads::ALL`] order. The workload a traced run is asked about
    /// replays as many again without spans, alternating.
    pub replay_units: [usize; 5],
    /// In-process slice giving the workload's `step_ms` for
    /// `cmt-bone.coverage`.
    pub slice: Schedule,
    /// Triad passes (the fastest counts).
    pub stream_passes: usize,
}

impl Effort {
    /// At least 30 samples per layer timing.
    pub const FULL: Effort = Effort {
        probe_samples: 30,
        replay_units: [15, 15, 8, 16, 30],
        slice: Schedule {
            slices: 1,
            cycles: 3,
            units_per_cycle: 3,
        },
        stream_passes: 5,
    };

    /// Enough to emit every metric name and run every check.
    pub const SMOKE: Effort = Effort {
        probe_samples: 2,
        replay_units: [1; 5],
        slice: Schedule {
            slices: 1,
            cycles: 1,
            units_per_cycle: 3,
        },
        stream_passes: 1,
    };
}

/// Steps per timing sample of each workload's replay, in
/// [`workloads::ALL`] order: a sample is the layer's time summed over a
/// group of consecutive steps, long enough that the layers homed on the
/// workload reach about 10 ms. Each divides the workload's unit length.
const GROUP: [usize; 5] = [1, 3, 15, 11, 12];

/// Indices into [`workloads::ALL`].
const VOL: usize = 0;
const SURF: usize = 1;
const CG: usize = 2;
const MULTI: usize = 4;

/// One workload's replay, reduced to per-step layer times.
struct Traced {
    replay: Replay,
    /// Per step of the units replayed with spans.
    layers: Vec<HashMap<Name, f64>>,
    group: usize,
}

impl Traced {
    /// `Q` over step groups of `f(group's steps)`, per step.
    fn q_per_step(&self, f: impl Fn(usize) -> f64) -> f64 {
        let samples: Vec<f64> = (0..self.layers.len() / self.group)
            .map(|g| (g * self.group..(g + 1) * self.group).map(&f).sum())
            .collect();
        stats::q(&samples) / self.group as f64
    }

    /// Seconds per step spent in the named spans (self time, mean over
    /// ranks).
    fn layer_s(&self, names: &[Name]) -> f64 {
        self.q_per_step(|step| {
            names
                .iter()
                .map(|n| self.layers[step].get(n).copied().unwrap_or(0.0))
                .sum()
        })
    }
}

/// Everything a traced run measured that does not depend on the workload
/// it was asked for.
pub struct Shared {
    programs: Vec<Program>,
    references: Vec<Reference>,
    traced: Vec<Traced>,
    values: HashMap<&'static str, f64>,
    /// Checks made (driver units, replay-vs-driver comparisons).
    pub attempted: usize,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

/// Whether unit `unit` of a replay records spans: every unit, or every
/// other one where traced and untraced units are to be compared under
/// the same host conditions.
fn records_spans(paired: bool, unit: usize) -> bool {
    !paired || unit.is_multiple_of(2)
}

/// Replay all five workloads with spans, run one driver unit of each,
/// run every probe and the host ceilings. `references` are the reference
/// runs of all five workloads for `seed`; the workloads in `asked`
/// (indices into [`workloads::ALL`]) replay twice as many units,
/// alternately with and without spans.
pub fn measure_shared(
    seed: u64,
    references: Vec<Reference>,
    effort: &Effort,
    asked: &[usize],
) -> Shared {
    let programs: Vec<Program> = workloads::ALL.iter().map(|w| w.program(seed)).collect();
    let mut failures = Vec::new();
    let mut attempted = 0;

    // one driver unit per workload, checked against its reference
    let drivers: Vec<Outcome> = workloads::ALL
        .iter()
        .zip(&programs)
        .zip(&references)
        .map(|((w, p), reference)| {
            let o = p.run();
            attempted += 1;
            if let Some(why) = o.failure(reference, w.unit_steps) {
                failures.push(format!("{}: {why}", w.name));
            }
            o
        })
        .collect();

    // the replays; each must land on the driver's answer
    let traced: Vec<Traced> = (0..workloads::ALL.len())
        .map(|i| {
            let paired = asked.contains(&i);
            let units = effort.replay_units[i] * if paired { 2 } else { 1 };
            let replay = replay::replay(&programs[i], units, |u| records_spans(paired, u));
            let expect = match drivers[i].cg {
                Some((_, residual)) => residual,
                None => drivers[i].checksum,
            };
            attempted += 1;
            let agrees = (replay.oracle - expect).abs() <= 1e-12 * expect.abs();
            // (a NaN on either side does not agree)
            if !agrees {
                failures.push(format!(
                    "{}: the replay ended on {:e}, the driver on {:e}",
                    workloads::ALL[i].name,
                    replay.oracle,
                    expect
                ));
            }
            Traced {
                layers: replay.layer_s_per_step(),
                replay,
                group: GROUP[i],
            }
        })
        .collect();

    let (vol, surf, cg, multi) = match (
        &programs[VOL],
        &programs[SURF],
        &programs[CG],
        &programs[MULTI],
    ) {
        (Program::Bone(v), Program::Bone(s), Program::Nek(c), Program::Bone(m)) => (v, s, c, m),
        _ => unreachable!("workload order"),
    };
    let mut v: HashMap<&'static str, f64> = HashMap::new();

    // ---- host ceilings, measured in this run ----
    let stream_gbs = host::stream_gbs(effort.stream_passes);
    let peak_gflops = host::peak_gflops();
    v.insert("host.stream_gbs", stream_gbs);
    v.insert("host.peak_gflops", peak_gflops);

    // ---- cmt-core, from the vol_n10 and surf_n5 replays ----
    // One step makes fields x stages calls of each per-field kernel.
    let calls = |c: &cmt_bone::Config| (c.fields * cmt_core::rk::STAGES) as u64;
    let (n, nel) = (vol.n as u64, vol.elems_per_rank as u64);
    let deriv_s = traced[VOL].layer_s(&[Name::Deriv]);
    let deriv_flops = cost::deriv_counts(n, nel).times(3 * calls(vol)).flops as f64;
    let deriv_gflops = deriv_flops / deriv_s / 1e9;
    // Bytes from array sizes (no cache reuse assumed): per direction the
    // derivative reads u and writes scratch, the accumulation reads
    // scratch (and rhs after the first direction) and writes rhs.
    let deriv_bytes = (14 * 8 * n * n * n * nel * calls(vol)) as f64;
    let flops_per_byte = deriv_flops / deriv_bytes;
    let roof = (peak_gflops / RANKS as f64).min(stream_gbs / RANKS as f64 * flops_per_byte);
    v.insert("cmt-core.deriv_ms", deriv_s * 1e3);
    v.insert("cmt-core.deriv_gflops", deriv_gflops);
    v.insert("cmt-core.deriv_flops_per_byte", flops_per_byte);
    v.insert("cmt-core.deriv_roofline_frac", deriv_gflops / roof);
    let m = vol.dealias_m.expect("vol_n10 dealiases") as u64;
    let dealias_s = traced[VOL].layer_s(&[Name::Dealias]);
    let dealias_flops = cost::tensor3_counts(m, n, nel)
        .plus(cost::tensor3_counts(n, m, nel))
        .times(calls(vol))
        .flops as f64;
    v.insert("cmt-core.dealias_ms", dealias_s * 1e3);
    v.insert("cmt-core.dealias_gflops", dealias_flops / dealias_s / 1e9);

    let (n, nel) = (surf.n as u64, surf.elems_per_rank as u64);
    let full2face_s = traced[SURF].layer_s(&[Name::Full2face]);
    let lift_s = traced[SURF].layer_s(&[Name::Lift]);
    let rk_s = traced[SURF].layer_s(&[Name::Rk]);
    let pointwise_bytes = cost::full2face_counts(n, nel)
        .plus(cost::face2full_counts(n, nel))
        .plus(cost::rk_stage_counts(n, nel))
        .times(calls(surf))
        .bytes() as f64;
    v.insert("cmt-core.full2face_ms", full2face_s * 1e3);
    v.insert("cmt-core.lift_ms", lift_s * 1e3);
    v.insert("cmt-core.rk_ms", rk_s * 1e3);
    v.insert(
        "cmt-core.pointwise_gbs",
        pointwise_bytes / (full2face_s + lift_s + rk_s) / 1e9,
    );

    // ---- cmt-gs ----
    let s = effort.probe_samples;
    let (setup_s, (shared_slots, neighbors)) = probes::gs_setup(s, surf);
    let (autotune_s, flips) = probes::gs_autotune(s, vol);
    v.insert("cmt-gs.setup_ms", setup_s * 1e3);
    v.insert("cmt-gs.autotune_ms", autotune_s * 1e3);
    v.insert("cmt-gs.autotune_flips", flips as f64);
    v.insert(
        "cmt-gs.start_ms",
        traced[SURF].layer_s(&[Name::GsStart]) * 1e3,
    );
    v.insert(
        "cmt-gs.finish_ms",
        traced[SURF].layer_s(&[Name::GsFinish]) * 1e3,
    );
    v.insert(
        "cmt-gs.dssum_ms",
        traced[CG].layer_s(&[Name::GsStart, Name::GsFinish]) * 1e3,
    );
    v.insert("cmt-gs.shared_slots", shared_slots as f64);
    v.insert("cmt-gs.neighbors", neighbors as f64);

    // ---- simmpi ----
    let (inproc, socket) = (simmpi::TransportKind::Inproc, probes::socket());
    v.insert(
        "simmpi.world_spawn_ms",
        probes::world_spawn(s, &inproc, 100) * 1e3,
    );
    v.insert(
        "simmpi.world_spawn_socket_ms",
        probes::world_spawn(s, &socket, 2) * 1e3,
    );
    v.insert(
        "simmpi.pingpong_us",
        probes::pingpong(s, &inproc, 1, 300) * 1e6,
    );
    v.insert(
        "simmpi.pingpong_socket_us",
        probes::pingpong(s, &socket, 1, 200) * 1e6,
    );
    v.insert(
        "simmpi.allreduce_us",
        probes::allreduce(s, &inproc, 1000) * 1e6,
    );
    v.insert(
        "simmpi.allreduce_socket_us",
        probes::allreduce(s, &socket, 200) * 1e6,
    );
    // 1 MiB each way per round trip
    const MIB_F64: usize = (1 << 20) / 8;
    let two_mib = 2.0 * (1 << 20) as f64;
    v.insert(
        "simmpi.bw_mbs",
        two_mib / probes::pingpong(s, &inproc, MIB_F64, 40) / 1e6,
    );
    v.insert(
        "simmpi.bw_socket_mbs",
        two_mib / probes::pingpong(s, &socket, MIB_F64, 2) / 1e6,
    );
    v.insert("simmpi.crystal_us", probes::crystal(s, 2048, 400) * 1e6);
    const WIRE_F64: usize = (64 << 10) / 8;
    let (enc_s, dec_s) = probes::wire_codec(s, WIRE_F64, 400);
    v.insert("simmpi.wire_encode_mbs", (64 << 10) as f64 / enc_s / 1e6);
    v.insert("simmpi.wire_decode_mbs", (64 << 10) as f64 / dec_s / 1e6);

    // ---- cmt-mesh, cmt-particles, cmt-lb, cmt-resilience ----
    v.insert("cmt-mesh.gids_ms", probes::mesh_gids(s, surf, 4) * 1e3);
    v.insert(
        "cmt-particles.advect_ms",
        traced[MULTI].layer_s(&[Name::ParticleAdvect]) * 1e3,
    );
    v.insert(
        "cmt-particles.migrate_ms",
        traced[MULTI].layer_s(&[Name::ParticleMigrate]) * 1e3,
    );
    v.insert(
        "cmt-particles.bin_ms",
        probes::particle_bin(s, multi, 30) * 1e3,
    );
    let lb = drivers[MULTI]
        .lb
        .expect("multiphase runs the load balancer");
    v.insert(
        "cmt-particles.moved_per_step",
        lb.particles_moved as f64 / multi.steps as f64,
    );
    let (gather_s, decide_s, migrate_s, _) = probes::load_balancer(s, multi, (400, 4000));
    v.insert("cmt-lb.gather_ms", gather_s * 1e3);
    v.insert("cmt-lb.decide_us", decide_s * 1e6);
    v.insert("cmt-lb.migrate_ms", migrate_s * 1e3);
    v.insert("cmt-lb.rebalances", lb.rebalances as f64);
    v.insert("cmt-lb.elems_moved", lb.elems_moved as f64);
    v.insert("cmt-lb.compute_spread", drivers[MULTI].compute_spread);
    let (enc_s, dec_s, save_s, bytes) = probes::checkpoint(s, multi, 3);
    v.insert("cmt-resilience.encode_mbs", bytes as f64 / enc_s / 1e6);
    v.insert("cmt-resilience.decode_mbs", bytes as f64 / dec_s / 1e6);
    v.insert("cmt-resilience.save_ms", save_s * 1e3);
    v.insert("cmt-resilience.ckpt_bytes", bytes as f64);

    // ---- nekbone, from the cg_n10 replay ----
    let (n, nel) = (cg.n as u64, cg.elems_per_rank as u64);
    let ax_s = traced[CG].layer_s(&[Name::Ax]);
    // six contractions (D and D^T per direction); the pointwise weight
    // and accumulation passes are not counted
    let ax_flops = cost::deriv_counts(n, nel).times(6).flops as f64;
    v.insert("nekbone.ax_ms", ax_s * 1e3);
    v.insert("nekbone.ax_gflops", ax_flops / ax_s / 1e9);
    v.insert("nekbone.dot_us", probes::nekbone_dot(s, cg, 100) * 1e6);
    let (iters, residual) = drivers[CG].cg.expect("cg_n10 is the CG solve");
    v.insert("nekbone.iters", iters as f64);
    v.insert("nekbone.residual", residual);

    // ---- cmt-perf ----
    v.insert(
        "cmt-perf.region_ns",
        probes::profiler_region(s, 100_000) * 1e9,
    );

    Shared {
        programs,
        references,
        traced,
        values: v,
        attempted,
        failures,
    }
}

/// The per-layer metrics of a traced run asked for workload `index`, in
/// [`PER_LAYER`] order, with the checks made on the way.
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Where the Chrome trace of the workload's replay was written.
    pub trace_file: Option<std::path::PathBuf>,
}

/// Add the workload-specific block to the shared measurements. `index`
/// must be one of the workloads `shared` was asked about.
pub fn report(
    index: usize,
    shared: &Shared,
    effort: &Effort,
    out_dir: &std::path::Path,
) -> LayerReport {
    let w = workloads::ALL[index];
    let program = &shared.programs[index];
    let mut v = shared.values.clone();
    let mut failures = shared.failures.clone();

    // the driver's step time, two-point, in this run
    let mut samples = Samples::default();
    slice::run_slice(
        &w,
        program,
        &shared.references[index],
        &effort.slice,
        &mut samples,
    );
    failures.extend(samples.failures.iter().map(|f| format!("{}: {f}", w.name)));
    let attempted = shared.attempted + effort.slice.attempted(&w);
    // Two-point step time and exact per-step counts (a unit minus a
    // zero-step run); NaN, which marks the run incorrect, if the slice
    // produced no good unit or setup run to take them from.
    let steps = w.unit_steps as f64;
    let mut step_ms = f64::NAN;
    let mut specific = [f64::NAN; 4];
    if let Some((unit, setup)) = &samples.last {
        step_ms = stats::step_ms(
            stats::q(&samples.unit_s),
            stats::q(&samples.setup_s),
            w.unit_steps,
        );
        let per_step = |unit: u64, setup: u64| unit.saturating_sub(setup) as f64 / steps;
        specific = [
            per_step(unit.sends.0, setup.sends.0),
            per_step(unit.sends.1, setup.sends.1),
            unit.comm_frac,
            per_step(unit.regions, setup.regions),
        ];
    }
    v.insert("simmpi.msgs_per_step", specific[0]);
    v.insert("simmpi.bytes_per_step", specific[1]);
    v.insert("simmpi.comm_frac", specific[2]);
    v.insert("cmt-perf.regions_per_step", specific[3]);

    // The replay against the driver, and the cost of the spans. A sample
    // is a unit's mean step, as the driver's two-point `step_ms` is;
    // units with and without spans alternated in one world, so both saw
    // the same host conditions.
    let replay = &shared.traced[index].replay;
    let unit_step_s = |spans: bool| -> Vec<f64> {
        replay
            .step_s
            .chunks_exact(w.unit_steps)
            .enumerate()
            .filter(|&(unit, _)| records_spans(true, unit) == spans)
            .map(|(_, steps)| steps.iter().sum::<f64>() / steps.len() as f64)
            .collect()
    };
    let untraced = unit_step_s(false);
    let untraced_s = stats::q(&untraced);
    // Each traced unit against the untraced unit that ran right after
    // it: the median of these ratios cancels a drift of the host that a
    // difference of two quantiles would report as overhead.
    let ratios: Vec<f64> = unit_step_s(true)
        .iter()
        .zip(&untraced)
        .map(|(traced, untraced)| traced / untraced)
        .collect();
    v.insert("cmt-bone.replay_step_ms", untraced_s * 1e3);
    v.insert("cmt-bone.coverage", untraced_s * 1e3 / step_ms);
    v.insert("cmt-bone.other_ms", step_ms - untraced_s * 1e3);
    v.insert("host.noise", stats::noise(&untraced));
    v.insert("trace.overhead_frac", stats::median(&ratios) - 1.0);

    let trace_file = out_dir.join(format!("trace-{}.json", w.name));
    let trace_file = std::fs::create_dir_all(out_dir)
        .and_then(|()| crate::trace::write_chrome(&trace_file, &replay.spans, w.unit_steps))
        .map(|()| trace_file)
        .ok();

    LayerReport {
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, v[name], unit))
            .collect(),
        attempted,
        failures,
        trace_file,
    }
}
