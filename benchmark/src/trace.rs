//! In-memory spans around calls into the layer crates.
//!
//! A span is `(name, start, end, parent, rank)`; the spans of one replayed
//! step share its root span. They are kept in memory while the replay
//! runs and written out as a Chrome trace when the benchmark ends. A
//! layer's *self time* is its span's duration minus the part its child
//! spans cover.

use std::time::Instant;

/// The calls the step replay wraps, one name per layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u64)]
pub enum Name {
    /// Root span: one cmt-bone timestep or one CG iteration.
    Step,
    /// `face::full2face` + own-trace copy, all fields.
    Full2face,
    /// `GsHandle::gs_op_start`.
    GsStart,
    /// `ops::advect_volume_rhs`, one field.
    Deriv,
    /// Dealias map up and back, one field.
    Dealias,
    /// `GsHandle::gs_op_finish` (wait + combine + scatter).
    GsFinish,
    /// Neighbor-trace recovery + `ops::upwind_face_correction`, one field.
    Lift,
    /// `rk::stage_update`, one field.
    Rk,
    /// `Rank::allreduce_scalar` for timestep control, with its local max.
    Cfl,
    /// `ParticleSet::advect_field`.
    ParticleAdvect,
    /// `ParticleSet::migrate`.
    ParticleMigrate,
    /// `counts_per_owned` + `gather_costs` + `decide`.
    LbMonitor,
    /// Partition rebuild + `migrate_blocks`.
    LbMigrate,
    /// Checkpoint capture + `Resilience::save`.
    Checkpoint,
    /// `AxOperator::apply`.
    Ax,
    /// Local dot-product partials (interior and shared) of the CG step.
    DotLocal,
    /// `Rank::allreduce_scalar` completing a CG dot product.
    DotReduce,
    /// Fused `x`, `r` update and the `p` update of the CG step.
    CgUpdate,
}

impl Name {
    const ALL: [Name; 18] = [
        Name::Step,
        Name::Full2face,
        Name::GsStart,
        Name::Deriv,
        Name::Dealias,
        Name::GsFinish,
        Name::Lift,
        Name::Rk,
        Name::Cfl,
        Name::ParticleAdvect,
        Name::ParticleMigrate,
        Name::LbMonitor,
        Name::LbMigrate,
        Name::Checkpoint,
        Name::Ax,
        Name::DotLocal,
        Name::DotReduce,
        Name::CgUpdate,
    ];

    fn label(self) -> &'static str {
        match self {
            Name::Step => "step",
            Name::Full2face => "cmt-core full2face",
            Name::GsStart => "cmt-gs gs_op_start",
            Name::Deriv => "cmt-core advect_volume_rhs",
            Name::Dealias => "cmt-core dealias",
            Name::GsFinish => "cmt-gs gs_op_finish",
            Name::Lift => "cmt-core upwind_face_correction",
            Name::Rk => "cmt-core rk stage_update",
            Name::Cfl => "simmpi allreduce (cfl)",
            Name::ParticleAdvect => "cmt-particles advect_field",
            Name::ParticleMigrate => "cmt-particles migrate",
            Name::LbMonitor => "cmt-lb gather_costs + decide",
            Name::LbMigrate => "cmt-lb migrate_blocks + rebuild",
            Name::Checkpoint => "cmt-resilience save",
            Name::Ax => "nekbone ax",
            Name::DotLocal => "nekbone dot partials",
            Name::DotReduce => "simmpi allreduce (dot)",
            Name::CgUpdate => "nekbone vector updates",
        }
    }
}

const NO_PARENT: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
}

/// One rank's span recorder. While switched off every call is a no-op,
/// which is how the untraced units of a replay (the baseline of
/// `trace.overhead_frac`) run the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder measuring from `epoch` (shared by all ranks so their
    /// spans line up on one time axis).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            // room for the longest replay (msg_socket: 16 units of 220
            // steps of 56 spans), so recording never reallocates
            spans: Vec::with_capacity(1 << 18),
            open: Vec::with_capacity(8),
        }
    }

    /// Switch recording on or off (between steps: no span may be open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "span left open");
        self.on = on;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: Name) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end() without begin()");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// The recorded spans, flattened to `[name, start, end, parent]`
    /// quadruples: `Vec<u64>` crosses `World::run_dist` on either
    /// transport without a codec of its own.
    pub fn into_wire(self) -> Vec<u64> {
        assert!(self.open.is_empty(), "span left open");
        let mut out = Vec::with_capacity(self.spans.len() * 4);
        for s in &self.spans {
            out.extend_from_slice(&[
                s.name as u64,
                s.start_ns,
                s.end_ns,
                s.parent.map_or(NO_PARENT, |p| p as u64),
            ]);
        }
        out
    }
}

/// Inverse of [`Tracer::into_wire`].
pub fn from_wire(wire: &[u64]) -> Vec<Span> {
    assert_eq!(wire.len() % 4, 0, "span list is not whole quadruples");
    wire.chunks_exact(4)
        .map(|c| Span {
            name: Name::ALL[c[0] as usize],
            start_ns: c[1],
            end_ns: c[2],
            parent: (c[3] != NO_PARENT).then_some(c[3] as usize),
        })
        .collect()
}

/// Per root span (replayed step), the self time in seconds of every span
/// name beneath it, the root's own self time filed under [`Name::Step`].
/// Summed over names, a step's entry is exactly the root's duration.
pub fn self_time_per_step(spans: &[Span]) -> Vec<Vec<(Name, f64)>> {
    let mut self_ns: Vec<i64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as i64)
        .collect();
    // a child is recorded after its parent, so one forward pass finds
    // every span's step
    let mut step_of = vec![0usize; spans.len()];
    let mut n_steps = 0;
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => {
                self_ns[p] -= (s.end_ns - s.start_ns) as i64;
                step_of[i] = step_of[p];
            }
            None => {
                step_of[i] = n_steps;
                n_steps += 1;
            }
        }
    }
    let mut steps: Vec<Vec<(Name, f64)>> = vec![Vec::new(); n_steps];
    for (i, s) in spans.iter().enumerate() {
        let step = &mut steps[step_of[i]];
        let secs = self_ns[i] as f64 * 1e-9;
        match step.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += secs,
            None => step.push((s.name, secs)),
        }
    }
    steps
}

/// Write the first `steps` steps of every rank as a Chrome trace
/// (`chrome://tracing`, Perfetto): one complete event per span, one
/// thread row per rank.
pub fn write_chrome(
    path: &std::path::Path,
    ranks: &[Vec<Span>],
    steps: usize,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "[")?;
    let mut first = true;
    for (rank, spans) in ranks.iter().enumerate() {
        let mut roots = 0;
        for s in spans {
            roots += usize::from(s.parent.is_none());
            if roots > steps {
                break;
            }
            if !first {
                write!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{rank}}}",
                s.name.label(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
        }
    }
    writeln!(out, "\n]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(Name::Step, 0, 100, None),
            span(Name::Deriv, 10, 40, Some(0)),
            span(Name::GsFinish, 40, 90, Some(0)),
            span(Name::Step, 100, 160, None),
            span(Name::Deriv, 100, 150, Some(3)),
            span(Name::Deriv, 150, 155, Some(3)),
        ];
        let steps = self_time_per_step(&spans);
        assert_eq!(steps.len(), 2);
        let get = |step: &[(Name, f64)], n: Name| {
            step.iter().find(|(m, _)| *m == n).map_or(0.0, |(_, t)| *t)
        };
        assert!((get(&steps[0], Name::Step) - 20e-9).abs() < 1e-15);
        assert!((get(&steps[0], Name::Deriv) - 30e-9).abs() < 1e-15);
        assert!((get(&steps[0], Name::GsFinish) - 50e-9).abs() < 1e-15);
        assert!((get(&steps[1], Name::Deriv) - 55e-9).abs() < 1e-15);
        // layers add up to the step
        for (step, dur) in steps.iter().zip([100e-9, 60e-9]) {
            let sum: f64 = step.iter().map(|(_, t)| t).sum();
            assert!((sum - dur).abs() < 1e-15);
        }
    }

    #[test]
    fn tracer_nests_and_round_trips() {
        let mut tr = Tracer::new(Instant::now());
        tr.begin(Name::Step);
        tr.begin(Name::Rk);
        tr.end();
        tr.end();
        let spans = from_wire(&tr.into_wire());
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), (Name::Step, None));
        assert_eq!((spans[1].name, spans[1].parent), (Name::Rk, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now());
        tr.set_on(false);
        tr.begin(Name::Step);
        tr.end();
        assert!(tr.into_wire().is_empty());
    }

    #[test]
    fn every_name_survives_the_wire() {
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as u64, i as u64);
        }
    }
}
