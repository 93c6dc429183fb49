//! Wire codecs for the per-rank result set.
//!
//! The socket transport ships each rank's measurement set back to the
//! launcher as bytes, so everything in `RankOutput` needs a wire form.
//! `KernelVariant` and the kernel-autotune report live in `cmt-core`,
//! which does not depend on `simmpi` — the orphan rule keeps us from
//! implementing `WireCodec` for them there, so they are encoded
//! field-by-field with local helpers instead.

use cmt_core::kernels::autotune::{KernelAutotuneReport, KernelCandidate, KernelTiming};
use cmt_core::KernelVariant;
use cmt_gs::GsMethod;
use cmt_perf::Profiler;
use simmpi::{WireCodec, WireError, WireReader};

use super::{RankOutput, SolutionDump};
use crate::report::LbSummary;

fn encode_variant(v: KernelVariant, buf: &mut Vec<u8>) {
    let idx = KernelVariant::ALL
        .iter()
        .position(|&m| m == v)
        .expect("variant in ALL") as u8;
    idx.encode(buf);
}

fn decode_variant(r: &mut WireReader<'_>) -> Result<KernelVariant, WireError> {
    let idx = u8::decode(r)? as usize;
    KernelVariant::ALL
        .get(idx)
        .copied()
        .ok_or(WireError::Malformed("unknown kernel variant"))
}

fn encode_kernel_tune(t: &KernelAutotuneReport, buf: &mut Vec<u8>) {
    encode_variant(t.chosen.variant, buf);
    t.chosen.grain.encode(buf);
    encode_variant(t.effective, buf);
    t.timings.len().encode(buf);
    for timing in &t.timings {
        encode_variant(timing.candidate.variant, buf);
        timing.candidate.grain.encode(buf);
        timing.avg_s.encode(buf);
    }
}

fn decode_kernel_tune(r: &mut WireReader<'_>) -> Result<KernelAutotuneReport, WireError> {
    let chosen = KernelCandidate {
        variant: decode_variant(r)?,
        grain: usize::decode(r)?,
    };
    let effective = decode_variant(r)?;
    let n = r.count(17)?;
    let mut timings = Vec::with_capacity(n);
    for _ in 0..n {
        timings.push(KernelTiming {
            candidate: KernelCandidate {
                variant: decode_variant(r)?,
                grain: usize::decode(r)?,
            },
            avg_s: f64::decode(r)?,
        });
    }
    Ok(KernelAutotuneReport {
        chosen,
        effective,
        timings,
    })
}

impl WireCodec for SolutionDump {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.global_elem_ids.encode(buf);
        self.fields.encode(buf);
        self.time.encode(buf);
        self.dt.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SolutionDump {
            global_elem_ids: Vec::decode(r)?,
            fields: Vec::decode(r)?,
            time: f64::decode(r)?,
            dt: f64::decode(r)?,
        })
    }
}

impl WireCodec for LbSummary {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.rebalances.encode(buf);
        self.elems_moved.encode(buf);
        self.particles_moved.encode(buf);
        self.peak_imbalance.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LbSummary {
            rebalances: u64::decode(r)?,
            elems_moved: u64::decode(r)?,
            particles_moved: u64::decode(r)?,
            peak_imbalance: f64::decode(r)?,
        })
    }
}

impl WireCodec for RankOutput {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.profiler.encode(buf);
        self.autotune.encode(buf);
        match &self.kernel_autotune {
            None => false.encode(buf),
            Some(t) => {
                true.encode(buf);
                encode_kernel_tune(t, buf);
            }
        }
        self.chosen.encode(buf);
        self.checksum.encode(buf);
        self.elem_gids.encode(buf);
        self.elem_hashes.encode(buf);
        self.lb.encode(buf);
        self.wall_s.encode(buf);
        self.modeled_s.encode(buf);
        self.solution.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RankOutput {
            profiler: Profiler::decode(r)?,
            autotune: Option::decode(r)?,
            kernel_autotune: if bool::decode(r)? {
                Some(decode_kernel_tune(r)?)
            } else {
                None
            },
            chosen: GsMethod::decode(r)?,
            checksum: f64::decode(r)?,
            elem_gids: Vec::decode(r)?,
            elem_hashes: Vec::decode(r)?,
            lb: Option::decode(r)?,
            wall_s: f64::decode(r)?,
            modeled_s: f64::decode(r)?,
            solution: Option::decode(r)?,
        })
    }
}
