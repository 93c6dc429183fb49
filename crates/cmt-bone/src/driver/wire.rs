//! Wire codecs for the per-rank result set.
//!
//! The socket transport ships each rank's measurement set back to the
//! launcher as bytes, so everything in `RankOutput` needs a wire form.

use cmt_gs::GsMethod;
use cmt_perf::Profiler;
use simmpi::{WireCodec, WireError, WireReader};

use super::{RankOutput, SolutionDump};
use crate::report::LbSummary;

impl WireCodec for SolutionDump {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.global_elem_ids.encode(buf);
        self.fields.encode(buf);
        self.particles.encode(buf);
        self.time.encode(buf);
        self.dt.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SolutionDump {
            global_elem_ids: Vec::decode(r)?,
            fields: Vec::decode(r)?,
            particles: Vec::decode(r)?,
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
        self.chosen.encode(buf);
        self.checksum.encode(buf);
        self.elem_gids.encode(buf);
        self.elem_hashes.encode(buf);
        self.lb.encode(buf);
        self.wall_s.encode(buf);
        self.solution.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RankOutput {
            profiler: Profiler::decode(r)?,
            autotune: Option::decode(r)?,
            chosen: GsMethod::decode(r)?,
            checksum: f64::decode(r)?,
            elem_gids: Vec::decode(r)?,
            elem_hashes: Vec::decode(r)?,
            lb: Option::decode(r)?,
            wall_s: f64::decode(r)?,
            solution: Option::decode(r)?,
        })
    }
}
