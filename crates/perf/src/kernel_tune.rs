//! The collective half of the kernel autotune (`--variant auto`) and the
//! wire form of its report — the one copy both mini-app drivers use.
//!
//! `KernelAutotuneReport` lives in `cmt-core`, which does not depend on
//! `simmpi`, so the allreduce and the codec cannot live beside it (nor,
//! by the orphan rule, can a `WireCodec` impl live here): they are free
//! functions in the first crate that sees both.

use cmt_core::kernels::autotune::{time_variants, KernelAutotuneReport};
use simmpi::{Rank, WireCodec, WireError, WireReader};

/// Time every kernel variant on this rank's `(n, nel)` shape, average
/// across ranks (the gs-autotune protocol), and return the report every
/// rank reads the same winner from. Collective.
pub fn tune_kernels(rank: &mut Rank, n: usize, nel: usize, d: &[f64]) -> KernelAutotuneReport {
    let mut sum_s = time_variants(n, nel, d);
    rank.set_context("kernel_autotune");
    rank.allreduce_in_place(&mut sum_s, |a, b| *a += *b);
    rank.set_context("main");
    let ranks = rank.size() as f64;
    KernelAutotuneReport {
        avg_s: sum_s.map(|t| t / ranks),
    }
}

/// Encode a rank's optional kernel-autotune report.
pub fn encode_kernel_tune(t: Option<&KernelAutotuneReport>, buf: &mut Vec<u8>) {
    t.map(|t| t.avg_s.to_vec()).encode(buf);
}

/// Decode what [`encode_kernel_tune`] wrote.
pub fn decode_kernel_tune(
    r: &mut WireReader<'_>,
) -> Result<Option<KernelAutotuneReport>, WireError> {
    let Some(avg_s) = Option::<Vec<f64>>::decode(r)? else {
        return Ok(None);
    };
    let avg_s = avg_s
        .try_into()
        .map_err(|_| WireError::Malformed("kernel autotune: one timing per variant"))?;
    Ok(Some(KernelAutotuneReport { avg_s }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_and_rejects_a_wrong_variant_count() {
        let some = KernelAutotuneReport {
            avg_s: [0.5, 0.25, 0.125],
        };
        for rep in [Some(some), None] {
            let mut buf = Vec::new();
            encode_kernel_tune(rep.as_ref(), &mut buf);
            let back = decode_kernel_tune(&mut WireReader::new(&buf)).expect("decodes");
            assert_eq!(back, rep);
        }
        let mut buf = Vec::new();
        Some(vec![1.0f64; 4]).encode(&mut buf);
        assert!(decode_kernel_tune(&mut WireReader::new(&buf)).is_err());
    }
}
