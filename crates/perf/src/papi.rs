//! PAPI-substitute: an analytic instruction/cycle model for the
//! derivative kernels.
//!
//! Figures 5 and 6 of the paper report PAPI `TOT_INS` / `TOT_CYC` counts
//! for the three partial-derivative kernels on an AMD Opteron 6378
//! (1563 elements, 1000 timesteps), demonstrating that Nek's loop
//! fusion/unroll transformations cut the instruction count of `dudt` by
//! ~2.8x (runtime 2.31x), barely move `dudr` (1.03x), and cannot help
//! `duds` at all. Portable Rust cannot read a 2012 Opteron's MSRs, so
//! this module *models* the two counters from the exact operation counts
//! of [`cmt_core::cost`]:
//!
//! ```text
//! instructions = flops * arith_ipf  +  loads * load_ipl
//!              + stores * store_ips +  points * overhead_ipp
//! cycles       = instructions * cpi
//! ```
//!
//! with per-`(variant, direction)` parameters reflecting how each loop
//! nest compiles: the fused kernels stream unit-stride and vectorize
//! (4-wide f64 FMA: `arith_ipf = 1/8`), the basic `dudt` is scalar with a
//! stride-`n^2` gather (`arith_ipf = 1`), the basic `dudr` still
//! vectorizes its unit-stride dot product, and `duds`'s short columns pay
//! per-output reduction overhead in every variant. The parameter values
//! below are calibrated so the modelled totals land on the paper's
//! Fig. 5/6 measurements at `N = 5`, `Nel = 1563`, 1000 steps; what the
//! tests pin is the *structure* — the basic/optimized ratio ordering
//! dudt >> dudr ~ duds ~ 1.
//!
//! The CPI column is likewise calibrated to the paper's cycle/instruction
//! ratios (0.53-0.66 on the Opteron's 2-wide pipeline).

use cmt_core::cost::OpCounts;
use cmt_core::{DerivDir, KernelVariant};

/// Modelled counter values for one kernel invocation (or run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PapiEstimate {
    /// Modelled retired-instruction count (`PAPI_TOT_INS` analogue).
    pub instructions: u64,
    /// Modelled cycle count (`PAPI_TOT_CYC` analogue).
    pub cycles: u64,
}

/// The model parameters of one `(variant, direction)` kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelModel {
    /// Instructions per floating-point operation.
    pub arith_ipf: f64,
    /// Instructions per source-level load.
    pub load_ipl: f64,
    /// Instructions per source-level store.
    pub store_ips: f64,
    /// Loop/index/reduction overhead instructions per output point.
    pub overhead_ipp: f64,
    /// Cycles per instruction.
    pub cpi: f64,
}

/// Look up the calibrated model of a kernel.
pub fn kernel_model(variant: KernelVariant, dir: DerivDir) -> KernelModel {
    use DerivDir::*;
    use KernelVariant::*;
    match (variant, dir) {
        // Fused + vectorized production kernels (paper Fig. 5).
        (Optimized, T) => KernelModel {
            arith_ipf: 0.125,
            load_ipl: 0.25,
            store_ips: 0.25,
            overhead_ipp: 2.0,
            cpi: 0.66,
        },
        (Optimized, R) => KernelModel {
            arith_ipf: 0.125,
            load_ipl: 0.25,
            store_ips: 1.0,
            overhead_ipp: 7.5,
            cpi: 0.56,
        },
        (Optimized, S) => KernelModel {
            arith_ipf: 0.125,
            load_ipl: 0.3,
            store_ips: 1.0,
            overhead_ipp: 8.0,
            cpi: 0.57,
        },
        // Basic loop nests (paper Fig. 6).
        (Basic, T) => KernelModel {
            arith_ipf: 1.0,
            load_ipl: 0.5,
            store_ips: 0.25,
            overhead_ipp: 2.0,
            cpi: 0.53,
        },
        (Basic, R) => KernelModel {
            arith_ipf: 0.25,
            load_ipl: 0.5,
            store_ips: 1.0,
            overhead_ipp: 4.0,
            cpi: 0.57,
        },
        (Basic, S) => KernelModel {
            arith_ipf: 0.5,
            load_ipl: 0.5,
            store_ips: 1.0,
            overhead_ipp: 3.0,
            cpi: 0.57,
        },
        // Hand-vectorized lane-parallel kernels: no FMA contraction (the
        // scalar accumulation order is preserved bitwise, so mul and add
        // stay separate — twice the arithmetic instructions per flop of
        // the FMA model), but each broadcast D entry feeds a full vector
        // of outputs (half the loads) and the accumulators stay in
        // registers across the reduction (well under half the per-output
        // loop/reduction overhead). The register-tiled micro-kernel
        // issues the same mul + add per lane and one load per vector
        // step, so the arithmetic and load factors stand; a broadcast
        // now feeds up to four vectors and the `k` loop is unrolled, so
        // 0.5 and 0.4 are upper bounds rather than fits (the lanes an
        // overlapped last vector redoes are not modelled). The tile is
        // R rows by up to four vectors: in the dealias stages each loaded
        // source vector feeds R = 3 output rows, a third of a load per
        // vector step. The derivatives modelled here run R = 1, so the
        // factors stay as they are; fitting them to counters is open.
        (Simd, d) => {
            let base = kernel_model(Optimized, d);
            KernelModel {
                arith_ipf: base.arith_ipf * 2.0,
                load_ipl: base.load_ipl * 0.5,
                overhead_ipp: base.overhead_ipp * 0.4,
                ..base
            }
        }
    }
}

/// Model the counters of one derivative-kernel run from its operation
/// counts.
pub fn model_kernel(variant: KernelVariant, dir: DerivDir, counts: OpCounts) -> PapiEstimate {
    let m = kernel_model(variant, dir);
    let points = counts.stores as f64; // one store per output point
    let instr = counts.flops as f64 * m.arith_ipf
        + counts.loads as f64 * m.load_ipl
        + counts.stores as f64 * m.store_ips
        + points * m.overhead_ipp;
    PapiEstimate {
        instructions: instr.round() as u64,
        cycles: (instr * m.cpi).round() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_core::cost::deriv_counts;

    /// The paper's Fig. 5/6 setup: Nel = 1563, 1000 steps, N = 5.
    fn paper_counts() -> OpCounts {
        deriv_counts(5, 1563).times(1000)
    }

    #[test]
    fn modeled_totals_near_paper_fig5() {
        let c = paper_counts();
        // Paper Fig. 5 (optimized): dudt 1.159e9, dudr 2.402e9, duds 2.595e9
        let t = model_kernel(KernelVariant::Optimized, DerivDir::T, c);
        let r = model_kernel(KernelVariant::Optimized, DerivDir::R, c);
        let s = model_kernel(KernelVariant::Optimized, DerivDir::S, c);
        assert!(
            (t.instructions as f64 / 1.159e9 - 1.0).abs() < 0.15,
            "{t:?}"
        );
        assert!(
            (r.instructions as f64 / 2.402e9 - 1.0).abs() < 0.15,
            "{r:?}"
        );
        assert!(
            (s.instructions as f64 / 2.595e9 - 1.0).abs() < 0.15,
            "{s:?}"
        );
    }

    #[test]
    fn modeled_totals_near_paper_fig6() {
        let c = paper_counts();
        // Paper Fig. 6 (basic): dudt 3.220e9, dudr 2.429e9
        let t = model_kernel(KernelVariant::Basic, DerivDir::T, c);
        let r = model_kernel(KernelVariant::Basic, DerivDir::R, c);
        assert!(
            (t.instructions as f64 / 3.220e9 - 1.0).abs() < 0.15,
            "{t:?}"
        );
        assert!(
            (r.instructions as f64 / 2.429e9 - 1.0).abs() < 0.15,
            "{r:?}"
        );
    }

    #[test]
    fn ratio_structure_matches_paper() {
        let c = paper_counts();
        let ratio = |d| {
            model_kernel(KernelVariant::Basic, d, c).instructions as f64
                / model_kernel(KernelVariant::Optimized, d, c).instructions as f64
        };
        let rt = ratio(DerivDir::T);
        let rr = ratio(DerivDir::R);
        let rs = ratio(DerivDir::S);
        // dudt benefits hugely; dudr and duds barely (paper: 2.78x instr
        // reduction for dudt, 1.01x for dudr, none for duds).
        assert!(rt > 2.0, "dudt instr ratio {rt}");
        assert!((0.8..1.3).contains(&rr), "dudr instr ratio {rr}");
        assert!((0.8..1.3).contains(&rs), "duds instr ratio {rs}");
        assert!(rt > rr && rt > rs);
    }

    #[test]
    fn cycles_track_cpi() {
        let c = paper_counts();
        for variant in KernelVariant::ALL {
            for dir in DerivDir::ALL {
                let est = model_kernel(variant, dir, c);
                let m = kernel_model(variant, dir);
                let cpi = est.cycles as f64 / est.instructions as f64;
                assert!((cpi - m.cpi).abs() < 0.01, "{variant:?} {dir:?}: cpi {cpi}");
            }
        }
    }

    #[test]
    fn model_scales_linearly_with_work() {
        let c1 = deriv_counts(10, 3);
        let c2 = c1.times(7);
        let e1 = model_kernel(KernelVariant::Optimized, DerivDir::T, c1);
        let e2 = model_kernel(KernelVariant::Optimized, DerivDir::T, c2);
        assert!((e2.instructions as f64 / e1.instructions as f64 - 7.0).abs() < 1e-6);
    }
}
