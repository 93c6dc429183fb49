//! Regenerate every table and figure of the CMT-bone paper's evaluation.
//!
//! ```text
//! figures [--full] [fig4|fig5|fig6|fig7|fig8|fig9|fig10|overlap|resilience|all]
//! ```
//!
//! * `fig4` — CMT-bone execution profile + partial call graph (gprof view)
//! * `fig5` — optimized derivative kernels: runtime / instructions / cycles
//! * `fig6` — basic derivative kernels + speedup comparison
//! * `fig7` — gather-scatter autotune table for CMT-bone *and* Nekbone
//! * `fig8` — % time in MPI per rank
//! * `fig9` — top-20 most expensive MPI call sites
//! * `fig10` — total/average message sizes of the busiest MPI calls
//! * `overlap` — split-phase overlapped vs blocking exchange schedule
//! * `resilience` — recovery overhead vs checkpoint cadence under an
//!   injected rank kill
//!
//! `--full` selects the paper's exact parameters (256 thread-ranks for
//! fig7, 1000-step kernel runs); the default is a seconds-scale version
//! with the same shape.

use cmt_bench::{deriv_table, measure_deriv, DerivExperiment};
use cmt_bone::Config as BoneConfig;
use cmt_core::kernels::{DerivDir, KernelVariant};
use cmt_gs::AutotuneOptions;
use nekbone::Config as NekConfig;

fn fig4(full: bool) {
    println!("== Fig. 4: CMT-bone call graph and execution profile ==\n");
    // The paper profiled 8 MPI processes on an 8-thread i5 — one
    // hardware thread per rank. Match that ratio: oversubscribing
    // thread-ranks would shift blocked-peer wait time into the exchange
    // region and misrepresent the compute profile.
    let ranks = std::thread::available_parallelism()
        .map(|c| c.get().min(8))
        .unwrap_or(2);
    let cfg = BoneConfig {
        ranks,
        n: 10,
        elems_per_rank: 100,
        steps: if full { 1000 } else { 30 },
        fields: 5,
        ..Default::default()
    };
    println!(
        "({} ranks, N = {}, {} elements/rank, {} steps, 5 fields)\n",
        cfg.ranks, cfg.n, cfg.elems_per_rank, cfg.steps
    );
    let rep = cmt_bone::run(&cfg);
    println!("{}", rep.profile.render_flat());
    println!("{}", rep.profile.render_call_graph());
    let deriv = rep.profile.share("ax_cmt (flux divergence derivs)");
    println!(
        "derivative-kernel share of self time: {:.1}%  (paper: dominant, ~60-70%)",
        100.0 * deriv
    );
    // Compute-only view, independent of exchange blocking.
    let compute: f64 = [
        "ax_cmt (flux divergence derivs)",
        "full2face_cmt",
        "add_face2full (flux lift)",
        "rk_stage_update",
    ]
    .iter()
    .map(|r| rep.profile.share(r))
    .sum();
    if compute > 0.0 {
        println!(
            "derivative share of pure compute time: {:.1}%",
            100.0 * deriv / compute
        );
    }
    println!();
}

fn fig5(full: bool) {
    let exp = if full {
        DerivExperiment::paper()
    } else {
        DerivExperiment::scaled()
    };
    println!(
        "== Fig. 5: optimized derivative kernels (N = {}, Nel = {}, {} steps) ==\n",
        exp.n, exp.nel, exp.steps
    );
    let rows: Vec<_> = [DerivDir::T, DerivDir::R, DerivDir::S]
        .into_iter()
        .map(|d| measure_deriv(exp, KernelVariant::Optimized, d))
        .collect();
    println!("{}", deriv_table("(loop-fused / unrolled kernels)", &rows));
    println!("paper reference (Opteron 6378, 1000 steps): dudt 4.89s / 1,158,978,395 instr;");
    println!("  dudr 8.60s / 2,402,189,302; duds 9.45s / 2,595,078,699\n");
}

fn fig6(full: bool) {
    let exp = if full {
        DerivExperiment::paper()
    } else {
        DerivExperiment::scaled()
    };
    println!(
        "== Fig. 6: basic derivative kernels (N = {}, Nel = {}, {} steps) ==\n",
        exp.n, exp.nel, exp.steps
    );
    let dirs = [DerivDir::T, DerivDir::R, DerivDir::S];
    let basic: Vec<_> = dirs
        .into_iter()
        .map(|d| measure_deriv(exp, KernelVariant::Basic, d))
        .collect();
    println!("{}", deriv_table("(no fusion, no unrolling)", &basic));
    println!("paper reference: dudt 11.3s / 3,219,865,483; dudr 8.89s / 2,428,697,316\n");
    let opt: Vec<_> = dirs
        .into_iter()
        .map(|d| measure_deriv(exp, KernelVariant::Optimized, d))
        .collect();
    println!("speedup of optimized over basic (paper: dudt 2.31x, dudr 1.03x, duds ~1x):");
    for (b, o) in basic.iter().zip(&opt) {
        println!(
            "  {:5}  runtime {:5.2}x   modelled instructions {:5.2}x",
            b.dir.kernel_name(),
            b.runtime_s / o.runtime_s,
            b.papi.instructions as f64 / o.papi.instructions as f64
        );
    }
    println!();
}

fn fig7(full: bool) {
    let (ranks, elems) = if full { (256, 100) } else { (32, 100) };
    println!(
        "== Fig. 7: gather-scatter method comparison ({ranks} ranks, {elems} elements/rank, N = 10) ==\n"
    );
    let tune = AutotuneOptions {
        trials: 3,
        ..Default::default()
    };
    // CMT-bone: face-only DG exchange
    let bone = cmt_bone::run(&BoneConfig {
        ranks,
        elems_per_rank: elems,
        n: 10,
        steps: 1,
        fields: 1,
        autotune: tune,
        ..Default::default()
    });
    println!("Setup:\n{}\n", bone.mesh_summary);
    println!("mini-app   | method             |      avg (s) |      min (s) |      max (s)");
    print!(
        "{}",
        bone.autotune.as_ref().expect("autotuned").table("CMT-bone")
    );
    // Nekbone: vertex-conforming dssum exchange
    let nek = nekbone::run(&NekConfig {
        ranks,
        elems_per_rank: elems,
        n: 10,
        cg_iters: 1,
        autotune: tune,
        ..Default::default()
    });
    print!(
        "{}",
        nek.autotune.as_ref().expect("autotuned").table("Nekbone")
    );
    println!(
        "\nchosen: CMT-bone -> {}   Nekbone -> {}",
        bone.chosen_method.name(),
        nek.chosen_method.name()
    );
    println!("paper: CMT-bone pairwise 0.000319s avg vs crystal 0.000800s;");
    println!("       Nekbone pairwise 0.000639s vs crystal 0.000664s; all_reduce too expensive for both\n");
}

fn comm_run(full: bool) -> cmt_bone::RunReport {
    cmt_bone::run(&BoneConfig {
        ranks: if full { 64 } else { 16 },
        n: 10,
        elems_per_rank: 27,
        steps: if full { 200 } else { 30 },
        fields: 5,
        cfl_interval: 5,
        // The paper's production runs use pairwise exchange ("CMT-bone
        // execution run uses a simple pairwise exchange strategy", §VI);
        // Figs. 8-10 characterize that configuration. The paper's code has
        // no split-phase overlap either — the blocking schedule is what
        // produces the MPI_Wait-dominated Fig. 9 profile (the `overlap`
        // ablation measures the split-phase remedy against this baseline).
        method: Some(cmt_gs::GsMethod::PairwiseExchange),
        pipeline: cmt_bone::Pipeline::Blocking,
        ..Default::default()
    })
}

fn fig8(full: bool) {
    println!("== Fig. 8: % of execution time in MPI per rank ==\n");
    let rep = comm_run(full);
    println!("{}", rep.comm.render_rank_bars());
}

fn fig9(full: bool) {
    println!("== Fig. 9: time in the 20 most expensive MPI call sites ==\n");
    let rep = comm_run(full);
    println!("{}", rep.comm.render_top_sites(20));
    let wait = rep.comm.time_of_op(simmpi::MpiOp::Wait);
    let total = rep.comm.total_mpi_s();
    println!(
        "MPI_Wait share of MPI time: {:.1}%  (paper: MPI_Wait dominates)\n",
        100.0 * wait / total.max(1e-300)
    );
}

fn fig10(full: bool) {
    println!("== Fig. 10: total and average message sizes of the busiest MPI calls ==\n");
    let rep = comm_run(full);
    println!("{}", rep.comm.render_msg_sizes(10));
    println!("(each pairwise face-exchange message carries the shared-face doubles: ~N^2 x 8 bytes per face; N = 10 here)\n");
}

fn overlap_fig(full: bool) {
    use cmt_bone::Pipeline;
    println!("== Ablation: split-phase overlap vs blocking exchange schedule ==");
    println!("(one batched 5-field gs_op_start per RK stage with the volume kernels");
    println!(" in the overlap window, vs one blocking gs_op per field; pairwise)\n");
    println!("ranks | pipeline   | wall max (s) | gs self-time share | MPI_Wait share of MPI | face msgs");
    let ranks_list: &[usize] = if full { &[4, 8, 16, 32] } else { &[4, 8, 16] };
    for &ranks in ranks_list {
        for pipeline in [Pipeline::Blocking, Pipeline::Overlapped] {
            let rep = cmt_bone::run(&BoneConfig {
                ranks,
                n: 10,
                elems_per_rank: 27,
                steps: if full { 100 } else { 20 },
                fields: 5,
                cfl_interval: 5,
                method: Some(cmt_gs::GsMethod::PairwiseExchange),
                pipeline,
                ..Default::default()
            });
            // Fig. 4 view: total gather-scatter self time (the blocking
            // row is all gs_op_; the overlapped row splits into
            // start + finish under a near-zero parent).
            let gs: f64 = [
                "gs_op_ (numerical flux exchange)",
                "gs_op_start (post + interior combine)",
                "gs_op_finish (wait + halo)",
            ]
            .iter()
            .map(|r| rep.profile.share(r))
            .sum();
            // Fig. 9 view: MPI_Wait share of total MPI time.
            let wait = rep.comm.time_of_op(simmpi::MpiOp::Wait);
            let wait_share = wait / rep.comm.total_mpi_s().max(1e-300);
            let face_msgs: u64 = rep
                .comm
                .sites
                .iter()
                .filter(|s| {
                    s.site.op == simmpi::MpiOp::Isend && s.site.context == "faces/gs:pairwise"
                })
                .map(|s| s.calls)
                .sum();
            println!(
                "{ranks:5} | {:10} | {:12.4} | {:17.1}% | {:20.1}% | {face_msgs:9}",
                pipeline.name(),
                rep.max_wall_s(),
                100.0 * gs,
                100.0 * wait_share,
            );
        }
    }
    println!("\n(The overlapped rows should show the gs/Wait shares shrinking: the");
    println!(" in-flight time is hidden behind the flux-divergence and dealias");
    println!(" kernels, and each stage sends 5x fewer, 5x larger messages.)\n");
}

fn resilience_fig(full: bool) {
    println!("== Resilience: recovery overhead vs checkpoint cadence ==");
    println!("(N = 8, 27 elements/rank, 16 steps, 5 fields, pairwise; one rank");
    println!(" killed at step 11, rolled back to its last checkpoint and replayed)\n");
    println!("ranks | cadence | ckpt-only overhead | kill+recover overhead | bitwise ok");
    let steps = 16usize;
    let ranks_list: &[usize] = if full { &[4, 8, 16, 32] } else { &[4, 8, 16] };
    for &ranks in ranks_list {
        let base = BoneConfig {
            ranks,
            n: 8,
            elems_per_rank: 27,
            steps,
            fields: 5,
            cfl_interval: 4,
            method: Some(cmt_gs::GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let clean = cmt_bone::run(&base);
        for every in [2usize, 4, 8] {
            let ckpt = cmt_bone::run(&BoneConfig {
                checkpoint_every: every,
                ..base.clone()
            });
            let killed = cmt_bone::run(&BoneConfig {
                checkpoint_every: every,
                fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=1,step=11").unwrap()),
                ..base.clone()
            });
            let base_wall = clean.max_wall_s().max(1e-12);
            println!(
                "{ranks:5} | {every:7} | {:17.1}% | {:20.1}% | {}",
                100.0 * (ckpt.max_wall_s() / base_wall - 1.0),
                100.0 * (killed.max_wall_s() / base_wall - 1.0),
                if killed.state_hash == clean.state_hash {
                    "yes"
                } else {
                    "NO"
                }
            );
        }
    }
    println!("\n(A sparser cadence pays less checkpoint overhead but replays more");
    println!(" steps after a kill: the kill at step 11 replays 11 - 8*floor(11/8)");
    println!(" steps at cadence 8 versus one at cadence 2. Every row must end");
    println!(" 'bitwise ok = yes' — recovery replays the identical trajectory.)\n");
}

fn main() {
    let mut full = false;
    let mut which: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => full = true,
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".into());
    }
    for w in which {
        match w.as_str() {
            "fig4" => fig4(full),
            "fig5" => fig5(full),
            "fig6" => fig6(full),
            "fig7" => fig7(full),
            "fig8" => fig8(full),
            "fig9" => fig9(full),
            "fig10" => fig10(full),
            "overlap" => overlap_fig(full),
            "resilience" => resilience_fig(full),
            "all" => {
                fig4(full);
                fig5(full);
                fig6(full);
                fig7(full);
                fig8(full);
                fig9(full);
                fig10(full);
                overlap_fig(full);
                resilience_fig(full);
            }
            other => {
                eprintln!("unknown figure: {other}");
                eprintln!(
                    "usage: figures [--full] [fig4|fig5|fig6|fig7|fig8|fig9|fig10|overlap|resilience|all]"
                );
                std::process::exit(2);
            }
        }
    }
}
