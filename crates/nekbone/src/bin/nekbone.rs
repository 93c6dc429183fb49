//! Nekbone command-line driver.
//!
//! ```text
//! nekbone [--ranks P] [--elems NEL] [--n N] [--iters K] [--tol T]
//!         [--variant basic|opt|simd|auto]
//!         [--method pairwise|crystal|allreduce] [--quiet]
//! ```

use cmt_core::KernelVariant;
use cmt_gs::GsMethod;
use nekbone::{run, Config};
use simmpi::{FaultPlan, SocketConfig, TransportKind};

fn usage() -> ! {
    eprintln!(
        "usage: nekbone [--ranks P] [--elems NEL_PER_RANK] [--n N] [--iters K]\n\
         \x20              [--tol T] [--variant basic|opt|simd|auto]\n\
         \x20              [--workers W]\n\
         \x20              [--method pairwise|crystal|allreduce] [--quiet]\n\
         \x20              [--checkpoint-every K] [--checkpoint-dir PATH]\n\
         \x20              [--restart PATH] [--fault-plan SPEC]\n\
         \x20              [--verify]\n\
         \x20              [--transport inproc|socket] [--transport-addr ADDR]\n\
         \n\
         --transport socket runs every rank as a child process over\n\
         Unix-domain sockets (rank 0's process is the launcher/hub);\n\
         --transport-addr overrides the endpoint, unix:<path> (e.g.\n\
         unix:/tmp/w.sock). Results are bitwise identical to inproc.\n\
         fault plan SPEC: semicolon-separated events, e.g.\n\
         \x20 'delay:prob=0.1,us=200;kill:rank=2,step=5;seed=7'\n\
         --workers shares each rank's ax element loop across a work-stealing\n\
         pool of W threads (1 = pure MPI); results are bitwise identical.\n\
         --verify runs the cmt-verify dynamic checker (deadlock, collective\n\
         matching, message leaks, abandoned exchanges); exit status 1 on\n\
         findings. It runs in-process only: --verify with --transport\n\
         socket exits 2.\n\
         --variant auto autotunes the ax derivative kernel at startup (every\n\
         variant timed, averaged across ranks); --variant simd dispatches to\n\
         the widest vector unit present (avx2/sse2, scalar fallback) with\n\
         bitwise-identical results."
    );
    std::process::exit(2);
}

fn parse_usize(v: Option<String>) -> usize {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let mut cfg = Config::default();
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ranks" => cfg.ranks = parse_usize(args.next()),
            "--elems" => cfg.elems_per_rank = parse_usize(args.next()),
            "--n" => cfg.n = parse_usize(args.next()),
            "--iters" => cfg.cg_iters = parse_usize(args.next()),
            "--tol" => {
                cfg.tol = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--variant" => match args.next().as_deref() {
                Some("basic") => cfg.variant = KernelVariant::Basic,
                Some("opt") => cfg.variant = KernelVariant::Optimized,
                Some("simd") => cfg.variant = KernelVariant::Simd,
                Some("auto") => cfg.kernel_autotune = true,
                _ => usage(),
            },
            "--workers" => cfg.workers = parse_usize(args.next()),
            "--method" => {
                cfg.method = match args.next().as_deref() {
                    Some("pairwise") => Some(GsMethod::PairwiseExchange),
                    Some("crystal") => Some(GsMethod::CrystalRouter),
                    Some("allreduce") => Some(GsMethod::AllReduce),
                    _ => usage(),
                }
            }
            "--checkpoint-every" => cfg.checkpoint_every = parse_usize(args.next()),
            "--checkpoint-dir" => {
                cfg.checkpoint_dir = Some(args.next().unwrap_or_else(|| usage()).into())
            }
            "--restart" => cfg.restart_from = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--fault-plan" => {
                let spec = args.next().unwrap_or_else(|| usage());
                cfg.fault_plan = match FaultPlan::parse(&spec) {
                    Ok(plan) => Some(plan),
                    Err(e) => {
                        eprintln!("bad fault plan: {e}");
                        usage()
                    }
                }
            }
            "--verify" => cfg.verify = true,
            "--transport" => match args.next().as_deref() {
                Some("inproc") => cfg.transport = TransportKind::Inproc,
                Some("socket") => {
                    if !matches!(cfg.transport, TransportKind::Socket(_)) {
                        cfg.transport = TransportKind::Socket(SocketConfig::default());
                    }
                }
                _ => usage(),
            },
            "--transport-addr" => {
                let addr = Some(args.next().unwrap_or_else(|| usage()));
                match &mut cfg.transport {
                    TransportKind::Socket(c) => c.addr = addr,
                    _ => {
                        cfg.transport = TransportKind::Socket(SocketConfig {
                            addr,
                            ..Default::default()
                        })
                    }
                }
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    let report = run(&cfg);
    if quiet {
        println!(
            "iters {}  residual {:.3e}  checksum {:.12e}  state {:016x}  method {}",
            report.cg.iterations,
            report.cg.final_residual(),
            report.checksum,
            report.state_hash,
            report.chosen_method.name()
        );
        if let Some(findings) = &report.verify {
            print!("{}", cmt_verify::render_findings(findings));
        }
    } else {
        println!("{}", report.render());
    }
    if report.verify.as_ref().is_some_and(|f| !f.is_empty()) {
        std::process::exit(1);
    }
}
