//! CMT-bone command-line driver.
//!
//! ```text
//! cmt-bone [--ranks P] [--elems NEL] [--n N] [--steps S] [--fields F]
//!          [--variant basic|opt|simd] [--method pairwise|crystal|allreduce]
//!          [--pipeline blocking|overlapped] [--quiet]
//! ```
//!
//! Runs the mini-app and prints the paper-style report (setup block,
//! Fig. 7 autotune table, Fig. 4 profile, Figs. 8-10 communication
//! statistics).

use cmt_bone::{run, Config, Pipeline};
use cmt_core::KernelVariant;
use cmt_gs::GsMethod;
use simmpi::{FaultPlan, SocketConfig, TransportKind};

fn usage() -> ! {
    eprintln!(
        "usage: cmt-bone [--ranks P] [--elems NEL_PER_RANK] [--n N] [--steps S]\n\
         \x20                [--fields F] [--variant basic|opt|simd]\n\
         \x20                [--method pairwise|crystal|allreduce]\n\
         \x20                [--pipeline blocking|overlapped]\n\
         \x20                [--cfl-interval K] [--dealias M] [--quiet]\n\
         \x20                [--checkpoint-every K] [--checkpoint-dir PATH]\n\
         \x20                [--restart PATH] [--fault-plan SPEC]\n\
         \x20                [--verify]\n\
         \x20                [--transport inproc|socket] [--transport-addr ADDR]\n\
         \x20                [--particles-per-elem Q] [--particle-cluster FRAC]\n\
         \x20                [--lb-every K] [--lb-threshold T]\n\
         \n\
         --transport socket runs every rank as a child process over\n\
         Unix-domain sockets (rank 0's process is the launcher/hub);\n\
         --transport-addr overrides the endpoint, unix:<path> (e.g.\n\
         unix:/tmp/w.sock). Results are bitwise identical to inproc.\n\
         fault plan SPEC: semicolon-separated events, e.g.\n\
         \x20 'delay:prob=0.1,us=200;kill:rank=2,step=5;seed=7'\n\
         --variant simd dispatches to the widest vector unit present\n\
         (avx2/sse2, scalar fallback) with results bitwise identical to opt.\n\
         --verify runs the cmt-verify dynamic checker (deadlock, collective\n\
         matching, message leaks); exit status 1 on findings. It runs\n\
         in-process only: --verify with --transport socket exits 2. A\n\
         gather-scatter dropped unfinished panics its rank with or without it.\n\
         --particles-per-elem seeds Q passive tracers per element (0 = off);\n\
         --particle-cluster FRAC crowds them into the first FRAC of the x\n\
         extent (the imbalanced cloud). --lb-every K turns on the dynamic\n\
         load balancer: its first decision is taken at setup on the seeded\n\
         counts, then it is evaluated every K steps; --lb-threshold T\n\
         (max/mean load, > 1) sets the rebalance trigger. Balancing never\n\
         changes the physics: state hashes are bitwise identical with LB\n\
         on or off."
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
            "--steps" => cfg.steps = parse_usize(args.next()),
            "--fields" => cfg.fields = parse_usize(args.next()),
            "--cfl-interval" => cfg.cfl_interval = parse_usize(args.next()),
            "--dealias" => cfg.dealias_m = Some(parse_usize(args.next())),
            "--variant" => match args.next().as_deref() {
                Some("basic") => cfg.variant = KernelVariant::Basic,
                Some("opt") => cfg.variant = KernelVariant::Optimized,
                Some("simd") => cfg.variant = KernelVariant::Simd,
                _ => usage(),
            },
            "--method" => {
                cfg.method = match args.next().as_deref() {
                    Some("pairwise") => Some(GsMethod::PairwiseExchange),
                    Some("crystal") => Some(GsMethod::CrystalRouter),
                    Some("allreduce") => Some(GsMethod::AllReduce),
                    _ => usage(),
                }
            }
            "--pipeline" => {
                cfg.pipeline = match args.next().as_deref() {
                    Some("blocking") => Pipeline::Blocking,
                    Some("overlapped") => Pipeline::Overlapped,
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
            "--particles-per-elem" => cfg.particles_per_elem = parse_usize(args.next()),
            "--particle-cluster" => {
                cfg.particle_cluster = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--lb-every" => cfg.lb_every = parse_usize(args.next()),
            "--lb-threshold" => {
                cfg.lb_threshold = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
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
            "checksum {:.12e}  state {:016x}  wall avg {:.4}s max {:.4}s  method {}",
            report.checksum,
            report.state_hash,
            report.avg_wall_s(),
            report.max_wall_s(),
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
