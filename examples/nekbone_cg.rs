//! Nekbone in action: solve the spectral-element Helmholtz system with
//! distributed CG to tolerance and print the residual history — the
//! baseline mini-app the paper compares CMT-bone against in Fig. 7.
//!
//! ```text
//! cargo run --release --example nekbone_cg [ranks]
//! ```

use cmt_gs::GsMethod;
use nekbone::{run, Config};

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let cfg = Config {
        ranks,
        n: 8,
        elems_per_rank: 8,
        cg_iters: 500,
        tol: 1e-8,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    println!(
        "Nekbone: {} ranks x {} elements x {}^3 points, CG on K + {} M\n",
        cfg.ranks, cfg.elems_per_rank, cfg.n, cfg.lambda
    );
    let rep = run(&cfg);
    println!("{}", rep.mesh_summary);
    println!("\niter | residual");
    for (i, r) in rep.cg.res_history.iter().enumerate() {
        if i % 5 == 0 || i + 1 == rep.cg.res_history.len() {
            println!("{i:4} | {r:.6e}");
        }
    }
    println!(
        "\n{} iterations, final residual {:.3e}, dssum via {}",
        rep.cg.iterations,
        rep.cg.final_residual(),
        rep.chosen_method.name()
    );
    assert!(
        rep.cg.iterations < cfg.cg_iters && rep.cg.final_residual() <= cfg.tol,
        "CG did not reach tolerance {:e}",
        cfg.tol
    );
}
