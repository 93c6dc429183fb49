//! Weak-scaling study: hold the per-rank workload fixed (the mini-app's
//! whole point is to characterize scaling behaviour for co-design) and
//! grow the rank count, reporting wall time and the MPI fraction (Fig. 8's
//! quantity). Asserts that the MPI fraction grows from one rank to many.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use cmt_bone::{run, Config};
use cmt_gs::GsMethod;

fn main() {
    println!("CMT-bone weak scaling: 27 elements/rank, N = 8, 10 steps, 5 fields");
    println!("(thread ranks)\n");
    println!("ranks | wall max (s) | avg %MPI");
    let mut mpi_pct = Vec::new();
    for ranks in [1usize, 2, 4, 8, 16] {
        let rep = run(&Config {
            ranks,
            n: 8,
            elems_per_rank: 27,
            steps: 10,
            fields: 5,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        });
        let pct = rep.comm.mpi_percent_per_rank();
        let avg_pct: f64 = pct.iter().sum::<f64>() / pct.len() as f64;
        println!("{ranks:5} | {:12.4} | {avg_pct:8.2}", rep.max_wall_s());
        mpi_pct.push(avg_pct);
    }
    assert!(
        mpi_pct[mpi_pct.len() - 1] > mpi_pct[0],
        "the MPI fraction did not grow with the rank count: {mpi_pct:?}"
    );
    println!("\nPerfect weak scaling would hold wall time flat; the MPI fraction");
    println!("growth with rank count is the signal the paper's Fig. 8 tracks.");
}
