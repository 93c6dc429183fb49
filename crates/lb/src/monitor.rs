//! The collective gather of the load balancer's deterministic cost
//! inputs.
//!
//! Per-element particle populations and per-rank injected-delay totals
//! from the fault injector are exact integers that every run reproduces.
//! [`gather_costs`] allgathers them so each rank holds the identical
//! [`GlobalCost`], which is the *only* input [`crate::policy::decide`]
//! accepts. Observed timings (step wall time, region timers) differ
//! across ranks, machines and runs, and never reach a decision.

use cmt_mesh::ElemPartition;
use simmpi::{MpiOp, Rank, ReduceOp};

/// The allgathered deterministic cost vector: identical on every rank
/// after [`gather_costs`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalCost {
    /// Resident-particle count per global element id.
    pub particles: Vec<u64>,
    /// Cumulative injected-delay microseconds per rank (the fault
    /// injector's deterministic straggler signal).
    pub delay_us: Vec<u64>,
}

/// Allgather the deterministic cost inputs: each rank contributes the
/// particle populations of its owned elements and its own
/// injected-delay total; one sum-allreduce over the disjoint slots
/// yields the full vector everywhere. Booked as the dedicated
/// `lb_gather` mpiP operation under the `lb` call-site context.
///
/// Collective over the world. `counts[slot]` must follow `part`'s
/// owned-element order for this rank.
pub fn gather_costs(
    rank: &mut Rank,
    part: &ElemPartition,
    counts: &[u32],
    my_delay_us: u64,
) -> GlobalCost {
    let e = part.total_elems();
    let p = part.ranks();
    let me = rank.rank();
    // The allgather's dense staging vector, O(E + P) once per monitor
    // cadence: the collective materializes the full global vector on every
    // rank anyway. `tests/alloc_free.rs` pins what a monitor step allocates.
    let mut slots = vec![0u64; e + p];
    let owned = part.owned_by(me);
    assert_eq!(counts.len(), owned.len(), "one count per owned element");
    for (slot, &c) in counts.iter().enumerate() {
        // counts follow ascending-gid owned order, matching owned_by
        slots[owned[slot]] = c as u64;
    }
    slots[e + me] = my_delay_us;
    let mut summed = rank.with_context("lb", |rank| {
        rank.with_op_badge(MpiOp::LbGather, |rank| {
            rank.allreduce_u64(&slots, ReduceOp::Sum)
        })
    });
    // Split the summed vector in place: the O(E) particle prefix keeps
    // the allreduce result's buffer, only the O(P) delay tail moves.
    let delay_us = summed.split_off(e);
    GlobalCost {
        particles: summed,
        delay_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::World;

    #[test]
    fn gather_is_identical_on_every_rank() {
        use cmt_mesh::MeshConfig;
        let ranks = 4usize;
        let cfg = MeshConfig::for_ranks(ranks, 4, 4, true);
        let res = World::new().run(ranks, move |rank| {
            let part = ElemPartition::initial(&cfg);
            let me = rank.rank();
            // rank r holds r+1 particles in each of its elements
            let counts = vec![(me + 1) as u32; part.owned_by(me).len()];
            let g = gather_costs(rank, &part, &counts, 100 * me as u64);
            (g, part)
        });
        let (first, part) = &res.results[0];
        for (g, _) in &res.results {
            assert_eq!(g, first, "gather differs across ranks");
        }
        for gid in 0..part.total_elems() {
            assert_eq!(first.particles[gid], (part.owner_of(gid) + 1) as u64);
        }
        assert_eq!(first.delay_us, vec![0, 100, 200, 300]);
        // booked as lb_gather under the lb context, replacing the
        // underlying allreduce row
        for s in &res.stats {
            assert_eq!(s.site(MpiOp::LbGather, "lb").unwrap().calls, 1);
            assert!(s.site(MpiOp::Allreduce, "lb").is_none());
        }
    }
}
