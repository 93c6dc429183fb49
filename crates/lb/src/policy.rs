//! The deterministic rebalance policy.
//!
//! Inputs are the SPMD-identical [`GlobalCost`] vector and the current
//! [`ElemPartition`]; the output is either "keep the partition" or a
//! complete new owner vector. Everything in between
//! is pure f64 arithmetic over those integers — no wall clock, no RNG,
//! no rank-dependent branch — so every rank that runs [`decide`] on the
//! same gathered vector adopts the same partition without any further
//! agreement protocol.
//!
//! The partitioner itself is the classical *greedy chain* scheme: walk
//! the elements in global-id order (the natural space-filling chain of
//! the Cartesian enumeration, which keeps each rank's elements spatially
//! coherent) and cut the chain wherever a rank's cumulative cost share
//! is met. Stragglers are handled by shrinking a slow rank's target
//! share: a rank whose fault-injected delay burns `d` microseconds per
//! interval has that overhead (converted to flop units by the cost
//! model) subtracted from its fair share before the cuts are placed.

use cmt_core::cost;
use cmt_mesh::ElemPartition;

use crate::GlobalCost;

/// Analytic per-step cost model, in flop units, derived from the exact
/// kernel operation counts of [`cmt_core::cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost of advancing one element one step (all RK stages of
    /// the field solve).
    pub elem_cost: f64,
    /// Cost of advancing one resident particle one step (RK2 push with
    /// two interpolated velocity evaluations).
    pub particle_cost: f64,
    /// Flop-equivalent of one microsecond of injected delay. The
    /// reference machine is taken at 1 Gflop/s — the absolute value only
    /// scales how aggressively delay hazards are compensated, and the
    /// same value is used on every rank, so determinism is unaffected.
    pub delay_cost_per_us: f64,
}

impl CostModel {
    /// Model for a run shape: polynomial order `n`, `fields` conserved
    /// fields, 3 RK stages per step.
    pub fn for_shape(n: usize, fields: usize) -> Self {
        let n64 = n as u64;
        let per_stage = cost::grad_counts(n64, 1)
            .times(fields as u64)
            .plus(cost::rk_stage_counts(n64, 1).times(fields as u64));
        // two velocity evaluations per RK2 push, 3 components each, one
        // tensor-product basis evaluation (~2 n^3 flops) per component
        let particle = (2 * 3 * 2 * n64 * n64 * n64) as f64;
        CostModel {
            elem_cost: per_stage.times(3).flops as f64,
            particle_cost: particle,
            delay_cost_per_us: 1000.0,
        }
    }

    /// Cost of one element with `particles` residents.
    fn elem(&self, particles: u64) -> f64 {
        self.elem_cost + self.particle_cost * particles as f64
    }
}

/// Outcome of one policy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Max-over-mean effective rank load under the *current* partition
    /// (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// New owner vector, present only when the trigger fired *and* the
    /// greedy partition actually differs from the current one.
    pub owners: Option<Vec<u32>>,
}

/// Evaluate the rebalance policy: measure imbalance under the current
/// partition and, if it exceeds `threshold`, repartition the element
/// chain greedily by cost share.
///
/// Pure and deterministic: identical inputs give identical output on
/// every rank. Every rank is always assigned at least one element.
///
/// # Panics
/// Panics if the cost vector does not match the partition shape or
/// there are fewer elements than ranks.
pub fn decide(
    model: &CostModel,
    part: &ElemPartition,
    global: &GlobalCost,
    threshold: f64,
) -> Decision {
    let e = part.total_elems();
    let p = part.ranks();
    assert_eq!(global.particles.len(), e, "cost vector shape");
    assert_eq!(global.delay_us.len(), p, "delay vector shape");
    assert!(e >= p, "need at least one element per rank");
    assert!(threshold > 0.0, "threshold must be positive");

    let costs: Vec<f64> = global.particles.iter().map(|&c| model.elem(c)).collect();
    let overhead: Vec<f64> = global
        .delay_us
        .iter()
        .map(|&us| us as f64 * model.delay_cost_per_us)
        .collect();

    // Effective load per rank under the current partition: element work
    // plus the rank's fixed injected-delay overhead.
    let mut load = overhead.clone();
    for gid in 0..e {
        load[part.owner_of(gid)] += costs[gid];
    }
    let total: f64 = load.iter().sum();
    let mean = total / p as f64;
    let imbalance = if mean > 0.0 {
        load.iter().cloned().fold(0.0f64, f64::max) / mean
    } else {
        1.0
    };
    if imbalance <= threshold {
        return Decision {
            imbalance,
            owners: None,
        };
    }

    // Target element-work share per rank: the fair share minus the
    // rank's own overhead (a slow rank gets fewer elements), floored at
    // zero — the chain walk still guarantees one element each.
    let work: f64 = costs.iter().sum();
    let fair = (work + overhead.iter().sum::<f64>()) / p as f64;
    let want: Vec<f64> = overhead.iter().map(|&o| (fair - o).max(0.0)).collect();
    let want_sum: f64 = want.iter().sum();
    let scale = if want_sum > 0.0 { work / want_sum } else { 1.0 };
    // prefix cut targets over the chain
    let mut cut = Vec::with_capacity(p);
    let mut acc_t = 0.0;
    for &w in &want {
        acc_t += w * scale;
        cut.push(acc_t);
    }

    let mut owners = vec![0u32; e];
    let mut r = 0usize;
    let mut acc = 0.0f64;
    let mut in_rank = 0usize;
    for gid in 0..e {
        let elems_left = e - gid;
        let ranks_after = p - 1 - r;
        let must_advance = in_rank >= 1 && elems_left == ranks_after;
        let want_advance = in_rank >= 1 && r + 1 < p && acc >= cut[r] && elems_left > ranks_after;
        if must_advance || want_advance {
            r += 1;
            in_rank = 0;
        }
        owners[gid] = r as u32;
        acc += costs[gid];
        in_rank += 1;
    }

    if owners == part.owner_vec() {
        return Decision {
            imbalance,
            owners: None,
        };
    }
    Decision {
        imbalance,
        owners: Some(owners),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_global(e: usize, p: usize, per_elem: u64) -> GlobalCost {
        GlobalCost {
            particles: vec![per_elem; e],
            delay_us: vec![0; p],
        }
    }

    fn chain_part(e: usize, p: usize) -> ElemPartition {
        // contiguous equal blocks along the chain
        let owner = (0..e).map(|gid| (gid * p / e) as u32).collect();
        ElemPartition::from_owner(p, owner)
    }

    #[test]
    fn balanced_load_does_not_trigger() {
        let model = CostModel::for_shape(5, 5);
        let part = chain_part(16, 4);
        let d = decide(&model, &part, &uniform_global(16, 4, 3), 1.10);
        assert!((d.imbalance - 1.0).abs() < 1e-12);
        assert!(d.owners.is_none());
    }

    #[test]
    fn clustered_particles_trigger_and_improve() {
        let model = CostModel::for_shape(5, 5);
        let e = 16;
        let p = 4;
        let part = chain_part(e, p);
        // all particles crowd the first quarter of the chain (rank 0)
        let mut g = uniform_global(e, p, 0);
        for gid in 0..4 {
            g.particles[gid] = 500;
        }
        let d = decide(&model, &part, &g, 1.25);
        assert!(d.imbalance > 1.25, "imbalance {} too low", d.imbalance);
        let owners = d.owners.expect("rebalance must fire");
        let new = ElemPartition::from_owner(p, owners);
        let after = decide(&model, &new, &g, 1.25);
        assert!(
            after.imbalance < d.imbalance * 0.6,
            "imbalance {} -> {} did not improve enough",
            d.imbalance,
            after.imbalance
        );
        // loaded elements spread out: rank 0 no longer owns all of them
        assert!(new.owned_by(0).len() < 4);
    }

    #[test]
    fn decision_is_deterministic_and_converges() {
        let model = CostModel::for_shape(4, 5);
        let e = 24;
        let p = 6;
        let mut part = chain_part(e, p);
        let mut g = uniform_global(e, p, 1);
        for gid in 0..6 {
            g.particles[gid] = 200;
        }
        let first = decide(&model, &part, &g, 1.2);
        assert_eq!(first, decide(&model, &part, &g, 1.2), "not deterministic");
        // iterate: the policy must reach a fixed point (no churn loop)
        let mut hops = 0;
        while let Some(owners) = decide(&model, &part, &g, 1.2).owners {
            part = ElemPartition::from_owner(p, owners);
            hops += 1;
            assert!(hops < 4, "policy churns without converging");
        }
    }

    #[test]
    fn straggler_delay_shrinks_the_slow_ranks_share() {
        let model = CostModel::for_shape(5, 5);
        let e = 32;
        let p = 4;
        let part = chain_part(e, p);
        let mut g = uniform_global(e, p, 10);
        // rank 1 burns the equivalent of ~half the total element work
        let work = model.elem(10) * e as f64;
        g.delay_us[1] = (0.5 * work / model.delay_cost_per_us) as u64;
        let d = decide(&model, &part, &g, 1.1);
        let owners = d.owners.expect("straggler must trigger rebalance");
        let new = ElemPartition::from_owner(p, owners);
        let counts = new.counts();
        assert!(
            counts[1] < counts[0] && counts[1] < counts[2] && counts[1] < counts[3],
            "slow rank kept too many elements: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn every_rank_keeps_an_element_under_extreme_skew() {
        let model = CostModel::for_shape(4, 5);
        let e = 8;
        let p = 8;
        let part = chain_part(e, p);
        let mut g = uniform_global(e, p, 0);
        g.particles[0] = 1_000_000; // one element dwarfs everything
        let d = decide(&model, &part, &g, 1.01);
        // the chain walk may or may not move anything (8 elems over 8
        // ranks is pinned), but any emitted partition must stay total
        if let Some(owners) = d.owners {
            let new = ElemPartition::from_owner(p, owners);
            assert!(new.counts().iter().all(|&c| c >= 1));
        }
    }
}
