//! `gs_setup`: the discovery phase and the exchange-topology handle.

use std::cell::RefCell;

use simmpi::{Rank, RecvRequest, ReduceOp};

use crate::plan::{sorted_by_gid, Plan, NOT_HALO};

/// A configured gather–scatter handle (the result of `gs_setup`).
///
/// Reusable across any number of [`GsHandle::gs_op`] calls on value arrays
/// of the length it was set up with.
///
/// ```
/// use cmt_gs::{GsHandle, GsMethod, GsOp};
/// use simmpi::World;
///
/// // two ranks sharing global id 7: gs_op(Add) combines across ranks
/// let res = World::new().run(2, |rank| {
///     let ids = if rank.rank() == 0 { vec![7, 1] } else { vec![2, 7] };
///     let handle = GsHandle::setup(rank, &ids);
///     let mut vals = vec![10.0 * (rank.rank() + 1) as f64; 2];
///     handle.gs_op(rank, &mut vals, GsOp::Add, GsMethod::PairwiseExchange);
///     vals
/// });
/// assert_eq!(res.results[0], vec![30.0, 10.0]); // 10 + 20 at the shared id
/// assert_eq!(res.results[1], vec![20.0, 30.0]);
/// ```
#[derive(Debug, Clone)]
pub struct GsHandle {
    /// The flat exchange plan every `gs_op` runs on.
    pub(crate) plan: Plan,
    /// Globally consistent compact index (dense `0..total_compact`) of
    /// each halo group, used by the all_reduce method.
    pub(crate) halo_compact: Vec<u64>,
    /// Total distinct global ids across the world (the all_reduce vector
    /// length).
    pub(crate) total_compact: u64,
    /// Persistent-plan staging buffers, reused across `gs_op` calls (the
    /// owned-staging half of gslib's persistent handles).
    pub(crate) bufs: RefCell<PlanBufs>,
}

/// Owned staging buffers of a handle's persistent exchange plan. Every
/// vector here is cleared and refilled in place each `gs_op`, so the
/// steady state recycles capacity instead of allocating:
///
/// * `combined`/`reqs`/`arrays` — stacks of per-operation buffers (stacks
///   rather than single slots so several split-phase operations may be in
///   flight on one handle at once);
/// * `outgoing`/`arrived` — the crystal-router message lists, whose
///   payload vectors cycle rank-to-rank through the router and back;
/// * `dense` — the all_reduce method's vector over the compact global id
///   universe.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanBufs {
    pub combined: Vec<Vec<f64>>,
    pub reqs: Vec<Vec<RecvRequest>>,
    pub arrays: Vec<Vec<(usize, usize)>>,
    pub outgoing: Vec<(usize, Vec<f64>)>,
    pub arrived: Vec<(usize, Vec<f64>)>,
    pub dense: Vec<f64>,
}

/// Summary statistics of a handle's topology, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandleStats {
    /// Length of the local value array.
    pub nlocal: usize,
    /// Distinct global ids on this rank.
    pub distinct_local: usize,
    /// Number of touching neighbor ranks.
    pub neighbors: usize,
    /// Total shared (rank-boundary) id slots summed over neighbors — the
    /// per-`gs_op` send volume in values.
    pub shared_slots: usize,
    /// Total distinct global ids in the world.
    pub total_global: u64,
}

impl GsHandle {
    /// Run the discovery phase on `ids` (one global id per local value
    /// slot) and build the exchange topology.
    ///
    /// Collective: every rank of the world must call it with its own ids.
    pub fn setup(rank: &mut Rank, ids: &[u64]) -> GsHandle {
        rank.with_context("gs_setup", |rank| Self::setup_inner(rank, ids))
    }

    fn setup_inner(rank: &mut Rank, ids: &[u64]) -> GsHandle {
        let p = rank.size();
        let me = rank.rank();
        let home = |gid: u64| (gid % p as u64) as usize;

        // One sort of (gid, slot): its runs are round 1's distinct gids,
        // and the plan is built from it without sorting again. The round
        // buffers are sized from counts before they are filled, and each
        // is dropped when its round is done: these transients, not the
        // plan, set a small run's peak memory.
        let by_gid = sorted_by_gid(ids);
        let gid_runs = || by_gid.chunk_by(|a, b| a.0 == b.0).map(|run| run[0].0);

        // ---- round 1: report each distinct gid to its home rank ---------
        let mut per_home = vec![0; p];
        for gid in gid_runs() {
            per_home[home(gid)] += 1;
        }
        let mut to_home: Vec<Vec<u64>> = per_home.into_iter().map(Vec::with_capacity).collect();
        for gid in gid_runs() {
            to_home[home(gid)].push(gid);
        }
        let reported = rank.alltoallv(to_home);

        // ---- home side: sharer lists + compact numbering ----------------
        // Each reporter's gids ascend, so the (gid, reporter) pairs are p
        // ascending runs in reporter order, which a stable sort by gid
        // merges. Each run of one gid is then its sharer list in
        // ascending rank (a rank reports a gid once), and the run's
        // position is the gid's deterministic compact number at this home.
        let mut held: Vec<(u64, u64)> = Vec::with_capacity(reported.iter().map(Vec::len).sum());
        for (src, gids) in reported.into_iter().enumerate() {
            held.extend(gids.into_iter().map(|gid| (gid, src as u64)));
        }
        held.sort_by_key(|&(gid, _)| gid);
        let held_runs = || held.chunk_by(|a, b| a.0 == b.0);
        // Exclusive prefix over per-home distinct counts gives each home
        // its compact-id base; the sum is the universe size.
        let my_count = held_runs().count() as u64;
        let my_base = rank.exscan_u64(my_count);
        let total_compact = rank.allreduce_u64(&[my_count], ReduceOp::Sum)[0];

        // ---- round 2: answer each reporter ------------------------------
        // Per reporter: flat u64 records [gid, compact, nsharers, sharers...]
        let mut reply_len = vec![0; p];
        for run in held_runs() {
            for &(_, src) in run {
                reply_len[src as usize] += 3 + run.len();
            }
        }
        let mut replies: Vec<Vec<u64>> = reply_len.into_iter().map(Vec::with_capacity).collect();
        for (compact, run) in (my_base..).zip(held_runs()) {
            for &(gid, src) in run {
                let reply = &mut replies[src as usize];
                reply.extend([gid, compact, run.len() as u64]);
                reply.extend(run.iter().map(|&(_, sharer)| sharer));
            }
        }
        drop(held);
        let answers = rank.alltoallv(replies);

        // ---- parse answers: remote sharers + compact ids of shared gids --
        let mut shared_with: Vec<(usize, u64)> = Vec::new(); // (neighbor, gid)
        let mut compact_of: Vec<(u64, u64)> = Vec::new(); // (gid, compact)
        for buf in &answers {
            let mut i = 0;
            while i < buf.len() {
                let (gid, compact, ns) = (buf[i], buf[i + 1], buf[i + 2] as usize);
                let sharers = &buf[i + 3..i + 3 + ns];
                i += 3 + ns;
                // this rank is always among the sharers
                if ns > 1 {
                    compact_of.push((gid, compact));
                }
                shared_with.extend(
                    sharers
                        .iter()
                        .filter(|&&q| q as usize != me)
                        .map(|&q| (q as usize, gid)),
                );
            }
        }
        drop(answers);

        // ---- the plan: neighbor lists sorted by gid on both sides --------
        shared_with.sort_unstable();
        let shared: Vec<(usize, Vec<u64>)> = shared_with
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, gid)| gid).collect()))
            .collect();
        let plan = Plan::from_sorted(&by_gid, &shared);
        compact_of.sort_unstable();
        debug_assert!(compact_of.iter().map(|c| &c.0).eq(&plan.halo_gids));

        GsHandle {
            plan,
            halo_compact: compact_of.into_iter().map(|(_, compact)| compact).collect(),
            total_compact,
            bufs: RefCell::new(PlanBufs::default()),
        }
    }

    /// Length of the value arrays this handle operates on.
    pub fn nlocal(&self) -> usize {
        self.plan.slot_halo.len()
    }

    /// Topology summary.
    pub fn stats(&self) -> HandleStats {
        HandleStats {
            nlocal: self.nlocal(),
            distinct_local: self.plan.distinct,
            neighbors: self.plan.neighbors.len(),
            shared_slots: self.plan.neighbors.iter().map(|nl| nl.halo.len()).sum(),
            total_global: self.total_compact,
        }
    }

    /// Total distinct global ids in the world (the all_reduce method's
    /// dense-vector length).
    pub fn total_global_ids(&self) -> u64 {
        self.total_compact
    }

    /// Per-slot flags: `true` iff the slot's value can change under any
    /// `gs_op` — its global id either appears more than once locally or
    /// is shared with a neighbor rank. Slots flagged `false` are
    /// *interior*: no combine, by any method, reads or writes them, so
    /// they stay bitwise untouched and work on them may safely run
    /// inside a split-phase overlap window, before
    /// [`GsHandle::gs_op_finish`] lands the combined values. Flagged
    /// slots are the ones a caller must not write inside that window.
    pub fn shared_slot_flags(&self) -> Vec<bool> {
        let plan = &self.plan;
        let mut flags: Vec<bool> = plan.slot_halo.iter().map(|&h| h != NOT_HALO).collect();
        for &[a, b, len] in &plan.runs {
            flags[a as usize..][..len as usize].fill(true);
            flags[b as usize..][..len as usize].fill(true);
        }
        for &slot in &plan.multi_slots {
            flags[slot as usize] = true;
        }
        flags
    }

    /// Per slot, in slot order: `true` iff the slot's id is shared with
    /// a neighbor rank — the slots whose combined value lands only when
    /// an exchange finishes. Inside a [`GsHandle::overlapped`] window
    /// every slot flagged `false` already holds its final value.
    pub fn halo_slots(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        self.plan.slot_halo.iter().map(|&h| h != NOT_HALO)
    }

    /// The multiplicity (total occurrence count across the world) of each
    /// local slot's id — computed with a unit `gs_op(Add)`; commonly used
    /// to build the inverse-multiplicity weights of an averaging exchange.
    pub fn multiplicities(&self, rank: &mut Rank, method: crate::GsMethod) -> Vec<f64> {
        let mut ones = vec![1.0; self.nlocal()];
        self.gs_op(rank, &mut ones, crate::GsOp::Add, method);
        ones
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use simmpi::rng::SmallRng;
    use simmpi::World;

    use super::*;
    use crate::plan::tests::{oracle, shuffle};

    /// Discovery end to end on seeded worlds: every gid has 1-4 copies
    /// placed on random ranks, and each rank's plan must equal the oracle
    /// classification against the gids it really shares, with one
    /// compact number per gid, the same on every rank that holds it.
    #[test]
    fn discovered_plans_match_the_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x6E5_5E7);
        for p in [1, 2, 3, 5] {
            for trial in 0..8 {
                let ngids = rng.range_usize(0, 120);
                let mut held: Vec<Vec<u64>> = vec![Vec::new(); p];
                let mut gids = BTreeSet::new();
                while gids.len() < ngids {
                    gids.insert(rng.range_u64(0, 4 * ngids as u64 + 1));
                }
                for &gid in &gids {
                    for _ in 0..rng.range_usize(1, 5) {
                        held[rng.range_usize(0, p)].push(gid);
                    }
                }
                for ids in &mut held {
                    shuffle(&mut rng, ids);
                }
                let world = held.clone();
                let res = World::new().run(p, move |rank| {
                    let h = GsHandle::setup(rank, &world[rank.rank()]);
                    (h.plan, h.halo_compact, h.total_compact)
                });
                let mut compact_of: BTreeMap<u64, u64> = BTreeMap::new();
                for (r, (plan, halo_compact, total)) in res.results.into_iter().enumerate() {
                    let mine: BTreeSet<u64> = held[r].iter().copied().collect();
                    let shared: Vec<(usize, Vec<u64>)> = (0..p)
                        .filter(|&q| q != r)
                        .map(|q| {
                            let theirs: BTreeSet<u64> = held[q].iter().copied().collect();
                            (q, mine.intersection(&theirs).copied().collect::<Vec<_>>())
                        })
                        .filter(|(_, g)| !g.is_empty())
                        .collect();
                    let what = format!("p {p}, trial {trial}, rank {r}");
                    assert_eq!(plan, oracle(&held[r], &shared), "{what}");
                    assert_eq!(total, gids.len() as u64, "{what}");
                    for (&gid, &c) in plan.halo_gids.iter().zip(&halo_compact) {
                        assert!(c < total, "{what}");
                        assert_eq!(*compact_of.entry(gid).or_insert(c), c, "{what}");
                    }
                }
                let numbers: BTreeSet<u64> = compact_of.values().copied().collect();
                assert_eq!(
                    numbers.len(),
                    compact_of.len(),
                    "one compact number per gid"
                );
            }
        }
    }
}
