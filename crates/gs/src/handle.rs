//! `gs_setup`: the discovery phase and the exchange-topology handle.

use std::cell::RefCell;

use simmpi::{Rank, RecvRequest, ReduceOp};

use crate::plan::{Plan, NOT_HALO};

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

        // ---- round 1: report each distinct gid to its home rank ---------
        let mut distinct = ids.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut to_home: Vec<Vec<u64>> = vec![Vec::new(); p];
        for gid in distinct {
            to_home[(gid % p as u64) as usize].push(gid);
        }
        let reported = rank.alltoallv(to_home);

        // ---- home side: sharer lists + compact numbering ----------------
        // Sorted (gid, reporter) pairs: each run is one gid's sharer list
        // in ascending rank (a rank reports a gid once), and the run's
        // position is the gid's deterministic compact number at this home.
        let mut held: Vec<(u64, u64)> = reported
            .iter()
            .enumerate()
            .flat_map(|(src, gids)| gids.iter().map(move |&gid| (gid, src as u64)))
            .collect();
        held.sort_unstable();
        // Exclusive prefix over per-home distinct counts gives each home
        // its compact-id base; the sum is the universe size.
        let my_count = held.chunk_by(|a, b| a.0 == b.0).count() as u64;
        let my_base = rank.exscan_u64(my_count);
        let total_compact = rank.allreduce_u64(&[my_count], ReduceOp::Sum)[0];

        // ---- round 2: answer each reporter ------------------------------
        // Per reporter: flat u64 records [gid, compact, nsharers, sharers...]
        let mut replies: Vec<Vec<u64>> = vec![Vec::new(); p];
        for (compact, run) in (my_base..).zip(held.chunk_by(|a, b| a.0 == b.0)) {
            for &(gid, src) in run {
                let reply = &mut replies[src as usize];
                reply.extend([gid, compact, run.len() as u64]);
                reply.extend(run.iter().map(|&(_, sharer)| sharer));
            }
        }
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

        // ---- the plan: neighbor lists sorted by gid on both sides --------
        shared_with.sort_unstable();
        let shared: Vec<(usize, Vec<u64>)> = shared_with
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, gid)| gid).collect()))
            .collect();
        let plan = Plan::build(ids, &shared);
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

    /// Ranks this handle exchanges with, ascending.
    pub fn neighbor_ranks(&self) -> Vec<usize> {
        self.plan.neighbors.iter().map(|nl| nl.rank).collect()
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
        for &slot in plan.pairs.iter().flatten().chain(&plan.multi_slots) {
            flags[slot as usize] = true;
        }
        flags
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
