//! The flat exchange plan a [`crate::GsHandle`] runs on.
//!
//! Every distinct global id on a rank falls in exactly one class:
//!
//! * **halo** — shared with at least one neighbor rank. Its local slots
//!   sit in one CSR (`halo_offsets`/`halo_slots`), groups in ascending
//!   gid; each neighbor's list is a list of halo positions, and because
//!   both sides order by gid, position `i` of our list and of theirs name
//!   the same id.
//! * **interior pair** — exactly two local copies and no remote one: the
//!   DG face case. Pairs are kept as runs `[a, b, len]`: slots
//!   `a..a + len` pair with `b..b + len` in order, so the combine sweeps
//!   two disjoint slices (a DG face's points are contiguous on both
//!   sides). Runs are sorted by `a`, so the sweep streams through the
//!   value array.
//! * **interior multi** — three or more local copies, none remote
//!   (nekbone's rank-interior edges and vertices). A second CSR.
//! * **singleton** — one copy in the whole world. No combine can change
//!   it, so it appears nowhere in the plan.
//!
//! Building the plan is a pure function of the local ids and the gids
//! each neighbor shares ([`Plan::from_sorted`]); the discovery phase that
//! finds the latter lives in `handle.rs`, and sorts the ids once for both.

/// [`Plan::slot_halo`] entry of a slot that belongs to no halo group.
pub(crate) const NOT_HALO: u32 = u32::MAX;

/// Exchange topology with one touching neighbor rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NeighborList {
    /// The neighbor's rank.
    pub rank: usize,
    /// Halo positions shared with this neighbor, ascending (hence
    /// ascending gid, the order the neighbor's own list has).
    pub halo: Vec<u32>,
}

/// Flat index arrays of one rank's gather–scatter; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Plan {
    /// Distinct global ids on this rank, singletons included.
    pub distinct: usize,
    /// Global id of each halo group, ascending.
    pub halo_gids: Vec<u64>,
    /// CSR offsets into `halo_slots`, one more than halo groups.
    pub halo_offsets: Vec<u32>,
    /// Local slots of the halo groups, ascending within a group.
    pub halo_slots: Vec<u32>,
    /// Per-neighbor halo lists, ascending rank.
    pub neighbors: Vec<NeighborList>,
    /// Rank-interior ids with two local copies as runs `[a, b, len]`:
    /// slot `a + i` pairs with `b + i` for `i < len`, `a + len <= b`.
    /// Sorted by `a`, and maximal: no run continues the one before it.
    pub runs: Vec<[u32; 3]>,
    /// CSR offsets into `multi_slots`, one more than multi groups.
    pub multi_offsets: Vec<u32>,
    /// Local slots of rank-interior ids with three or more copies,
    /// ascending within a group.
    pub multi_slots: Vec<u32>,
    /// Per local slot: its halo position, or [`NOT_HALO`].
    pub slot_halo: Vec<u32>,
}

/// `ids` paired with their slots and sorted: each gid's copies form one
/// run, slots ascending within it — the documented local combine order.
///
/// # Panics
/// Panics if there are `u32::MAX` slots or more.
pub(crate) fn sorted_by_gid(ids: &[u64]) -> Vec<(u64, u32)> {
    assert!(
        ids.len() < NOT_HALO as usize,
        "gs plan indexes slots with u32"
    );
    let mut by_gid: Vec<(u64, u32)> = ids.iter().copied().zip(0..).collect();
    by_gid.sort_unstable();
    by_gid
}

impl Plan {
    /// [`Plan::from_sorted`] on unsorted `ids`, one global id per local
    /// slot.
    #[cfg(test)]
    pub fn build(ids: &[u64], shared: &[(usize, Vec<u64>)]) -> Plan {
        Plan::from_sorted(&sorted_by_gid(ids), shared)
    }

    /// Classify the ids of `by_gid`, already paired with their slots and
    /// sorted ([`sorted_by_gid`]), against `shared`, the gids each
    /// neighbor rank also holds.
    ///
    /// # Panics
    /// Panics if a neighbor is said to share a gid that `by_gid` lacks.
    pub fn from_sorted(by_gid: &[(u64, u32)], shared: &[(usize, Vec<u64>)]) -> Plan {
        let mut halo_gids: Vec<u64> = shared.iter().flat_map(|(_, g)| g).copied().collect();
        halo_gids.sort_unstable();
        halo_gids.dedup();

        let mut plan = Plan {
            halo_offsets: vec![0],
            multi_offsets: vec![0],
            slot_halo: vec![NOT_HALO; by_gid.len()],
            ..Plan::default()
        };
        let mut pairs = Vec::new();
        for run in by_gid.chunk_by(|a, b| a.0 == b.0) {
            plan.distinct += 1;
            let slots = run.iter().map(|&(_, slot)| slot);
            // both sequences ascend, so the next halo gid is the only candidate
            if halo_gids.get(plan.halo_offsets.len() - 1) == Some(&run[0].0) {
                let h = plan.halo_offsets.len() as u32 - 1;
                for &(_, slot) in run {
                    plan.slot_halo[slot as usize] = h;
                }
                plan.halo_slots.extend(slots);
                plan.halo_offsets.push(plan.halo_slots.len() as u32);
            } else if run.len() == 2 {
                pairs.push([run[0].1, run[1].1]);
            } else if run.len() > 2 {
                plan.multi_slots.extend(slots);
                plan.multi_offsets.push(plan.multi_slots.len() as u32);
            }
        }
        assert_eq!(
            plan.halo_offsets.len() - 1,
            halo_gids.len(),
            "a neighbor shares a global id this rank does not hold"
        );
        pairs.sort_unstable();
        plan.runs = runs_of(&pairs);

        plan.neighbors = shared
            .iter()
            .map(|(rank, gids)| {
                let mut halo: Vec<u32> = gids
                    .iter()
                    .map(|g| halo_gids.binary_search(g).expect("gid is in the union") as u32)
                    .collect();
                halo.sort_unstable();
                halo.dedup();
                NeighborList { rank: *rank, halo }
            })
            .collect();
        plan.neighbors.sort_by_key(|nl| nl.rank);
        plan.halo_gids = halo_gids;
        plan
    }

    /// The halo groups in ascending gid, each a slice of local slots.
    pub fn halo_groups(&self) -> impl Iterator<Item = &[u32]> {
        csr_groups(&self.halo_offsets, &self.halo_slots)
    }

    /// The interior multi groups, each a slice of three or more slots.
    pub fn multi_groups(&self) -> impl Iterator<Item = &[u32]> {
        csr_groups(&self.multi_offsets, &self.multi_slots)
    }
}

/// `pairs`, each `[lower, higher]` slot and sorted, merged into maximal
/// runs: a pair joins the run before it when both of its slots follow
/// on. The run stays disjoint (`a + len <= b`) because every slot is in
/// one pair only, so slot `b` can never follow on from `a + len - 1`.
fn runs_of(pairs: &[[u32; 2]]) -> Vec<[u32; 3]> {
    let mut runs: Vec<[u32; 3]> = Vec::new();
    for &[a, b] in pairs {
        match runs.last_mut() {
            Some([ra, rb, len]) if *ra + *len == a && *rb + *len == b => *len += 1,
            _ => runs.push([a, b, 1]),
        }
    }
    runs
}

fn csr_groups<'a>(offsets: &'a [u32], slots: &'a [u32]) -> impl Iterator<Item = &'a [u32]> {
    offsets
        .windows(2)
        .map(|w| &slots[w[0] as usize..w[1] as usize])
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use simmpi::rng::SmallRng;

    use super::*;

    /// The classification of the module docs, built from ordered maps:
    /// the oracle the plan is checked against.
    pub(crate) fn oracle(ids: &[u64], shared: &[(usize, Vec<u64>)]) -> Plan {
        let mut slots: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (slot, &gid) in (0..).zip(ids) {
            slots.entry(gid).or_default().push(slot);
        }
        let mut sharers: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        for (rank, gids) in shared {
            for &gid in gids {
                sharers.entry(gid).or_default().insert(*rank);
            }
        }
        let mut plan = Plan {
            distinct: slots.len(),
            halo_offsets: vec![0],
            multi_offsets: vec![0],
            slot_halo: vec![NOT_HALO; ids.len()],
            ..Plan::default()
        };
        let mut by_rank: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        // interior pairs, lower slot to higher
        let mut pairs: BTreeMap<u32, u32> = BTreeMap::new();
        for (&gid, s) in &slots {
            if let Some(ranks) = sharers.get(&gid) {
                let h = plan.halo_gids.len() as u32;
                plan.halo_gids.push(gid);
                for &slot in s {
                    plan.slot_halo[slot as usize] = h;
                }
                plan.halo_slots.extend(s);
                plan.halo_offsets.push(plan.halo_slots.len() as u32);
                for &rank in ranks {
                    by_rank.entry(rank).or_default().push(h);
                }
            } else if s.len() == 2 {
                pairs.insert(s[0], s[1]);
            } else if s.len() > 2 {
                plan.multi_slots.extend(s);
                plan.multi_offsets.push(plan.multi_slots.len() as u32);
            }
        }
        // A run starts at each pair whose slots do not both follow on
        // from another pair's, and takes every pair that does, in turn.
        for (&a, &b) in &pairs {
            if a > 0 && pairs.get(&(a - 1)) == Some(&(b - 1)) {
                continue;
            }
            let len = (1..)
                .take_while(|&i| pairs.get(&(a + i)) == Some(&(b + i)))
                .count() as u32;
            plan.runs.push([a, b, len + 1]);
        }
        let covered: u32 = plan.runs.iter().map(|r| r[2]).sum();
        assert_eq!(covered as usize, pairs.len(), "every pair in one run");
        plan.neighbors = by_rank
            .into_iter()
            .map(|(rank, halo)| NeighborList { rank, halo })
            .collect();
        plan
    }

    /// Fisher-Yates with the seeded generator.
    pub(crate) fn shuffle<T>(rng: &mut SmallRng, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.range_usize(0, i + 1));
        }
    }

    /// Seeded trials: distinct gids of 1-4 local copies in shuffled
    /// slots (even trials) or laid out twice in the same order with gaps,
    /// so interior pairs form runs (odd trials), each shared with a
    /// random set of neighbor ranks listed in random order. Gids span the
    /// full `u64` range.
    #[test]
    fn random_plans_match_the_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x6E5_0047);
        let mut longest = 0;
        for trial in 0..300 {
            let mut gids: Vec<u64> = (0..rng.range_usize(0, 80))
                .map(|_| match rng.range_usize(0, 3) {
                    0 => rng.range_u64(0, 200),
                    _ => rng.next_u64(),
                })
                .collect();
            gids.sort_unstable();
            gids.dedup();
            let ids: Vec<u64> = if trial % 2 == 0 {
                let mut ids: Vec<u64> = gids
                    .iter()
                    .flat_map(|&gid| std::iter::repeat_n(gid, rng.range_usize(1, 5)))
                    .collect();
                shuffle(&mut rng, &mut ids);
                ids
            } else {
                // the DG face layout: the ids, then most of them again in
                // the same order, so pairs form runs with gaps
                let again: Vec<u64> = gids
                    .iter()
                    .copied()
                    .filter(|_| rng.range_usize(0, 5) != 0)
                    .collect();
                [&gids[..], &again].concat()
            };
            let mut ranks: Vec<usize> = (0..16).collect();
            shuffle(&mut rng, &mut ranks);
            let shared: Vec<(usize, Vec<u64>)> = ranks[..rng.range_usize(0, 6)]
                .iter()
                .filter_map(|&rank| {
                    let mut mine: Vec<u64> = gids
                        .iter()
                        .copied()
                        .filter(|_| rng.range_usize(0, 3) == 0)
                        .collect();
                    shuffle(&mut rng, &mut mine);
                    (!mine.is_empty()).then_some((rank, mine))
                })
                .collect();
            let plan = Plan::build(&ids, &shared);
            assert_eq!(
                plan,
                oracle(&ids, &shared),
                "trial {trial}: ids {ids:?}, shared {shared:?}"
            );
            longest = plan.runs.iter().map(|r| r[2]).fold(longest, u32::max);
        }
        assert!(longest > 8, "no trial formed a long run ({longest})");
    }

    #[test]
    fn classifies_halo_pair_multi_and_singleton() {
        //            slot: 0   1   2   3   4   5   6   7   8   9
        let ids = [40, 7, 40, 9, 7, 5, 9, 9, 3, 40];
        // gid 7 is shared with rank 2, gid 3 with ranks 2 and 5
        let plan = Plan::build(&ids, &[(5, vec![3]), (2, vec![3, 7])]);
        assert_eq!(plan.distinct, 5);
        assert_eq!(plan.halo_gids, [3, 7]);
        let halo: Vec<&[u32]> = plan.halo_groups().collect();
        assert_eq!(halo, [&[8][..], &[1, 4][..]]);
        // gid 40 (three copies) and gid 9 (three copies) are interior multi
        let multi: Vec<&[u32]> = plan.multi_groups().collect();
        assert_eq!(multi, [&[3, 6, 7][..], &[0, 2, 9][..]]);
        // gid 5 is a singleton: it appears nowhere
        assert!(plan.runs.is_empty());
        assert_eq!(plan.slot_halo[5], NOT_HALO);
        assert_eq!(plan.slot_halo[8], 0);
        assert_eq!(plan.slot_halo[1], 1);
        assert_eq!(plan.slot_halo[4], 1);
        assert_eq!(plan.slot_halo.iter().filter(|&&h| h != NOT_HALO).count(), 3);
    }

    #[test]
    fn pairs_are_sorted_by_slot_not_gid() {
        let ids = [90, 10, 50, 50, 10, 90, 1];
        let plan = Plan::build(&ids, &[]);
        assert_eq!(plan.runs, [[0, 5, 1], [1, 4, 1], [2, 3, 1]]);
        assert!(plan.halo_gids.is_empty());
        assert!(plan.neighbors.is_empty());
        assert_eq!(plan.multi_groups().count(), 0);
        assert_eq!(plan.distinct, 4);
    }

    #[test]
    fn contiguous_pairs_form_one_run_per_stretch() {
        //    slot: 0  1  2  3  4  5  6  7  8  9
        let ids = [5, 6, 7, 8, 1, 5, 6, 7, 2, 8];
        let plan = Plan::build(&ids, &[]);
        assert_eq!(plan.runs, [[0, 5, 3], [3, 9, 1]]);
        // gid 6 shared with a neighbor splits the first stretch
        let plan = Plan::build(&ids, &[(1, vec![6])]);
        assert_eq!(plan.runs, [[0, 5, 1], [2, 7, 1], [3, 9, 1]]);
    }

    #[test]
    fn neighbor_lists_align_by_gid_on_both_sides() {
        // Two ranks holding gids {11, 22, 33} in different slot orders
        // and each also sharing something with a third rank.
        let a = Plan::build(&[33, 11, 22, 11, 8], &[(1, vec![11, 22, 33]), (2, vec![8])]);
        let b = Plan::build(&[22, 33, 4, 11], &[(0, vec![33, 11, 22]), (2, vec![4])]);
        let gids_of = |plan: &Plan, rank: usize| -> Vec<u64> {
            let nl = plan.neighbors.iter().find(|nl| nl.rank == rank).unwrap();
            nl.halo
                .iter()
                .map(|&h| plan.halo_gids[h as usize])
                .collect()
        };
        assert_eq!(gids_of(&a, 1), [11, 22, 33]);
        assert_eq!(gids_of(&a, 1), gids_of(&b, 0));
        // neighbors come out in ascending rank whatever order they went in
        let unordered = Plan::build(&[1, 2], &[(3, vec![2]), (0, vec![1])]);
        let ranks: Vec<usize> = unordered.neighbors.iter().map(|nl| nl.rank).collect();
        assert_eq!(ranks, [0, 3]);
        // a halo id with several local copies keeps them ascending
        assert_eq!(a.halo_groups().nth(1), Some(&[1, 3][..]));
    }

    #[test]
    fn empty_ids_give_an_empty_plan() {
        let plan = Plan::build(&[], &[]);
        assert_eq!(plan.distinct, 0);
        assert_eq!(plan.halo_offsets, [0]);
        assert_eq!(plan.multi_offsets, [0]);
        assert!(plan.slot_halo.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn sharing_an_absent_gid_is_a_bug() {
        let _ = Plan::build(&[1, 2], &[(1, vec![3])]);
    }
}
