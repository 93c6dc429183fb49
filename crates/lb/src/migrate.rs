//! The element migration engine: ship per-element state blocks to their
//! new owners over the pooled crystal router.
//!
//! The engine is deliberately payload-agnostic: the driver packs
//! whatever one element's state is (conserved-field values, resident
//! particle records, ...) into a flat `Vec<f64>` and unpacks it on
//! arrival. What lives here is the routing: bucket departing elements
//! by destination, run one crystal-router exchange (all-to-all capable,
//! pooled buffers, [`simmpi::MpiOp::CrystalRouter`] semantics), and
//! hand back arrivals in ascending global-id order so every receiver
//! rebuilds its local element list deterministically. The traffic is
//! badged as the dedicated `lb_migrate` mpiP operation under the `lb`
//! call-site context, so both mini-app drivers surface migration volume
//! as a first-class row in their Fig. 9/10-style reports.

use cmt_mesh::ElemPartition;
use simmpi::{MpiOp, Rank};

/// Traffic accounting for one migration pass (this rank's view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationStats {
    /// Elements shipped away.
    pub elems_sent: usize,
    /// Elements received.
    pub elems_received: usize,
    /// Payload f64 values shipped (excluding framing).
    pub values_sent: usize,
    /// Payload f64 values received (excluding framing).
    pub values_received: usize,
}

/// Ship every element this rank owns under `old` but not under `new` to
/// its new owner; receive the elements this rank gains. `pack(gid)` is
/// called once per departing element (ascending gid) and must produce
/// the element's complete state; `unpack(gid, payload)` is called once
/// per gained element, borrowing the payload straight out of the
/// arriving router frame — no per-element copy. Arrival order is
/// deterministic (sorted by source rank, ascending gid within a
/// source) but not globally gid-sorted; receivers that need a
/// particular layout should place by `new.slot_of(gid)`.
///
/// Collective over the world — every rank must call it, including ranks
/// that neither lose nor gain elements.
///
/// # Panics
/// Panics if the two partitions disagree on shape or a payload frame is
/// corrupt on arrival.
pub fn migrate_blocks(
    rank: &mut Rank,
    old: &ElemPartition,
    new: &ElemPartition,
    mut pack: impl FnMut(usize) -> Vec<f64>,
    mut unpack: impl FnMut(usize, &[f64]),
) -> MigrationStats {
    assert_eq!(old.total_elems(), new.total_elems(), "partition shape");
    assert_eq!(old.ranks(), new.ranks(), "partition ranks");
    let me = rank.rank();
    let mut stats = MigrationStats::default();
    // wire format per element: [gid, nvals, vals...] — gids and lengths
    // fit f64 exactly (far below 2^53)
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); new.ranks()];
    for &gid in old.owned_by(me) {
        let dest = new.owner_of(gid);
        if dest == me {
            continue;
        }
        let payload = pack(gid);
        stats.elems_sent += 1;
        stats.values_sent += payload.len();
        let b = &mut buckets[dest];
        b.push(gid as f64);
        b.push(payload.len() as f64);
        b.extend_from_slice(&payload);
    }
    let outgoing: Vec<(usize, Vec<f64>)> = buckets
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .collect();
    let arrived = rank.with_context("lb", |rank| {
        rank.with_op_badge(MpiOp::LbMigrate, |rank| rank.crystal_router(outgoing))
    });
    for (_src, data) in &arrived {
        let mut at = 0usize;
        while at < data.len() {
            assert!(at + 2 <= data.len(), "truncated migration frame");
            let gid = data[at] as usize;
            let nvals = data[at + 1] as usize;
            at += 2;
            assert!(at + nvals <= data.len(), "truncated migration payload");
            assert_eq!(new.owner_of(gid), me, "element {gid} misrouted");
            stats.elems_received += 1;
            stats.values_received += nvals;
            unpack(gid, &data[at..at + nvals]);
            at += nvals;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_mesh::MeshConfig;
    use simmpi::World;

    #[test]
    fn blocks_arrive_intact_and_sorted() {
        let ranks = 4usize;
        let cfg = MeshConfig::for_ranks(ranks, 4, 4, true);
        let e = cfg.total_elems();
        // rotate every element one rank forward
        let old = ElemPartition::initial(&cfg);
        let new_owner: Vec<u32> = (0..e)
            .map(|gid| ((old.owner_of(gid) + 1) % ranks) as u32)
            .collect();
        let res = World::new().run(ranks, move |rank| {
            let old = ElemPartition::initial(&cfg);
            let new = ElemPartition::from_owner(ranks, new_owner.clone());
            let mut blocks: Vec<(usize, Vec<f64>)> = Vec::new();
            let stats = migrate_blocks(
                rank,
                &old,
                &new,
                |gid| {
                    // payload encodes its own gid with variable length
                    vec![gid as f64; gid % 3 + 1]
                },
                |gid, vals| blocks.push((gid, vals.to_vec())),
            );
            // everything moved: sent all owned, received the new set
            assert_eq!(stats.elems_sent, old.owned_by(rank.rank()).len());
            assert_eq!(blocks.len(), new.owned_by(rank.rank()).len());
            // delivery order is per-source; gid-sort to compare sets
            blocks.sort_by_key(|&(gid, _)| gid);
            let gids: Vec<usize> = blocks.iter().map(|&(g, _)| g).collect();
            assert_eq!(gids, new.owned_by(rank.rank()), "wrong element set");
            for (gid, vals) in &blocks {
                assert_eq!(vals.len(), gid % 3 + 1);
                assert!(vals.iter().all(|&v| v == *gid as f64));
            }
            stats
        });
        let sent: usize = res.results.iter().map(|s| s.elems_sent).sum();
        let recv: usize = res.results.iter().map(|s| s.elems_received).sum();
        assert_eq!(sent, e);
        assert_eq!(recv, e);
        // badged as lb_migrate, not crystal_router, under the lb context
        for s in &res.stats {
            assert!(s.site(MpiOp::LbMigrate, "lb").is_some());
            assert!(s.site(MpiOp::CrystalRouter, "lb").is_none());
        }
    }

    #[test]
    fn unchanged_partition_moves_nothing() {
        let ranks = 2usize;
        let cfg = MeshConfig::for_ranks(ranks, 8, 4, true);
        let res = World::new().run(ranks, move |rank| {
            let part = ElemPartition::initial(&cfg);
            let stats = migrate_blocks(
                rank,
                &part,
                &part,
                |_| panic!("nothing departs"),
                |_, _| panic!("nothing arrives"),
            );
            stats
        });
        for s in res.results {
            assert_eq!(s, MigrationStats::default());
        }
    }
}
