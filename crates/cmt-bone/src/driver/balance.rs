//! The load balancer in the driver: the first decision at setup, on the
//! seeded cloud, and the step that monitors the per-element cost and,
//! when the policy fires, migrates elements (with their resident
//! particles) onto the new partition.

use std::collections::HashMap;

use cmt_lb::{decide, gather_costs, migrate_blocks, CostModel, GlobalCost};
use cmt_mesh::{ElemPartition, MeshConfig};
use cmt_particles::{seeded_count, Particle};
use cmt_perf::Profiler;
use simmpi::Rank;

use super::block::{particle_from_record, particle_record, State};
use super::Env;
use crate::config::Config;
use crate::report::LbSummary;

/// The balancer's first decision, taken before the block is built: the
/// step-0 particle counts are a pure function of the configuration
/// ([`seeded_count`]) and no delay has been injected yet, so every rank
/// feeds `decide` the same integers with no gather and adopts the same
/// partition. Returns that partition (the Cartesian one when the policy
/// keeps it) and the imbalance the Cartesian partition reads.
pub(super) fn setup_partition(cfg: &Config, mesh_cfg: &MeshConfig) -> (ElemPartition, f64) {
    let cartesian = ElemPartition::initial(mesh_cfg);
    let seeded = GlobalCost {
        particles: (0..mesh_cfg.total_elems())
            .map(|gid| {
                seeded_count(mesh_cfg, cfg.particles_per_elem, cfg.particle_cluster, gid) as u64
            })
            .collect(),
        delay_us: vec![0; cartesian.ranks()],
    };
    let model = CostModel::for_shape(cfg.n, cfg.fields);
    let decision = decide(&model, &cartesian, &seeded, cfg.lb_threshold);
    let part = match decision.owners {
        Some(owners) => ElemPartition::from_owner(cartesian.ranks(), owners),
        None => cartesian,
    };
    (part, decision.imbalance)
}

/// Evaluate the balancer between two steps and adopt the new partition
/// if it fires. Runs on SPMD-uniform inputs (one allgather), so every
/// rank reaches the identical decision with no extra synchronization.
pub(super) fn balance(
    env: &Env,
    rank: &mut Rank,
    prof: &mut Profiler,
    st: &mut State,
    lb: &mut LbSummary,
) {
    prof.enter(cmt_perf::regions::LB_MONITOR);
    let model = CostModel::for_shape(env.cfg.n, env.cfg.fields);
    let ps = st.pset.as_mut().expect("validate(): lb requires particles");
    let counts = ps.counts_per_owned();
    let delay_us = rank.injected_delay_us();
    let global = gather_costs(rank, &st.part, &counts, delay_us);
    let decision = decide(&model, &st.part, &global, env.cfg.lb_threshold);
    lb.peak_imbalance = lb.peak_imbalance.max(decision.imbalance);
    prof.exit();
    let Some(owners) = decision.owners else {
        return;
    };

    prof.enter(cmt_perf::regions::LB_MIGRATE);
    let new_part = ElemPartition::from_owner(rank.size(), owners);
    let me = rank.rank();
    let (fields, n3) = (env.cfg.fields, env.cfg.n.pow(3));
    // Drain departing residents first, keyed by gid, so the element pack
    // below can ship them with their element.
    let dep: HashMap<usize, Vec<Particle>> = ps
        .split_off_elems(|gid| new_part.owner_of(gid) != me)
        .into_iter()
        .collect();
    let shipped: usize = dep.values().map(|v| v.len()).sum();
    // Rebuild the block on the new partition first (collective gs setup —
    // every rank is here, by the SPMD argument above), so arrivals can
    // unpack straight into it.
    let (old_part, old) = st.repartition(env, rank, prof, new_part);
    let (part, nb) = (&st.part, &mut st.blk);
    let ps = st.pset.as_mut().expect("checked above");
    // Kept elements copy over; gained elements are written by the unpack
    // callback below, each placed at its new local slot as its frame is
    // walked — no intermediate copy.
    let mut expected_gained = 0usize;
    for (slot, &gid) in nb.owned.iter().enumerate() {
        if old_part.owner_of(gid) != me {
            expected_gained += 1;
            continue;
        }
        let (_, old_slot) = old_part.slot_of(gid);
        for (nf, of) in nb.u.iter_mut().zip(&old.u) {
            nf.as_mut_slice()[slot * n3..(slot + 1) * n3]
                .copy_from_slice(&of.as_slice()[old_slot * n3..(old_slot + 1) * n3]);
        }
    }
    let mut gained = 0usize;
    let mstats = migrate_blocks(
        rank,
        &old_part,
        part,
        |gid| {
            let (_, slot) = old_part.slot_of(gid);
            let res = dep.get(&gid).map_or(&[][..], |v| v.as_slice());
            let mut vals = Vec::with_capacity(fields * n3 + 1 + res.len() * 4);
            for uf in &old.u {
                vals.extend_from_slice(&uf.as_slice()[slot * n3..(slot + 1) * n3]);
            }
            vals.push(res.len() as f64);
            vals.extend(res.iter().flat_map(particle_record));
            vals
        },
        |gid, data| {
            assert_ne!(old_part.owner_of(gid), me, "arrival for a kept element");
            let (owner, slot) = part.slot_of(gid);
            assert_eq!(owner, me, "migration routing mismatch");
            gained += 1;
            for (f, nf) in nb.u.iter_mut().enumerate() {
                nf.as_mut_slice()[slot * n3..(slot + 1) * n3]
                    .copy_from_slice(&data[f * n3..(f + 1) * n3]);
            }
            let npart = data[fields * n3] as usize;
            let rec = &data[fields * n3 + 1..];
            assert_eq!(rec.len(), npart * 4, "corrupt migrated particle record");
            for c in rec.chunks_exact(4) {
                ps.insert(particle_from_record(c));
            }
        },
    );
    assert_eq!(gained, expected_gained, "unconsumed migration arrivals");
    lb.rebalances += 1;
    lb.elems_moved += mstats.elems_sent as u64;
    lb.particles_moved += shipped as u64;
    prof.exit();
}
