//! Probes: layer calls that lie outside the step loop, timed on their own.
//!
//! Every probe takes `samples` samples (30 in a full traced run) of a
//! fixed batch of calls (batch sizes were chosen on the sizing host so a
//! sample lasts at least 10 ms) and reports `Q` of the per-call time. Batches are fixed counts,
//! not time-boxed, so two commits do identical work. Each probe runs at
//! the shape of the workload its metric is read against.

use std::hint::black_box;
use std::time::Instant;

use cmt_core::poly::Basis;
use cmt_core::Field;
use cmt_gs::{autotune, AutotuneOptions, GsHandle};
use cmt_lb::{decide, gather_costs, migrate_blocks, CostModel};
use cmt_mesh::{face_exchange_gids_for, ElemPartition, MeshConfig, RankMesh};
use cmt_particles::ParticleSet;
use cmt_perf::Profiler;
use cmt_resilience::{Checkpoint, Resilience};
use simmpi::{Rank, ReduceOp, SocketConfig, TransportKind, WireCodec, WireReader, World};

use crate::stats::q;
use crate::workloads::RANKS;

/// The socket transport as the `msg_socket` workload uses it.
pub fn socket() -> TransportKind {
    TransportKind::Socket(SocketConfig {
        addr: None,
        threads: true,
    })
}

/// `samples` timings of `batch` calls of `f`, as seconds per call.
fn sample(samples: usize, batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect()
}

/// Run `f` on every rank of a fresh world and return rank 0's result.
fn on_rank0<T: Send + WireCodec>(
    transport: TransportKind,
    f: impl Fn(&mut Rank) -> T + Send + Sync,
) -> T {
    World::new()
        .with_transport(transport)
        .run_dist(RANKS, f)
        .results
        .swap_remove(0)
}

fn mesh_of(cfg: &cmt_bone::Config) -> MeshConfig {
    MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true)
}

/// `GsHandle::setup` on the face-exchange ids of `cfg`'s shape: seconds
/// per call, and `(shared_slots, neighbors)` of rank 0's handle.
pub fn gs_setup(samples: usize, cfg: &cmt_bone::Config) -> (f64, (u64, u64)) {
    let mesh_cfg = mesh_of(cfg);
    let (samples, topology) = on_rank0(TransportKind::Inproc, |rank| {
        let part = ElemPartition::initial(&mesh_cfg);
        let gids = face_exchange_gids_for(&mesh_cfg, part.owned_by(rank.rank()));
        let mut topology = (0, 0);
        let samples = sample(samples, 1, || {
            let st = GsHandle::setup(rank, &gids).stats();
            topology = (st.shared_slots as u64, st.neighbors as u64);
        });
        (samples, topology)
    });
    (q(&samples), topology)
}

/// `cmt_gs::autotune` on `cfg`'s face-exchange handle: seconds per call
/// and the number of distinct winners over the first ten calls — why no
/// workload leaves the method to the autotune.
pub fn gs_autotune(samples: usize, cfg: &cmt_bone::Config) -> (f64, usize) {
    let mesh_cfg = mesh_of(cfg);
    let (samples, winners) = on_rank0(TransportKind::Inproc, |rank| {
        let part = ElemPartition::initial(&mesh_cfg);
        let gids = face_exchange_gids_for(&mesh_cfg, part.owned_by(rank.rank()));
        let handle = GsHandle::setup(rank, &gids);
        let mut winners = Vec::new();
        let samples = sample(samples, 1, || {
            let rep = autotune(rank, &handle, AutotuneOptions::default());
            winners.push(rep.chosen as u64);
        });
        (samples, winners)
    });
    let mut first_ten = winners[..winners.len().min(10)].to_vec();
    first_ten.sort_unstable();
    first_ten.dedup();
    (q(&samples), first_ten.len())
}

/// `World::run_dist` of a no-op on two ranks, seconds per world.
pub fn world_spawn(samples: usize, transport: &TransportKind, batch: usize) -> f64 {
    let world = World::new().with_transport(transport.clone());
    q(&sample(samples, batch, || {
        black_box(world.run_dist(RANKS, |rank| rank.rank() as u64));
    }))
}

/// Round trip of `len` f64 values between ranks 0 and 1, seconds.
pub fn pingpong(samples: usize, transport: &TransportKind, len: usize, batch: usize) -> f64 {
    const TAG: u64 = 77;
    q(&on_rank0(transport.clone(), |rank| {
        let buf = vec![1.0f64; len];
        let first = rank.rank() == 0;
        sample(samples, batch, || {
            if first {
                rank.send(1, TAG, &buf);
                black_box(rank.recv::<f64>(1, TAG));
            } else {
                black_box(rank.recv::<f64>(0, TAG));
                rank.send(0, TAG, &buf);
            }
        })
    }))
}

/// `Rank::allreduce_scalar`, seconds per call.
pub fn allreduce(samples: usize, transport: &TransportKind, batch: usize) -> f64 {
    q(&on_rank0(transport.clone(), |rank| {
        let mut v = 1.0;
        sample(samples, batch, || {
            v = rank.allreduce_scalar(v, ReduceOp::Max)
        })
    }))
}

/// `Rank::crystal_router_into` exchanging one `len`-value message with
/// the other rank, seconds per call.
pub fn crystal(samples: usize, len: usize, batch: usize) -> f64 {
    q(&on_rank0(TransportKind::Inproc, |rank| {
        let other = 1 - rank.rank();
        let mut payload = vec![1.0f64; len];
        let mut outgoing = Vec::new();
        let mut arrived = Vec::new();
        sample(samples, batch, || {
            outgoing.push((other, std::mem::take(&mut payload)));
            rank.crystal_router_into(&mut outgoing, &mut arrived);
            payload = arrived.pop().expect("one message from the other rank").1;
        })
    }))
}

/// The public `WireCodec` on a `len`-value `Vec<f64>`: `(encode, decode)`
/// seconds per call.
pub fn wire_codec(samples: usize, len: usize, batch: usize) -> (f64, f64) {
    let v: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
    let mut buf = Vec::new();
    let enc = sample(samples, batch, || {
        buf.clear();
        black_box(&v).encode(&mut buf);
    });
    let dec = sample(samples, batch, || {
        let back = Vec::<f64>::decode(&mut WireReader::new(black_box(&buf)));
        black_box(back.expect("decodes what encode wrote"));
    });
    (q(&enc), q(&dec))
}

/// `ElemPartition::initial` + `face_exchange_gids_for` (the id set the
/// cmt-bone driver hands to `GsHandle::setup`), seconds per call.
pub fn mesh_gids(samples: usize, cfg: &cmt_bone::Config, batch: usize) -> f64 {
    let mesh_cfg = mesh_of(cfg);
    q(&sample(samples, batch, || {
        let part = ElemPartition::initial(black_box(&mesh_cfg));
        black_box(face_exchange_gids_for(&mesh_cfg, part.owned_by(0)));
    }))
}

/// The clustered cloud of `cfg` on `rank`, as the driver seeds it.
fn seeded(cfg: &cmt_bone::Config, mesh_cfg: &MeshConfig, rank: usize) -> ParticleSet {
    let mut ps = ParticleSet::new(RankMesh::new(mesh_cfg.clone(), rank), &Basis::new(cfg.n));
    ps.seed_clustered(
        cfg.particles_per_elem,
        cfg.particle_cluster.expect("a clustered cloud"),
    );
    ps
}

/// `ParticleSet::counts_per_owned` with stale bins (the per-step cell
/// binning), seconds per call on rank 0's cloud.
pub fn particle_bin(samples: usize, cfg: &cmt_bone::Config, batch: usize) -> f64 {
    let mesh_cfg = mesh_of(cfg);
    let part = ElemPartition::initial(&mesh_cfg);
    let mut ps = seeded(cfg, &mesh_cfg, 0);
    q(&sample(samples, batch, || {
        ps.set_partition(part.clone()); // marks the bins stale
        black_box(ps.counts_per_owned());
    }))
}

/// The load balancer's three calls at `cfg`'s shape, on the initial
/// clustered cloud: `(gather_costs, decide, migrate_blocks there and
/// back)` seconds per call, and the elements one direction moves.
pub fn load_balancer(
    samples: usize,
    cfg: &cmt_bone::Config,
    batches: (usize, usize),
) -> (f64, f64, f64, usize) {
    let mesh_cfg = mesh_of(cfg);
    let n3 = cfg.n * cfg.n * cfg.n;
    let (timings, moved) = on_rank0(TransportKind::Inproc, |rank| {
        let me = rank.rank();
        let part = ElemPartition::initial(&mesh_cfg);
        let counts = seeded(cfg, &mesh_cfg, me).counts_per_owned();
        let gather = sample(samples, batches.0, || {
            black_box(gather_costs(rank, &part, &counts, 0));
        });
        let global = gather_costs(rank, &part, &counts, 0);
        let model = CostModel::for_shape(cfg.n, cfg.fields);
        let decide_s = sample(samples, batches.1, || {
            black_box(decide(&model, &part, black_box(&global), cfg.lb_threshold));
        });
        let owners = decide(&model, &part, &global, cfg.lb_threshold)
            .owners
            .expect("the clustered cloud triggers a rebalance");
        let new_part = ElemPartition::from_owner(RANKS, owners);
        let element = vec![1.0f64; cfg.fields * n3 + 1];
        let mut moved = 0;
        let migrate = sample(samples, 1, || {
            let there = migrate_blocks(
                rank,
                &part,
                &new_part,
                |_| element.clone(),
                |_, d| {
                    black_box(d);
                },
            );
            let back = migrate_blocks(
                rank,
                &new_part,
                &part,
                |_| element.clone(),
                |_, d| {
                    black_box(d);
                },
            );
            moved = there.elems_sent + back.elems_sent;
        });
        (vec![gather, decide_s, migrate], moved as u64)
    });
    (
        q(&timings[0]),
        q(&timings[1]),
        q(&timings[2]),
        moved as usize,
    )
}

/// Checkpoint codec and save at `cfg`'s shape, rank 0's state (fields,
/// owner vector, particle records): `(encode, decode, save)` seconds per
/// call and the encoded size in bytes.
pub fn checkpoint(samples: usize, cfg: &cmt_bone::Config, batch: usize) -> (f64, f64, f64, usize) {
    let mesh_cfg = mesh_of(cfg);
    let n3 = cfg.n * cfg.n * cfg.n;
    let (timings, bytes) = on_rank0(TransportKind::Inproc, |rank| {
        let me = rank.rank();
        let part = ElemPartition::initial(&mesh_cfg);
        let ps = seeded(cfg, &mesh_cfg, me);
        let mut fields = vec![vec![0.5f64; n3 * cfg.elems_per_rank]; cfg.fields];
        fields.push(
            ps.particles()
                .iter()
                .flat_map(|p| [p.id as f64, p.pos[0], p.pos[1], p.pos[2]])
                .collect(),
        );
        let ckpt = Checkpoint {
            rank: me as u64,
            step: 0,
            stage: 0,
            time: 0.0,
            rng_state: 0,
            scalars: part.owner_vec().iter().map(|&r| r as f64).collect(),
            fields,
        };
        let bytes = ckpt.encode();
        let enc = sample(samples, batch, || {
            black_box(black_box(&ckpt).encode());
        });
        let dec = sample(samples, batch, || {
            black_box(Checkpoint::decode(black_box(&bytes)).expect("decodes what encode wrote"));
        });
        let mut rz = Resilience::new(1, None);
        let save = sample(samples, batch, || {
            black_box(rz.save(rank, &ckpt));
        });
        (vec![enc, dec, save], bytes.len() as u64)
    });
    (
        q(&timings[0]),
        q(&timings[1]),
        q(&timings[2]),
        bytes as usize,
    )
}

/// `nekbone::cg::glsc3` (weighted local dot + allreduce) at `cfg`'s
/// shape, seconds per call.
pub fn nekbone_dot(samples: usize, cfg: &nekbone::Config, batch: usize) -> f64 {
    q(&on_rank0(TransportKind::Inproc, |rank| {
        let mut a = Field::zeros(cfg.n, cfg.elems_per_rank);
        a.fill(0.5);
        let inv_mult = vec![0.5; a.len()];
        sample(samples, batch, || {
            black_box(nekbone::cg::glsc3(rank, &a, &a, &inv_mult));
        })
    }))
}

/// One `Profiler::enter` + `exit` pair, seconds.
pub fn profiler_region(samples: usize, batch: usize) -> f64 {
    let mut prof = Profiler::new();
    q(&sample(samples, batch, || {
        prof.enter(black_box("probe"));
        prof.exit();
    }))
}
