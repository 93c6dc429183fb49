//! A rank's mutable run state: the per-partition [`Block`], the particle
//! cloud and the clock — what a checkpoint captures and what a rollback
//! or a rebalance replaces.

use cmt_core::face;
use cmt_core::Field;
use cmt_gs::GsHandle;
use cmt_mesh::{face_exchange_gids_for, ElemPartition, MeshConfig, RankMesh};
use cmt_particles::{Particle, ParticleSet};
use cmt_perf::Profiler;
use cmt_resilience::{hash, Checkpoint};
use simmpi::Rank;

use super::physics::Physics;
use super::Env;

/// BR1 viscous workspace: the gradient fields plus one face-trace buffer
/// per axis, which the q exchange turns into own + neighbor sums.
pub(super) struct ViscousWs {
    pub nu: f64,
    pub q: [Field; 3],
    pub qfaces: [Vec<f64>; 3],
}

/// Everything on a rank that is sized by (and bound to) its current
/// element set: the solution fields, every scratch buffer and the
/// gather-scatter plan. A load-balancer migration replaces the whole
/// block — the timestep loop only ever sees a consistent one.
pub(super) struct Block {
    /// Global ids of the owned elements, ascending — the local element
    /// order of every buffer below.
    pub owned: Vec<usize>,
    pub nel: usize,
    pub handle: GsHandle,
    pub u: Vec<Field>,
    pub u0: Vec<Field>,
    pub rhs_all: Vec<Field>,
    pub scratch: Field,
    /// [`Physics::flux_scratch`].
    pub flux: Vec<Field>,
    /// Each field's face traces ([`cmt_core::face::full2face`]), which
    /// the exchange turns into own + neighbor sums in place.
    pub faces_all: Vec<Vec<f64>>,
    /// Fine-mesh dealias buffer (empty when dealiasing is off); the
    /// interpolation matrices are partition-independent and live in
    /// [`Env`].
    pub dealias_fine: Vec<f64>,
    /// Dealias contraction scratch: one `t1/t2` pair.
    pub dealias_scratch: Vec<f64>,
    pub viscous: Option<ViscousWs>,
}

impl Block {
    /// Build the zeroed state block for this rank's share of `part` —
    /// the caller fills the fields (initial condition, checkpoint
    /// restore, or migration merge). Collective: the gather-scatter
    /// setup discovers the face neighbors, so every rank must call it
    /// with the same partition. All scratch is sized here, once per
    /// partition, keeping the steady state allocation-free.
    pub fn for_partition(env: &Env, rank: &mut Rank, part: &ElemPartition) -> Block {
        let cfg = &env.cfg;
        let owned = part.owned_by(rank.rank()).to_vec();
        let gids = face_exchange_gids_for(env.mesh_cfg, &owned);
        let handle = GsHandle::setup(rank, &gids);
        let (n, nel) = (cfg.n, owned.len());
        let fpe = face::face_values_per_element(n);
        let fields = || (0..cfg.fields).map(|_| Field::zeros(n, nel)).collect();
        Block {
            owned,
            nel,
            handle,
            u: fields(),
            u0: fields(),
            rhs_all: fields(),
            scratch: Field::zeros(n, nel),
            flux: env.physics.flux_scratch(n, nel),
            faces_all: (0..cfg.fields).map(|_| vec![0.0; fpe * nel]).collect(),
            dealias_fine: vec![0.0; cfg.dealias_m.map_or(0, |m| m * m * m * nel)],
            dealias_scratch: vec![0.0; cfg.dealias_m.map_or(0, |m| 2 * m.max(n).pow(3))],
            viscous: cfg.viscosity.map(|nu| ViscousWs {
                nu,
                q: std::array::from_fn(|_| Field::zeros(n, nel)),
                qfaces: std::array::from_fn(|_| vec![0.0; fpe * nel]),
            }),
        }
    }
}

/// What a checkpoint captures: the element partition, the block built
/// on it, the particle cloud, and the clock.
pub(super) struct State {
    pub part: ElemPartition,
    pub blk: Block,
    pub pset: Option<ParticleSet>,
    pub time: f64,
    pub step: u64,
    /// The timestep ([`Physics::setup_dt`], [`Physics::cfl_reduce`]).
    pub dt: f64,
}

impl State {
    /// The step-0 state on `part`: fields on their smooth initial
    /// profiles, particles seeded, and the stable timestep. Collective
    /// (builds the block; the setup dt may reduce).
    pub fn initial(env: &Env, rank: &mut Rank, part: ElemPartition) -> State {
        let cfg = &env.cfg;
        let mut blk = Block::for_partition(env, rank, &part);
        let lengths = env.mesh_cfg.global_elems().map(|e| e as f64);
        let nodes = &env.basis.nodes;
        for (f, uf) in blk.u.iter_mut().enumerate() {
            *uf = Field::from_fn(cfg.n, blk.nel, |e, i, j, k| {
                let gc = env.mesh_cfg.elem_coords(blk.owned[e]);
                let x = gc[0] as f64 + (nodes[i] + 1.0) / 2.0;
                let y = gc[1] as f64 + (nodes[j] + 1.0) / 2.0;
                let z = gc[2] as f64 + (nodes[k] + 1.0) / 2.0;
                env.physics.initial_value(f, [x, y, z], lengths)
            });
        }
        let dt = env.physics.setup_dt(env, rank, &blk.u);
        let pset = (cfg.particles_per_elem > 0).then(|| {
            let pmesh = RankMesh::new(env.mesh_cfg.clone(), rank.rank());
            let mut ps = ParticleSet::new(pmesh, &env.basis);
            ps.set_partition(part.clone());
            ps.seed(cfg.particles_per_elem, cfg.particle_cluster);
            ps
        });
        State {
            part,
            blk,
            pset,
            time: 0.0,
            step: 0,
            dt,
        }
    }

    /// Replace this rank's block with a zeroed one for `new_part`
    /// (collective: gather-scatter setup) and hand back the partition
    /// and block it replaced. Departing residents must already be
    /// drained from the particle set.
    pub fn repartition(
        &mut self,
        env: &Env,
        rank: &mut Rank,
        new_part: ElemPartition,
    ) -> (ElemPartition, Block) {
        let blk = Block::for_partition(env, rank, &new_part);
        if let Some(ps) = self.pset.as_mut() {
            ps.set_partition(new_part.clone());
        }
        (
            std::mem::replace(&mut self.part, new_part),
            std::mem::replace(&mut self.blk, blk),
        )
    }

    /// Particle phase: advect in the end-of-step field, then migrate;
    /// returns how many particles left this rank. Interpolation is
    /// per-element with identical arithmetic on every partition, and each
    /// element's residents are kept in particle-id order — the phase is
    /// bitwise partition-independent, like the field physics.
    pub fn particle_phase(&mut self, env: &Env, rank: &mut Rank, prof: &mut Profiler) -> u64 {
        let Some(ps) = self.pset.as_mut() else {
            return 0;
        };
        let Block { u, flux, .. } = &mut self.blk;
        prof.enter(cmt_perf::regions::PARTICLE_ADVECT);
        ps.advect_field(self.dt, env.physics.tracer_velocity(u, flux));
        prof.exit();
        prof.enter(cmt_perf::regions::PARTICLE_MIGRATE);
        let sent = ps.migrate(rank).sent as u64;
        prof.exit();
        sent
    }

    /// Capture the loop state at the top of a step (stage 0). With the
    /// load balancer on, the scalars record the full element-owner
    /// vector (identical on every rank), so a rollback — or a cross-run
    /// restart — can rebuild the partition the fields were captured
    /// under; [`Physics::carried_dt`] follows as the last scalar.
    /// With particles on, their `[id, x, y, z]` records ride along as
    /// one extra field entry.
    pub fn capture(&self, env: &Env, rank: &Rank) -> Checkpoint {
        let mut scalars: Vec<f64> = if env.cfg.lb_every > 0 {
            self.part.owner_vec().iter().map(|&r| r as f64).collect()
        } else {
            Vec::new()
        };
        scalars.extend(env.physics.carried_dt(self.dt));
        let mut fields: Vec<Vec<f64>> = self.blk.u.iter().map(|f| f.as_slice().to_vec()).collect();
        fields.extend(self.particle_records());
        Checkpoint {
            rank: rank.rank() as u64,
            step: self.step,
            stage: 0,
            time: self.time,
            rng_state: rank.fault_rng_state().unwrap_or(0),
            scalars,
            fields,
        }
    }

    /// Inverse of [`State::capture`], for `--restart` and for rollback
    /// alike. When the checkpoint predates a rebalance, the block is
    /// first rebuilt on the checkpoint's partition — its owner vector is
    /// identical on every rank (captured from SPMD-uniform state), so
    /// the collective gather-scatter setup is safe here.
    pub fn restore(&mut self, env: &Env, rank: &mut Rank, ckpt: &Checkpoint) {
        let (ck_part, dt) = checkpoint_scalars(&env.physics, ckpt, env.mesh_cfg, rank.size());
        if let Some(ck_part) = ck_part.filter(|p| p.owner_vec() != self.part.owner_vec()) {
            self.repartition(env, rank, ck_part);
        }
        // the checkpoint may carry one trailing particle record beyond
        // the field set
        let nf = self.blk.u.len();
        assert!(
            ckpt.fields.len() == nf || ckpt.fields.len() == nf + 1,
            "checkpoint holds {} fields, run has {nf}",
            ckpt.fields.len()
        );
        for (uf, cf) in self.blk.u.iter_mut().zip(&ckpt.fields) {
            assert_eq!(
                uf.as_slice().len(),
                cf.len(),
                "checkpoint field size mismatch"
            );
            uf.as_mut_slice().copy_from_slice(cf);
        }
        if let Some(ps) = self.pset.as_mut() {
            assert_eq!(
                ckpt.fields.len(),
                nf + 1,
                "checkpoint has no particle record"
            );
            let rec = &ckpt.fields[nf];
            assert_eq!(rec.len() % 4, 0, "corrupt particle checkpoint record");
            ps.set_particles(rec.chunks_exact(4).map(particle_from_record).collect());
        }
        self.time = ckpt.time;
        self.step = ckpt.step;
        self.dt = dt.unwrap_or(self.dt);
        rank.set_fault_rng_state(ckpt.rng_state);
    }

    /// This rank's tracers as flat `[id, x, y, z]` records in ascending
    /// id order (the checkpoint and migration layout); `None` without
    /// particles. Sorted here, at capture cadence, rather than on every
    /// particle migration.
    pub fn particle_records(&self) -> Option<Vec<f64>> {
        let ps = self.pset.as_ref()?;
        let mut by_id = ps.particles().to_vec();
        by_id.sort_unstable_by_key(|p| p.id);
        let mut rec = Vec::with_capacity(by_id.len() * 4);
        for p in &by_id {
            rec.push(p.id as f64);
            rec.extend_from_slice(&p.pos);
        }
        Some(rec)
    }

    /// Hash the final state element by element: each owned element's
    /// bytes across every field, then its resident particles (ascending
    /// by id). Returns `(gids, hashes)`; they are merged host-side in
    /// ascending global-id order, so the combined fingerprint does not
    /// depend on which rank ended up owning which element — the property
    /// the load-balancer identity tests rely on.
    pub fn hash_elements(&mut self) -> (Vec<u64>, Vec<u64>) {
        let n3 = self.blk.u[0].n().pow(3);
        let mut hashes = vec![hash::FNV_OFFSET; self.blk.nel];
        for f in &self.blk.u {
            hash::fnv1a_f64s_lockstep(&mut hashes, f.as_slice(), n3);
        }
        if let Some(ps) = self.pset.as_mut() {
            for (slot, h) in hashes.iter_mut().enumerate() {
                for p in ps.residents_of(slot) {
                    hash::fnv1a(h, &p.id.to_le_bytes());
                    hash::fnv1a_f64s(h, &p.pos);
                }
            }
        }
        let gids = self.blk.owned.iter().map(|&gid| gid as u64).collect();
        (gids, hashes)
    }
}

/// One `[id, x, y, z]` record back to a particle (checkpoints and
/// migration payloads share the layout).
pub(super) fn particle_from_record(c: &[f64]) -> Particle {
    Particle {
        id: c[0] as u64,
        pos: [c[1], c[2], c[3]],
    }
}

/// A checkpoint's scalars: the element partition it was captured under
/// (recorded when the load balancer is on) and the timestep the physics
/// carries. Panics when they cannot come from this configuration — a
/// restart directory written by another run, e.g. under the other
/// physics.
pub(super) fn checkpoint_scalars(
    physics: &Physics,
    ckpt: &Checkpoint,
    mesh_cfg: &MeshConfig,
    ranks: usize,
) -> (Option<ElemPartition>, Option<f64>) {
    let total = mesh_cfg.total_elems();
    let is_rank = |r: &f64| r.fract() == 0.0 && (0.0..ranks as f64).contains(r);
    let (owners, dt) = physics
        .split_carried_dt(&ckpt.scalars)
        .filter(|(o, _)| o.is_empty() || (o.len() == total && o.iter().all(is_rank)))
        .unwrap_or_else(|| {
            panic!(
                "checkpoint does not match this configuration: {} scalars for {total} \
                 elements on {ranks} ranks",
                ckpt.scalars.len()
            )
        });
    let part = (!owners.is_empty())
        .then(|| ElemPartition::from_owner(ranks, owners.iter().map(|&r| r as u32).collect()));
    (part, dt)
}
