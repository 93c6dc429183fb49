//! A rank's mutable run state: the per-partition [`Block`], the particle
//! cloud and the clock — what a checkpoint captures and what a rollback
//! or a rebalance replaces.

use std::f64::consts::PI;

use cmt_core::face;
use cmt_core::Field;
use cmt_gs::GsHandle;
use cmt_mesh::{face_exchange_gids_for, ElemPartition, MeshConfig, RankMesh};
use cmt_particles::{Particle, ParticleSet};
use cmt_perf::Profiler;
use cmt_resilience::{hash, mismatch, App, Decoder, Encoder, Head, Mismatch, Shape};
use simmpi::Rank;

use super::physics::Physics;
use super::stage::{BlockScratch, Elements};
use super::Env;

/// BR1 viscous workspace: the gradient fields plus one face-trace buffer
/// per axis, which the q exchange turns into own + neighbor sums.
pub(super) struct ViscousWs {
    pub nu: f64,
    pub q: [Field; 3],
    pub qfaces: [Vec<f64>; 3],
}

/// Everything on a rank that is bound to its current element set: the
/// solution fields, every scratch buffer, the gather-scatter plan and
/// the elements' interior/halo classification. A load-balancer
/// migration, a rollback onto another partition and the setup each
/// build a whole new block — the timestep loop only ever sees a
/// consistent one. The fields, the face traces and the viscous
/// workspace are sized by the element count; the element pass's scratch,
/// its right-hand side included, holds one element block
/// ([`BlockScratch`]).
pub(super) struct Block {
    /// Global ids of the owned elements, ascending — the local element
    /// order of every buffer below.
    pub owned: Vec<usize>,
    pub nel: usize,
    pub handle: GsHandle,
    /// Which elements' face sums are final inside an exchange window.
    pub elems: Elements,
    pub u: Vec<Field>,
    pub u0: Vec<Field>,
    /// The element pass's block scratch.
    pub work: BlockScratch,
    /// [`Physics::velocity_scratch`].
    pub velocity: Vec<Field>,
    /// Each field's face traces ([`cmt_core::face::full2face`]), which
    /// the exchange turns into own + neighbor sums in place.
    pub faces_all: Vec<Vec<f64>>,
    pub viscous: Option<ViscousWs>,
}

impl Block {
    /// Build the zeroed state block for this rank's share of `part` —
    /// the caller fills the fields (initial condition, checkpoint
    /// restore, or migration merge). Collective: the gather-scatter
    /// setup discovers the face neighbors, so every rank must call it
    /// with the same partition. All scratch is sized here, once per
    /// partition, keeping the steady state allocation-free.
    pub fn for_partition(
        env: &Env,
        rank: &mut Rank,
        prof: &mut Profiler,
        part: &ElemPartition,
    ) -> Block {
        let cfg = &env.cfg;
        let owned = part.owned_by(rank.rank()).to_vec();
        let gids = face_exchange_gids_for(env.mesh_cfg, &owned);
        prof.enter(cmt_perf::regions::GS_SETUP);
        let handle = GsHandle::setup(rank, &gids);
        prof.exit();
        let (n, nel) = (cfg.n, owned.len());
        let fpe = face::face_values_per_element(n);
        let fields = || (0..cfg.fields).map(|_| Field::zeros(n, nel)).collect();
        let work = BlockScratch::new(env, nel);
        Block {
            owned,
            nel,
            elems: Elements::classify(&handle, fpe, nel, work.deriv.nel().div_ceil(4)),
            handle,
            u: fields(),
            u0: fields(),
            work,
            velocity: env
                .physics
                .velocity_scratch(n, nel, cfg.particles_per_elem > 0),
            faces_all: (0..cfg.fields).map(|_| vec![0.0; fpe * nel]).collect(),
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
    pub fn initial(env: &Env, rank: &mut Rank, prof: &mut Profiler, part: ElemPartition) -> State {
        let cfg = &env.cfg;
        let mut blk = Block::for_partition(env, rank, prof, &part);
        fill_initial(
            &env.physics,
            env.mesh_cfg,
            &env.basis.nodes,
            &blk.owned,
            &mut blk.u,
        );
        let dt = env.physics.setup_dt(env, rank, &blk.u);
        let pset = (cfg.particles_per_elem > 0).then(|| {
            let pmesh = RankMesh::new(env.mesh_cfg.clone(), rank.rank());
            let mut ps = ParticleSet::with_variant(pmesh, &env.basis, cfg.variant);
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
        prof: &mut Profiler,
        new_part: ElemPartition,
    ) -> (ElemPartition, Block) {
        let blk = Block::for_partition(env, rank, prof, &new_part);
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
        let Block { u, velocity, .. } = &mut self.blk;
        prof.enter(cmt_perf::regions::PARTICLE_ADVECT);
        ps.advect_field(self.dt, env.physics.tracer_velocity(u, velocity));
        prof.exit();
        prof.enter(cmt_perf::regions::PARTICLE_MIGRATE);
        let sent = ps.migrate(rank).sent as u64;
        prof.exit();
        sent
    }

    /// Encode the loop state at the top of a step (stage 0) into `buf`,
    /// straight from the live state through one
    /// [`cmt_resilience::Encoder`]. The scalars open with the app tag and
    /// the world size ([`Encoder::begin_scalars`]); with the load
    /// balancer on, the full element-owner vector follows (identical on
    /// every rank), so a rollback — or a cross-run restart — can rebuild
    /// the partition the fields were captured under;
    /// [`Physics::carried_dt`] comes last. With particles on, their
    /// `[id, x, y, z]` records ride along as one extra field, written
    /// into the buffer and sorted there by id.
    pub fn encode_checkpoint(&self, env: &Env, rank: &Rank, buf: &mut Vec<u8>) {
        let owners: &[u32] = if env.cfg.lb_every > 0 {
            self.part.owner_vec()
        } else {
            &[]
        };
        let dt = env.physics.carried_dt(self.dt);
        let particles = self.pset.as_ref().map(ParticleSet::particles);
        let values = self.blk.u.iter().map(|f| f.as_slice().len()).sum::<usize>()
            + particles.map_or(0, |ps| 4 * ps.len());
        let shape = Shape {
            scalars: 2 + owners.len() + usize::from(dt.is_some()),
            fields: self.blk.u.len() + usize::from(particles.is_some()),
            values,
        };
        let head = Head {
            rank: rank.rank() as u64,
            step: self.step,
            stage: 0,
            time: self.time,
            rng_state: rank.fault_rng_state().unwrap_or(0),
        };
        let mut enc = Encoder::new(buf, &head, shape);
        enc.begin_scalars(App::CmtBone, rank.size());
        for &r in owners {
            enc.scalar(f64::from(r));
        }
        if let Some(dt) = dt {
            enc.scalar(dt);
        }
        let mut fields = enc.fields();
        for f in &self.blk.u {
            fields.field(f.as_slice());
        }
        if let Some(ps) = particles {
            fields.field_with(4 * ps.len(), |bytes| {
                let (records, _) = bytes.as_chunks_mut::<32>();
                for (rec, p) in records.iter_mut().zip(ps) {
                    let (words, _) = rec.as_chunks_mut::<8>();
                    for (w, v) in words.iter_mut().zip(particle_record(p)) {
                        *w = v.to_le_bytes();
                    }
                }
                // ids are distinct integers below 2^53, exact as `f64`
                let id = |rec: &[u8; 32]| f64::from_le_bytes(*rec.first_chunk().expect("8 bytes"));
                records.sort_unstable_by(|a, b| id(a).total_cmp(&id(b)));
            });
        }
        fields.finish();
    }

    /// Inverse of [`State::encode_checkpoint`], for `--restart` and for
    /// rollback alike: `dec` decodes straight into the fields and the
    /// particle set. When the checkpoint predates a rebalance, the block
    /// is first rebuilt on the checkpoint's partition — its owner vector
    /// is identical on every rank (captured from SPMD-uniform state), so
    /// the collective gather-scatter setup is safe here.
    pub fn restore(
        &mut self,
        env: &Env,
        rank: &mut Rank,
        prof: &mut Profiler,
        mut dec: Decoder,
    ) -> Result<(), Mismatch> {
        let (ck_part, dt) = checkpoint_scalars(&env.physics, &dec, env.mesh_cfg, rank)?;
        if let Some(ck_part) = ck_part.filter(|p| p.owner_vec() != self.part.owner_vec()) {
            self.repartition(env, rank, prof, ck_part);
        }
        // the fields, then one particle record when the run has particles
        for uf in &mut self.blk.u {
            dec.field_into(uf.as_mut_slice())?;
        }
        if let Some(ps) = self.pset.as_mut() {
            let rec = dec.field_bytes()?;
            let (records, rest) = rec.as_chunks::<32>();
            if !rest.is_empty() {
                let values = rec.len() / 8;
                return mismatch!(
                    "a particle record of {values} values is not [id, x, y, z] records"
                );
            }
            let particle = |rec: &[u8; 32]| {
                let words = rec.as_chunks::<8>().0;
                particle_from_record(&[0, 1, 2, 3].map(|i| f64::from_le_bytes(words[i])))
            };
            ps.set_particles(records.iter().map(particle).collect());
        }
        let head = dec.head();
        dec.finish()?;
        self.time = head.time;
        self.step = head.step;
        self.dt = dt.unwrap_or(self.dt);
        rank.set_fault_rng_state(head.rng_state);
        Ok(())
    }

    /// Write this rank's tracers into `rec` as flat `[id, x, y, z]`
    /// records in ascending id order (the checkpoint and migration
    /// layout) for the solution dump; nothing without particles.
    pub fn write_particle_records(&self, rec: &mut Vec<f64>) {
        rec.clear();
        let Some(ps) = self.pset.as_ref() else {
            return;
        };
        rec.extend(ps.particles().iter().flat_map(particle_record));
        // ids are distinct integers below 2^53, exact as `f64`
        let (records, _) = rec.as_chunks_mut::<4>();
        records.sort_unstable_by(|a, b| a[0].total_cmp(&b[0]));
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

/// Write the step-0 profile ([`Physics::initial_factor`]) of every field
/// in `u` on the elements `owned`, in place. The profile is separable, so
/// each element evaluates its `3 n` per-axis factors per field and
/// combines them at its `n^3` points: the same libm calls on the same
/// arguments as a per-point evaluation, hence the same bits.
fn fill_initial(
    physics: &Physics,
    mesh_cfg: &MeshConfig,
    nodes: &[f64],
    owned: &[usize],
    u: &mut [Field],
) {
    let n = nodes.len();
    let lengths = mesh_cfg.global_elems().map(|e| e as f64);
    let mut phase = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
    let mut factor = phase.clone();
    for (e, &gid) in owned.iter().enumerate() {
        let gc = mesh_cfg.elem_coords(gid);
        for (d, t) in phase.iter_mut().enumerate() {
            for (t, &node) in t.iter_mut().zip(nodes) {
                *t = 2.0 * PI * (gc[d] as f64 + (node + 1.0) / 2.0) / lengths[d];
            }
        }
        for (f, uf) in u.iter_mut().enumerate() {
            for (d, (fac, t)) in factor.iter_mut().zip(&phase).enumerate() {
                for (fac, &t) in fac.iter_mut().zip(t) {
                    *fac = physics.initial_factor(f, d, t);
                }
            }
            let [a, b, c] = &factor;
            let mut pts = uf.as_mut_slice()[e * n * n * n..(e + 1) * n * n * n].iter_mut();
            for &c in c {
                for &b in b {
                    for &a in a {
                        *pts.next().expect("n^3 points") = physics.initial_combine(f, [a, b, c]);
                    }
                }
            }
        }
    }
}

/// A particle as one `[id, x, y, z]` record (checkpoints, the solution
/// dump and migration payloads share the layout).
pub(super) fn particle_record(p: &Particle) -> [f64; 4] {
    [p.id as f64, p.pos[0], p.pos[1], p.pos[2]]
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
/// carries. Refused when they cannot come from this configuration — a
/// restart directory written by nekbone, at another world size, by
/// another rank, or under the other physics.
pub(super) fn checkpoint_scalars(
    physics: &Physics,
    dec: &Decoder,
    mesh_cfg: &MeshConfig,
    rank: &Rank,
) -> Result<(Option<ElemPartition>, Option<f64>), Mismatch> {
    let (total, ranks) = (mesh_cfg.total_elems(), rank.size());
    let mut owners = dec.body_scalars(App::CmtBone, rank)?;
    let n = owners.len();
    let is_rank = |r: f64| r.fract() == 0.0 && (0.0..ranks as f64).contains(&r);
    let Some(dt) = physics
        .take_carried_dt(&mut owners)
        .filter(|_| owners.len() == 0 || (owners.len() == total && owners.clone().all(is_rank)))
    else {
        return mismatch!("{n} scalars for {total} elements on {ranks} ranks");
    };
    let part = (owners.len() > 0)
        .then(|| ElemPartition::from_owner(ranks, owners.map(|r| r as u32).collect()));
    Ok((part, dt))
}

#[cfg(test)]
mod tests {
    use std::f64::consts::PI;

    use cmt_core::eos::{IdealGas, Primitive};
    use cmt_core::poly::Basis;

    use cmt_perf::Profiler;
    use cmt_resilience::Checkpoint;
    use simmpi::{FaultPlan, World};

    use super::*;
    use crate::config::Config;
    use crate::driver::balance::setup_partition;
    use crate::driver::Env;

    /// The capture [`State::encode_checkpoint`] replaced, kept as its
    /// oracle: the live state gathered into a [`Checkpoint`].
    fn captured(st: &State, env: &Env, rank: &Rank) -> Checkpoint {
        let mut ckpt = Checkpoint {
            rank: rank.rank() as u64,
            step: st.step,
            stage: 0,
            time: st.time,
            rng_state: rank.fault_rng_state().unwrap_or(0),
            scalars: vec![App::CmtBone.tag(), rank.size() as f64],
            ..Checkpoint::default()
        };
        if env.cfg.lb_every > 0 {
            let owners = st.part.owner_vec().iter().map(|&r| r as f64);
            ckpt.scalars.extend(owners);
        }
        ckpt.scalars.extend(env.physics.carried_dt(st.dt));
        ckpt.fields = st.blk.u.iter().map(|f| f.as_slice().to_vec()).collect();
        if st.pset.is_some() {
            let mut rec = Vec::new();
            st.write_particle_records(&mut rec);
            ckpt.fields.push(rec);
        }
        ckpt
    }

    /// Encoding from the live state writes the bytes
    /// `Checkpoint::encode` writes for the old capture: the proxy, the
    /// proxy with a clustered particle cloud and the balancer (owner
    /// scalars; particles held in reverse id order, so the in-buffer sort
    /// has work to do), and Euler with its carried `dt`. A delay plan
    /// gives the head a fault-RNG state, and the clock is moved off zero.
    #[test]
    fn encoding_from_state_matches_the_captured_checkpoint() {
        let proxy = Config {
            ranks: 2,
            n: 4,
            elems_per_rank: 8,
            fields: 3,
            ..Default::default()
        };
        let multiphase = Config {
            particles_per_elem: 40,
            particle_cluster: Some(0.22),
            lb_every: 2,
            ..proxy.clone()
        };
        let euler = Config {
            euler: true,
            fields: 5,
            ..proxy.clone()
        };
        for cfg in [proxy, multiphase, euler] {
            let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
            let plan = FaultPlan::parse("delay:prob=0.5,us=1;seed=3").unwrap();
            let res = World::new().with_fault_plan(plan).run(cfg.ranks, |rank| {
                let env = Env::new(&cfg, &mesh_cfg, Basis::new(cfg.n));
                let part = if cfg.lb_every > 0 {
                    setup_partition(&cfg, &mesh_cfg).0
                } else {
                    ElemPartition::initial(&mesh_cfg)
                };
                let mut st = State::initial(&env, rank, &mut Profiler::new(), part);
                (st.step, st.time, st.dt) = (6, 0.375, st.dt * 0.75);
                if let Some(ps) = st.pset.as_mut() {
                    let mut reversed = ps.particles().to_vec();
                    reversed.reverse();
                    ps.set_particles(reversed);
                }
                let mut buf = vec![0xAB; 5];
                st.encode_checkpoint(&env, rank, &mut buf);
                (buf, captured(&st, &env, rank))
            });
            for (r, (bytes, ckpt)) in res.results.iter().enumerate() {
                let what = format!(
                    "euler {} particles {} rank {r}",
                    cfg.euler, cfg.particles_per_elem
                );
                assert!(ckpt.rng_state != 0, "{what}: the delay plan sets the RNG");
                assert_eq!(
                    ckpt.scalars.len() > 2,
                    cfg.lb_every > 0 || cfg.euler,
                    "{what}"
                );
                assert!(*bytes == ckpt.encode(), "{what}: bytes differ");
            }
        }
    }

    /// The per-point formula [`fill_initial`] replaced, kept as its
    /// oracle: the field value at `(x, y, z)` from the coordinates.
    fn per_point(physics: &Physics, f: usize, [x, y, z]: [f64; 3], lengths: [f64; 3]) -> f64 {
        let fx = 2.0 * PI * x / lengths[0];
        let fy = 2.0 * PI * y / lengths[1];
        let fz = 2.0 * PI * z / lengths[2];
        match physics {
            Physics::Advection => {
                (fx + 0.3 * f as f64).sin() * fy.cos() + 0.25 * (fz + 0.7 * f as f64).cos()
            }
            Physics::Euler(gas) => gas.conserved(Primitive {
                rho: 1.0 + 0.15 * fx.sin(),
                vel: [0.6, 0.1 * fy.cos(), 0.0],
                p: 1.0,
            })[f],
        }
    }

    /// The table fill writes the per-point formula's bits at every point
    /// of both physics, on a clustered balancer partition and on
    /// hand-picked elements — owned sets that are not boxes.
    #[test]
    fn table_fill_matches_the_per_point_formula_bit_for_bit() {
        for n in [2, 5, 10] {
            let cfg = Config {
                ranks: 2,
                n,
                elems_per_rank: 27,
                particles_per_elem: 64,
                particle_cluster: Some(0.22),
                lb_every: 1,
                lb_threshold: 1.05,
                ..Default::default()
            };
            let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, n, true);
            let (clustered, _) = setup_partition(&cfg, &mesh_cfg);
            assert_ne!(
                clustered.owner_vec(),
                ElemPartition::initial(&mesh_cfg).owner_vec(),
                "the clustered cloud must move the setup partition off the boxes"
            );
            let picked = vec![0, 3, 7, 11, 22, mesh_cfg.total_elems() - 1];
            let lengths = mesh_cfg.global_elems().map(|e| e as f64);
            let nodes = Basis::new(n).nodes;
            for owned in [clustered.owned_by(1).to_vec(), picked] {
                for physics in [Physics::Advection, Physics::Euler(IdealGas::default())] {
                    let mut u: Vec<Field> = (0..5).map(|_| Field::zeros(n, owned.len())).collect();
                    fill_initial(&physics, &mesh_cfg, &nodes, &owned, &mut u);
                    for (f, uf) in u.iter().enumerate() {
                        let want = Field::from_fn(n, owned.len(), |e, i, j, k| {
                            let gc = mesh_cfg.elem_coords(owned[e]);
                            let x = gc[0] as f64 + (nodes[i] + 1.0) / 2.0;
                            let y = gc[1] as f64 + (nodes[j] + 1.0) / 2.0;
                            let z = gc[2] as f64 + (nodes[k] + 1.0) / 2.0;
                            per_point(&physics, f, [x, y, z], lengths)
                        });
                        let bits = |v: &Field| {
                            v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(uf), bits(&want), "n {n}, field {f}, owned {owned:?}");
                    }
                }
            }
        }
    }
}
