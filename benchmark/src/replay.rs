//! Step replay: one cmt-bone RK step / one nekbone CG iteration re-created
//! from public calls into the layer crates, with a span around each call.
//!
//! The drivers' step loops are private, so the per-layer numbers cannot
//! be read from inside them without touching `crates/`. The replay makes
//! the same calls in the same order on the same data — its final
//! checksum (cmt-bone) or residual (nekbone) is compared with the
//! driver's, so the spans are known to time the same arithmetic. What the
//! replay cannot see (the drivers' profiler regions, report gathering) is
//! reported as `cmt-bone.other_ms`.

use std::collections::HashMap;
use std::f64::consts::PI;
use std::time::Instant;

use cmt_core::face;
use cmt_core::kernels;
use cmt_core::ops::{advect_volume_rhs, upwind_face_correction, ElementGeom};
use cmt_core::poly::Basis;
use cmt_core::{rk, Field};
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_lb::{decide, gather_costs, migrate_blocks, CostModel};
use cmt_mesh::{face_exchange_gids_for, ElemPartition, MeshConfig, RankMesh};
use cmt_particles::{Particle, ParticleSet};
use cmt_resilience::{Checkpoint, Resilience};
use nekbone::ax::AxOperator;
use simmpi::{Rank, ReduceOp, World};

use crate::trace::{self, Name, Span, Tracer};
use crate::workloads::{Program, RANKS};

/// What one replay produced.
pub struct Replay {
    /// Spans per rank, of the traced units.
    pub spans: Vec<Vec<Span>>,
    /// Wall seconds of every replayed step of every unit, averaged over
    /// ranks, in step order (measured around the step, traced or not).
    pub step_s: Vec<f64>,
    /// cmt-bone: the global field checksum after the first unit; nekbone:
    /// the residual norm after the first unit. Compared with the driver.
    pub oracle: f64,
}

impl Replay {
    /// Per step, the self seconds of each span name averaged over ranks.
    /// Within one rank the names of a step add up to the step.
    pub fn layer_s_per_step(&self) -> Vec<HashMap<Name, f64>> {
        let mut steps: Vec<HashMap<Name, f64>> = Vec::new();
        for rank_spans in &self.spans {
            for (i, step) in trace::self_time_per_step(rank_spans)
                .into_iter()
                .enumerate()
            {
                if steps.len() <= i {
                    steps.push(HashMap::new());
                }
                for (name, secs) in step {
                    *steps[i].entry(name).or_insert(0.0) += secs / self.spans.len() as f64;
                }
            }
        }
        steps
    }
}

/// Replay `units` fresh units of `program` (one unit as long as the
/// driver's) on the program's own transport, recording spans in the units
/// for which `traced(unit)` holds.
pub fn replay(program: &Program, units: usize, traced: impl Fn(usize) -> bool + Sync) -> Replay {
    let epoch = Instant::now();
    let transport = match program {
        Program::Bone(c) => c.transport.clone(),
        Program::Nek(c) => c.transport.clone(),
    };
    let world = World::new().with_transport(transport);
    // per rank: (spans, step seconds, oracle value)
    let res = world.run_dist(RANKS, |rank| {
        let mut tr = Tracer::new(epoch);
        let mut step_s = Vec::new();
        let mut oracle = f64::NAN;
        for unit in 0..units {
            tr.set_on(traced(unit));
            let value = match program {
                Program::Bone(cfg) => bone_unit(rank, cfg, &mut tr, &mut step_s),
                Program::Nek(cfg) => cg_unit(rank, cfg, &mut tr, &mut step_s),
            };
            if unit == 0 {
                oracle = value;
            }
        }
        (tr.into_wire(), step_s, oracle)
    });
    let n_steps = res.results[0].1.len();
    let mut step_s = vec![0.0; n_steps];
    for (_, per_rank, _) in &res.results {
        for (acc, s) in step_s.iter_mut().zip(per_rank) {
            *acc += s / RANKS as f64;
        }
    }
    Replay {
        oracle: res.results[0].2,
        spans: res
            .results
            .iter()
            .map(|(wire, _, _)| trace::from_wire(wire))
            .collect(),
        step_s,
    }
}

// ---- cmt-bone ----------------------------------------------------------

/// The smooth initial profile of proxy field `f` (the driver's formula).
fn initial_profile(f: usize, x: f64, y: f64, z: f64, lengths: [f64; 3]) -> f64 {
    let fx = 2.0 * PI * x / lengths[0];
    let fy = 2.0 * PI * y / lengths[1];
    let fz = 2.0 * PI * z / lengths[2];
    (fx + 0.3 * f as f64).sin() * fy.cos() + 0.25 * (fz + 0.7 * f as f64).cos()
}

/// The driver's advective stable timestep.
fn stable_dt(cfg: &cmt_bone::Config, geom: &ElementGeom) -> f64 {
    let n2 = (cfg.n * cfg.n) as f64;
    (0..3)
        .map(|axis| cfg.cfl * geom.extent(axis) / (n2 * cfg.velocity[axis].abs()))
        .fold(f64::INFINITY, f64::min)
}

/// Everything sized by a rank's current element set.
struct Block {
    owned: Vec<usize>,
    nel: usize,
    handle: GsHandle,
    u: Vec<Field>,
    u0: Vec<Field>,
    rhs: Vec<Field>,
    scratch: Field,
    faces: Vec<Vec<f64>>,
    faces_own: Vec<Vec<f64>>,
    dealias_fine: Vec<f64>,
}

fn build_block(cfg: &cmt_bone::Config, owned: Vec<usize>, handle: GsHandle) -> Block {
    let (n, nel) = (cfg.n, owned.len());
    let fpe = face::face_values_per_element(n);
    let fields = |_| Field::zeros(n, nel);
    Block {
        owned,
        nel,
        handle,
        u: (0..cfg.fields).map(fields).collect(),
        u0: (0..cfg.fields).map(fields).collect(),
        rhs: (0..cfg.fields).map(fields).collect(),
        scratch: Field::zeros(n, nel),
        faces: (0..cfg.fields).map(|_| vec![0.0; fpe * nel]).collect(),
        faces_own: (0..cfg.fields).map(|_| vec![0.0; fpe * nel]).collect(),
        dealias_fine: cfg
            .dealias_m
            .map_or_else(Vec::new, |m| vec![0.0; m * m * m * nel]),
    }
}

/// One unit of the overlapped cmt-bone schedule: setup (untimed), then
/// `cfg.steps` timesteps with spans. Returns the global field checksum.
fn bone_unit(
    rank: &mut Rank,
    cfg: &cmt_bone::Config,
    tr: &mut Tracer,
    step_s: &mut Vec<f64>,
) -> f64 {
    const METHOD: GsMethod = GsMethod::PairwiseExchange;
    assert_eq!(cfg.method, Some(METHOD), "workloads pin the gs method");
    let n = cfg.n;
    let n3 = n * n * n;
    let me = rank.rank();
    let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, n, true);
    let basis = Basis::new(n);
    let geom = ElementGeom::cube(1.0);
    let ge = mesh_cfg.global_elems();
    let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];

    let mut part = ElemPartition::initial(&mesh_cfg);
    let owned0 = part.owned_by(me).to_vec();
    let handle = GsHandle::setup(rank, &face_exchange_gids_for(&mesh_cfg, &owned0));
    let mut blk = build_block(cfg, owned0, handle);
    for f in 0..cfg.fields {
        let owned = &blk.owned;
        blk.u[f] = Field::from_fn(n, blk.nel, |e, i, j, k| {
            let gc = mesh_cfg.elem_coords(owned[e]);
            let x = gc[0] as f64 + (basis.nodes[i] + 1.0) / 2.0;
            let y = gc[1] as f64 + (basis.nodes[j] + 1.0) / 2.0;
            let z = gc[2] as f64 + (basis.nodes[k] + 1.0) / 2.0;
            initial_profile(f, x, y, z, lengths)
        });
    }
    let dt = stable_dt(cfg, &geom);
    let dealias_ops = cfg
        .dealias_m
        .map(|m| (m, basis.dealias_to(m), basis.dealias_from(m)));
    let mut pset = (cfg.particles_per_elem > 0).then(|| {
        let mut ps = ParticleSet::new(RankMesh::new(mesh_cfg.clone(), me), &basis);
        ps.set_partition(part.clone());
        match cfg.particle_cluster {
            Some(frac) => ps.seed_clustered(cfg.particles_per_elem, frac),
            None => ps.seed_uniform(cfg.particles_per_elem),
        }
        ps
    });
    let model = CostModel::for_shape(n, cfg.fields);
    let mut rz = Resilience::new(cfg.checkpoint_every as u64, None);
    let mut time = 0.0;
    let steps = cfg.steps as u64;

    for step in 0..steps {
        let t0 = Instant::now();
        tr.begin(Name::Step);
        if rz.checkpoint_due(step) {
            tr.begin(Name::Checkpoint);
            let mut scalars = Vec::new();
            if cfg.lb_every > 0 {
                scalars.extend(part.owner_vec().iter().map(|&r| r as f64));
            }
            let mut fields: Vec<Vec<f64>> = blk.u.iter().map(|f| f.as_slice().to_vec()).collect();
            if let Some(ps) = &pset {
                let mut rec = Vec::with_capacity(ps.len() * 4);
                for p in ps.particles() {
                    rec.push(p.id as f64);
                    rec.extend_from_slice(&p.pos);
                }
                fields.push(rec);
            }
            rz.save(
                rank,
                &Checkpoint {
                    rank: me as u64,
                    step,
                    stage: 0,
                    time,
                    rng_state: 0,
                    scalars,
                    fields,
                },
            );
            tr.end();
        }
        for (uf, u0f) in blk.u.iter().zip(blk.u0.iter_mut()) {
            u0f.as_mut_slice().copy_from_slice(uf.as_slice());
        }
        for stage in 0..rk::STAGES {
            tr.begin(Name::Full2face);
            for f in 0..cfg.fields {
                face::full2face(n, blk.nel, blk.u[f].as_slice(), &mut blk.faces[f]);
                blk.faces_own[f].copy_from_slice(&blk.faces[f]);
            }
            tr.end();

            let views: Vec<&[f64]> = blk.faces.iter().map(|v| v.as_slice()).collect();
            tr.begin(Name::GsStart);
            rank.set_context("faces");
            let pending = blk.handle.gs_op_start(rank, &views, GsOp::Add, METHOD);
            rank.set_context("main");
            tr.end();

            // overlap window: volume work while the face messages fly
            for f in 0..cfg.fields {
                tr.begin(Name::Deriv);
                advect_volume_rhs(
                    cfg.variant,
                    &basis,
                    &geom,
                    cfg.velocity,
                    &blk.u[f],
                    &mut blk.rhs[f],
                    &mut blk.scratch,
                );
                tr.end();
                if let Some((m, up, down)) = dealias_ops.as_ref() {
                    tr.begin(Name::Dealias);
                    kernels::tensor3_apply_variant(
                        cfg.variant,
                        *m,
                        n,
                        up,
                        blk.rhs[f].as_slice(),
                        &mut blk.dealias_fine,
                        blk.nel,
                    );
                    kernels::tensor3_apply_variant(
                        cfg.variant,
                        n,
                        *m,
                        down,
                        &blk.dealias_fine,
                        blk.rhs[f].as_mut_slice(),
                        blk.nel,
                    );
                    tr.end();
                }
            }

            let mut outs: Vec<&mut [f64]> =
                blk.faces.iter_mut().map(|v| v.as_mut_slice()).collect();
            tr.begin(Name::GsFinish);
            rank.set_context("faces");
            blk.handle.gs_op_finish(rank, pending, &mut outs);
            rank.set_context("main");
            tr.end();

            for f in 0..cfg.fields {
                tr.begin(Name::Lift);
                for (s, o) in blk.faces[f].iter_mut().zip(blk.faces_own[f].iter()) {
                    *s -= o;
                }
                upwind_face_correction(
                    &basis,
                    &geom,
                    cfg.velocity,
                    &blk.faces_own[f],
                    &blk.faces[f],
                    &mut blk.rhs[f],
                );
                tr.end();
                tr.begin(Name::Rk);
                rk::stage_update(stage, &mut blk.u[f], &blk.u0[f], &blk.rhs[f], dt);
                tr.end();
            }
        }
        time += dt;

        if let Some(ps) = pset.as_mut() {
            tr.begin(Name::ParticleAdvect);
            let u = &blk.u;
            ps.advect_field(dt, [&u[0], &u[1 % cfg.fields], &u[2 % cfg.fields]]);
            tr.end();
            tr.begin(Name::ParticleMigrate);
            ps.migrate(rank);
            tr.end();
        }

        if (step + 1) % cfg.cfl_interval as u64 == 0 {
            tr.begin(Name::Cfl);
            rank.set_context("cfl");
            let local_max = blk.u.iter().fold(0.0f64, |m, f| m.max(f.norm_inf()));
            std::hint::black_box(rank.allreduce_scalar(local_max, ReduceOp::Max));
            rank.set_context("main");
            tr.end();
        }

        let next = step + 1;
        if cfg.lb_every > 0 && next % cfg.lb_every as u64 == 0 && next < steps {
            tr.begin(Name::LbMonitor);
            let ps = pset.as_mut().expect("load balancing needs particles");
            let counts = ps.counts_per_owned();
            let global = gather_costs(rank, &part, &counts, rank.injected_delay_us());
            let decision = decide(&model, &part, &global, cfg.lb_threshold);
            tr.end();
            if let Some(owners) = decision.owners {
                tr.begin(Name::LbMigrate);
                let new_part = ElemPartition::from_owner(rank.size(), owners);
                let dep: HashMap<usize, Vec<Particle>> = ps
                    .split_off_elems(|gid| new_part.owner_of(gid) != me)
                    .into_iter()
                    .collect();
                let owned = new_part.owned_by(me).to_vec();
                let new_handle = GsHandle::setup(rank, &face_exchange_gids_for(&mesh_cfg, &owned));
                let mut nb = build_block(cfg, owned, new_handle);
                for (slot, &gid) in nb.owned.iter().enumerate() {
                    if part.owner_of(gid) == me {
                        let (_, old_slot) = part.slot_of(gid);
                        for (nf, of) in nb.u.iter_mut().zip(blk.u.iter()) {
                            nf.as_mut_slice()[slot * n3..(slot + 1) * n3].copy_from_slice(
                                &of.as_slice()[old_slot * n3..(old_slot + 1) * n3],
                            );
                        }
                    }
                }
                let u_old = &blk.u;
                migrate_blocks(
                    rank,
                    &part,
                    &new_part,
                    |gid| {
                        let (_, slot) = part.slot_of(gid);
                        let res = dep.get(&gid).map_or(&[][..], |v| v.as_slice());
                        let mut vals = Vec::with_capacity(cfg.fields * n3 + 1 + res.len() * 4);
                        for uf in u_old {
                            vals.extend_from_slice(&uf.as_slice()[slot * n3..(slot + 1) * n3]);
                        }
                        vals.push(res.len() as f64);
                        for p in res {
                            vals.push(p.id as f64);
                            vals.extend_from_slice(&p.pos);
                        }
                        vals
                    },
                    |gid, data| {
                        let (_, slot) = new_part.slot_of(gid);
                        for (f, nf) in nb.u.iter_mut().enumerate() {
                            nf.as_mut_slice()[slot * n3..(slot + 1) * n3]
                                .copy_from_slice(&data[f * n3..(f + 1) * n3]);
                        }
                        for c in data[cfg.fields * n3 + 1..].chunks_exact(4) {
                            ps.insert(Particle {
                                id: c[0] as u64,
                                pos: [c[1], c[2], c[3]],
                            });
                        }
                    },
                );
                ps.set_partition(new_part.clone());
                blk = nb;
                part = new_part;
                tr.end();
            }
        }
        tr.end();
        step_s.push(t0.elapsed().as_secs_f64());
    }

    let local_sum: f64 = blk.u.iter().map(|f| f.sum()).sum();
    rank.set_context("checksum");
    let checksum = rank.allreduce_scalar(local_sum, ReduceOp::Sum);
    rank.set_context("main");
    checksum
}

// ---- nekbone -----------------------------------------------------------

/// One unit of nekbone's CG: setup (untimed), then `cfg.cg_iters`
/// iterations of the split-phase schedule with spans. Returns the final
/// residual norm.
fn cg_unit(rank: &mut Rank, cfg: &nekbone::Config, tr: &mut Tracer, step_s: &mut Vec<f64>) -> f64 {
    let method = cfg.method.expect("workloads pin the gs method");
    let n = cfg.n;
    let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, n, cfg.periodic);
    let mesh = RankMesh::new(mesh_cfg, rank.rank());
    let gids = mesh.volume_point_gids();
    let handle = GsHandle::setup(rank, &gids);
    let inv_mult: Vec<f64> = handle
        .multiplicities(rank, method)
        .into_iter()
        .map(|m| 1.0 / m)
        .collect();
    let nel = mesh.nel();
    let op = AxOperator::new(n, 1.0, cfg.lambda, cfg.variant);
    let mut b = Field::zeros(n, nel);
    for (v, &gid) in b.as_mut_slice().iter_mut().zip(&gids) {
        let t = gid as f64 * 1e-4;
        *v = (t.sin() + 0.5 * (2.7 * t).cos()) * 1e-2;
    }
    let mut x = Field::zeros(n, nel);
    let mut w = Field::zeros(n, nel);
    let mut t1 = Field::zeros(n, nel);
    let mut t2 = Field::zeros(n, nel);
    let shared = handle.shared_slot_flags();
    let mut r = b.clone();
    let mut p = r.clone();
    let mut rz = nekbone::cg::glsc3(rank, &r, &r, &inv_mult);
    let mut residual = rz.max(0.0).sqrt();

    for _ in 0..cfg.cg_iters {
        let t0 = Instant::now();
        tr.begin(Name::Step);
        tr.begin(Name::Ax);
        op.apply(&p, &mut w, &mut t1, &mut t2);
        tr.end();

        tr.begin(Name::GsStart);
        rank.set_context("dssum");
        let pending = handle.gs_op_start(rank, &[w.as_slice()], GsOp::Add, method);
        rank.set_context("main");
        tr.end();

        tr.begin(Name::DotLocal);
        let mut interior = 0.0;
        {
            let (us, ws) = (p.as_slice(), w.as_slice());
            for (i, (&sh, &im)) in shared.iter().zip(&inv_mult).enumerate() {
                if !sh {
                    interior += us[i] * ws[i] * im * 1.0;
                }
            }
        }
        tr.end();

        tr.begin(Name::GsFinish);
        rank.set_context("dssum");
        handle.gs_op_finish(rank, pending, &mut [w.as_mut_slice()]);
        rank.set_context("main");
        tr.end();

        tr.begin(Name::DotLocal);
        let mut shared_part = 0.0;
        {
            let (us, ws) = (p.as_slice(), w.as_slice());
            for (i, (&sh, &im)) in shared.iter().zip(&inv_mult).enumerate() {
                if sh {
                    shared_part += us[i] * ws[i] * im;
                }
            }
        }
        tr.end();
        tr.begin(Name::DotReduce);
        rank.set_context("glsc3");
        let pap = rank.allreduce_scalar(interior + shared_part, ReduceOp::Sum);
        rank.set_context("main");
        tr.end();

        let alpha = rz / pap;
        tr.begin(Name::CgUpdate);
        let mut local = 0.0;
        {
            let xs = x.as_mut_slice();
            let rs = r.as_mut_slice();
            let (ps, ws) = (p.as_slice(), w.as_slice());
            for i in 0..xs.len() {
                xs[i] += alpha * ps[i];
                rs[i] += -alpha * ws[i];
                local += rs[i] * rs[i] * inv_mult[i];
            }
        }
        tr.end();
        tr.begin(Name::DotReduce);
        rank.set_context("glsc3");
        let rz_new = rank.allreduce_scalar(local, ReduceOp::Sum);
        rank.set_context("main");
        tr.end();
        let beta = rz_new / rz;
        rz = rz_new;
        tr.begin(Name::CgUpdate);
        p.axpby(1.0, &r, beta);
        tr.end();
        residual = rz.max(0.0).sqrt();
        tr.end();
        step_s.push(t0.elapsed().as_secs_f64());
    }
    residual
}
