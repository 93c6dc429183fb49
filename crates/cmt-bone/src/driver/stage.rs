//! The RK step: per stage one sequence mirroring the paper's Fig. 4 call
//! graph — surface extraction, exchange, then the element pass: per
//! element block the volume term, the lift and the RK update. The two
//! schedules, blocking and overlapped, differ only in where the pass
//! runs: after a blocking exchange, or over the interior elements inside
//! a split-phase exchange's window and over the halo elements after it
//! lands. [`super::physics::Physics`] picks which volume term and lift
//! run; the pass, its scratch and the BR1 viscous terms live here.

use std::ops::Range;

use cmt_core::face;
use cmt_core::kernels::{self, DerivDir};
use cmt_core::ops::{br1_central_correction, br1_gradient_lift};
use cmt_core::rk;
use cmt_core::Field;
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_perf::Profiler;
use simmpi::Rank;

use super::block::{Block, ViscousWs};
use super::{regions, Env};
use crate::config::Pipeline;

const AXES: [(usize, DerivDir); 3] = [(0, DerivDir::R), (1, DerivDir::S), (2, DerivDir::T)];

/// One rank's handles for a step: the run invariants, the exchange
/// method, the communicator and the profiler every routine reports to.
struct Stepper<'a> {
    env: &'a Env<'a>,
    chosen: GsMethod,
    rank: &'a mut Rank,
    prof: &'a mut Profiler,
}

/// Advance every field of `blk` by one timestep `dt` (all RK stages).
///
/// A stage extracts every field's face traces, then exchanges them and
/// runs the element pass of every field. With viscosity on, the u
/// exchange's pass is field 0's BR1 gradient instead, and each field's
/// element pass rides its own q exchange, after which the next field's
/// gradient runs: the gradient reads `u` before its field's update.
pub(super) fn rk_step(
    env: &Env,
    chosen: GsMethod,
    rank: &mut Rank,
    prof: &mut Profiler,
    blk: &mut Block,
    dt: f64,
) {
    let mut s = Stepper {
        env,
        chosen,
        rank,
        prof,
    };
    let (n, nel, fields) = (env.cfg.n, blk.nel, env.cfg.fields);
    let Block {
        handle,
        elems,
        u,
        u0,
        work,
        faces_all,
        viscous,
        ..
    } = blk;
    for (uf, u0f) in u.iter().zip(u0.iter_mut()) {
        u0f.as_mut_slice().copy_from_slice(uf.as_slice());
    }
    let block = work.deriv.nel();
    for stage in 0..rk::STAGES {
        s.prof.enter(regions::FULL2FACE);
        for (uf, faces) in u.iter().zip(faces_all.iter_mut()) {
            face::full2face(n, nel, uf.as_slice(), faces);
        }
        s.prof.exit();
        // The trace list is assembled before the gs regions open so its
        // allocation never counts against the exchange.
        let mut sums: Vec<&mut [f64]> = faces_all.iter_mut().map(|v| v.as_mut_slice()).collect();
        let mut pass = Pass {
            u,
            u0,
            work,
            stage,
            dt,
        };
        match viscous {
            None => s.exchange(handle, elems, &mut sums, "faces", |prof, sums, runs| {
                pass.run(env, prof, 0..fields, runs, sums, None);
            }),
            Some(ViscousWs { nu, q, qfaces }) => {
                s.exchange(handle, elems, &mut sums, "faces", |prof, sums, runs| {
                    gradient(env, prof, &pass.u[0], sums[0], q, runs, block);
                });
                for f in 0..fields {
                    s.prof.enter(regions::VISCOUS);
                    for (qa, qf) in q.iter().zip(qfaces.iter_mut()) {
                        face::full2face(n, nel, qa.as_slice(), qf);
                    }
                    s.prof.exit();
                    let mut qsums = qfaces.each_mut().map(|v| v.as_mut_slice());
                    s.exchange(
                        handle,
                        elems,
                        &mut qsums,
                        "faces_visc",
                        |prof, qsum, runs| {
                            let viscous = Viscous { nu: *nu, q, qsum };
                            pass.run(env, prof, f..f + 1, runs, &sums, Some(&viscous));
                        },
                    );
                    if f + 1 < fields {
                        let (uf, sum) = (&pass.u[f + 1], &*sums[f + 1]);
                        gradient(env, s.prof, uf, sum, q, &elems.all, block);
                    }
                }
            }
        }
    }
}

impl Stepper<'_> {
    /// Add-exchange `arrays` and run `pass` over every element once the
    /// sums it reads are final. Blocking: one `gs_op` per array, then the
    /// pass over all elements. Overlapped: one bundled split-phase
    /// exchange (a k-array payload per neighbor: k times fewer
    /// messages), the pass over the interior elements inside its window
    /// — their sums are combined when the window opens — and over the
    /// halo elements after it lands. `pass` gets the profiler, the
    /// exchanged arrays and the element runs to cover.
    fn exchange(
        &mut self,
        handle: &GsHandle,
        elems: &Elements,
        arrays: &mut [&mut [f64]],
        context: &str,
        mut pass: impl FnMut(&mut Profiler, &[&mut [f64]], &[Range<usize>]),
    ) {
        let (rank, prof, chosen) = (&mut *self.rank, &mut *self.prof, self.chosen);
        prof.enter(regions::GS_OP);
        match self.env.cfg.pipeline {
            Pipeline::Blocking => {
                rank.set_context(context);
                for a in arrays.iter_mut() {
                    handle.gs_op(rank, a, GsOp::Add, chosen);
                }
                rank.set_context("main");
                prof.exit();
                pass(prof, arrays, &elems.all);
            }
            Pipeline::Overlapped => {
                prof.enter(regions::GS_START);
                rank.set_context(context);
                handle.overlapped(rank, arrays, GsOp::Add, chosen, |rank, sums| {
                    rank.set_context("main");
                    prof.exit();
                    prof.exit();
                    pass(prof, sums, &elems.interior);
                    prof.enter(regions::GS_OP);
                    prof.enter(regions::GS_FINISH);
                    rank.set_context(context);
                });
                rank.set_context("main");
                prof.exit();
                prof.exit();
                pass(prof, arrays, &elems.halo);
            }
        }
    }
}

/// A partition's elements by when their face sums are final. An
/// interior element touches no halo slot, so inside an overlapped
/// exchange's window its sums already are; a halo element waits for the
/// exchange to land. Each list holds ascending runs of local element
/// indices; `all` is the one run of every element.
pub(super) struct Elements {
    pub all: Vec<Range<usize>>,
    pub interior: Vec<Range<usize>>,
    pub halo: Vec<Range<usize>>,
}

impl Elements {
    /// Classify the `nel` elements exchanged through `handle`, whose
    /// slots are `fpe` face values per element. A run of interior
    /// elements shorter than `min_run` is not worth kernel calls of its
    /// own: it runs with the halo elements around it, after the
    /// exchange. The driver passes a quarter of the pass's block: on a
    /// partition cut along x, each x-row of elements is halo at both
    /// ends, and one-element interior runs in blocks of their own cost
    /// more than their overlap saves (EXPERIMENTS.md, *The RK stage
    /// element-resident*).
    pub fn classify(handle: &GsHandle, fpe: usize, nel: usize, min_run: usize) -> Elements {
        let mut slots = handle.halo_slots();
        let halo: Vec<bool> = (0..nel)
            .map(|_| slots.by_ref().take(fpe).fold(false, |a, h| a | h))
            .collect();
        let mut elems = Elements {
            all: (nel > 0).then_some(0..nel).into_iter().collect(),
            interior: Vec::new(),
            halo: Vec::new(),
        };
        let mut start = 0;
        for run in halo.chunk_by(|a, b| a == b) {
            let run_elems = start..start + run.len();
            start = run_elems.end;
            if !run[0] && run.len() >= min_run {
                elems.interior.push(run_elems);
            } else {
                match elems.halo.last_mut() {
                    Some(last) if last.end == run_elems.start => last.end = run_elems.end,
                    _ => elems.halo.push(run_elems),
                }
            }
        }
        elems
    }
}

/// `runs` cut into blocks of at most `block` elements; no block spans
/// two runs.
fn blocks(runs: &[Range<usize>], block: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    runs.iter().flat_map(move |r| {
        r.clone()
            .step_by(block)
            .map(move |e| e..(e + block).min(r.end))
    })
}

/// The element pass's scratch: one element block each, not one value per
/// point of the partition. Two blocks, both sized by the one rule of
/// [`kernels::block_elems`]: the derivative block — the pass's own
/// block — holds as many elements as keep the arrays a derivative pass
/// touches ([`Physics::volume_arrays`](super::physics::Physics::volume_arrays))
/// within [`kernels::BLOCK_BYTES`]; the dealias block as many as keep
/// their coarse and fine values within it (3 elements at N = 10,
/// M = 15). Neither block exceeds the partition.
pub(super) struct BlockScratch {
    /// One derivative of one derivative block.
    pub deriv: Field,
    /// [`Physics::flux_scratch`](super::physics::Physics::flux_scratch):
    /// Euler's five flux components of one derivative block.
    pub flux: Vec<Field>,
    /// The right-hand side of one field group
    /// ([`Physics::group`](super::physics::Physics::group)) on one
    /// derivative block, field after field, each `deriv`'s length.
    pub rhs: Vec<f64>,
    /// One dealias block on the fine mesh (empty when dealiasing is off);
    /// the interpolation matrices are partition-independent and live in
    /// [`Env`].
    fine: Vec<f64>,
    /// Dealias contraction scratch: one `t1/t2` pair.
    tensor: Vec<f64>,
}

impl BlockScratch {
    /// The scratch of a partition of `nel` elements.
    pub fn new(env: &Env, nel: usize) -> BlockScratch {
        let n3 = env.cfg.n.pow(3);
        let m3 = env.cfg.dealias_m.map_or(0, |m| m.pow(3));
        let fit = |values: usize| {
            let block = kernels::block_elems(values * std::mem::size_of::<f64>());
            block.min(nel).max(1)
        };
        let deriv = fit(env.physics.volume_arrays() * n3);
        BlockScratch::with_blocks(env, deriv, fit(n3 + m3))
    }

    /// The scratch of a `deriv`-element derivative block and a
    /// `fine`-element dealias block.
    fn with_blocks(env: &Env, deriv: usize, fine: usize) -> BlockScratch {
        let n = env.cfg.n;
        let m = env.cfg.dealias_m;
        let group = env.physics.group(0).len();
        BlockScratch {
            deriv: Field::zeros(n, deriv),
            flux: env.physics.flux_scratch(n, deriv),
            rhs: vec![0.0; group * deriv * n * n * n],
            fine: vec![0.0; m.map_or(0, |m| m.pow(3) * fine)],
            tensor: vec![0.0; m.map_or(0, |m| 2 * m.max(n).pow(3))],
        }
    }

    /// The dealiasing round trip of the first `fields` right-hand sides
    /// of the block, each `len` values long, when dealiasing is on: each
    /// dealias block goes up to the fine mesh and back while it is
    /// resident.
    pub(super) fn dealias(&mut self, env: &Env, prof: &mut Profiler, fields: usize, len: usize) {
        let (v, n) = (env.cfg.variant, env.cfg.n);
        if let Some((m, up, down)) = &env.dealias {
            let (m, n3) = (*m, n * n * n);
            prof.enter(regions::DEALIAS);
            let BlockScratch {
                deriv,
                rhs,
                fine,
                tensor,
                ..
            } = self;
            let (t1, t2) = tensor.split_at_mut(m.max(n).pow(3));
            let block = fine.len() / (m * m * m) * n3;
            for rhs in rhs.chunks_exact_mut(deriv.len()).take(fields) {
                for rhs in rhs[..len].chunks_mut(block) {
                    let nel = rhs.len() / n3;
                    let fine = &mut fine[..nel * m * m * m];
                    kernels::tensor3_apply_scratch_variant(v, m, n, up, rhs, fine, nel, t1, t2);
                    kernels::tensor3_apply_scratch_variant(v, n, m, down, fine, rhs, nel, t1, t2);
                }
            }
            prof.exit();
        }
    }
}

/// What the element pass touches: the solution, the step's start, the
/// block scratch, and which RK stage it finishes.
pub(super) struct Pass<'b> {
    pub u: &'b mut [Field],
    pub u0: &'b [Field],
    pub work: &'b mut BlockScratch,
    pub stage: usize,
    pub dt: f64,
}

/// One field's BR1 viscous terms for its element pass: the gradient `q`
/// and its exchanged trace sums (own + neighbor) per axis.
pub(super) struct Viscous<'v> {
    pub nu: f64,
    pub q: &'v [Field; 3],
    pub qsum: &'v [&'v mut [f64]],
}

impl Pass<'_> {
    /// The element pass over `runs`: per element block, each field group
    /// of `fields` ([`Physics::group`](super::physics::Physics::group))
    /// gets its volume term and dealias, its lift from the exchanged
    /// trace sums `sums`, its viscous terms when `viscous` is given, and
    /// its RK update — every point the operation sequence of a
    /// whole-rank pass per term. An element's update reads only that
    /// element and its face sums, so any blocking, and any order of
    /// runs, gives the same bits.
    pub(super) fn run(
        &mut self,
        env: &Env,
        prof: &mut Profiler,
        fields: Range<usize>,
        runs: &[Range<usize>],
        sums: &[&mut [f64]],
        viscous: Option<&Viscous>,
    ) {
        let n3 = env.cfg.n.pow(3);
        let block_pts = self.work.deriv.len();
        for es in blocks(runs, self.work.deriv.nel()) {
            let pts = es.start * n3..es.end * n3;
            let mut f = fields.start;
            while f < fields.end {
                let group = env.physics.group(f);
                env.physics
                    .volume(env, prof, self.u, self.work, &group, &es);
                env.physics
                    .lift(env, prof, self.u, sums, self.work, &group, &es);
                if let Some(v) = viscous {
                    viscous_terms(env, prof, v, self.work, &es);
                }
                prof.enter(regions::RK);
                for (c, rhs) in group.clone().zip(self.work.rhs.chunks_exact(block_pts)) {
                    rk::stage_update_slice(
                        self.stage,
                        &mut self.u[c].as_mut_slice()[pts.clone()],
                        &self.u0[c].as_slice()[pts.clone()],
                        &rhs[..pts.len()],
                        self.dt,
                    );
                }
                prof.exit();
                f = group.end;
            }
        }
    }
}

/// Field `u`'s BR1 gradient `q` on the elements of `runs`, one block of
/// `block` elements at a time: per axis the volume part
/// `dscale_a D_a u`, then the central-trace lift from `sum`, `u`'s
/// exchanged trace sum.
fn gradient(
    env: &Env,
    prof: &mut Profiler,
    u: &Field,
    sum: &[f64],
    q: &mut [Field; 3],
    runs: &[Range<usize>],
    block: usize,
) {
    let (cfg, basis, geom) = (&env.cfg, &env.basis, &env.geom);
    let (n3, fpe) = (cfg.n.pow(3), face::face_values_per_element(cfg.n));
    prof.enter(regions::VISCOUS);
    for es in blocks(runs, block) {
        let (pts, fpts) = (es.start * n3..es.end * n3, es.start * fpe..es.end * fpe);
        let ue = &u.as_slice()[pts.clone()];
        for ((axis, dir), q) in AXES.into_iter().zip(q.iter_mut()) {
            let q = &mut q.as_mut_slice()[pts.clone()];
            kernels::deriv(cfg.variant, dir, cfg.n, es.len(), &basis.d, ue, q);
            let scale = geom.dscale(axis);
            for v in q.iter_mut() {
                *v *= scale;
            }
            br1_gradient_lift(basis, geom, axis, ue, &sum[fpts.clone()], q);
        }
    }
    prof.exit();
}

/// A field's BR1 viscous divergence on the elements `es`, added to their
/// right-hand side in `work`: the volume part through the derivative
/// scratch, then per axis the central surface-flux correction from the
/// exchanged q-trace sums.
fn viscous_terms(
    env: &Env,
    prof: &mut Profiler,
    v: &Viscous,
    work: &mut BlockScratch,
    es: &Range<usize>,
) {
    let (cfg, basis, geom) = (&env.cfg, &env.basis, &env.geom);
    let (n3, fpe) = (cfg.n.pow(3), face::face_values_per_element(cfg.n));
    let (pts, fpts) = (es.start * n3..es.end * n3, es.start * fpe..es.end * fpe);
    let q = v.q.each_ref().map(|q| &q.as_slice()[pts.clone()]);
    let rhs = &mut work.rhs[..pts.len()];
    prof.enter(regions::VISCOUS);
    viscous_volume(env, v.nu, q, rhs, work.deriv.as_mut_slice());
    for (axis, (q, qsum)) in q.iter().zip(v.qsum).enumerate() {
        br1_central_correction(basis, geom, axis, v.nu, q, &qsum[fpts.clone()], rhs);
    }
    prof.exit();
}

/// The viscous divergence's volume part on one element block,
/// `rhs += nu sum_a dscale_a D_a q_a`, through `scratch` (at least the
/// block's length): axis after axis, so every point adds its three terms
/// in the order a whole-field pass per axis would.
fn viscous_volume(env: &Env, nu: f64, q: [&[f64]; 3], rhs: &mut [f64], scratch: &mut [f64]) {
    let (variant, n, d) = (env.cfg.variant, env.cfg.n, &env.basis.d);
    let s = &mut scratch[..rhs.len()];
    for (axis, dir) in AXES {
        kernels::deriv(variant, dir, n, rhs.len() / n.pow(3), d, q[axis], s);
        let a = nu * env.geom.dscale(axis);
        for (r, &s) in rhs.iter_mut().zip(s.iter()) {
            *r += a * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use cmt_core::poly::Basis;
    use cmt_core::KernelVariant;
    use cmt_mesh::MeshConfig;

    use super::*;
    use crate::config::Config;

    /// `fields` fields of `nel` elements: `base + spread * x`, `x`
    /// pseudo-random in `[-1, 1)`.
    fn states(
        n: usize,
        nel: usize,
        fields: usize,
        seed: u64,
        base: f64,
        spread: f64,
    ) -> Vec<Field> {
        let mut s = seed.wrapping_mul(6364136223846793005).max(1);
        (0..fields)
            .map(|_| {
                Field::from_fn(n, nel, |_, _, _, _| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    base + spread * ((s as f64 / u64::MAX as f64) * 2.0 - 1.0)
                })
            })
            .collect()
    }

    /// Element `e` of every field, as one-element fields.
    fn element(fields: &[Field], e: usize) -> Vec<Field> {
        let n = fields[0].n();
        fields
            .iter()
            .map(|f| Field::from_vec(n, 1, f.element(e).to_vec()))
            .collect()
    }

    fn bits(fields: &[Field]) -> Vec<Vec<u64>> {
        let bits = |f: &Field| f.as_slice().iter().map(|v| v.to_bits()).collect();
        fields.iter().map(bits).collect()
    }

    /// The per-element reference bits beside the blocked ones: `run` on
    /// each element alone (one-element blocks), concatenated.
    fn per_element(nel: usize, mut run: impl FnMut(usize) -> Vec<Field>) -> Vec<Vec<u64>> {
        let mut want: Vec<Vec<u64>> = Vec::new();
        for e in 0..nel {
            let got = bits(&run(e));
            want.resize(got.len(), Vec::new());
            for (w, g) in want.iter_mut().zip(got) {
                w.extend(g);
            }
        }
        want
    }

    /// The product's volume term on every element of `u`, run block by
    /// block as the element pass runs it, each block's right-hand side
    /// copied out of the scratch.
    fn volume_by_blocks(env: &Env, u: &[Field], work: &mut BlockScratch) -> Vec<Field> {
        let (n, nel) = (u[0].n(), u[0].nel());
        let (n3, block_pts) = (n * n * n, work.deriv.len());
        let mut rhs: Vec<Field> = u.iter().map(|_| Field::zeros(n, nel)).collect();
        let all = 0..nel;
        for es in blocks(std::slice::from_ref(&all), work.deriv.nel()) {
            let pts = es.start * n3..es.end * n3;
            let mut f = 0;
            while f < u.len() {
                let group = env.physics.group(f);
                let mut prof = Profiler::new();
                work.rhs.fill(f64::NAN);
                env.physics.volume(env, &mut prof, u, work, &group, &es);
                for (c, r) in group.clone().zip(work.rhs.chunks_exact(block_pts)) {
                    rhs[c].as_mut_slice()[pts.clone()].copy_from_slice(&r[..pts.len()]);
                }
                f = group.end;
            }
        }
        rhs
    }

    /// The label and configuration of each physics the element pass runs
    /// at order `n`: the proxy, dealiased at 9 and 15, viscous, and Euler.
    fn physics_rows(n: usize, variant: KernelVariant) -> Vec<(String, Config)> {
        let proxy = Config {
            n,
            fields: 2,
            variant,
            ..Default::default()
        };
        [
            ("proxy", proxy.clone()),
            (
                "dealias 9",
                Config {
                    dealias_m: Some(9),
                    ..proxy.clone()
                },
            ),
            (
                "dealias 15",
                Config {
                    dealias_m: Some(15),
                    ..proxy.clone()
                },
            ),
            (
                "viscous",
                Config {
                    viscosity: Some(0.03),
                    ..proxy.clone()
                },
            ),
            (
                "euler",
                Config {
                    euler: true,
                    fields: 5,
                    ..proxy
                },
            ),
        ]
        .into_iter()
        .map(|(what, cfg)| (format!("{} n={n} {what}", variant.name()), cfg))
        .collect()
    }

    /// The blockings each test compares with per-element runs: the
    /// partition's own ([`BlockScratch::new`]), 2- and 3-element blocks,
    /// and one block of all, as `(derivative, dealias)` element counts.
    fn blockings(env: &Env, nel: usize) -> [(usize, usize); 4] {
        let own = BlockScratch::new(env, nel);
        let fine = own.fine.len() / env.cfg.dealias_m.map_or(1, |m| m * m * m);
        [(own.deriv.nel(), fine), (2, 3), (3, 2), (nel, nel)]
    }

    /// The volume term (and the viscous divergence) on `nel` elements
    /// equals the same term on each element alone, bit for bit, whatever
    /// block an element lands in: under the partition's own blocks
    /// ([`BlockScratch::new`]), under 2- and 3-element blocks, and under
    /// one block of all. At N = 10 a derivative block is 5 elements
    /// (1 under Euler) and a dealias block 3 at M = 15, so 7, 13 and 37
    /// leave partial blocks; the fixed sizes do at every order.
    #[test]
    fn volume_term_is_independent_of_blocking() {
        for variant in KernelVariant::ALL {
            for n in [5, 6, 10] {
                let mesh_cfg = MeshConfig::for_ranks(1, 1, n, true);
                for (label, cfg) in physics_rows(n, variant) {
                    let env = Env::new(&cfg, &mesh_cfg, Basis::new(n));
                    for nel in [7, 13, 37] {
                        // Euler's fluxes divide by a positive density
                        let u = states(n, nel, cfg.fields, (100 * n + nel) as u64, 1.5, 0.4);
                        let want = per_element(nel, |e| {
                            volume_by_blocks(
                                &env,
                                &element(&u, e),
                                &mut BlockScratch::with_blocks(&env, 1, 1),
                            )
                        });
                        for (deriv, fine) in blockings(&env, nel) {
                            let mut work = BlockScratch::with_blocks(&env, deriv, fine);
                            let got = volume_by_blocks(&env, &u, &mut work);
                            assert!(
                                bits(&got) == want,
                                "{label} nel={nel}: blocks of {deriv} / {fine} diverged"
                            );
                        }
                        if cfg.viscosity.is_none() {
                            continue;
                        }
                        // the viscous divergence accumulates into a live rhs
                        let q: [Field; 3] =
                            states(n, nel, 3, nel as u64, 0.0, 1.0).try_into().unwrap();
                        let rhs0 = states(n, nel, 1, 7, 0.0, 1.0).remove(0);
                        let viscous = |q: &[Field; 3], rhs: &Field, deriv: usize| {
                            let mut rhs = rhs.clone();
                            let mut scratch = vec![0.0; deriv * n * n * n];
                            let chunk = scratch.len();
                            for (b, r) in rhs.as_mut_slice().chunks_mut(chunk).enumerate() {
                                let pts = b * chunk..b * chunk + r.len();
                                let q = q.each_ref().map(|q| &q.as_slice()[pts.clone()]);
                                viscous_volume(&env, 0.03, q, r, &mut scratch);
                            }
                            vec![rhs]
                        };
                        let want = per_element(nel, |e| {
                            let qe = element(&q, e).try_into().unwrap();
                            viscous(&qe, &element(std::slice::from_ref(&rhs0), e)[0], 1)
                        });
                        for (deriv, _) in blockings(&env, nel) {
                            assert!(
                                bits(&viscous(&q, &rhs0, deriv)) == want,
                                "{label} nel={nel}: viscous divergence in blocks of {deriv} diverged"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A stage's element work on `u` after `u`'s exchange: the viscous
    /// gradient from `sum` first when viscosity is on, then the element
    /// pass of every field over `runs` (one pass per field under
    /// viscosity, reading the q sums `qsum`), in the blocks of `work`.
    /// Returns the updated `u` (and `q` under viscosity).
    fn stage_by_blocks(
        env: &Env,
        (u, u0): (&[Field], &[Field]),
        (sum, qsum): (&[Vec<f64>], &[Vec<f64>]),
        runs: &[Range<usize>],
        work: &mut BlockScratch,
    ) -> Vec<Field> {
        let (n, nel) = (u[0].n(), u[0].nel());
        let mut prof = Profiler::new();
        let mut u = u.to_vec();
        let mut sum = sum.to_vec();
        let mut qsum = qsum.to_vec();
        let sums: Vec<&mut [f64]> = sum.iter_mut().map(|v| v.as_mut_slice()).collect();
        let mut pass = Pass {
            u: &mut u,
            u0,
            work,
            stage: 1,
            dt: 0.01,
        };
        let Some(nu) = env.cfg.viscosity else {
            pass.run(env, &mut prof, 0..u0.len(), runs, &sums, None);
            return u;
        };
        let qsum: Vec<&mut [f64]> = qsum.iter_mut().map(|v| v.as_mut_slice()).collect();
        let mut q: [Field; 3] = std::array::from_fn(|_| Field::zeros(n, nel));
        let block = pass.work.deriv.nel();
        for f in 0..u0.len() {
            gradient(env, &mut prof, &pass.u[f], sums[f], &mut q, runs, block);
            let viscous = Viscous {
                nu,
                q: &q,
                qsum: &qsum,
            };
            pass.run(env, &mut prof, f..f + 1, runs, &sums, Some(&viscous));
        }
        u.extend(q);
        u
    }

    /// One RK stage's element work — volume term, dealias, lift, viscous
    /// gradient and terms, update — equals the same work on each element
    /// alone, bit for bit, whatever block an element lands in: the
    /// partition's own blocks, 2- and 3-element blocks, and one block of
    /// all, over one run of every element and over interior and halo
    /// runs taken in two passes. Proxy, dealiased proxy, viscous proxy
    /// and Euler; the face sums are arbitrary values, as an exchange
    /// could deliver.
    #[test]
    fn rk_stage_is_independent_of_blocking() {
        for variant in KernelVariant::ALL {
            for n in [5, 10] {
                let mesh_cfg = MeshConfig::for_ranks(1, 1, n, true);
                let fpe = face::face_values_per_element(n);
                for (label, cfg) in physics_rows(n, variant) {
                    let env = Env::new(&cfg, &mesh_cfg, Basis::new(n));
                    for nel in [7, 13] {
                        let seed = (100 * n + nel) as u64;
                        let u = states(n, nel, cfg.fields, seed, 1.5, 0.4);
                        let u0 = states(n, nel, cfg.fields, seed + 1, 1.5, 0.4);
                        // 6 nel elements hold more values than nel elements' faces
                        let traces = |seed, k| -> Vec<Vec<f64>> {
                            let fields = states(n, 6 * nel, k, seed, 3.0, 0.8);
                            fields
                                .iter()
                                .map(|f| f.as_slice()[..fpe * nel].to_vec())
                                .collect()
                        };
                        let (sum, qsum) = (traces(seed + 2, cfg.fields), traces(seed + 3, 3));
                        let want = per_element(nel, |e| {
                            let of = |v: &[Vec<f64>]| -> Vec<Vec<f64>> {
                                v.iter()
                                    .map(|t| t[e * fpe..(e + 1) * fpe].to_vec())
                                    .collect()
                            };
                            let mut work = BlockScratch::with_blocks(&env, 1, 1);
                            let (ue, u0e) = (element(&u, e), element(&u0, e));
                            stage_by_blocks(
                                &env,
                                (&ue, &u0e),
                                (&of(&sum), &of(&qsum)),
                                std::slice::from_ref(&(0..1)),
                                &mut work,
                            )
                        });
                        let (interior_runs, halo_run) = ([0..2, 5..nel], 2..5);
                        for (deriv, fine) in blockings(&env, nel) {
                            let mut work = BlockScratch::with_blocks(&env, deriv, fine);
                            let whole = stage_by_blocks(
                                &env,
                                (&u, &u0),
                                (&sum, &qsum),
                                std::slice::from_ref(&(0..nel)),
                                &mut work,
                            );
                            assert!(
                                bits(&whole) == want,
                                "{label} nel={nel}: blocks of {deriv} / {fine} diverged"
                            );
                            if cfg.viscosity.is_some() {
                                // the returned q covers the last call's runs only
                                continue;
                            }
                            let interior = stage_by_blocks(
                                &env,
                                (&u, &u0),
                                (&sum, &qsum),
                                &interior_runs,
                                &mut work,
                            );
                            let both = stage_by_blocks(
                                &env,
                                (&interior, &u0),
                                (&sum, &qsum),
                                std::slice::from_ref(&halo_run),
                                &mut work,
                            );
                            assert!(
                                bits(&both) == want,
                                "{label} nel={nel}: interior and halo runs in blocks of {deriv} / {fine} diverged"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The classification at the `msg_socket` shape (N = 4, 27 elements
    /// per rank on 2 ranks, cut along x): every x-row is halo at both
    /// ends, so the 9 interior elements are one-element runs. Each
    /// interior element has no halo slot and each halo element has one;
    /// with the driver's minimum run (a quarter block) they all join
    /// the halo as one run.
    #[test]
    fn elements_classify_by_halo_slots() {
        let (n, nel) = (4, 27);
        let mesh_cfg = MeshConfig::for_ranks(2, nel, n, true);
        let fpe = face::face_values_per_element(n);
        let res = simmpi::World::new().run(2, |rank| {
            let part = cmt_mesh::ElemPartition::initial(&mesh_cfg);
            let owned = part.owned_by(rank.rank()).to_vec();
            let gids = cmt_mesh::face_exchange_gids_for(&mesh_cfg, &owned);
            let handle = GsHandle::setup(rank, &gids);
            let halo: Vec<bool> = handle.halo_slots().collect();
            let each = Elements::classify(&handle, fpe, nel, 1);
            let merged = Elements::classify(&handle, fpe, nel, 7);
            (halo, each, merged)
        });
        for (halo, each, merged) in &res.results {
            let touches = |e: usize| halo[e * fpe..(e + 1) * fpe].contains(&true);
            let count = |runs: &[Range<usize>]| runs.iter().map(|r| r.len()).sum::<usize>();
            assert_eq!((count(&each.interior), count(&each.halo)), (9, 18));
            assert_eq!(each.interior.len(), 9, "one-element interior runs");
            assert!(each
                .interior
                .iter()
                .flat_map(|r| r.clone())
                .all(|e| !touches(e)));
            assert!(each.halo.iter().flat_map(|r| r.clone()).all(touches));
            assert!(merged.interior.is_empty());
            assert_eq!(merged.halo, each.all);
            assert_eq!(each.all.as_slice(), std::slice::from_ref(&(0..nel)));
        }
    }

    /// The partition's own blocks at the benchmark shapes: the derivative
    /// block keeps its arrays within the budget, the dealias block its
    /// coarse and fine values, and the right-hand side holds one field
    /// group on the derivative block.
    #[test]
    fn block_scratch_fits_the_budget() {
        for (n, m, euler, deriv, fine) in [
            (10, Some(15), false, 5, 3),
            (5, None, false, 43, 1),
            (6, None, false, 25, 1),
            (10, None, true, 1, 1),
            (5, None, true, 8, 1),
        ] {
            let cfg = Config {
                n,
                dealias_m: m,
                euler,
                fields: 5,
                ..Default::default()
            };
            let mesh_cfg = MeshConfig::for_ranks(1, 1, n, true);
            let env = Env::new(&cfg, &mesh_cfg, Basis::new(n));
            let work = BlockScratch::new(&env, 782);
            assert_eq!(work.deriv.nel(), deriv, "n={n} euler={euler}");
            assert_eq!(work.flux.len(), if euler { 5 } else { 0 });
            let group = if euler { 5 } else { 1 };
            assert_eq!(
                work.rhs.len(),
                group * deriv * n * n * n,
                "n={n} euler={euler}"
            );
            let m3 = m.map_or(0, |m| m * m * m);
            assert_eq!(work.fine.len(), m3 * fine, "n={n} m={m:?}");
            // a partition smaller than a block is one block of all
            assert_eq!(BlockScratch::new(&env, 2).deriv.nel(), deriv.min(2));
        }
    }
}
