//! The RK step: per stage one sequence mirroring the paper's Fig. 4 call
//! graph — volume term, surface extraction, exchange, lift, RK update —
//! under two schedules, blocking and overlapped, that differ only in
//! whether the volume term runs before the exchange or inside it.
//! [`super::physics::Physics`] picks which volume term and lift run; the
//! per-field routines they are built from live here.

use cmt_core::face;
use cmt_core::kernels::{self, DerivDir};
use cmt_core::ops::{advect_volume_rhs, br1_central_correction, br1_gradient_lift, phys_grad};
use cmt_core::rk;
use cmt_core::Field;
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_perf::Profiler;
use simmpi::Rank;

use super::block::Block;
use super::{regions, Env};
use crate::config::Pipeline;

const AXES: [(usize, DerivDir); 3] = [(0, DerivDir::R), (1, DerivDir::S), (2, DerivDir::T)];

/// One rank's handles for a step: the run invariants, the exchange
/// method, the communicator and the profiler every routine reports to.
pub(super) struct Stepper<'a> {
    pub env: &'a Env<'a>,
    chosen: GsMethod,
    rank: &'a mut Rank,
    pub prof: &'a mut Profiler,
}

/// Advance every field of `blk` by one timestep `dt` (all RK stages).
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
    let fields = env.cfg.fields;
    for (uf, u0f) in blk.u.iter().zip(blk.u0.iter_mut()) {
        u0f.as_mut_slice().copy_from_slice(uf.as_slice());
    }
    for stage in 0..rk::STAGES {
        match env.cfg.pipeline {
            // Legacy schedule: the volume term, then one blocking
            // exchange per field. The face-exchange ids pair each face
            // point with exactly its across-face twin, so Add recovers
            // own + neighbor.
            Pipeline::Blocking => {
                env.physics.volume(&mut blk.split().2, env, s.prof);
                for f in 0..fields {
                    s.prof.enter(regions::FULL2FACE);
                    s.extract(blk, f);
                    s.prof.exit();
                    s.prof.enter(regions::GS_OP);
                    s.rank.set_context("faces");
                    blk.handle
                        .gs_op(s.rank, &mut blk.faces_all[f], GsOp::Add, chosen);
                    s.rank.set_context("main");
                    s.prof.exit();
                }
            }
            // Split-phase schedule: ONE exchange carries all fields (a
            // k-field payload per neighbor: `fields`x fewer messages),
            // and the volume term runs while the face messages are in
            // flight.
            Pipeline::Overlapped => {
                s.prof.enter(regions::FULL2FACE);
                for f in 0..fields {
                    s.extract(blk, f);
                }
                s.prof.exit();
                // The face-trace list is assembled before the gs
                // regions open so its allocation never counts against
                // the exchange.
                let (handle, faces_all, mut vol) = blk.split();
                let mut faces: Vec<&mut [f64]> =
                    faces_all.iter_mut().map(|v| v.as_mut_slice()).collect();
                s.prof.enter(regions::GS_OP);
                s.prof.enter(regions::GS_START);
                s.rank.set_context("faces");
                handle.overlapped(s.rank, &mut faces, GsOp::Add, chosen, |rank, _| {
                    rank.set_context("main");
                    s.prof.exit();
                    s.prof.exit();
                    env.physics.volume(&mut vol, env, s.prof);
                    s.prof.enter(regions::GS_OP);
                    s.prof.enter(regions::GS_FINISH);
                    rank.set_context("faces");
                });
                s.rank.set_context("main");
                s.prof.exit();
                s.prof.exit();
            }
        }
        env.physics.lift(&mut s, blk);
        for f in 0..fields {
            s.prof.enter(regions::RK);
            rk::stage_update(stage, &mut blk.u[f], &blk.u0[f], &blk.rhs_all[f], dt);
            s.prof.exit();
        }
    }
}

impl Stepper<'_> {
    /// Surface extraction (`full2face_cmt`): field `f`'s face traces. The
    /// exchange adds the neighbor's in place; `u` does not change before
    /// the lift, which reads the own side from it again.
    fn extract(&mut self, blk: &mut Block, f: usize) {
        face::full2face(
            self.env.cfg.n,
            blk.nel,
            blk.u[f].as_slice(),
            &mut blk.faces_all[f],
        );
    }
}

/// The volume term's scratch: one element block each, not one value per
/// point of the partition. Two blocks, both sized by the one rule of
/// [`kernels::block_elems`]: the derivative block holds as many elements
/// as keep the arrays a derivative pass touches
/// ([`Physics::volume_arrays`](super::physics::Physics::volume_arrays))
/// within [`kernels::BLOCK_BYTES`]; the dealias block as many as keep
/// their coarse and fine values within it (3 elements at N = 10,
/// M = 15). Neither block exceeds the partition.
pub(super) struct BlockScratch {
    /// One derivative of one derivative block.
    pub deriv: Field,
    /// [`Physics::flux_scratch`](super::physics::Physics::flux_scratch):
    /// Euler's five flux components of one derivative block.
    pub flux: Vec<Field>,
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
        BlockScratch {
            deriv: Field::zeros(n, deriv),
            flux: env.physics.flux_scratch(n, deriv),
            fine: vec![0.0; m.map_or(0, |m| m.pow(3) * fine)],
            tensor: vec![0.0; m.map_or(0, |m| 2 * m.max(n).pow(3))],
        }
    }
}

/// What the volume term touches: a [`Block`] without its gs plan and face
/// traces, so it can run while an overlapped exchange holds those.
pub(super) struct VolumeTerm<'b> {
    pub u: &'b [Field],
    pub rhs_all: &'b mut [Field],
    pub work: &'b mut BlockScratch,
}

impl Block {
    /// Split into the gs plan, the face traces and the volume term.
    fn split(&mut self) -> (&GsHandle, &mut [Vec<f64>], VolumeTerm<'_>) {
        let Block {
            handle,
            u,
            rhs_all,
            work,
            faces_all,
            ..
        } = self;
        (handle, faces_all, VolumeTerm { u, rhs_all, work })
    }
}

impl VolumeTerm<'_> {
    /// Field `f`'s advective flux divergence, one derivative block at a
    /// time.
    pub(super) fn advect(&mut self, env: &Env, prof: &mut Profiler, f: usize) {
        let cfg = &env.cfg;
        prof.enter(regions::DERIV);
        advect_volume_rhs(
            cfg.variant,
            &env.basis,
            &env.geom,
            cfg.velocity,
            &self.u[f],
            &mut self.rhs_all[f],
            &mut self.work.deriv,
        );
        prof.exit();
    }

    /// Field `f`'s dealiasing round trip, when dealiasing is on: each
    /// dealias block goes up to the fine mesh and back while it is
    /// resident.
    pub(super) fn dealias(&mut self, env: &Env, prof: &mut Profiler, f: usize) {
        let (v, n) = (env.cfg.variant, env.cfg.n);
        if let Some((m, up, down)) = &env.dealias {
            let (m, n3) = (*m, n * n * n);
            prof.enter(regions::DEALIAS);
            let BlockScratch { fine, tensor, .. } = &mut *self.work;
            let (t1, t2) = tensor.split_at_mut(m.max(n).pow(3));
            let block = fine.len() / (m * m * m) * n3;
            for rhs in self.rhs_all[f].as_mut_slice().chunks_mut(block) {
                let nel = rhs.len() / n3;
                let fine = &mut fine[..nel * m * m * m];
                kernels::tensor3_apply_scratch_variant(v, m, n, up, rhs, fine, nel, t1, t2);
                kernels::tensor3_apply_scratch_variant(v, n, m, down, fine, rhs, nel, t1, t2);
            }
            prof.exit();
        }
    }
}

/// The viscous divergence's volume part, `rhs += nu sum_a dscale_a D_a
/// q_a`, one derivative block at a time through `scratch`: per block the
/// three axes in order, so every point adds its three terms in the
/// order a whole-field pass per axis would.
fn viscous_volume(env: &Env, nu: f64, q: &[Field; 3], rhs: &mut Field, scratch: &mut Field) {
    let (variant, n, d) = (env.cfg.variant, env.cfg.n, &env.basis.d);
    let n3 = n * n * n;
    let block = scratch.len();
    for (b, rhs) in rhs.as_mut_slice().chunks_mut(block).enumerate() {
        let pts = b * block..b * block + rhs.len();
        let s = &mut scratch.as_mut_slice()[..rhs.len()];
        for (axis, dir) in AXES {
            let q = &q[axis].as_slice()[pts.clone()];
            kernels::deriv(variant, dir, n, rhs.len() / n3, d, q, s);
            let a = nu * env.geom.dscale(axis);
            for (r, &s) in rhs.iter_mut().zip(s.iter()) {
                *r += a * s;
            }
        }
    }
}

impl Stepper<'_> {
    /// The BR1 viscous passes for field `f`: gradient with central
    /// traces, then the viscous divergence with its q-trace exchange.
    /// Under the blocking pipeline each axis runs its own blocking
    /// `gs_op` (3 exchanges per field per stage); under the overlapped
    /// pipeline all three axis traces go out in one bundled split-phase
    /// exchange whose in-flight time the three volume divergence
    /// derivatives overlap. On entry `faces_all[f]` holds field `f`'s
    /// exchanged trace sum (own + neighbor), as for the flux lift; every
    /// lift here reads its own side from the volume data (`u`, then `q`).
    pub(super) fn viscous_pass(&mut self, blk: &mut Block, f: usize) {
        let env = self.env;
        let (cfg, basis, geom) = (&env.cfg, &env.basis, &env.geom);
        let (n, nel) = (cfg.n, blk.nel);
        let Block {
            handle,
            u,
            rhs_all,
            work,
            faces_all,
            viscous,
            ..
        } = blk;
        let ws = viscous.as_mut().expect("viscous workspace");
        let (uf, sum, rhs) = (u[f].as_slice(), &faces_all[f], &mut rhs_all[f]);
        let nu = ws.nu;

        self.prof.enter(regions::VISCOUS);
        // gradient: volume part, then the central-trace lift
        let [qx, qy, qz] = &mut ws.q;
        phys_grad(cfg.variant, basis, geom, &u[f], qx, qy, qz);
        for (axis, q) in ws.q.iter_mut().enumerate() {
            br1_gradient_lift(basis, geom, axis, uf, sum, q);
        }
        // viscous divergence: per axis a volume term and a central
        // surface-flux correction, which needs the exchanged q traces.
        // Both schedules exchange the three q traces, add the three volume
        // divergences, then apply the three corrections: one order, so
        // they agree bit for bit. The overlapped one adds the volume terms
        // while its exchange is in flight.
        for axis in 0..3 {
            face::full2face(n, nel, ws.q[axis].as_slice(), &mut ws.qfaces[axis]);
        }
        match cfg.pipeline {
            Pipeline::Blocking => {
                self.rank.set_context("faces_visc");
                for qfaces in &mut ws.qfaces {
                    handle.gs_op(self.rank, qfaces, GsOp::Add, self.chosen);
                }
                self.rank.set_context("main");
                viscous_volume(env, nu, &ws.q, rhs, &mut work.deriv);
            }
            Pipeline::Overlapped => {
                let mut qfaces = ws.qfaces.each_mut().map(|v| v.as_mut_slice());
                self.prof.enter(regions::GS_START);
                self.rank.set_context("faces_visc");
                handle.overlapped(self.rank, &mut qfaces, GsOp::Add, self.chosen, |rank, _| {
                    rank.set_context("main");
                    self.prof.exit();
                    viscous_volume(env, nu, &ws.q, rhs, &mut work.deriv);
                    self.prof.enter(regions::GS_FINISH);
                    rank.set_context("faces_visc");
                });
                self.rank.set_context("main");
                self.prof.exit();
            }
        }
        // `qfaces` holds the exchanged q-trace sum (own + neighbor); the
        // correction reads the own side from `q`, which the exchange
        // leaves untouched.
        for (axis, (q, qsum)) in ws.q.iter().zip(&ws.qfaces).enumerate() {
            br1_central_correction(basis, geom, axis, nu, q.as_slice(), qsum, rhs);
        }
        self.prof.exit();
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
                for (euler, dealias_m) in [
                    (false, None),
                    (false, Some(9)),
                    (false, Some(15)),
                    (true, None),
                ] {
                    let cfg = Config {
                        n,
                        fields: if euler { 5 } else { 2 },
                        variant,
                        euler,
                        dealias_m,
                        ..Default::default()
                    };
                    let env = Env::new(&cfg, &mesh_cfg, Basis::new(n));
                    let label = format!(
                        "{} n={n} euler={euler} dealias={dealias_m:?}",
                        variant.name()
                    );
                    for nel in [7, 13, 37] {
                        // Euler's fluxes divide by a positive density
                        let u = states(n, nel, cfg.fields, (100 * n + nel) as u64, 1.5, 0.4);
                        let volume = |u: &[Field], work: &mut BlockScratch| {
                            let nel = u[0].nel();
                            let mut rhs: Vec<Field> = (0..cfg.fields)
                                .map(|_| Field::from_vec(n, nel, vec![f64::NAN; n * n * n * nel]))
                                .collect();
                            let mut vol = VolumeTerm {
                                u,
                                rhs_all: &mut rhs,
                                work,
                            };
                            env.physics.volume(&mut vol, &env, &mut Profiler::new());
                            rhs
                        };
                        let want = per_element(nel, |e| {
                            volume(&element(&u, e), &mut BlockScratch::with_blocks(&env, 1, 1))
                        });
                        let own = BlockScratch::new(&env, nel);
                        let blocks = [
                            (
                                own.deriv.nel(),
                                own.fine.len() / dealias_m.map_or(1, |m| m * m * m),
                            ),
                            (2, 3),
                            (nel, nel),
                        ];
                        for (deriv, fine) in blocks {
                            let got = volume(&u, &mut BlockScratch::with_blocks(&env, deriv, fine));
                            assert!(
                                bits(&got) == want,
                                "{label} nel={nel}: blocks of {deriv} / {fine} diverged"
                            );
                        }
                        if euler || dealias_m.is_some() {
                            continue;
                        }
                        // the viscous divergence accumulates into a live rhs
                        let q: [Field; 3] =
                            states(n, nel, 3, nel as u64, 0.0, 1.0).try_into().unwrap();
                        let rhs0 = states(n, nel, 1, 7, 0.0, 1.0).remove(0);
                        let viscous = |q: &[Field; 3], rhs: &Field, deriv: usize| {
                            let mut rhs = rhs.clone();
                            let mut scratch = Field::zeros(n, deriv);
                            viscous_volume(&env, 0.03, q, &mut rhs, &mut scratch);
                            vec![rhs]
                        };
                        let want = per_element(nel, |e| {
                            let qe = element(&q, e).try_into().unwrap();
                            viscous(&qe, &element(std::slice::from_ref(&rhs0), e)[0], 1)
                        });
                        for deriv in [own.deriv.nel(), 2, 3, nel] {
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

    /// The partition's own blocks at the benchmark shapes: the derivative
    /// block keeps its arrays within the budget, and the dealias block its
    /// coarse and fine values.
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
            let m3 = m.map_or(0, |m| m * m * m);
            assert_eq!(work.fine.len(), m3 * fine, "n={n} m={m:?}");
            // a partition smaller than a block is one block of all
            assert_eq!(BlockScratch::new(&env, 2).deriv.nel(), deriv.min(2));
        }
    }
}
