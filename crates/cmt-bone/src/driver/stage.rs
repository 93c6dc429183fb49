//! The RK step: per stage one sequence mirroring the paper's Fig. 4 call
//! graph — volume term, surface extraction, exchange, lift, RK update —
//! under two schedules, blocking and overlapped, that differ only in
//! whether the volume term runs before the exchange or inside it.
//! [`super::physics::Physics`] picks which volume term and lift run; the
//! per-field routines they are built from live here.

use cmt_core::face;
use cmt_core::kernels::{self, DerivDir};
use cmt_core::ops::{
    advect_volume_rhs_slices, br1_central_correction, br1_gradient_lift, phys_grad,
};
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

/// What the volume term touches: a [`Block`] without its gs plan and face
/// traces, so it can run while an overlapped exchange holds those.
pub(super) struct VolumeTerm<'b> {
    nel: usize,
    pub u: &'b [Field],
    pub rhs_all: &'b mut [Field],
    pub scratch: &'b mut Field,
    pub flux: &'b mut [Field],
    dealias_fine: &'b mut [f64],
    dealias_scratch: &'b mut [f64],
}

impl Block {
    /// Split into the gs plan, the face traces and the volume term.
    fn split(&mut self) -> (&GsHandle, &mut [Vec<f64>], VolumeTerm<'_>) {
        let Block {
            nel,
            handle,
            u,
            rhs_all,
            scratch,
            flux,
            faces_all,
            dealias_fine,
            dealias_scratch,
            ..
        } = self;
        let vol = VolumeTerm {
            nel: *nel,
            u,
            rhs_all,
            scratch,
            flux,
            dealias_fine,
            dealias_scratch,
        };
        (handle, faces_all, vol)
    }
}

impl VolumeTerm<'_> {
    /// Field `f`'s advective flux divergence.
    pub(super) fn advect(&mut self, env: &Env, prof: &mut Profiler, f: usize) {
        let cfg = &env.cfg;
        prof.enter(regions::DERIV);
        advect_volume_rhs_slices(
            cfg.variant,
            &env.basis,
            &env.geom,
            cfg.velocity,
            cfg.n,
            self.nel,
            self.u[f].as_slice(),
            self.rhs_all[f].as_mut_slice(),
            self.scratch.as_mut_slice(),
        );
        prof.exit();
    }

    /// Field `f`'s dealiasing round trip, when dealiasing is on.
    pub(super) fn dealias(&mut self, env: &Env, prof: &mut Profiler, f: usize) {
        let (v, n, nel) = (env.cfg.variant, env.cfg.n, self.nel);
        if let Some((m, up, down)) = &env.dealias {
            let m = *m;
            prof.enter(regions::DEALIAS);
            let rhs = self.rhs_all[f].as_mut_slice();
            let fine = &mut *self.dealias_fine;
            let (t1, t2) = self.dealias_scratch.split_at_mut(m.max(n).pow(3));
            kernels::tensor3_apply_scratch_variant(v, m, n, up, rhs, fine, nel, t1, t2);
            kernels::tensor3_apply_scratch_variant(v, n, m, down, fine, rhs, nel, t1, t2);
            prof.exit();
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
            scratch,
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
        let mut volume = |q: &[f64], axis: usize, dir: DerivDir, rhs: &mut Field| {
            kernels::deriv(
                cfg.variant,
                dir,
                n,
                nel,
                &basis.d,
                q,
                scratch.as_mut_slice(),
            );
            rhs.axpy(nu * geom.dscale(axis), scratch);
        };
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
                for (axis, dir) in AXES {
                    volume(ws.q[axis].as_slice(), axis, dir, rhs);
                }
            }
            Pipeline::Overlapped => {
                let mut qfaces = ws.qfaces.each_mut().map(|v| v.as_mut_slice());
                self.prof.enter(regions::GS_START);
                self.rank.set_context("faces_visc");
                handle.overlapped(self.rank, &mut qfaces, GsOp::Add, self.chosen, |rank, _| {
                    rank.set_context("main");
                    self.prof.exit();
                    for (axis, dir) in AXES {
                        volume(ws.q[axis].as_slice(), axis, dir, rhs);
                    }
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
