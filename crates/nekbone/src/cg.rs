//! Distributed conjugate gradients with direct-stiffness summation.
//!
//! Nekbone's solver loop: per iteration one `ax` application, one `dssum`
//! (gather-scatter `Add` over the continuous numbering), and two
//! multiplicity-weighted dot products completed by `MPI_Allreduce` — the
//! communication mix the paper's Fig. 7 Nekbone rows measure.
//!
//! Vectors are stored redundantly (each rank holds every value of its own
//! elements; shared interface points are replicated), the Nek convention:
//! a vector is *consistent* when replicated entries agree. `ax` produces
//! inconsistent partial sums, `dssum` restores consistency, and dot
//! products weight each entry by the reciprocal of its sharer count so
//! every mathematical degree of freedom counts once.
//!
//! The iteration's `dssum` runs split-phase: after `ax` the exchange is
//! *started*, the interior portion of the `<p, A p>` dot product — slots
//! whose values no `gs_op` can change, per
//! [`GsHandle::shared_slot_flags`] — accumulates while the face messages
//! are in flight, and only then does the exchange finish and the shared
//! portion complete the reduction.

use cmt_core::Field;
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_perf::Profiler;
use cmt_resilience::{Checkpoint, Resilience};
use simmpi::{Rank, ReduceOp};

use crate::ax::AxOperator;

/// Convergence/progress statistics of one CG solve.
#[derive(Debug, Clone)]
pub struct CgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Global residual norm `sqrt(<r, r>)` after each iteration
    /// (index 0 = initial residual).
    pub res_history: Vec<f64>,
}

impl CgStats {
    /// Final residual norm.
    pub fn final_residual(&self) -> f64 {
        *self.res_history.last().expect("history never empty")
    }
}

/// Multiplicity-weighted global dot product `<a, b> = sum a_i b_i / mult_i`.
pub fn glsc3(rank: &mut Rank, a: &Field, b: &Field, inv_mult: &[f64]) -> f64 {
    let local: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .zip(inv_mult)
        .map(|((&x, &y), &m)| x * y * m)
        .sum();
    rank.set_context("glsc3");
    let out = rank.allreduce_scalar(local, ReduceOp::Sum);
    rank.set_context("main");
    out
}

/// Solve `A x = b` by CG, where the assembled operator is
/// `mask(dssum(A_local u))`. `b` must be consistent (and masked, for a
/// Dirichlet problem); `x` is used as the initial guess and holds the
/// solution on return.
///
/// `mask` implements homogeneous Dirichlet conditions the Nekbone way: a
/// 0/1 vector zeroing boundary degrees of freedom after every operator
/// application, restricting CG to the interior subspace. `None` solves
/// the unconstrained (periodic/Neumann-free) system.
///
/// `prof` may be shared with an outer driver; the solve opens regions
/// `ax_e`, `dssum`, and CG vector ops under whatever region is current.
#[allow(clippy::too_many_arguments)]
pub fn cg_solve(
    rank: &mut Rank,
    op: &AxOperator,
    handle: &GsHandle,
    method: GsMethod,
    inv_mult: &[f64],
    mask: Option<&[f64]>,
    b: &Field,
    x: &mut Field,
    tol: f64,
    max_iter: usize,
    prof: &mut Profiler,
) -> CgStats {
    let mut rez = Resilience::new(0, None);
    cg_solve_resilient(
        rank, op, handle, method, inv_mult, mask, b, x, tol, max_iter, prof, &mut rez, None,
    )
}

/// [`cg_solve`] with checkpoint/restart: a checkpoint of the iteration
/// state (`x`, `r`, `p`, `rz`, the residual history) is captured through
/// `rez` every `rez.every()` iterations, scheduled rank kills from the
/// world's fault plan trigger the coordinated rollback, and `restart`
/// resumes a previous run's solve from its on-disk checkpoint.
#[allow(clippy::too_many_arguments)]
pub fn cg_solve_resilient(
    rank: &mut Rank,
    op: &AxOperator,
    handle: &GsHandle,
    method: GsMethod,
    inv_mult: &[f64],
    mask: Option<&[f64]>,
    b: &Field,
    x: &mut Field,
    tol: f64,
    max_iter: usize,
    prof: &mut Profiler,
    rez: &mut Resilience,
    restart: Option<&Checkpoint>,
) -> CgStats {
    let (n, nel) = (b.n(), b.nel());
    assert_eq!((x.n(), x.nel()), (n, nel), "x shape");
    assert_eq!(inv_mult.len(), b.len(), "inv_mult length");
    if let Some(m) = mask {
        assert_eq!(m.len(), b.len(), "mask length");
    }
    let mut w = Field::zeros(n, nel);
    let mut t1 = Field::zeros(n, nel);
    let mut t2 = Field::zeros(n, nel);
    // Interior slots are untouched by dssum: their dot-product partial can
    // run inside the split-phase overlap window.
    let shared = handle.shared_slot_flags();

    // r = b - A x (skip the apply when x = 0, the usual Nekbone start)
    let mut r = b.clone();
    if x.as_slice().iter().any(|&v| v != 0.0) {
        apply_assembled(
            rank, op, handle, method, mask, x, &mut w, &mut t1, &mut t2, prof,
        );
        r.axpy(-1.0, &w);
    }
    if let Some(m) = mask {
        apply_mask(&mut r, m);
    }
    let mut p = r.clone();
    let mut rz = glsc3(rank, &r, &r, inv_mult);
    let mut history = vec![rz.max(0.0).sqrt()];
    let mut iters = 0;

    // Disk restart: overwrite the freshly built iteration state with the
    // checkpointed one and resume at its iteration index.
    if let Some(ckpt) = restart {
        restore_cg_state(
            rank,
            ckpt,
            x,
            &mut r,
            &mut p,
            &mut rz,
            &mut history,
            &mut iters,
        );
    }

    while iters < max_iter {
        // Checkpoint at the top of the iteration, before any kill
        // scheduled here fires, so a kill at iteration i rolls back to a
        // capture taken at (or before) i.
        if rez.checkpoint_due(iters as u64) {
            prof.enter(cmt_perf::regions::CHECKPOINT);
            rez.save(
                rank,
                &capture_cg_state(rank, iters, x, &r, &p, rz, &history),
            );
            prof.exit();
        }
        let killed = rez.killed_at(rank, iters as u64);
        if !killed.is_empty() {
            prof.enter(cmt_perf::regions::RECOVERY);
            let back = rez.recover(rank, &killed);
            restore_cg_state(
                rank,
                &back,
                x,
                &mut r,
                &mut p,
                &mut rz,
                &mut history,
                &mut iters,
            );
            prof.exit();
            continue;
        }
        if history.last().copied().unwrap_or(0.0) <= tol {
            break;
        }
        let pap = apply_assembled_dot(
            rank, op, handle, method, mask, inv_mult, &shared, &p, &mut w, &mut t1, &mut t2, prof,
        );
        assert!(
            pap > 0.0,
            "CG breakdown: p^T A p = {pap} (operator not SPD?)"
        );
        let alpha = rz / pap;
        // Fused triple pass: x += alpha p, r -= alpha w, and the local
        // <r, r> partial in one sweep. Each array's per-index update and
        // the ascending-index accumulation match the separate
        // axpy/axpy/glsc3 passes exactly, so the residual history stays
        // bitwise identical (the kill+rollback test pins this).
        let rz_new = {
            let xs = x.as_mut_slice();
            let rs = r.as_mut_slice();
            let ps = p.as_slice();
            let ws = w.as_slice();
            let mut local = 0.0;
            for i in 0..xs.len() {
                xs[i] += alpha * ps[i];
                rs[i] += -alpha * ws[i];
                local += rs[i] * rs[i] * inv_mult[i];
            }
            rank.set_context("glsc3");
            let out = rank.allreduce_scalar(local, ReduceOp::Sum);
            rank.set_context("main");
            out
        };
        let beta = rz_new / rz;
        rz = rz_new;
        // p = r + beta p
        p.axpby(1.0, &r, beta);
        history.push(rz.max(0.0).sqrt());
        iters += 1;
    }

    CgStats {
        iterations: iters,
        res_history: history,
    }
}

/// Capture the CG iteration state at the top of iteration `iters`:
/// fields `x`, `r`, `p`, and `rz` plus the residual history as scalars.
fn capture_cg_state(
    rank: &Rank,
    iters: usize,
    x: &Field,
    r: &Field,
    p: &Field,
    rz: f64,
    history: &[f64],
) -> Checkpoint {
    let mut scalars = Vec::with_capacity(1 + history.len());
    scalars.push(rz);
    scalars.extend_from_slice(history);
    Checkpoint {
        rank: rank.rank() as u64,
        step: iters as u64,
        stage: 0,
        time: 0.0,
        rng_state: rank.fault_rng_state().unwrap_or(0),
        scalars,
        fields: vec![
            x.as_slice().to_vec(),
            r.as_slice().to_vec(),
            p.as_slice().to_vec(),
        ],
    }
}

/// Restore the iteration state captured by [`capture_cg_state`].
#[allow(clippy::too_many_arguments)]
fn restore_cg_state(
    rank: &mut Rank,
    ckpt: &Checkpoint,
    x: &mut Field,
    r: &mut Field,
    p: &mut Field,
    rz: &mut f64,
    history: &mut Vec<f64>,
    iters: &mut usize,
) {
    assert_eq!(ckpt.fields.len(), 3, "CG checkpoint holds x, r, p");
    for (dst, src) in [&mut *x, r, p].into_iter().zip(&ckpt.fields) {
        assert_eq!(
            dst.as_slice().len(),
            src.len(),
            "CG checkpoint field size mismatch"
        );
        dst.as_mut_slice().copy_from_slice(src);
    }
    assert!(
        !ckpt.scalars.is_empty(),
        "CG checkpoint scalars hold rz + residual history"
    );
    *rz = ckpt.scalars[0];
    history.clear();
    history.extend_from_slice(&ckpt.scalars[1..]);
    *iters = ckpt.step as usize;
    rank.set_fault_rng_state(ckpt.rng_state);
}

/// The local `ax` body of an apply, under its profiler region: the
/// element loop is shared across the rank's worker pool when one is
/// configured (`--workers`), and worker-side heap counters are charged
/// to the region, keeping per-region allocation attribution exact under
/// hybrid runs.
fn apply_ax(
    rank: &Rank,
    op: &AxOperator,
    u: &Field,
    w: &mut Field,
    t1: &mut Field,
    t2: &mut Field,
    prof: &mut Profiler,
) {
    prof.enter("ax_e (local stiffness+mass)");
    let (allocs, bytes) = op.apply_pooled(rank.worker_pool().as_deref(), u, w, t1, t2);
    prof.charge_allocs(allocs, bytes);
    prof.exit();
}

/// Zero the masked (Dirichlet) degrees of freedom.
pub fn apply_mask(v: &mut Field, mask: &[f64]) {
    for (x, &m) in v.as_mut_slice().iter_mut().zip(mask) {
        *x *= m;
    }
}

/// One assembled operator application fused with the weighted dot product:
/// `w = mask(dssum(A_local u))`, returning the global `<u, w>`.
///
/// The split-phase schedule: `ax`, then the dssum exchange runs
/// `overlapped` with the interior partial of the dot product (slots no
/// `gs_op` can change), which accumulates while the messages are in
/// flight; the exchange lands the sums, and the shared partial plus
/// one `MPI_Allreduce` complete the product. Versus the blocking
/// apply-then-`glsc3` sequence, only the reduction's summation order
/// changes (interior before shared), so results agree to roundoff.
#[allow(clippy::too_many_arguments)]
fn apply_assembled_dot(
    rank: &mut Rank,
    op: &AxOperator,
    handle: &GsHandle,
    method: GsMethod,
    mask: Option<&[f64]>,
    inv_mult: &[f64],
    shared: &[bool],
    u: &Field,
    w: &mut Field,
    t1: &mut Field,
    t2: &mut Field,
    prof: &mut Profiler,
) -> f64 {
    apply_ax(rank, op, u, w, t1, t2, prof);

    prof.enter("dssum (gs_op)");
    prof.enter("dssum_start (post exchange)");
    rank.set_context("dssum");
    let exchanged = &mut [w.as_mut_slice()];
    let interior = handle.overlapped(rank, exchanged, GsOp::Add, method, |rank, w| {
        rank.set_context("main");
        prof.exit();
        prof.exit();

        // Overlap window: the interior partial of <u, w>. The mask
        // multiplies w *after* dssum, but interior slots keep their
        // pre-exchange values, so folding it in here is exact.
        prof.enter("glsc3_interior (overlap window)");
        let interior = interior_dot(u.as_slice(), w[0], shared, inv_mult, mask);
        prof.exit();

        prof.enter("dssum (gs_op)");
        prof.enter("dssum_finish (wait + combine)");
        rank.set_context("dssum");
        interior
    });
    rank.set_context("main");
    prof.exit();
    prof.exit();

    if let Some(m) = mask {
        apply_mask(w, m);
    }

    let mut shared_part = 0.0;
    {
        let us = u.as_slice();
        let ws = w.as_slice();
        for (i, (&sh, &im)) in shared.iter().zip(inv_mult).enumerate() {
            if sh {
                shared_part += us[i] * ws[i] * im;
            }
        }
    }
    rank.set_context("glsc3");
    let out = rank.allreduce_scalar(interior + shared_part, ReduceOp::Sum);
    rank.set_context("main");
    out
}

/// The interior (unshared-slot) partial of the masked, multiplicity-
/// weighted `<u, w>`. A function of its own, taking slices, rather than
/// inline in the overlap window's closure: measured on `cg_n10`, the
/// whole CG step is ~4 % faster this way.
fn interior_dot(
    us: &[f64],
    ws: &[f64],
    shared: &[bool],
    inv_mult: &[f64],
    mask: Option<&[f64]>,
) -> f64 {
    let mut interior = 0.0;
    for (i, (&sh, &im)) in shared.iter().zip(inv_mult).enumerate() {
        if !sh {
            let mw = mask.map_or(1.0, |m| m[i]);
            interior += us[i] * ws[i] * im * mw;
        }
    }
    interior
}

/// One assembled operator application: `w = mask(dssum(A_local u))`.
#[allow(clippy::too_many_arguments)]
fn apply_assembled(
    rank: &mut Rank,
    op: &AxOperator,
    handle: &GsHandle,
    method: GsMethod,
    mask: Option<&[f64]>,
    u: &Field,
    w: &mut Field,
    t1: &mut Field,
    t2: &mut Field,
    prof: &mut Profiler,
) {
    apply_ax(rank, op, u, w, t1, t2, prof);
    prof.enter("dssum (gs_op)");
    rank.set_context("dssum");
    handle.gs_op(rank, w.as_mut_slice(), GsOp::Add, method);
    rank.set_context("main");
    prof.exit();
    if let Some(m) = mask {
        apply_mask(w, m);
    }
}
