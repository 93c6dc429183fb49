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
//! portion complete the reduction. Both portions walk ascending runs of
//! their slots (`SlotRuns`), built once per solve, so no per-point
//! branch on the flag remains.
//!
//! The vector tail is two sweeps: `r -= alpha w` with the local `<r, r>`
//! before the allreduce, then `x += alpha p` and `p = r + beta p` in one
//! pass once `beta` is known.

use std::ops::Range;

use cmt_core::Field;
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_perf::Profiler;
use cmt_resilience::{mismatch, App, Decoder, Encoder, Head, Mismatch, Resilience, Shape};
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
/// `rez` at its checkpoint cadence, scheduled rank kills from the
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
    restart: Option<Decoder>,
) -> CgStats {
    let (n, nel) = (b.n(), b.nel());
    assert_eq!((x.n(), x.nel()), (n, nel), "x shape");
    assert_eq!(inv_mult.len(), b.len(), "inv_mult length");
    if let Some(m) = mask {
        assert_eq!(m.len(), b.len(), "mask length");
    }
    let mut w = Field::zeros(n, nel);
    // `ax` scratch: one element block.
    let scratch = op.scratch_elems(nel);
    let mut t1 = Field::zeros(n, scratch);
    let mut t2 = Field::zeros(n, scratch);
    // Interior slots are untouched by dssum: their dot-product partial can
    // run inside the split-phase overlap window.
    let runs = SlotRuns::new(&handle.shared_slot_flags());

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
    let rz = glsc3(rank, &r, &r, inv_mult);
    let mut st = CgState {
        p: r.clone(),
        r,
        rz,
        history: vec![rz.max(0.0).sqrt()],
        iters: 0,
    };

    // Disk restart: overwrite the freshly built iteration state with the
    // checkpointed one and resume at its iteration index.
    if let Some(dec) = restart {
        st.restore(rank, dec, x)
            .unwrap_or_else(|e| panic!("rank {}: restart: {e}", rank.rank()));
    }

    while st.iters < max_iter {
        // Checkpoint at the top of the iteration, before any kill
        // scheduled here fires, so a kill at iteration i rolls back to a
        // capture taken at (or before) i.
        if rez.checkpoint_due(st.iters as u64) {
            prof.enter(cmt_perf::regions::CHECKPOINT);
            rez.save_with(rank, |rank, buf| st.encode(rank, x, buf));
            prof.exit();
        }
        let killed = rez.killed_at(rank, st.iters as u64);
        if !killed.is_empty() {
            prof.enter(cmt_perf::regions::RECOVERY);
            let back = rez.recover(rank, &killed);
            st.restore(rank, back, x)
                .expect("a rollback restores this run's own checkpoint");
            prof.exit();
            continue;
        }
        if st.history.last().copied().unwrap_or(0.0) <= tol {
            break;
        }
        let pap = apply_assembled_dot(
            rank, op, handle, method, mask, inv_mult, &runs, &st.p, &mut w, &mut t1, &mut t2, prof,
        );
        assert!(
            pap > 0.0,
            "CG breakdown: p^T A p = {pap} (operator not SPD?)"
        );
        let alpha = st.rz / pap;
        // The vector tail in two sweeps. The first needs only `w`:
        // `r -= alpha w` and the local `<r, r>` in ascending order,
        // before the allreduce. The second waits for beta and reads each
        // `p` once for both `x += alpha p` and `p = r + beta p`. Nothing
        // reads `x` between the two, and every per-point expression is
        // the one `axpy`/`axpby` computes, so each bit holds (the
        // kill+rollback test pins the residual history).
        prof.enter("cg_residual (r -= alpha w, <r, r>)");
        let local = residual_sweep(st.r.as_mut_slice(), w.as_slice(), inv_mult, alpha);
        prof.exit();
        rank.set_context("glsc3");
        let rz_new = rank.allreduce_scalar(local, ReduceOp::Sum);
        rank.set_context("main");
        let beta = rz_new / st.rz;
        st.rz = rz_new;
        prof.enter("cg_update (x += alpha p, p = r + beta p)");
        update_sweep(
            x.as_mut_slice(),
            st.p.as_mut_slice(),
            st.r.as_slice(),
            alpha,
            beta,
        );
        prof.exit();
        st.history.push(st.rz.max(0.0).sqrt());
        st.iters += 1;
    }

    CgStats {
        iterations: st.iters,
        res_history: st.history,
    }
}

/// The first sweep of the CG tail: `r -= alpha w`, returning the local
/// weighted `<r, r>` partial summed in ascending index order.
fn residual_sweep(r: &mut [f64], w: &[f64], inv_mult: &[f64], alpha: f64) -> f64 {
    let (w, inv_mult) = (&w[..r.len()], &inv_mult[..r.len()]);
    let mut local = 0.0;
    for ((rv, &wv), &im) in r.iter_mut().zip(w).zip(inv_mult) {
        *rv += -alpha * wv;
        local += *rv * *rv * im;
    }
    local
}

/// The second sweep of the CG tail, once `beta` is known: per point,
/// `x += alpha p` with the old `p`, then `p = beta p + 1.0 r` — the
/// [`Field::axpy`] and [`Field::axpby`] expressions.
fn update_sweep(x: &mut [f64], p: &mut [f64], r: &[f64], alpha: f64, beta: f64) {
    let (p, r) = (&mut p[..x.len()], &r[..x.len()]);
    for ((xv, pv), &rv) in x.iter_mut().zip(p).zip(r) {
        let old = *pv;
        *xv += alpha * old;
        *pv = beta * old + 1.0 * rv;
    }
}

/// A rank's slots split by [`GsHandle::shared_slot_flags`] into
/// ascending runs: `interior` slots, which no `gs_op` changes, and
/// `shared` ones. Walking runs keeps each dot product's ascending order
/// within its half without a per-point branch.
struct SlotRuns {
    interior: Vec<Range<usize>>,
    shared: Vec<Range<usize>>,
}

impl SlotRuns {
    fn new(shared: &[bool]) -> Self {
        let mut runs = SlotRuns {
            interior: Vec::new(),
            shared: Vec::new(),
        };
        let mut lo = 0;
        for (i, &sh) in shared.iter().enumerate() {
            if shared.get(i + 1) != Some(&sh) {
                let kind = if sh {
                    &mut runs.shared
                } else {
                    &mut runs.interior
                };
                kind.push(lo..i + 1);
                lo = i + 1;
            }
        }
        runs
    }
}

/// `sum u_i w_i m_i` (times `mask_i` when given) over `runs`, in
/// ascending order: one partial of the weighted `<u, w>`.
fn runs_dot(
    runs: &[Range<usize>],
    us: &[f64],
    ws: &[f64],
    inv_mult: &[f64],
    mask: Option<&[f64]>,
) -> f64 {
    let mut acc = 0.0;
    for run in runs {
        let terms = us[run.clone()]
            .iter()
            .zip(&ws[run.clone()])
            .zip(&inv_mult[run.clone()])
            .map(|((&u, &w), &im)| u * w * im);
        match mask {
            None => terms.for_each(|t| acc += t),
            Some(m) => terms
                .zip(&m[run.clone()])
                .for_each(|(t, &mw)| acc += t * mw),
        }
    }
    acc
}

/// The CG iteration state besides `x`: what a checkpoint captures with
/// it, and a rollback or restart restores.
struct CgState {
    r: Field,
    p: Field,
    rz: f64,
    /// Residual norms, the initial one first.
    history: Vec<f64>,
    iters: usize,
}

impl CgState {
    /// Encode the state and `x` at the top of iteration `iters` into
    /// `buf`, straight from the live vectors: fields `x`, `r`, `p`, and
    /// as scalars the head (app tag and world size,
    /// [`Encoder::begin_scalars`]), `rz` and the residual history.
    fn encode(&self, rank: &Rank, x: &Field, buf: &mut Vec<u8>) {
        let head = Head {
            rank: rank.rank() as u64,
            step: self.iters as u64,
            stage: 0,
            time: 0.0,
            rng_state: rank.fault_rng_state().unwrap_or(0),
        };
        let shape = Shape {
            scalars: 3 + self.history.len(),
            fields: 3,
            values: x.len() + self.r.len() + self.p.len(),
        };
        let mut enc = Encoder::new(buf, &head, shape);
        enc.begin_scalars(App::Nekbone, rank.size());
        enc.scalar(self.rz);
        enc.scalars(&self.history);
        let mut fields = enc.fields();
        for f in [x, &self.r, &self.p] {
            fields.field(f.as_slice());
        }
        fields.finish();
    }

    /// Restore what [`CgState::encode`] wrote, decoding straight into the
    /// live vectors.
    fn restore(
        &mut self,
        rank: &mut Rank,
        mut dec: Decoder,
        x: &mut Field,
    ) -> Result<(), Mismatch> {
        let mut scalars = dec.body_scalars(App::Nekbone, rank)?;
        let Some(rz) = scalars.next() else {
            return mismatch!("no scalars, CG restores rz and the residual history");
        };
        for f in [x, &mut self.r, &mut self.p] {
            dec.field_into(f.as_mut_slice())?;
        }
        let head = dec.head();
        dec.finish()?;
        self.rz = rz;
        self.history.clear();
        self.history.extend(scalars);
        self.iters = head.step as usize;
        rank.set_fault_rng_state(head.rng_state);
        Ok(())
    }
}

/// The local `ax` body of an apply, under its profiler region.
fn apply_ax(
    op: &AxOperator,
    u: &Field,
    w: &mut Field,
    t1: &mut Field,
    t2: &mut Field,
    prof: &mut Profiler,
) {
    prof.enter("ax_e (local stiffness+mass)");
    op.apply(u, w, t1, t2);
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
    runs: &SlotRuns,
    u: &Field,
    w: &mut Field,
    t1: &mut Field,
    t2: &mut Field,
    prof: &mut Profiler,
) -> f64 {
    apply_ax(op, u, w, t1, t2, prof);

    prof.enter("dssum (gs_op)");
    prof.enter("dssum_start (post + interior combine)");
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
        let interior = runs_dot(&runs.interior, u.as_slice(), w[0], inv_mult, mask);
        prof.exit();

        prof.enter("dssum (gs_op)");
        prof.enter("dssum_finish (wait + halo)");
        rank.set_context("dssum");
        interior
    });
    rank.set_context("main");
    prof.exit();
    prof.exit();

    if let Some(m) = mask {
        apply_mask(w, m);
    }

    // The mask is already in `w` here.
    prof.enter("glsc3_shared");
    let shared = runs_dot(&runs.shared, u.as_slice(), w.as_slice(), inv_mult, None);
    prof.exit();
    rank.set_context("glsc3");
    let out = rank.allreduce_scalar(interior + shared, ReduceOp::Sum);
    rank.set_context("main");
    out
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
    apply_ax(op, u, w, t1, t2, prof);
    prof.enter("dssum (gs_op)");
    rank.set_context("dssum");
    handle.gs_op(rank, w.as_mut_slice(), GsOp::Add, method);
    rank.set_context("main");
    prof.exit();
    if let Some(m) = mask {
        apply_mask(w, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_resilience::Checkpoint;

    /// Xorshift values in `[-1, 1)` scaled by `10^-3 .. 10^3`, so that
    /// any change of summation order shows in the low bits.
    fn values(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len)
            .map(|_| {
                let v = (next() as f64 / u64::MAX as f64) * 2.0 - 1.0;
                v * 10f64.powi((next() % 7) as i32 - 3)
            })
            .collect()
    }

    /// Shared flags in runs of 1–6 slots, starting and ending on the
    /// given kinds.
    fn flags(len: usize, first: bool, last: bool, seed: u64) -> Vec<bool> {
        let lens = values(len, seed);
        let mut out = Vec::with_capacity(len);
        let mut kind = first;
        for l in lens {
            let run = 1 + (l.to_bits() % 6) as usize;
            out.extend(std::iter::repeat_n(kind, run));
            kind = !kind;
            if out.len() >= len {
                break;
            }
        }
        out.truncate(len);
        out[len - 1] = last;
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn slot_runs_partition_the_slots_in_ascending_alternating_runs() {
        for (first, last) in [(false, false), (false, true), (true, false), (true, true)] {
            let sh = flags(101, first, last, 3);
            let runs = SlotRuns::new(&sh);
            let mut all: Vec<(Range<usize>, bool)> = runs
                .interior
                .iter()
                .map(|r| (r.clone(), false))
                .chain(runs.shared.iter().map(|r| (r.clone(), true)))
                .collect();
            all.sort_by_key(|(r, _)| r.start);
            assert_eq!(all[0].0.start, 0);
            assert_eq!(all.last().expect("runs").0.end, sh.len());
            for pair in all.windows(2) {
                assert_eq!(pair[0].0.end, pair[1].0.start, "runs leave a gap");
                assert_ne!(pair[0].1, pair[1].1, "adjacent runs of one kind");
            }
            for (run, kind) in &all {
                assert!(!run.is_empty() && sh[run.clone()].iter().all(|&s| s == *kind));
            }
        }
        let none = SlotRuns::new(&[]);
        assert!(none.interior.is_empty() && none.shared.is_empty());
    }

    /// The fused `x`/`r`/`<r, r>` loop and `Field::axpby` the two sweeps
    /// replace, as the oracle: the sweeps must match them bit for bit.
    #[test]
    fn two_sweep_tail_matches_the_fused_loop_and_axpby() {
        let (n, nel) = (4, 5);
        let len = n * n * n * nel;
        for seed in 1..6 {
            let [x0, r0, p0, w, im] = [0, 1, 2, 3, 4].map(|k| values(len, 10 * seed + k));
            let im: Vec<f64> = im.iter().map(|v| v.abs()).collect();
            let alpha = values(1, seed)[0];
            let beta = values(1, seed + 100)[0];

            let (mut x, mut r, p) = (x0.clone(), r0.clone(), p0.clone());
            let mut local = 0.0;
            for i in 0..x.len() {
                x[i] += alpha * p[i];
                r[i] += -alpha * w[i];
                local += r[i] * r[i] * im[i];
            }
            let mut pf = Field::from_vec(n, nel, p);
            pf.axpby(1.0, &Field::from_vec(n, nel, r.clone()), beta);

            let (mut x1, mut r1, mut p1) = (x0, r0, p0);
            let local1 = residual_sweep(&mut r1, &w, &im, alpha);
            update_sweep(&mut x1, &mut p1, &r1, alpha, beta);
            assert_eq!(local1.to_bits(), local.to_bits(), "seed {seed}: <r, r>");
            assert_eq!(bits(&r1), bits(&r), "seed {seed}: r");
            assert_eq!(bits(&x1), bits(&x), "seed {seed}: x");
            assert_eq!(bits(&p1), bits(pf.as_slice()), "seed {seed}: p");
        }
    }

    /// The per-point flag loops the run-length partials replace (the
    /// interior one with its `* mw` mask factor), as the oracle.
    #[test]
    fn run_length_partials_match_the_flag_loops() {
        let len = 500;
        for (first, last) in [(false, false), (false, true), (true, false), (true, true)] {
            for seed in 1..4 {
                let sh = flags(len, first, last, seed);
                let [us, ws, im, m] = [0, 1, 2, 3].map(|k| values(len, 10 * seed + k));
                let im: Vec<f64> = im.iter().map(|v| v.abs()).collect();
                let mask: Vec<f64> = m.iter().map(|&v| f64::from(u8::from(v > -0.3))).collect();
                let runs = SlotRuns::new(&sh);
                for mask in [None, Some(&mask[..])] {
                    let mut interior = 0.0;
                    for (i, (&s, &im)) in sh.iter().zip(&im).enumerate() {
                        if !s {
                            let mw = mask.map_or(1.0, |m| m[i]);
                            interior += us[i] * ws[i] * im * mw;
                        }
                    }
                    let got = runs_dot(&runs.interior, &us, &ws, &im, mask);
                    let label = format!("{first}/{last} seed {seed} mask {}", mask.is_some());
                    assert_eq!(got.to_bits(), interior.to_bits(), "interior, {label}");
                }
                let mut shared = 0.0;
                for (i, (&s, &im)) in sh.iter().zip(&im).enumerate() {
                    if s {
                        shared += us[i] * ws[i] * im;
                    }
                }
                let got = runs_dot(&runs.shared, &us, &ws, &im, None);
                assert_eq!(
                    got.to_bits(),
                    shared.to_bits(),
                    "shared, {first}/{last} seed {seed}"
                );
            }
        }
    }

    /// The capture [`CgState::encode`] replaced, kept as its oracle: the
    /// iteration state copied into a fresh [`Checkpoint`].
    fn captured(
        rank: &Rank,
        iters: usize,
        fields: [&Field; 3],
        rz: f64,
        history: &[f64],
    ) -> Checkpoint {
        let mut ckpt = Checkpoint {
            rank: rank.rank() as u64,
            step: iters as u64,
            stage: 0,
            time: 0.0,
            rng_state: rank.fault_rng_state().unwrap_or(0),
            scalars: vec![App::Nekbone.tag(), rank.size() as f64, rz],
            fields: fields.map(|f| f.as_slice().to_vec()).to_vec(),
        };
        ckpt.scalars.extend_from_slice(history);
        ckpt
    }

    /// Encoding the CG state from the live vectors writes the bytes
    /// `Checkpoint::encode` writes for the old capture, with a delay plan
    /// setting the fault-RNG state in the head, and restoring them into
    /// zeroed vectors gives back every bit.
    #[test]
    fn encoding_from_state_matches_the_captured_checkpoint() {
        let plan = simmpi::FaultPlan::parse("delay:prob=0.5,us=1;seed=5").unwrap();
        let res = simmpi::World::new().with_fault_plan(plan).run(3, |rank| {
            let seed = rank.rank() as u64;
            let [x, r, p] = [1, 2, 3].map(|k| Field::from_vec(4, 5, values(320, 10 * seed + k)));
            let history = values(7 + rank.rank(), 99 + seed);
            let st = CgState {
                r,
                p,
                rz: 0.125,
                history,
                iters: 11,
            };
            let mut buf = vec![0x5A; 3];
            st.encode(rank, &x, &mut buf);
            let want = captured(rank, 11, [&x, &st.r, &st.p], 0.125, &st.history);
            let zero = || Field::zeros(4, 5);
            let mut back = CgState {
                r: zero(),
                p: zero(),
                rz: 0.0,
                history: Vec::new(),
                iters: 0,
            };
            let mut x_back = zero();
            back.restore(rank, Decoder::new(&buf).unwrap(), &mut x_back)
                .unwrap();
            let bits = |f: &Field| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x_back), bits(&x));
            assert_eq!([bits(&back.r), bits(&back.p)], [bits(&st.r), bits(&st.p)]);
            assert_eq!(
                (back.rz, &back.history, back.iters),
                (0.125, &st.history, 11)
            );
            (buf, want)
        });
        for (rank, (bytes, want)) in res.results.iter().enumerate() {
            assert!(
                want.rng_state != 0,
                "rank {rank}: the delay plan sets the RNG"
            );
            assert!(*bytes == want.encode(), "rank {rank}: bytes differ");
        }
    }
}
