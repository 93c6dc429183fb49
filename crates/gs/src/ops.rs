//! `gs_op`: the gather–scatter operation with the three exchange methods,
//! in both blocking and split-phase (start/finish) form.

use simmpi::{Rank, RecvRequest, Tag};

use crate::handle::{GsHandle, PlanBufs};

/// The combining operator of a gather–scatter (the ops gslib offers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GsOp {
    /// Sum over all occurrences (the `dssum` / flux-accumulation op).
    Add,
    /// Product over all occurrences.
    Mul,
    /// Minimum over all occurrences.
    Min,
    /// Maximum over all occurrences.
    Max,
}

impl GsOp {
    /// The operator's identity element.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            GsOp::Add => 0.0,
            GsOp::Mul => 1.0,
            GsOp::Min => f64::INFINITY,
            GsOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Combine two values.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            GsOp::Add => add(a, b),
            GsOp::Mul => mul(a, b),
            GsOp::Min => f64::min(a, b),
            GsOp::Max => f64::max(a, b),
        }
    }
}

#[inline]
fn add(a: f64, b: f64) -> f64 {
    a + b
}

#[inline]
fn mul(a: f64, b: f64) -> f64 {
    a * b
}

/// Call `$method` on `$handle` with `$op`'s combine appended as a
/// concrete function item: the one place an operator is matched, so the
/// gather, fold and scatter loops are compiled once per operator and
/// carry no branch on it.
macro_rules! with_combine {
    ($op:expr, $handle:ident.$method:ident($($arg:expr),*)) => {
        match $op {
            GsOp::Add => $handle.$method($($arg,)* add),
            GsOp::Mul => $handle.$method($($arg,)* mul),
            GsOp::Min => $handle.$method($($arg,)* f64::min),
            GsOp::Max => $handle.$method($($arg,)* f64::max),
        }
    };
}

/// The three exchange strategies evaluated at mini-app startup
/// (paper §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GsMethod {
    /// Direct isend/irecv/waitall with every touching neighbor.
    PairwiseExchange,
    /// Hypercube-staged crystal router (`log2 P` bundled stages).
    CrystalRouter,
    /// Allreduce of a dense vector over the global id universe.
    AllReduce,
}

impl GsMethod {
    /// All three methods in the paper's order.
    pub const ALL: [GsMethod; 3] = [
        GsMethod::PairwiseExchange,
        GsMethod::CrystalRouter,
        GsMethod::AllReduce,
    ];

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            GsMethod::PairwiseExchange => "pairwise exchange",
            GsMethod::CrystalRouter => "crystal router",
            GsMethod::AllReduce => "all_reduce",
        }
    }

    /// Context label under which the method's traffic is recorded.
    pub fn context(self) -> &'static str {
        match self {
            GsMethod::PairwiseExchange => "gs:pairwise",
            GsMethod::CrystalRouter => "gs:crystal",
            GsMethod::AllReduce => "gs:allreduce",
        }
    }
}

/// Tag space for split-phase pairwise exchanges: a fixed prefix plus a
/// per-operation sequence number ([`Rank::next_user_seq`]), so several
/// in-flight exchanges — even over the same neighbor topology — can
/// never cross-match, whatever order they are finished in.
const SPLIT_TAG_BASE: Tag = 0x65 << 40; // 'gs' prefix, below the user-tag limit
const SPLIT_SEQ_MASK: Tag = (1 << 40) - 1;

/// An in-flight split-phase gather–scatter: the token returned by
/// [`GsHandle::gs_op_start`] and consumed by [`GsHandle::gs_op_finish`].
///
/// Owns the snapshot of the halo groups' locally combined values, the
/// identity (address and length) of every array the operation was
/// started on, whether the rank-interior ids are combined yet, and, for
/// the pairwise method, the posted receive requests. It must be
/// finished: dropping it unfinished panics, since the arrays would keep
/// their started values and the neighbors' messages would sit
/// unmatched. Not nameable outside this crate:
/// callers overlap work through [`GsHandle::overlapped`], which finishes
/// the exchange however its window returns.
#[must_use = "a started gather–scatter must be finished with gs_op_finish \
              (dropping it unfinished panics)"]
#[derive(Debug)]
pub struct GsPending {
    op: GsOp,
    method: GsMethod,
    /// `(address, length)` of each started array, in field order — what
    /// `gs_op_finish` must be handed back. Never empty until
    /// `gs_op_finish` takes it (`gs_op_start` asserts at least one field).
    arrays: Vec<(usize, usize)>,
    /// Combined values of the halo groups, laid out `[halo group][field]`.
    combined: Vec<f64>,
    /// Whether the rank-interior ids were combined at start (the
    /// [`GsHandle::overlapped`] path, which holds the arrays mutably);
    /// the raw [`GsHandle::gs_op_start`] sees them read-only and leaves
    /// the interior to finish.
    interior_done: bool,
    /// Posted receives, one per neighbor in neighbor order (pairwise
    /// method only; empty for the collective methods).
    reqs: Vec<RecvRequest>,
}

impl Drop for GsPending {
    /// A started exchange must be finished. `gs_op_finish` takes `arrays`
    /// before it drops the token, so a token that still holds them was
    /// abandoned: fail the rank here, whatever the method. A thread that
    /// is already unwinding (a panic inside an `overlapped` window, or
    /// `gs_op_finish`'s wrong-arrays assert) keeps its own message.
    fn drop(&mut self) {
        if !self.arrays.is_empty() && !std::thread::panicking() {
            panic!(
                "a started gather–scatter ({}) was dropped unfinished: hand it to \
                 gs_op_finish, or run the window through GsHandle::overlapped",
                self.method.context()
            );
        }
    }
}

impl GsHandle {
    /// Combine `values` over every occurrence of each global id (local and
    /// remote) and write the combined result back to every local slot.
    ///
    /// Collective over the world the handle was set up in; all ranks must
    /// pass the same `op` and `method`.
    ///
    /// Implemented as [`GsHandle::overlapped`] with an empty window — the
    /// blocking form is the degenerate split-phase call.
    ///
    /// Combine order per id is fixed: this rank's copies in ascending
    /// slot, then each neighbor's contribution in ascending rank — so a
    /// result is reproducible bit for bit, whatever the message timing.
    ///
    /// # Panics
    /// Panics if `values.len() != self.nlocal()`.
    pub fn gs_op(&self, rank: &mut Rank, values: &mut [f64], op: GsOp, method: GsMethod) {
        self.overlapped(rank, &mut [values], op, method, |_, _| ());
    }

    /// Vector gather–scatter: apply the same combine to `k` value arrays
    /// with a *single* bundled exchange per neighbor (gslib's vector
    /// mode). Semantically identical to `k` successive [`GsHandle::gs_op`]
    /// calls, but the per-neighbor payload is `k` times larger and the
    /// message count `k` times smaller — the trade the mini-app's
    /// multi-variable exchanges (5 conserved fields) care about.
    ///
    /// # Panics
    /// Panics if any array's length differs from `self.nlocal()`.
    pub fn gs_op_many(
        &self,
        rank: &mut Rank,
        fields: &mut [&mut [f64]],
        op: GsOp,
        method: GsMethod,
    ) {
        if fields.is_empty() {
            return;
        }
        self.overlapped(rank, fields, op, method, |_, _| ());
    }

    /// Run `window` while a gather–scatter over `fields` is in flight:
    /// the start before it and [`GsHandle::gs_op_finish`] after it,
    /// however the window returns — a `return` or `?` in it leaves the
    /// closure, not the exchange. Returns what the window returns.
    ///
    /// The start gathers and posts the halo (as [`GsHandle::gs_op_start`]
    /// does), then combines every rank-interior id in place, so inside
    /// the window a slot whose [`GsHandle::halo_slots`] entry is
    /// `false` already holds its final value, and a halo slot still holds
    /// the value it was started with. The finish only waits, folds and
    /// scatters the halo. Work that reads only interior slots — the
    /// elements no neighbor rank touches — can therefore run to
    /// completion inside the window.
    ///
    /// The window gets the rank back, and the exchanged arrays only as a
    /// shared view, so writing them while the exchange is in flight does
    /// not compile:
    ///
    /// ```compile_fail,E0594
    /// # use cmt_gs::{GsHandle, GsMethod, GsOp};
    /// # simmpi::World::new().run(2, |rank| {
    /// let handle = GsHandle::setup(rank, &[7, 10 + rank.rank() as u64]);
    /// let mut v = vec![1.0, 2.0];
    /// handle.overlapped(rank, &mut [&mut v], GsOp::Add, GsMethod::PairwiseExchange, |_, f| {
    ///     f[0][0] = 0.0; // a write inside the window
    /// });
    /// # });
    /// ```
    ///
    /// while reading them does:
    ///
    /// ```
    /// # use cmt_gs::{GsHandle, GsMethod, GsOp};
    /// # simmpi::World::new().run(2, |rank| {
    /// let handle = GsHandle::setup(rank, &[7, 10 + rank.rank() as u64]);
    /// let mut v = vec![1.0, 2.0];
    /// let before = handle.overlapped(rank, &mut [&mut v], GsOp::Add, GsMethod::PairwiseExchange, |_, f| {
    ///     f[0][0] // a read inside the window: the started value of a halo slot
    /// });
    /// assert_eq!((before, v[0]), (1.0, 2.0));
    /// # });
    /// ```
    ///
    /// # Panics
    /// As [`GsHandle::gs_op_start`] and [`GsHandle::gs_op_finish`].
    pub fn overlapped<R>(
        &self,
        rank: &mut Rank,
        fields: &mut [&mut [f64]],
        op: GsOp,
        method: GsMethod,
        window: impl FnOnce(&mut Rank, &[&mut [f64]]) -> R,
    ) -> R {
        let pending = with_combine!(op, self.start_in_place(rank, fields, op, method));
        let out = window(rank, fields);
        self.gs_op_finish(rank, pending, fields);
        out
    }

    /// Start a split-phase gather–scatter over `fields`: snapshot the
    /// *halo* — for every id shared with a neighbor rank, combine its
    /// local copies and pack the result — and *post* the exchange,
    /// returning without waiting for any remote data. The caller may run
    /// unrelated compute while messages are in flight, then complete the
    /// operation with [`GsHandle::gs_op_finish`] — the
    /// isend/irecv/compute/wait pipeline the mini-app uses to hide
    /// face-exchange latency behind its volume kernels. This is the raw
    /// layer; [`GsHandle::overlapped`] is the pair with its window
    /// scoped, and the one the drivers use.
    ///
    /// This form gets the arrays read-only, so it cannot combine the
    /// ids whose copies all live on this rank: its `finish` does, after
    /// the halo scatter. ([`GsHandle::overlapped`] holds the arrays
    /// mutably and combines them at start, so its window reads them
    /// final.)
    ///
    /// The operation is **in place**, as gslib's is: `finish` must be
    /// handed the very arrays `start` was handed, and it combines the
    /// rank-interior ids from what those arrays hold *then*. Between the
    /// two calls the caller must not write a slot whose
    /// [`GsHandle::shared_slot_flags`] entry is `true` (a halo slot's
    /// write is lost, an interior one's is combined); `overlapped`
    /// enforces that by lending its window the arrays read-only.
    ///
    /// With the pairwise method the receives are genuinely outstanding
    /// when this returns. The crystal-router and all_reduce methods have
    /// no non-blocking form, so their `start` runs the whole halo
    /// exchange and the matching `finish` does only the local work.
    ///
    /// Several operations may be in flight at once (tags carry a
    /// sequence number), but every started operation must be finished
    /// (dropping the returned token unfinished panics), all ranks must
    /// start and finish the same operations in the same order, and the
    /// handle must outlive them.
    ///
    /// # Panics
    /// Panics if any array's length differs from `self.nlocal()`.
    pub fn gs_op_start<S: AsRef<[f64]>>(
        &self,
        rank: &mut Rank,
        fields: &[S],
        op: GsOp,
        method: GsMethod,
    ) -> GsPending {
        with_combine!(op, self.start_with(rank, fields, op, method))
    }

    fn start_with<S: AsRef<[f64]>>(
        &self,
        rank: &mut Rank,
        fields: &[S],
        op: GsOp,
        method: GsMethod,
        combine: impl Fn(f64, f64) -> f64 + Copy,
    ) -> GsPending {
        let k = fields.len();
        assert!(k > 0, "gs_op_start with no fields");
        for f in fields {
            assert_eq!(
                f.as_ref().len(),
                self.nlocal(),
                "gs_op_start on values of length {}, handle expects {}",
                f.as_ref().len(),
                self.nlocal()
            );
        }
        // The operation's buffers come off the handle's persistent-plan
        // stacks and go back on them in `gs_op_finish`, so the steady
        // state recycles capacity.
        let (mut arrays, mut combined, mut reqs) = {
            let mut bufs = self.bufs.borrow_mut();
            (
                bufs.arrays.pop().unwrap_or_default(),
                bufs.combined.pop().unwrap_or_default(),
                bufs.reqs.pop().unwrap_or_default(),
            )
        };
        arrays.clear();
        arrays.extend(fields.iter().map(|f| array_identity(f.as_ref())));
        reqs.clear();

        // Gather the halo only: one group's k values are contiguous, as
        // they are in the exchange payloads.
        let plan = &self.plan;
        combined.clear();
        combined.resize(plan.halo_gids.len() * k, 0.0);
        for (slots, out) in plan.halo_groups().zip(combined.chunks_exact_mut(k)) {
            for (f, out) in fields.iter().zip(out) {
                let f = f.as_ref();
                *out = slots[1..]
                    .iter()
                    .fold(f[slots[0] as usize], |acc, &s| combine(acc, f[s as usize]));
            }
        }

        match method {
            GsMethod::PairwiseExchange => {
                let tag = SPLIT_TAG_BASE | (rank.next_user_seq() & SPLIT_SEQ_MASK);
                rank.with_subcontext(GsMethod::PairwiseExchange.context(), |rank| {
                    reqs.extend(plan.neighbors.iter().map(|nl| rank.irecv(nl.rank, tag)));
                    for nl in &plan.neighbors {
                        // Pack the neighbor's halo list into a pooled
                        // payload: the buffer moves into the envelope and
                        // recycles at the receiver.
                        let mut payload = rank.pooled_vec::<f64>();
                        pack(&mut payload, &combined, &nl.halo, k);
                        rank.isend_pooled(nl.rank, tag, payload);
                    }
                })
            }
            GsMethod::CrystalRouter => self.exchange_crystal(rank, &mut combined, k, combine),
            GsMethod::AllReduce => self.exchange_allreduce(rank, &mut combined, k, op, combine),
        };

        GsPending {
            op,
            method,
            arrays,
            combined,
            interior_done: false,
            reqs,
        }
    }

    /// [`GsHandle::gs_op_start`] on arrays held mutably: post the halo,
    /// then combine the rank-interior ids in place, so the finish owes
    /// only the halo.
    fn start_in_place(
        &self,
        rank: &mut Rank,
        fields: &mut [&mut [f64]],
        op: GsOp,
        method: GsMethod,
        combine: impl Fn(f64, f64) -> f64 + Copy,
    ) -> GsPending {
        let mut pending = self.start_with(rank, &*fields, op, method, combine);
        for f in fields.iter_mut() {
            self.combine_interior(f, combine);
        }
        pending.interior_done = true;
        pending
    }

    /// Combine every rank-interior id of `f` in place: each run of pairs
    /// as two disjoint slices, operands in `(a, b)` order, then each
    /// group of three or more copies in ascending slot order.
    fn combine_interior(&self, f: &mut [f64], combine: impl Fn(f64, f64) -> f64 + Copy) {
        for &[a, b, len] in &self.plan.runs {
            let (lo, hi) = f.split_at_mut(b as usize);
            let lo = &mut lo[a as usize..][..len as usize];
            for (x, y) in lo.iter_mut().zip(&mut hi[..len as usize]) {
                let v = combine(*x, *y);
                *x = v;
                *y = v;
            }
        }
        for slots in self.plan.multi_groups() {
            let v = slots[1..]
                .iter()
                .fold(f[slots[0] as usize], |acc, &s| combine(acc, f[s as usize]));
            for &s in slots {
                f[s as usize] = v;
            }
        }
    }

    /// Finish a split-phase gather–scatter started by
    /// [`GsHandle::gs_op_start`], on the arrays it was started on: drain
    /// the posted receives (blocking time is attributed to `MPI_Wait`, as
    /// mpiP attributes it in the paper's Fig. 9), fold remote
    /// contributions into the halo snapshot — always in neighbor order,
    /// so results are bitwise identical to the blocking path — and
    /// scatter it to the halo slots. An exchange started by the raw
    /// [`GsHandle::gs_op_start`] then combines every rank-interior id in
    /// place, one streaming sweep per field; one started inside
    /// [`GsHandle::overlapped`] combined them at start.
    ///
    /// # Panics
    /// Panics if `fields` are not the arrays the operation was started
    /// on, in the same order (compared by address and length).
    pub fn gs_op_finish(&self, rank: &mut Rank, pending: GsPending, fields: &mut [&mut [f64]]) {
        with_combine!(pending.op, self.finish_with(rank, pending, fields))
    }

    fn finish_with(
        &self,
        rank: &mut Rank,
        mut pending: GsPending,
        fields: &mut [&mut [f64]],
        combine: impl Fn(f64, f64) -> f64 + Copy,
    ) {
        let (method, interior_done) = (pending.method, pending.interior_done);
        // Take the buffers out: a token without `arrays` counts as
        // finished, so dropping it here does not panic.
        let mut arrays = std::mem::take(&mut pending.arrays);
        let mut combined = std::mem::take(&mut pending.combined);
        let mut reqs = std::mem::take(&mut pending.reqs);
        drop(pending);
        assert!(
            fields
                .iter()
                .map(|f| array_identity(f))
                .eq(arrays.iter().copied()),
            "gs_op_finish must be handed the arrays gs_op_start was handed, in the same \
             order: the operation is in place"
        );
        let k = fields.len();
        let plan = &self.plan;

        if method == GsMethod::PairwiseExchange {
            rank.with_subcontext(GsMethod::PairwiseExchange.context(), |rank| {
                for (nl, &req) in plan.neighbors.iter().zip(reqs.iter()) {
                    // The pooled receive adopts the sender's buffer; its
                    // guard parks it in this rank's pool when dropped.
                    let got = rank.wait_recv_pooled::<f64>(req);
                    fold_in(&mut combined, &got, &nl.halo, k, combine);
                }
            });
        }

        // Scatter the halo: the combined value to every local copy.
        for (slots, vals) in plan.halo_groups().zip(combined.chunks_exact(k)) {
            for (f, &v) in fields.iter_mut().zip(vals) {
                for &s in slots {
                    f[s as usize] = v;
                }
            }
        }
        // The raw start left the interior: combine it from the arrays as
        // they are now.
        if !interior_done {
            for f in fields.iter_mut() {
                self.combine_interior(f, combine);
            }
        }
        // Return the operation's staging buffers to the persistent plan.
        arrays.clear();
        reqs.clear();
        let mut bufs = self.bufs.borrow_mut();
        bufs.arrays.push(arrays);
        bufs.combined.push(combined);
        bufs.reqs.push(reqs);
    }

    /// Crystal-router exchange of the halo: the per-neighbor payloads,
    /// bundled through the hypercube router. Fully synchronous — used by
    /// `start` with a no-op communication `finish`.
    fn exchange_crystal(
        &self,
        rank: &mut Rank,
        combined: &mut [f64],
        k: usize,
        combine: impl Fn(f64, f64) -> f64 + Copy,
    ) {
        rank.with_subcontext(GsMethod::CrystalRouter.context(), |rank| {
            let neighbors = &self.plan.neighbors;
            let mut bufs = self.bufs.borrow_mut();
            let PlanBufs {
                outgoing, arrived, ..
            } = &mut *bufs;
            // Repack into the outgoing list, recycling the payload
            // vectors that arrived on the *previous* call (the neighbor
            // relation is symmetric, so counts and sizes balance and the
            // steady state allocates nothing).
            debug_assert!(outgoing.is_empty());
            for nl in neighbors {
                let mut payload = arrived.pop().map(|(_, v)| v).unwrap_or_default();
                payload.clear();
                pack(&mut payload, combined, &nl.halo, k);
                outgoing.push((nl.rank, payload));
            }
            arrived.clear();
            rank.crystal_router_into(outgoing, arrived);
            debug_assert_eq!(arrived.len(), neighbors.len());
            // The router delivers sorted by source, which is neighbor order.
            for ((src, payload), nl) in arrived.iter().zip(neighbors) {
                assert_eq!(
                    *src, nl.rank,
                    "crystal router delivered from a non-neighbor"
                );
                fold_in(combined, payload, &nl.halo, k, combine);
            }
            // `arrived` keeps its payload vectors for the next repack.
        });
    }

    /// All_reduce onto a big vector: scatter the halo's combined values
    /// into a dense vector over the compact global id universe, allreduce
    /// it with the op, read back. "Too expensive for both mini-apps" at
    /// the paper's problem setup — but exact, and competitive only for
    /// tiny worlds. Rank-interior ids never enter the vector. Fully
    /// synchronous — used by `start` with a no-op communication `finish`.
    fn exchange_allreduce(
        &self,
        rank: &mut Rank,
        combined: &mut [f64],
        k: usize,
        op: GsOp,
        combine: impl Fn(f64, f64) -> f64 + Copy,
    ) {
        rank.with_subcontext(GsMethod::AllReduce.context(), |rank| {
            let total = self.total_compact as usize;
            // The dense vector is part of the persistent plan: cleared
            // and refilled in place, reduced in place, never reallocated.
            let mut bufs = self.bufs.borrow_mut();
            let dense = &mut bufs.dense;
            dense.clear();
            dense.resize(total * k, op.identity());
            for (&compact, vals) in self.halo_compact.iter().zip(combined.chunks_exact(k)) {
                dense[compact as usize * k..][..k].copy_from_slice(vals);
            }
            rank.allreduce_in_place(dense, |a, b| *a = combine(*a, *b));
            for (&compact, vals) in self.halo_compact.iter().zip(combined.chunks_exact_mut(k)) {
                vals.copy_from_slice(&dense[compact as usize * k..][..k]);
            }
        });
    }
}

/// What `gs_op_finish` compares to know it got the started arrays back.
fn array_identity(f: &[f64]) -> (usize, usize) {
    (f.as_ptr().addr(), f.len())
}

/// Append the `k` combined values of each halo group in `halo` to `payload`.
fn pack(payload: &mut Vec<f64>, combined: &[f64], halo: &[u32], k: usize) {
    for &h in halo {
        payload.extend_from_slice(&combined[h as usize * k..][..k]);
    }
}

/// Fold a neighbor's payload (packed by its [`pack`] over the same halo
/// list) into the combined halo values.
fn fold_in(
    combined: &mut [f64],
    payload: &[f64],
    halo: &[u32],
    k: usize,
    combine: impl Fn(f64, f64) -> f64,
) {
    debug_assert_eq!(payload.len(), halo.len() * k);
    for (&h, theirs) in halo.iter().zip(payload.chunks_exact(k)) {
        for (mine, &v) in combined[h as usize * k..][..k].iter_mut().zip(theirs) {
            *mine = combine(*mine, v);
        }
    }
}
