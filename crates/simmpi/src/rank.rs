//! The per-rank handle: point-to-point messaging and instrumentation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::envelope::{Envelope, Msg};
use crate::faults::{FaultPlan, FaultState};
use crate::pool::{BufferPool, PooledVec};
use crate::stats::{CommRecorder, MpiOp};
use crate::transport::Transport;
use crate::verify::{CollFingerprint, CollKind, LeakInfo, VerifyHooks};

/// Message tag. User tags must be below [`USER_TAG_LIMIT`]; the space above
/// is reserved for collective-internal traffic.
pub type Tag = u64;

/// Exclusive upper bound on user-visible tags.
pub const USER_TAG_LIMIT: Tag = 1 << 48;

/// How long a blocking receive waits between checks of the poison flag.
const POLL: Duration = Duration::from_millis(25);

/// How long a blocking receive may go without progress before the runtime
/// declares a deadlock. Generous: collective algorithms on oversubscribed
/// machines can stall for scheduler quanta, not minutes.
const DEADLOCK: Duration = Duration::from_secs(300);

/// Handle to one simulated MPI rank. Created by [`crate::World::run`];
/// every communication method both performs the operation and records it
/// in the rank's task-local statistics.
pub struct Rank {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) pending: VecDeque<Envelope>,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) pool: BufferPool,
    pub(crate) ctx_spares: Vec<String>,
    pub(crate) poisoned: Arc<AtomicBool>,
    pub(crate) recorder: CommRecorder,
    pub(crate) context: String,
    pub(crate) coll_seq: u64,
    pub(crate) user_seq: u64,
    pub(crate) faults: Option<FaultState>,
    pub(crate) injected_delay_us: u64,
    pub(crate) op_badge: Option<MpiOp>,
    pub(crate) verify: Option<Arc<dyn VerifyHooks>>,
    pub(crate) finalized: bool,
}

/// A pending non-blocking receive (the analogue of an `MPI_Request` from
/// `MPI_Irecv`). Completed — and its blocking time attributed to
/// `MPI_Wait` — by [`Rank::wait_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvRequest {
    /// Source rank the request matches.
    src: usize,
    /// Tag the request matches.
    tag: Tag,
}

impl Rank {
    /// This rank's id, `0 .. size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Set the context label under which subsequent operations are
    /// recorded (the mpiP "call site" analogue).
    pub fn set_context(&mut self, label: &str) {
        // Reuse the string's capacity: steady-state relabelling with
        // already-seen labels never touches the allocator.
        self.context.clear();
        self.context.push_str(label);
    }

    /// Current context label.
    pub fn context(&self) -> &str {
        &self.context
    }

    /// Swap in a context string built from `label` (optionally composed
    /// onto the current context) using a recycled spare string, returning
    /// the displaced outer context. Paired with [`Rank::pop_context`].
    fn push_context(&mut self, label: &str, compose: bool) -> String {
        let mut s = self.ctx_spares.pop().unwrap_or_default();
        s.clear();
        if compose && !(self.context == "main" || self.context.is_empty()) {
            s.push_str(&self.context);
            s.push('/');
        }
        s.push_str(label);
        std::mem::replace(&mut self.context, s)
    }

    /// Restore `saved` as the context and park the displaced scratch
    /// string for reuse by the next [`Rank::push_context`].
    fn pop_context(&mut self, saved: String) {
        let used = std::mem::replace(&mut self.context, saved);
        self.ctx_spares.push(used);
    }

    /// Run `f` with the context label temporarily set to `label`.
    pub fn with_context<R>(&mut self, label: &str, f: impl FnOnce(&mut Rank) -> R) -> R {
        let saved = self.push_context(label, false);
        let out = f(self);
        self.pop_context(saved);
        out
    }

    /// Run `f` with `label` *composed onto* the current context
    /// (`outer/label`), so library-internal operations remain attributable
    /// to the application site that triggered them — e.g. a gather-scatter
    /// call from the viscous pass records as `faces_visc/gs:pairwise`.
    /// A default (`"main"`) outer context is dropped from the composition.
    pub fn with_subcontext<R>(&mut self, label: &str, f: impl FnOnce(&mut Rank) -> R) -> R {
        let saved = self.push_context(label, true);
        let out = f(self);
        self.pop_context(saved);
        out
    }

    /// The world's fault plan, if one was installed with
    /// [`crate::World::with_fault_plan`]. Drivers consult it for
    /// scheduled rank kills; message-level hazards are injected by the
    /// runtime itself.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &*f.plan)
    }

    /// Current state of this rank's fault-hazard RNG stream, for
    /// checkpointing. `None` when no fault plan is installed.
    pub fn fault_rng_state(&self) -> Option<u64> {
        self.faults.as_ref().map(|f| f.rng.state())
    }

    /// Restore the fault-hazard RNG stream to a state captured with
    /// [`Rank::fault_rng_state`], so a rollback replays the identical
    /// injected-fault schedule. No-op when no fault plan is installed.
    pub fn set_fault_rng_state(&mut self, state: u64) {
        if let Some(f) = self.faults.as_mut() {
            f.rng.set_state(state);
        }
    }

    /// Total injected-fault stall served by this rank so far, in
    /// microseconds (the plan's message delays). The delays are drawn from seeded per-rank streams, so this counter is
    /// bitwise deterministic — the load balancer's straggler signal,
    /// usable in SPMD decisions where wall-clock time is not.
    pub fn injected_delay_us(&self) -> u64 {
        self.injected_delay_us
    }

    /// Run `f` with every collective/crystal-router statistics row
    /// recorded under `op` instead of the operation's own kind. Library
    /// layers with a first-class identity in the mpiP report — the
    /// `cmt-lb` cost gather (`lb_gather`) and migration traffic
    /// (`lb_migrate`) — badge their communication so it shows up as its
    /// own line item *instead of* (never in addition to) the underlying
    /// `MPI_Allreduce`/`crystal_router` row; total MPI time still sums
    /// cleanly. Fault and wire-serialization rows keep their own kinds.
    pub fn with_op_badge<R>(&mut self, op: MpiOp, f: impl FnOnce(&mut Rank) -> R) -> R {
        let saved = self.op_badge.replace(op);
        let out = f(self);
        self.op_badge = saved;
        out
    }

    /// The operation kind a statistics row should be recorded under:
    /// the active badge if one is installed, else the operation itself.
    #[inline]
    pub(crate) fn badged(&self, op: MpiOp) -> MpiOp {
        self.op_badge.unwrap_or(op)
    }

    /// Inject the plan's message delay, if it fires, for one outbound send
    /// of `bytes` bytes. Called before the operation's own timer starts,
    /// so the regular `MPI_Send`/`MPI_Isend` rows stay comparable across
    /// faulty and fault-free runs and the injected cost shows up only
    /// under its own `fault_delay` entries.
    fn inject_send_faults(&mut self, bytes: u64) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let Some(d) = fs.plan.delay else {
            return;
        };
        if d.rank.is_none_or(|r| r == self.rank) && fs.rng.unit_f64() < d.prob {
            std::thread::sleep(d.delay);
            self.injected_delay_us += d.delay.as_micros() as u64;
            let ctx = std::mem::take(&mut self.context);
            self.recorder
                .record(MpiOp::FaultDelay, &ctx, d.delay, bytes);
            self.context = ctx;
        }
    }

    // ---------------------------------------------------------------
    // raw transport (shared with collectives and the crystal router)
    // ---------------------------------------------------------------

    /// Returns the nanoseconds the transport spent serializing (0 on the
    /// in-process backend); callers book it via [`Rank::note_ser`].
    pub(crate) fn raw_send(&self, dest: usize, mut env: Envelope) -> u64 {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        if self.verify.is_some() {
            env.sender_ctx = Some(self.context.as_str().into());
        }
        // Incoming queues are unbounded: a send never blocks, matching
        // MPI's buffered/eager regime for the small-to-medium messages
        // the mini-apps exchange.
        self.transport.send(dest, env)
    }

    /// Book wire-serialization time under its own `transport_ser` row, so
    /// it never folds into the regular `MPI_Send`/`MPI_Wait` books. Zero
    /// nanoseconds (the in-process backend, socket self-sends) records
    /// nothing at all, keeping inproc profiles identical to a runtime
    /// without the transport seam.
    fn note_ser(&mut self, bytes: u64, nanos: u64) {
        if nanos == 0 {
            return;
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder.record(
            MpiOp::TransportSer,
            &ctx,
            Duration::from_nanos(nanos),
            bytes,
        );
        self.context = ctx;
    }

    pub(crate) fn raw_recv(&mut self, src: usize, tag: Tag) -> Envelope {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        // First, search messages that already arrived but didn't match an
        // earlier receive.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag)
        {
            return self.pending.remove(pos).unwrap();
        }
        let start = Instant::now();
        // Registered with the verifier's wait-for graph after the first
        // empty poll, so the fast path (message already en route) never
        // touches the checker.
        let mut block_id: Option<u64> = None;
        loop {
            match self.transport.pop_timeout(POLL) {
                Some(env) => {
                    if env.src == src && env.tag == tag {
                        if let (Some(v), Some(id)) = (&self.verify, block_id) {
                            v.on_unblock(self.rank, id);
                        }
                        return env;
                    }
                    self.pending.push_back(env);
                }
                None => {
                    if self.poisoned.load(Ordering::Relaxed) {
                        panic!(
                            "rank {}: aborting receive (src {src}, tag {tag:#x}): a peer rank failed",
                            self.rank
                        );
                    }
                    if let Some(v) = &self.verify {
                        let id = *block_id
                            .get_or_insert_with(|| v.on_block(self.rank, src, tag, &self.context));
                        if let Some(diag) = v.on_block_poll(self.rank, id) {
                            self.poisoned.store(true, Ordering::Relaxed);
                            panic!("{diag}");
                        }
                    }
                    if start.elapsed() > DEADLOCK {
                        panic!(
                            "rank {}: probable deadlock waiting for (src {src}, tag {tag:#x})",
                            self.rank
                        );
                    }
                }
            }
        }
    }

    fn assert_user_tag(tag: Tag) {
        assert!(
            tag < USER_TAG_LIMIT,
            "user tags must be < 2^48, got {tag:#x}"
        );
    }

    // ---------------------------------------------------------------
    // point-to-point
    // ---------------------------------------------------------------

    /// Inject faults, push `env`, and record the operation as `op` —
    /// the shared tail of every timed send variant.
    fn send_env_timed(&mut self, dest: usize, env: Envelope, op: MpiOp) {
        self.inject_send_faults(env.bytes as u64);
        let start = Instant::now();
        let bytes = env.bytes as u64;
        let ser = self.raw_send(dest, env);
        // Serialization cost is booked under transport_ser, not the op.
        let elapsed = start.elapsed().saturating_sub(Duration::from_nanos(ser));
        let ctx = std::mem::take(&mut self.context);
        self.recorder.record(op, &ctx, elapsed, bytes);
        self.context = ctx;
        self.note_ser(bytes, ser);
    }

    /// Blocking send of a typed slice (internally buffered; completes
    /// locally, like an eager-protocol `MPI_Send`). The copy goes into a
    /// buffer from this rank's pool, so a warm send allocates nothing.
    pub fn send<T: Msg>(&mut self, dest: usize, tag: Tag, data: &[T]) {
        Self::assert_user_tag(tag);
        let env = Envelope::from_box(self.rank, tag, self.pooled_copy(data));
        self.send_env_timed(dest, env, MpiOp::Send);
    }

    /// Blocking receive of a typed message from `(src, tag)`.
    pub fn recv<T: Msg>(&mut self, src: usize, tag: Tag) -> Vec<T> {
        Self::assert_user_tag(tag);
        let start = Instant::now();
        let env = self.raw_recv(src, tag);
        let bytes = env.bytes as u64;
        let data = env.open();
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(MpiOp::Recv, &ctx, start.elapsed(), bytes);
        self.context = ctx;
        data
    }

    /// Non-blocking send (recorded as `MPI_Isend`; completes immediately —
    /// the eager regime). Copies through a pooled buffer, as [`Rank::send`].
    pub fn isend<T: Msg>(&mut self, dest: usize, tag: Tag, data: &[T]) {
        Self::assert_user_tag(tag);
        let env = Envelope::from_box(self.rank, tag, self.pooled_copy(data));
        self.send_env_timed(dest, env, MpiOp::Isend);
    }

    /// Non-blocking send of a pool-guarded buffer: the box moves into the
    /// envelope without copying, and the *receiver* parks it in its own
    /// pool after opening — the zero-allocation steady-state send path.
    pub fn isend_pooled<T: Msg>(&mut self, dest: usize, tag: Tag, data: PooledVec<T>) {
        Self::assert_user_tag(tag);
        let env = Envelope::from_box(self.rank, tag, data.detach());
        self.send_env_timed(dest, env, MpiOp::Isend);
    }

    /// Post a non-blocking receive. The returned request is completed by
    /// [`Rank::wait_recv`], where any blocking
    /// time is attributed to `MPI_Wait` — the attribution behind the
    /// paper's Fig. 9, in which `MPI_Wait` dominates.
    pub fn irecv(&mut self, src: usize, tag: Tag) -> RecvRequest {
        Self::assert_user_tag(tag);
        let start = Instant::now();
        let ctx = std::mem::take(&mut self.context);
        self.recorder.record(MpiOp::Irecv, &ctx, start.elapsed(), 0);
        self.context = ctx;
        RecvRequest { src, tag }
    }

    /// Complete a posted receive, blocking if the message has not arrived.
    pub fn wait_recv<T: Msg>(&mut self, req: RecvRequest) -> Vec<T> {
        let start = Instant::now();
        let env = self.raw_recv(req.src, req.tag);
        let bytes = env.bytes as u64;
        let data = env.open();
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(MpiOp::Wait, &ctx, start.elapsed(), bytes);
        self.context = ctx;
        data
    }

    /// Complete a posted receive into a pool-guarded buffer. Boxed
    /// payloads are adopted wholesale (zero copies, zero allocations);
    /// the guard parks the buffer in this rank's [`BufferPool`] when
    /// dropped, ready for the next [`Rank::pooled_vec`] take.
    pub fn wait_recv_pooled<T: Msg>(&mut self, req: RecvRequest) -> PooledVec<T> {
        let start = Instant::now();
        let env = self.raw_recv(req.src, req.tag);
        let bytes = env.bytes as u64;
        let data = env.open_pooled(&self.pool);
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(MpiOp::Wait, &ctx, start.elapsed(), bytes);
        self.context = ctx;
        data
    }

    /// This rank's payload-buffer recycling pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Take a recycled, empty buffer from this rank's pool (fresh if the
    /// pool is cold or disabled). Fill it and hand it to
    /// [`Rank::isend_pooled`] for an allocation-free send.
    pub fn pooled_vec<T: Msg>(&self) -> PooledVec<T> {
        self.pool.take()
    }

    /// A copy of `data` in a buffer from this rank's pool, detached for
    /// an envelope: the receiver parks it in its own pool.
    #[allow(clippy::box_collection)]
    fn pooled_copy<T: Msg>(&self, data: &[T]) -> Box<Vec<T>> {
        let mut buf = self.pool.take::<T>();
        buf.extend_from_slice(data);
        buf.detach()
    }

    /// Allocate a fresh user-level sequence number. Like the collective
    /// sequence, every rank advances it identically in SPMD code, so it
    /// lets libraries derive per-operation tags that keep *overlapping*
    /// non-blocking exchanges (split-phase gather–scatter, say) from
    /// cross-matching under the FIFO `(source, tag)` matching rule, even
    /// when they complete out of start order.
    pub fn next_user_seq(&mut self) -> u64 {
        let s = self.user_seq;
        self.user_seq += 1;
        s
    }

    // ---------------------------------------------------------------
    // internals for collectives
    // ---------------------------------------------------------------

    /// Allocate a fresh collective sequence number. All ranks execute the
    /// same collective sequence (SPMD), so equal sequence numbers identify
    /// the same logical collective across ranks and keep successive
    /// collectives' internal messages from cross-matching.
    pub(crate) fn next_coll_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }

    /// Internal tag for collective `seq`, round `round`.
    pub(crate) fn coll_tag(seq: u64, round: u64) -> Tag {
        USER_TAG_LIMIT | (seq << 12) | round
    }

    /// Internal untimed send of a slice, copied through a pooled buffer —
    /// never a fresh allocation once warm.
    pub(crate) fn send_internal_slice<T: Msg>(&mut self, dest: usize, tag: Tag, data: &[T]) -> u64 {
        let buf = self.pooled_copy(data);
        self.send_internal_box(dest, tag, buf)
    }

    /// Internal untimed send of an already-boxed payload (pool path; the
    /// box shell is the recyclable unit, hence no flattening to `Vec`).
    #[allow(clippy::box_collection)]
    pub(crate) fn send_internal_box<T: Msg>(
        &mut self,
        dest: usize,
        tag: Tag,
        data: Box<Vec<T>>,
    ) -> u64 {
        let env = Envelope::from_box(self.rank, tag, data);
        let bytes = env.bytes as u64;
        self.inject_send_faults(bytes);
        let ser = self.raw_send(dest, env);
        self.note_ser(bytes, ser);
        bytes
    }

    /// Internal untimed receive into a pool-guarded buffer.
    pub(crate) fn recv_internal_pooled<T: Msg>(
        &mut self,
        src: usize,
        tag: Tag,
    ) -> (PooledVec<T>, u64) {
        let env = self.raw_recv(src, tag);
        let bytes = env.bytes as u64;
        let data = env.open_pooled(&self.pool);
        (data, bytes)
    }

    // ---------------------------------------------------------------
    // verifier hooks (see crate::verify)
    // ---------------------------------------------------------------

    /// Whether a verifier is installed on this world
    /// ([`crate::World::with_verifier`]).
    #[inline]
    pub fn verifying(&self) -> bool {
        self.verify.is_some()
    }

    /// Register collective `seq`'s fingerprint with the verifier and
    /// abort (poison + panic) on a cross-rank mismatch. No-op without a
    /// verifier.
    pub(crate) fn verify_collective(
        &self,
        seq: u64,
        kind: CollKind,
        elem: u16,
        len: Option<usize>,
    ) {
        let Some(v) = &self.verify else { return };
        let fp = CollFingerprint {
            kind,
            elem,
            len,
            context: &self.context,
        };
        if let Err(diag) = v.on_collective(self.rank, seq, fp) {
            self.poisoned.store(true, Ordering::Relaxed);
            panic!("{diag}");
        }
    }

    /// Run the verifier's finalize-time leak check: a runtime barrier (so
    /// every peer's pre-finalize sends are already delivered), then a
    /// sweep of this rank's mailbox for unmatched messages.
    ///
    /// Called automatically by [`crate::World::run`] when the SPMD
    /// closure returns; drivers may call it earlier (it is idempotent) to
    /// attribute the cost to a profiler region. No-op without a verifier
    /// or on a poisoned world.
    pub fn verify_finalize(&mut self) {
        let Some(v) = self.verify.clone() else { return };
        if self.finalized || self.poisoned.load(Ordering::Relaxed) {
            return;
        }
        self.finalized = true;
        // The barrier orders every peer's pre-finalize sends before this
        // rank's mailbox sweep (channel pushes are immediate, and the
        // dissemination barrier's exit happens-after every entry), so a
        // message from a slow-but-correct peer is never misreported.
        let saved = self.push_context("verify:finalize", false);
        self.barrier();
        self.pop_context(saved);
        while let Some(env) = self.transport.try_pop() {
            self.pending.push_back(env);
        }
        let leaked: Vec<LeakInfo> = self
            .pending
            .iter()
            .map(|e| LeakInfo {
                src: e.src,
                tag: e.tag,
                bytes: e.bytes as u64,
                sender_context: e.sender_ctx.as_deref().map(str::to_owned),
            })
            .collect();
        self.pending.clear();
        v.on_finalize(self.rank, self.coll_seq, &leaked);
    }
}
