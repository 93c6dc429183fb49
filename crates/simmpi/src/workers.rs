//! A hand-rolled work-stealing worker pool, owned by each rank — the
//! intra-rank "X" of the MPI+X hybrid schedule.
//!
//! Ranks stay the communication unit; the pool's workers share a rank's
//! *element loop*. Each [`WorkerPool`] owns `workers - 1` persistent OS
//! threads (the calling rank thread itself is participant 0), dispatches
//! one job at a time, and partitions the job's chunk index space evenly
//! across participants. A participant that drains its own range *steals*
//! from the back of a victim's range, so imbalanced chunks (boundary
//! elements, cache effects) cannot idle half the pool.
//!
//! Design constraints, in order:
//!
//! * **Determinism.** The pool never reduces anything: a job writes
//!   disjoint per-chunk outputs (slices of the rank's arrays, or a
//!   per-chunk partials array the *caller* folds sequentially in chunk
//!   order afterwards). Which worker executes a chunk is scheduling-
//!   dependent; what the chunk computes is not — so results are bitwise
//!   identical for every worker count, which the drivers' identity tests
//!   assert.
//! * **Zero steady-state allocations.** Jobs cross to the workers as a
//!   raw wide pointer to a caller-stack closure (valid for the duration
//!   of [`WorkerPool::run`], which does not return until every
//!   participant is done); ranges live in preallocated atomics; dispatch
//!   is a mutex/condvar epoch bump. After the pool's threads are up, a
//!   `run` touches the heap zero times.
//! * **Visible allocation accounting.** Heap counters are thread-local
//!   (see `cmt-perf::alloc`), so anything a *worker* allocates would
//!   vanish from the rank profiler's books. The pool therefore snapshots
//!   a caller-supplied counter function around each worker's share of a
//!   job and accumulates the deltas; [`for_each_chunk`] drains them and
//!   returns them for the driver to charge to the open profiler region.
//!
//! Stealing protocol: participant `p`'s remaining range is one packed
//! `AtomicU64` (`lo` in the high half, `hi` in the low half). The owner
//! pops from the front (`lo + 1`) and thieves pop from the back
//! (`hi - 1`), both by compare-and-swap on the whole word, so every chunk
//! index is claimed exactly once. A participant retires when its own
//! range and every victim's range are empty.

// One of the three modules inside the crate-level `deny(unsafe_code)`
// boundary; every site carries a SAFETY comment (clippy enforces it).
#![allow(unsafe_code)]

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A function returning this thread's `(allocations, bytes)` counters —
/// shaped to accept `cmt_perf::alloc::thread_counts` without `simmpi`
/// depending on that crate.
pub type AllocCounterFn = fn() -> (u64, u64);

/// Chunk grain of an element loop over `nel` elements: ~4 chunks per
/// participant — enough slack for stealing without drowning in
/// scheduling overhead.
pub fn chunk_grain(pool: Option<&WorkerPool>, nel: usize) -> usize {
    nel.div_ceil(pool.map_or(1, |p| p.workers()) * 4).max(1)
}

/// Number of chunks [`for_each_chunk`] splits `nel` elements into: the
/// grain-sized chunks covering them with a pool, one inline chunk
/// without — i.e. how many `Stride::PerChunk` slabs a buffer needs.
pub fn chunk_count(pool: Option<&WorkerPool>, nel: usize, grain: usize) -> usize {
    pool.map_or(1, |_| pooled_chunks(nel, grain))
}

/// Number of grain-sized chunks covering `nel` elements.
#[inline]
fn pooled_chunks(nel: usize, grain: usize) -> usize {
    nel.div_ceil(grain.max(1))
}

/// Element range `[lo, hi)` of chunk `c` at the given grain.
#[inline]
fn chunk_range(nel: usize, grain: usize, c: usize) -> (usize, usize) {
    let g = grain.max(1);
    let lo = c * g;
    (lo, (lo + g).min(nel))
}

/// A mutable slice shareable across pool participants that write
/// *disjoint* ranges. Private: [`for_each_chunk`] is the only code that
/// hands out ranges, and it derives them from the chunk index.
struct SharedSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper owns an exclusive (&mut) borrow of the slice for
// 'a, and hands out sub-slices only through `range_mut`, whose contract
// requires disjoint ranges across threads — so sending or sharing the
// handle itself cannot create aliased access that the borrow checker
// would have rejected on the original `&mut [T]`.
unsafe impl<T: Send> Send for SharedSliceMut<'_, T> {}
// SAFETY: as above — `&SharedSliceMut` exposes no `&T` access at all,
// only the range-disjoint `range_mut`, so cross-thread sharing is as
// safe as the caller's disjointness contract.
unsafe impl<T: Send> Sync for SharedSliceMut<'_, T> {}

impl<'a, T> SharedSliceMut<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        SharedSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Mutable access to `[lo, hi)`.
    ///
    /// # Safety
    /// The caller must ensure no two live borrows overlap — i.e. calls
    /// from concurrent chunks use disjoint ranges.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        assert!(lo <= hi && hi <= self.len, "range out of bounds");
        // SAFETY: `[lo, hi)` lies inside the borrowed slice (asserted
        // above) and the caller guarantees it overlaps no live borrow.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
}

/// How much of a [`for_each_chunk`] buffer one chunk owns.
#[derive(Debug, Clone, Copy)]
pub enum Stride {
    /// This many values per element: chunk `[lo, hi)` owns
    /// `[lo * s, hi * s)` — the element-indexed arrays.
    PerElem(usize),
    /// This many values per chunk: chunk `c` owns `[c * s, (c + 1) * s)`
    /// — per-chunk scratch that is not element-indexed.
    PerChunk(usize),
}

/// The chunked element loop: split `0..nel` into `grain`-sized chunks,
/// and run `body(lo, hi, slices)` once per chunk across the pool, where
/// `slices[i]` is the part of `bufs[i]` that chunk owns per its
/// [`Stride`]. The sub-slices of different chunks are disjoint by
/// construction (chunk ranges partition `0..nel`; chunk indices are
/// claimed exactly once), so the body is safe code and — because it
/// never sees another chunk's data and nothing is reduced across chunks
/// — results are bitwise independent of worker count and grain.
///
/// With no pool the loop is **one inline chunk** `0..nel` (`grain` is
/// ignored; a `PerChunk` buffer needs a single slab).
///
/// Returns the worker-side `(allocations, bytes)` accrued by the job
/// (zero without a pool) for the caller to charge to its open profiler
/// region.
///
/// # Panics
/// Panics if a buffer is shorter than its stride requires, or if a
/// chunk panicked.
#[must_use = "charge the worker-side allocation counts to the open profiler region"]
pub fn for_each_chunk<const K: usize>(
    pool: Option<&WorkerPool>,
    nel: usize,
    grain: usize,
    bufs: [(&mut [f64], Stride); K],
    body: impl Fn(usize, usize, [&mut [f64]; K]) + Sync,
) -> (u64, u64) {
    let Some(pool) = pool else {
        body(
            0,
            nel,
            bufs.map(|(buf, stride)| match stride {
                Stride::PerElem(s) => &mut buf[..nel * s],
                Stride::PerChunk(s) => &mut buf[..s],
            }),
        );
        return (0, 0);
    };
    let n_chunks = pooled_chunks(nel, grain);
    let shared = bufs.map(|(buf, stride)| {
        let need = match stride {
            Stride::PerElem(s) => nel * s,
            Stride::PerChunk(s) => n_chunks * s,
        };
        assert!(buf.len() >= need, "chunked buffer too short for its stride");
        (SharedSliceMut::new(buf), stride)
    });
    pool.run(n_chunks, &|c| {
        let (lo, hi) = chunk_range(nel, grain, c);
        let slices = shared.each_ref().map(|(buf, stride)| {
            let (a, b) = match *stride {
                Stride::PerElem(s) => (lo * s, hi * s),
                Stride::PerChunk(s) => (c * s, (c + 1) * s),
            };
            // SAFETY: `pool.run` executes each chunk index exactly once,
            // chunk ranges `[lo, hi)` partition `0..nel`, and both stride
            // forms map distinct chunks to non-overlapping ranges of this
            // buffer — so no two live borrows of it overlap. The buffers
            // themselves are distinct `&mut` slices.
            unsafe { buf.range_mut(a, b) }
        });
        body(lo, hi, slices);
    });
    pool.drain_worker_allocs()
}

/// Type-erased pointer to the caller-stack job closure. Only dereferenced
/// while the owning [`WorkerPool::run`] frame is alive.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and outlives every use — see `WorkerPool::run`, which publishes the
// pointer and does not return until all workers are done with it.
unsafe impl Send for JobPtr {}

struct JobState {
    job: Option<JobPtr>,
    /// Bumped once per dispatched job; workers key their wait on it.
    epoch: u64,
    /// Worker threads still executing the current job.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<JobState>,
    start: Condvar,
    done: Condvar,
    /// Per-participant packed `(lo << 32) | hi` chunk ranges.
    ranges: Vec<AtomicU64>,
    /// Set when a worker's job chunk panicked.
    poisoned: AtomicBool,
    /// Worker-side heap-allocation deltas awaiting attribution.
    worker_allocs: AtomicU64,
    worker_bytes: AtomicU64,
    counters: Option<AllocCounterFn>,
}

#[inline]
fn pack(lo: usize, hi: usize) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize)
}

impl Shared {
    /// Claim-and-run loop for participant `idx`: drain own range from the
    /// front, then steal from the back of every victim until all empty.
    fn participate(&self, idx: usize, job: &(dyn Fn(usize) + Sync)) {
        loop {
            let cur = self.ranges[idx].load(Ordering::Acquire);
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                break;
            }
            if self.ranges[idx]
                .compare_exchange_weak(cur, pack(lo + 1, hi), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                job(lo);
            }
        }
        loop {
            let mut claimed_any = false;
            for victim in 0..self.ranges.len() {
                if victim == idx {
                    continue;
                }
                loop {
                    let cur = self.ranges[victim].load(Ordering::Acquire);
                    let (lo, hi) = unpack(cur);
                    if lo >= hi {
                        break;
                    }
                    if self.ranges[victim]
                        .compare_exchange_weak(
                            cur,
                            pack(lo, hi - 1),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        job(hi - 1);
                        claimed_any = true;
                    }
                }
            }
            if !claimed_any {
                break;
            }
        }
    }

    fn guarded_participate(&self, idx: usize, job: &(dyn Fn(usize) + Sync)) {
        if catch_unwind(AssertUnwindSafe(|| self.participate(idx, job))).is_err() {
            self.poisoned.store(true, Ordering::Release);
        }
    }
}

fn worker_main(shared: Arc<Shared>, idx: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    break;
                }
                st = shared.start.wait(st).unwrap();
            }
            seen_epoch = st.epoch;
            st.job.expect("job set for new epoch")
        };
        let before = shared.counters.map(|f| f());
        // SAFETY: the dispatching `run` does not return until `active`
        // reaches zero, so the pointee outlives this use.
        shared.guarded_participate(idx, unsafe { &*job.0 });
        if let (Some(f), Some((a0, b0))) = (shared.counters, before) {
            let (a1, b1) = f();
            shared.worker_allocs.fetch_add(a1 - a0, Ordering::Relaxed);
            shared.worker_bytes.fetch_add(b1 - b0, Ordering::Relaxed);
        }
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_one();
        }
    }
}

/// The per-rank worker pool. See the module docs for the protocol.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    participants: usize,
}

impl WorkerPool {
    /// A pool of `workers` participants total — the calling rank thread
    /// plus `workers - 1` spawned threads. `workers <= 1` spawns nothing
    /// (jobs run inline on the caller). `counters` enables worker-side
    /// heap-allocation accounting (pass `cmt_perf::alloc::thread_counts`).
    pub fn new(workers: usize, counters: Option<AllocCounterFn>) -> Self {
        let participants = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                job: None,
                epoch: 0,
                active: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            ranges: (0..participants).map(|_| AtomicU64::new(0)).collect(),
            poisoned: AtomicBool::new(false),
            worker_allocs: AtomicU64::new(0),
            worker_bytes: AtomicU64::new(0),
            counters,
        });
        let handles = (1..participants)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("simmpi-worker-{idx}"))
                    .spawn(move || worker_main(shared, idx))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            participants,
        }
    }

    /// Total participant count (caller included).
    pub fn workers(&self) -> usize {
        self.participants
    }

    /// Execute `job(c)` for every chunk index `c in 0..n_chunks`, exactly
    /// once each, across all participants; returns when every chunk has
    /// completed. The caller participates (index 0), so a 1-participant
    /// pool is simply a serial loop.
    ///
    /// # Panics
    /// Panics if any chunk panicked (after all participants retired, so
    /// no chunk is left half-running).
    pub fn run(&self, n_chunks: usize, job: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        if self.participants == 1 || n_chunks == 1 {
            for c in 0..n_chunks {
                job(c);
            }
            return;
        }
        let p = self.participants;
        // Even partition: participant i owns [i*per + min(i, extra) ..).
        let per = n_chunks / p;
        let extra = n_chunks % p;
        let mut lo = 0;
        for (i, range) in self.shared.ranges.iter().enumerate() {
            let hi = lo + per + usize::from(i < extra);
            range.store(pack(lo, hi), Ordering::Release);
            lo = hi;
        }
        debug_assert_eq!(lo, n_chunks);
        // SAFETY: lifetime erasure only — the pointer is consumed strictly
        // within this call (we wait for `active == 0` below and clear the
        // slot before returning), so the non-'static pointee outlives
        // every dereference.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(JobPtr(erased as *const _));
            st.epoch += 1;
            st.active = p - 1;
            self.shared.start.notify_all();
        }
        self.shared.guarded_participate(0, job);
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        drop(st);
        if self.shared.poisoned.swap(false, Ordering::AcqRel) {
            panic!("worker-pool job panicked");
        }
    }

    /// Drain the accumulated worker-side heap-allocation deltas
    /// (`allocations, bytes`) since the last drain.
    fn drain_worker_allocs(&self) -> (u64, u64) {
        (
            self.shared.worker_allocs.swap(0, Ordering::Relaxed),
            self.shared.worker_bytes.swap(0, Ordering::Relaxed),
        )
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn chunk_helpers_cover_everything() {
        assert_eq!(pooled_chunks(10, 4), 3);
        assert_eq!(chunk_range(10, 4, 0), (0, 4));
        assert_eq!(chunk_range(10, 4, 2), (8, 10));
        assert_eq!(pooled_chunks(0, 4), 0);
        assert_eq!(pooled_chunks(5, 0), 5, "grain 0 clamps to 1");
        assert_eq!(chunk_count(None, 10, 4), 1, "no pool: one inline chunk");
        let pool = WorkerPool::new(2, None);
        assert_eq!(chunk_count(Some(&pool), 10, 4), 3);
        assert_eq!(chunk_grain(Some(&pool), 100), 13, "8 chunks of <= 13");
        assert_eq!(chunk_grain(None, 100), 25);
        assert_eq!(chunk_grain(Some(&pool), 0), 1, "never a zero grain");
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        for workers in [1usize, 2, 3, 4, 8] {
            let pool = WorkerPool::new(workers, None);
            for n_chunks in [1usize, 2, 5, 17, 64, 101] {
                let hits: Vec<AtomicUsize> = (0..n_chunks).map(|_| AtomicUsize::new(0)).collect();
                pool.run(n_chunks, &|c| {
                    hits[c].fetch_add(1, Ordering::Relaxed);
                });
                for (c, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "chunk {c} of {n_chunks} with {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn stealing_balances_imbalanced_chunks() {
        // Front chunks are 100x slower; with stealing, a 4-way pool must
        // still complete (and complete every chunk exactly once).
        let pool = WorkerPool::new(4, None);
        let n = 32;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|c| {
            let spin = if c < 4 { 200_000 } else { 2_000 };
            let mut acc = c as u64;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunked_loop_is_bitwise_deterministic_and_covers_every_element() {
        // The chunked element loop must produce the identical buffers for
        // every worker count (and with no pool): disjoint writes, no
        // reductions. `tag` is per-chunk scratch: one slab per chunk.
        let nel = 37;
        let grain = 3;
        let reference: Vec<f64> = (0..nel * 8).map(|i| (i as f64).sin()).collect();
        for workers in [0usize, 1, 2, 4] {
            let pool = (workers > 0).then(|| WorkerPool::new(workers, None));
            let slabs = chunk_count(pool.as_ref(), nel, grain);
            let mut out = vec![0.0f64; nel * 8];
            let mut tag = vec![-1.0f64; slabs * 2];
            let allocs = for_each_chunk(
                pool.as_ref(),
                nel,
                grain,
                [
                    (&mut out, Stride::PerElem(8)),
                    (&mut tag, Stride::PerChunk(2)),
                ],
                |lo, hi, [dst, t]| {
                    dst.copy_from_slice(&reference[lo * 8..hi * 8]);
                    t.copy_from_slice(&[lo as f64, hi as f64]);
                },
            );
            assert_eq!(allocs, (0, 0), "no counter function installed");
            assert_eq!(out, reference, "workers={workers}");
            // every slab written by exactly the chunk that owns it
            for (c, t) in tag.chunks_exact(2).enumerate() {
                let want = if pool.is_some() {
                    chunk_range(nel, grain, c)
                } else {
                    (0, nel)
                };
                assert_eq!((t[0] as usize, t[1] as usize), want, "workers={workers}");
            }
        }
    }

    #[test]
    fn per_chunk_partials_fold_deterministically() {
        // The deterministic-reduction pattern: workers fill a partials
        // array, the caller folds it sequentially in chunk order.
        let n_chunks = 23;
        let serial: f64 = (0..n_chunks).map(|c| 1.0 / (c as f64 + 1.0)).sum();
        for workers in [1usize, 3, 4] {
            let pool = WorkerPool::new(workers, None);
            let mut partials = vec![0.0f64; n_chunks];
            let _ = for_each_chunk(
                Some(&pool),
                n_chunks,
                1,
                [(&mut partials, Stride::PerChunk(1))],
                |lo, _, [dst]| dst[0] = 1.0 / (lo as f64 + 1.0),
            );
            let folded: f64 = partials.iter().sum();
            assert_eq!(folded.to_bits(), serial.to_bits(), "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "too short for its stride")]
    fn short_buffer_is_rejected() {
        let pool = WorkerPool::new(2, None);
        let mut out = vec![0.0f64; 10];
        let _ = for_each_chunk(
            Some(&pool),
            4,
            2,
            [(&mut out, Stride::PerElem(3))],
            |_, _, _| {},
        );
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3, None);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(16, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2, None);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|c| {
                if c == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        assert!(res.is_err(), "panic must propagate");
        // pool must remain usable
        let counter = AtomicUsize::new(0);
        pool.run(4, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn drain_worker_allocs_reports_and_resets() {
        // A counter function the test controls: pretend each call sees a
        // growing counter, so each worker job accrues a delta.
        fn fake_counts() -> (u64, u64) {
            use std::cell::Cell;
            thread_local! {
                static TICKS: Cell<u64> = const { Cell::new(0) };
            }
            TICKS.with(|t| {
                let v = t.get();
                t.set(v + 1);
                (v, v * 10)
            })
        }
        let pool = WorkerPool::new(2, Some(fake_counts));
        pool.run(8, &|_| {});
        let (a, b) = pool.drain_worker_allocs();
        // each worker-side job ticks the fake counter once between the
        // before/after snapshots -> delta 1 per dispatched job per worker
        assert!(a >= 1, "worker delta recorded ({a})");
        assert_eq!(b, a * 10);
        assert_eq!(pool.drain_worker_allocs(), (0, 0), "drain resets");
    }
}
