//! Per-rank recycling pool for typed payload buffers.
//!
//! The steady-state communication path never allocates: a send takes a
//! recycled `Box<Vec<T>>` from the pool, fills it, and moves the box into
//! the message envelope; the receiver adopts the same box out of the
//! envelope behind a [`PooledVec`] guard and, when the guard drops, the
//! box (shell *and* vector capacity) parks back in the receiver's pool
//! ready for the next take. After warm-up every rank's pool is balanced —
//! each communication pattern parks exactly as many buffers as it takes —
//! so no allocation ever happens on the hot path again.
//!
//! Buffers are keyed by their concrete `Vec<T>` type, so an `f64` field
//! payload never collides with a `u64` id list. A pool constructed
//! disabled ([`BufferPool::new`] with `false`) degrades to plain allocation:
//! takes allocate, parks drop — the baseline tests compare against.

// The double indirection of `Box<Vec<T>>` is deliberate: the *box shell*
// is what travels behind `dyn Any` and recycles along with the vector's
// capacity, so the type-erased envelope/pool hand-off costs no allocation.
#![allow(clippy::box_collection)]

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::envelope::Msg;

/// Most parked buffers retained per payload type (see [`BufferPool`]).
const PARK_CAP: usize = 64;

struct PoolInner {
    enabled: bool,
    /// Free buffers, keyed by `TypeId::of::<Vec<T>>()`.
    slots: Mutex<HashMap<TypeId, Vec<Box<dyn Any + Send>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A per-rank buffer recycling pool (cheaply clonable handle).
///
/// See the module docs for the ownership protocol. The pool is
/// thread-safe only because guards may migrate with payload boxes across
/// ranks conceptually; in practice each pool is owned by one rank thread.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hits, misses) = self.counters();
        f.debug_struct("BufferPool")
            .field("enabled", &self.inner.enabled)
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

impl BufferPool {
    /// Create a pool; a disabled pool degrades to plain allocation.
    pub fn new(enabled: bool) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                enabled,
                slots: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Whether recycling is on.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Take an empty buffer (recycled if one is parked, fresh otherwise).
    pub fn take<T: Msg>(&self) -> PooledVec<T> {
        if self.inner.enabled {
            let tid = TypeId::of::<Vec<T>>();
            let recycled = self
                .inner
                .slots
                .lock()
                .unwrap()
                .get_mut(&tid)
                .and_then(Vec::pop);
            if let Some(b) = recycled {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                let buf = b.downcast::<Vec<T>>().expect("pool slot holds keyed type");
                debug_assert!(buf.is_empty());
                return PooledVec {
                    buf: Some(buf),
                    pool: self.clone(),
                };
            }
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        PooledVec {
            buf: Some(Box::new(Vec::new())),
            pool: self.clone(),
        }
    }

    /// Wrap an existing box in a guard so it parks here when dropped
    /// (the receive path: the box arrived inside an envelope).
    pub fn adopt<T: Msg>(&self, buf: Box<Vec<T>>) -> PooledVec<T> {
        PooledVec {
            buf: Some(buf),
            pool: self.clone(),
        }
    }

    fn park(&self, tid: TypeId, buf: Box<dyn Any + Send>) {
        if self.inner.enabled {
            let mut slots = self.inner.slots.lock().unwrap();
            let slot = slots.entry(tid).or_default();
            // Cap the parked stock per type. Balanced patterns (gather–
            // scatter, allreduce) park exactly what they take, staying far
            // below the cap; asymmetric ones (a rank that receives more than it sends)
            // would otherwise accumulate buffers without bound.
            if slot.len() < PARK_CAP {
                slot.push(buf);
            }
        }
    }

    /// `(hits, misses)` of [`BufferPool::take`] so far: a warm steady
    /// state shows hits growing and misses frozen.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.inner.hits.load(Ordering::Relaxed),
            self.inner.misses.load(Ordering::Relaxed),
        )
    }
}

/// Guard over a recyclable `Box<Vec<T>>`: dereferences to the vector, and
/// parks the cleared buffer back in its pool on drop.
pub struct PooledVec<T: Msg> {
    buf: Option<Box<Vec<T>>>,
    pool: BufferPool,
}

impl<T: Msg> PooledVec<T> {
    /// Surrender the box (nothing returns to the pool): the send path,
    /// which moves the box into a message envelope so the *receiver*
    /// parks it.
    pub fn detach(mut self) -> Box<Vec<T>> {
        self.buf.take().expect("detach on live guard")
    }

    /// Move the contents out as a plain `Vec`, parking the emptied shell.
    ///
    /// This steals the vector's capacity from the pool, so the steady
    /// state should prefer borrowing (`&*guard`) or copying out; `take`
    /// is for hand-off points that must produce an owned `Vec`.
    pub fn take(mut self) -> Vec<T> {
        std::mem::take(self.buf.as_mut().expect("take on live guard"))
    }
}

impl<T: Msg> Deref for PooledVec<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        self.buf.as_ref().expect("deref on live guard")
    }
}

impl<T: Msg> DerefMut for PooledVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        self.buf.as_mut().expect("deref on live guard")
    }
}

impl<T: Msg> Drop for PooledVec<T> {
    fn drop(&mut self) {
        if let Some(mut buf) = self.buf.take() {
            buf.clear();
            self.pool.park(TypeId::of::<Vec<T>>(), buf);
        }
    }
}

impl<T: Msg + fmt::Debug> fmt::Debug for PooledVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_park_recycles_capacity() {
        let pool = BufferPool::new(true);
        let mut a = pool.take::<f64>();
        a.extend_from_slice(&[1.0; 100]);
        let cap = a.capacity();
        drop(a); // parks
        let b = pool.take::<f64>();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "recycled buffer keeps its capacity");
        assert_eq!(pool.counters(), (1, 1));
    }

    #[test]
    fn types_do_not_collide() {
        let pool = BufferPool::new(true);
        let mut a = pool.take::<f64>();
        a.push(1.0);
        drop(a);
        let b = pool.take::<u64>(); // must not hand back the f64 buffer
        assert!(b.is_empty());
        assert_eq!(pool.counters(), (0, 2));
        drop(b);
        let c = pool.take::<u64>();
        assert_eq!(pool.counters(), (1, 2));
        drop(c);
    }

    #[test]
    fn disabled_pool_never_recycles() {
        let pool = BufferPool::new(false);
        let mut a = pool.take::<f64>();
        a.push(1.0);
        drop(a);
        drop(pool.take::<f64>());
        assert_eq!(pool.counters(), (0, 2));
    }

    #[test]
    fn detach_then_adopt_round_trip() {
        let pool = BufferPool::new(true);
        let mut a = pool.take::<u64>();
        a.extend_from_slice(&[7, 8, 9]);
        let boxed = a.detach(); // nothing parked
        let b = pool.adopt(boxed);
        assert_eq!(&**b, &[7, 8, 9]);
        drop(b); // parks the (cleared) buffer
        let c = pool.take::<u64>();
        assert_eq!(pool.counters(), (1, 1));
        drop(c);
    }

    #[test]
    fn take_contents_parks_empty_shell() {
        let pool = BufferPool::new(true);
        let mut a = pool.take::<f64>();
        a.extend_from_slice(&[1.0, 2.0]);
        let v = a.take();
        assert_eq!(v, vec![1.0, 2.0]);
        let b = pool.take::<f64>();
        assert_eq!(pool.counters(), (1, 1), "emptied shell was parked");
        assert_eq!(b.capacity(), 0, "contents (and capacity) moved out");
    }
}
