//! Typed message envelopes.
//!
//! Messages travel between ranks as type-erased payloads carrying a
//! `Vec<T>`; no serialization happens (the ranks share an address space),
//! but each envelope records the byte size the payload *would* occupy on
//! a wire, which is what the mpiP-style statistics consume.
//!
//! A payload has one form: a `Box<Vec<T>>` taken from the sending rank's
//! [`crate::BufferPool`], whose box shell *and* vector capacity recycle
//! through the receiving rank's pool, so the steady state is
//! allocation-free.

use std::any::Any;

use crate::pool::{BufferPool, PooledVec};
pub(crate) use sealed::ErasedVec;

/// The crate-private half of [`Msg`]: nominally `pub` so the trait's
/// signatures may mention it, unnameable from outside so the trait is sealed.
pub(crate) mod sealed {
    use std::any::Any;

    use crate::wire::{WireError, WireReader};

    /// What the transports need from an element type. The impls live in
    /// [`crate::wire`], next to the ids they assign.
    pub trait Elem: Clone + Send + Sync + 'static {
        /// Wire id of a `Vec<Self>` payload.
        const WIRE_ID: u16;
        /// Fewest bytes one encoded element occupies: bounds a declared
        /// element count by the bytes left in the frame.
        const MIN_WIRE_BYTES: usize;
        /// Append the little-endian encoding of every element of `data`.
        fn put_all(data: &[Self], buf: &mut Vec<u8>);
        /// Decode `n` elements onto `out`. The caller has bounded `n` by
        /// the bytes left ([`WireReader::count`]).
        fn get_all(r: &mut WireReader<'_>, n: usize, out: &mut Vec<Self>) -> Result<(), WireError>;
    }

    /// A `Vec<T: Msg>` behind a vtable: what every payload holds.
    /// It downcasts back to `Vec<T>` on open and serializes itself for the
    /// socket backend.
    pub trait ErasedVec: Any + Send {
        /// Append the payload section of a data frame (see [`crate::wire`]).
        fn put_wire(&self, buf: &mut Vec<u8>);
    }

    impl<T: Elem> ErasedVec for Vec<T> {
        fn put_wire(&self, buf: &mut Vec<u8>) {
            crate::wire::put_payload(self, buf);
        }
    }
}

/// Element types that may cross ranks: exactly `f64`, `u64`, `u8`, `u32`,
/// `usize` and [`crate::crystal::RoutedMsg`] of those.
///
/// The trait is sealed — each implementor carries its wire id and its
/// little-endian element codec, so whatever the in-process backend
/// accepts the socket backend can serialize:
///
/// ```
/// fn f(rank: &mut simmpi::Rank) {
///     rank.send::<u32>(1, 0, &[7]);
/// }
/// ```
///
/// Any other element type is rejected at compile time, on both transports:
///
/// ```compile_fail
/// fn f(rank: &mut simmpi::Rank) {
///     rank.send::<String>(1, 0, &[String::new()]);
/// }
/// ```
///
/// Compound values travel as bytes through a [`crate::WireCodec`] impl.
pub trait Msg: sealed::Elem {}
impl<T: sealed::Elem> Msg for T {}

/// A message in flight: source rank, tag, type-erased payload, and its
/// wire-equivalent size in bytes.
///
/// When a verifier is installed ([`crate::World::with_verifier`]) the
/// envelope additionally carries the sender's context label, so
/// message-leak diagnostics can name the send site. It stays `None`
/// (zero cost beyond the option) in unverified worlds.
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// User or internal tag (see [`crate::rank::Tag`]).
    pub tag: u64,
    /// The type-erased payload: `Box<Vec<T>>`, shell and capacity
    /// recyclable.
    pub(crate) payload: Box<dyn ErasedVec>,
    /// Wire-equivalent payload size in bytes.
    pub bytes: usize,
    /// Sender's context label at send time (verifier installed only).
    pub sender_ctx: Option<Box<str>>,
}

impl Envelope {
    /// Wrap a typed payload.
    pub fn new<T: Msg>(src: usize, tag: u64, data: Vec<T>) -> Self {
        Envelope::from_box(src, tag, Box::new(data))
    }

    /// Wrap an already-boxed payload: every send's path. The box shell
    /// came out of the sender's [`BufferPool`] and parks in the
    /// receiver's — the shell, not the vector, is the recyclable unit.
    #[allow(clippy::box_collection)]
    pub(crate) fn from_box<T: Msg>(src: usize, tag: u64, data: Box<Vec<T>>) -> Self {
        let bytes = data.len() * std::mem::size_of::<T>();
        Envelope {
            src,
            tag,
            payload: data,
            bytes,
            sender_ctx: None,
        }
    }

    /// Recover the typed payload.
    ///
    /// # Panics
    /// Panics if the stored type differs from `T` — that is a programming
    /// error equivalent to an MPI datatype mismatch.
    pub fn open<T: Msg>(self) -> Vec<T> {
        *self.downcast()
    }

    /// Recover the typed payload into a pool-guarded buffer: the receiver
    /// adopts the sender's box wholesale — zero copies, zero allocations —
    /// and the guard parks it in `pool` when the receiver is done.
    ///
    /// # Panics
    /// Panics on a datatype mismatch, as [`Envelope::open`] does.
    pub(crate) fn open_pooled<T: Msg>(self, pool: &BufferPool) -> PooledVec<T> {
        pool.adopt(self.downcast())
    }

    #[allow(clippy::box_collection)]
    fn downcast<T: Msg>(self) -> Box<Vec<T>> {
        let (src, tag) = (self.src, self.tag);
        (self.payload as Box<dyn Any>)
            .downcast()
            .unwrap_or_else(|_| {
                panic!(
                    "message type mismatch: rank {src} tag {tag:#x} does not hold Vec<{}>",
                    std::any::type_name::<T>()
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_byte_count() {
        let env = Envelope::new(3, 7, vec![1.0f64, 2.0, 3.0]);
        assert_eq!(env.src, 3);
        assert_eq!(env.bytes, 24);
        assert_eq!(env.open::<f64>(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_payload_is_zero_bytes() {
        let env = Envelope::new(0, 0, Vec::<u64>::new());
        assert_eq!(env.bytes, 0);
        assert!(env.open::<u64>().is_empty());
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let env = Envelope::new(0, 0, vec![1.0f64]);
        let _ = env.open::<u32>();
    }
}
