//! Typed message envelopes.
//!
//! Messages travel between ranks as type-erased payloads carrying a
//! `Vec<T>`; no serialization happens (the ranks share an address space),
//! but each envelope records the byte size the payload *would* occupy on
//! a wire, which is what the mpiP-style statistics consume.
//!
//! Two payload representations keep the steady state allocation-free:
//!
//! * **Boxed** — the general case: a `Box<Vec<T>>` whose box shell *and*
//!   vector capacity both recycle through the receiving rank's
//!   [`crate::BufferPool`].
//! * **Inline** — small payloads of the workhorse element types
//!   (`f64`/`u64`/`u8`, up to [`INLINE_ELEMS`] elements) ride inside the
//!   envelope itself: the eager path that skips the heap entirely.

use std::any::Any;

use crate::pool::{BufferPool, PooledVec};
pub(crate) use sealed::Payload;

/// The crate-private half of [`Msg`]: nominally `pub` so the trait's
/// signatures may mention it, unnameable from outside so the trait is sealed.
pub(crate) mod sealed {
    use std::any::Any;

    use super::INLINE_ELEMS;
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
        /// Copy `data` into the inline payload form, if the type has one
        /// and `data` fits.
        fn to_inline(_data: &[Self]) -> Option<Payload> {
            None
        }
        /// The elements of `p`, if it is this type's inline form.
        fn as_inline(_p: &Payload) -> Option<&[Self]> {
            None
        }
    }

    /// A `Vec<T: Msg>` behind a vtable: what a boxed payload holds.
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

    /// The type-erased payload representations (see module docs).
    pub enum Payload {
        /// `Box<Vec<T>>`; shell and capacity are recyclable.
        Boxed(Box<dyn ErasedVec>),
        /// Small `f64` payload carried inline (length, storage).
        InlineF64(u8, [f64; INLINE_ELEMS]),
        /// Small `u64` payload carried inline.
        InlineU64(u8, [u64; INLINE_ELEMS]),
        /// Small `u8` payload carried inline.
        InlineU8(u8, [u8; INLINE_ELEMS]),
    }
}

/// Element types that may cross ranks: exactly `f64`, `u64`, `u8`, `u32`,
/// `usize` and [`crate::crystal::RoutedMsg`] of those.
///
/// The trait is sealed — each implementor carries its wire id, its
/// little-endian element codec and (for `f64`/`u64`/`u8`) its inline form,
/// so whatever the in-process backend accepts the socket backend can
/// serialize:
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

/// Maximum element count of the inline (eager) payload representation.
pub const INLINE_ELEMS: usize = 8;

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
    /// The type-erased payload.
    pub(crate) payload: Payload,
    /// Wire-equivalent payload size in bytes.
    pub bytes: usize,
    /// Sender's context label at send time (verifier installed only).
    pub sender_ctx: Option<Box<str>>,
}

fn mismatch<T>(src: usize, tag: u64) -> ! {
    panic!(
        "message type mismatch: rank {} tag {:#x} does not hold Vec<{}>",
        src,
        tag,
        std::any::type_name::<T>()
    )
}

impl Envelope {
    /// Wrap a typed payload.
    pub fn new<T: Msg>(src: usize, tag: u64, data: Vec<T>) -> Self {
        Envelope::from_box(src, tag, Box::new(data))
    }

    /// Wrap an already-boxed payload (the pooled zero-alloc send path:
    /// the box shell came out of a [`BufferPool`] and will return to the
    /// receiver's — the shell, not the vector, is the recyclable unit).
    #[allow(clippy::box_collection)]
    pub(crate) fn from_box<T: Msg>(src: usize, tag: u64, data: Box<Vec<T>>) -> Self {
        let bytes = data.len() * std::mem::size_of::<T>();
        Envelope {
            src,
            tag,
            payload: Payload::Boxed(data),
            bytes,
            sender_ctx: None,
        }
    }

    /// Build an inline (eager, heap-free) envelope for a small payload of
    /// a supported element type; `None` if the payload is too large or
    /// the type has no inline form.
    pub(crate) fn inline_from<T: Msg>(src: usize, tag: u64, data: &[T]) -> Option<Self> {
        let payload = T::to_inline(data)?;
        Some(Envelope {
            src,
            tag,
            payload,
            bytes: data.len() * std::mem::size_of::<T>(),
            sender_ctx: None,
        })
    }

    /// Recover the typed payload.
    ///
    /// # Panics
    /// Panics if the stored type differs from `T` — that is a programming
    /// error equivalent to an MPI datatype mismatch.
    pub fn open<T: Msg>(self) -> Vec<T> {
        let Envelope {
            src, tag, payload, ..
        } = self;
        match payload {
            Payload::Boxed(b) => match (b as Box<dyn Any>).downcast::<Vec<T>>() {
                Ok(v) => *v,
                Err(_) => mismatch::<T>(src, tag),
            },
            inline => match T::as_inline(&inline) {
                Some(vals) => vals.to_vec(),
                None => mismatch::<T>(src, tag),
            },
        }
    }

    /// Recover the typed payload into a pool-guarded buffer: the general
    /// (boxed) case adopts the sender's box wholesale — zero copies, zero
    /// allocations — and the guard parks it in `pool` when the receiver
    /// is done. An inline payload copies into a recycled buffer taken
    /// from `pool`.
    ///
    /// # Panics
    /// Panics on a datatype mismatch, as [`Envelope::open`] does.
    pub(crate) fn open_pooled<T: Msg>(self, pool: &BufferPool) -> PooledVec<T> {
        let Envelope {
            src, tag, payload, ..
        } = self;
        match payload {
            Payload::Boxed(b) => match (b as Box<dyn Any>).downcast::<Vec<T>>() {
                Ok(v) => pool.adopt(v),
                Err(_) => mismatch::<T>(src, tag),
            },
            inline => {
                let Some(vals) = T::as_inline(&inline) else {
                    mismatch::<T>(src, tag)
                };
                let mut buf = pool.take::<T>();
                buf.extend_from_slice(vals);
                buf
            }
        }
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

    #[test]
    fn inline_round_trip_all_types() {
        let env = Envelope::inline_from(1, 2, &[1.5f64, -2.5]).expect("f64 inlines");
        assert_eq!(env.bytes, 16);
        assert_eq!(env.open::<f64>(), vec![1.5, -2.5]);
        let env = Envelope::inline_from(1, 2, &[7u64; 8]).expect("u64 inlines");
        assert_eq!(env.open::<u64>(), vec![7; 8]);
        let env = Envelope::inline_from(1, 2, &[9u8]).expect("u8 inlines");
        assert_eq!(env.open::<u8>(), vec![9]);
    }

    #[test]
    fn oversized_or_unsupported_does_not_inline() {
        assert!(Envelope::inline_from(0, 0, &[0.0f64; 9]).is_none());
        assert!(Envelope::inline_from(0, 0, &[0u32; 2]).is_none());
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn inline_type_mismatch_panics() {
        let env = Envelope::inline_from(0, 0, &[1u64]).unwrap();
        let _ = env.open::<f64>();
    }
}
