//! Versioned wire format for non-in-process transports.
//!
//! The in-process backend moves `Vec`s between threads and never touches
//! this module. The socket backend serializes every [`Envelope`] into a
//! length-prefixed, checksummed frame:
//!
//! ```text
//! frame = [u32 body_len] [body]
//! body  = magic "SMPW" (u32) | version (u16) | kind (u8) | payload ... | frame_sum (u64)
//! ```
//!
//! All integers are little-endian. A frame is built whole in one buffer,
//! length prefix included, so a sender hands it to the socket in one
//! write. The checksum (`frame_sum`) covers the body before it (magic
//! included) and the body's length: four independent 64-bit lanes over
//! its words, so it runs at memory speed rather than one serial multiply
//! per byte. Magic and version are checked first, so a peer speaking
//! another version reads as [`WireError::BadVersion`]; then a torn or
//! corrupted frame is rejected by the checksum rather than mis-decoded.
//! Decoding returns [`WireError`], never panics, and refuses trailing
//! bytes so a frame cannot smuggle data past the codec.
//!
//! **Data frames** carry one envelope: source, destination, tag, the
//! wire-equivalent byte count (kept verbatim so the mpiP books agree
//! bitwise with the in-process backend), the payload element type's wire
//! id and the elements. Nothing else: the send-site label a verifier
//! stamps on an envelope never crosses a process boundary, because a
//! verifier runs in-process only.
//!
//! **Payload element types.** Payloads are typed `Vec<T>`s behind a
//! vtable, and `T` is bounded by the sealed [`Msg`] trait, implemented
//! below for exactly `f64`/`u64`/`u8`/`u32`/`usize` and the crystal
//! router's [`RoutedMsg`] bundles of those. Each impl carries its stable
//! wire id (1–9) and its element codec, so a boxed payload
//! encodes itself through its vtable and nothing that compiles can fail
//! to serialize. Decoding is the one place an id turns back into a type;
//! an id outside the table is a [`WireError::UnknownPayloadType`].
//!
//! Decoded payloads stage through the receiving rank's
//! [`BufferPool`] (the box shell and capacity recycle exactly as on the
//! in-process path), so the zero-allocation steady state survives the
//! serialization boundary.
//!
//! The [`WireCodec`] trait is the public composition layer: driver
//! crates implement it for their per-rank result structs so
//! [`crate::World::run_dist`] can ship results from rank processes back
//! to the launcher.

use crate::crystal::RoutedMsg;
use crate::envelope::sealed::Elem;
use crate::envelope::{Envelope, ErasedVec, Msg};
use crate::pool::BufferPool;
use crate::stats::{CommStats, MpiOp, SiteKey, SiteStats};

/// Frame magic: `"SMPW"` (simmpi wire).
pub(crate) const MAGIC: u32 = 0x534D_5057;
/// Wire-format version; bumped on any incompatible layout change.
pub(crate) const VERSION: u16 = 8;
/// Upper bound on one frame body, to reject absurd lengths from a
/// corrupt or hostile peer before reading.
pub(crate) const MAX_FRAME: usize = 1 << 30;
/// Bytes of the body-length prefix that starts every frame.
pub(crate) const LEN_BYTES: usize = 4;
/// Body header: magic, version, kind.
const HEADER: usize = 4 + 2 + 1;

/// Frame kinds exchanged between rank processes and the launcher hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// Child -> hub: `rank`, `size` — identifies the connection.
    Hello = 1,
    /// Hub -> child: all ranks connected, start the program.
    Go = 2,
    /// An envelope in flight (child -> hub -> destination child).
    Data = 3,
    /// Child -> hub: the rank's encoded return value and CommStats.
    Result = 4,
    /// Hub -> children: a peer failed; abort instead of deadlocking.
    Poison = 5,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::Go,
            3 => FrameKind::Data,
            4 => FrameKind::Result,
            5 => FrameKind::Poison,
            _ => return None,
        })
    }
}

/// Why a frame or value failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// Frame does not start with the `SMPW` magic.
    BadMagic(u32),
    /// Peer speaks a different wire-format version.
    BadVersion(u16),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Payload wire id that no [`crate::Msg`] element type carries.
    UnknownPayloadType(u16),
    /// The `frame_sum` trailer does not match the body: the frame was
    /// corrupted, torn or extended in flight.
    ChecksumMismatch,
    /// Bytes left over after the value was fully decoded.
    TrailingBytes(usize),
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A declared length exceeds the bytes actually present.
    Oversized(u64),
    /// Structurally invalid value (context in the message).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::UnknownPayloadType(t) => write!(f, "unknown payload type id {t}"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::Oversized(n) => write!(f, "declared length {n} exceeds frame"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Starting states of the four checksum lanes (hex digits of pi).
const SUM_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One checksum step: xor a word into a lane, multiply by an odd
/// constant, xorshift. Each part is a bijection of the lane, so for a
/// fixed word the step is one too, and for a fixed lane it is one in the
/// word: a word that differs always leaves its lane different.
fn sum_step(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// The frame checksum: four independent lanes over the little-endian
/// `u64` words of `bytes` (word `i` feeds lane `i % 4`), the last partial
/// word zero-padded, then the length and the four lanes folded in turn
/// into one value. The lanes have no dependency on each other, so the
/// multiplies overlap; any change confined to one word, every single bit
/// flip among them, always changes the sum.
pub(crate) fn frame_sum(bytes: &[u8]) -> u64 {
    let mut lanes = SUM_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = sum_step(*lane, u64::from_le_bytes(w.try_into().unwrap()));
        }
    }
    // the byte tail: under 32 bytes, so at most one more word per lane
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        *lane = sum_step(*lane, u64::from_le_bytes(word));
    }
    lanes.into_iter().fold(bytes.len() as u64, sum_step)
}

// ---------------------------------------------------------------------
// primitive put/get helpers
// ---------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64` (IEEE-754 bits — bitwise exact).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor over a received frame body; every read is bounds-checked.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume everything left.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64` (bitwise exact).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| WireError::BadUtf8)
    }

    /// Read a declared element count, rejecting counts that cannot fit in
    /// the remaining bytes at `min_elem_bytes` per element (corruption
    /// guard: never reserve memory a torn frame merely claims to carry).
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        if (n as usize).saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Oversized(n));
        }
        Ok(n as usize)
    }
}

// ---------------------------------------------------------------------
// frame envelope
// ---------------------------------------------------------------------

/// Start a frame in `buf` (clears it first): a length prefix that
/// [`end_frame`] fills in, then the body header.
pub(crate) fn begin_frame(buf: &mut Vec<u8>, kind: FrameKind) {
    buf.clear();
    put_u32(buf, 0);
    put_u32(buf, MAGIC);
    put_u16(buf, VERSION);
    put_u8(buf, kind as u8);
}

/// Finish a frame: append the checksum over the body so far and fill in
/// the length prefix. `buf` is then the complete frame, ready for one write.
pub(crate) fn end_frame(buf: &mut Vec<u8>) {
    let sum = frame_sum(&buf[LEN_BYTES..]);
    put_u64(buf, sum);
    let body_len = (buf.len() - LEN_BYTES) as u32;
    buf[..LEN_BYTES].copy_from_slice(&body_len.to_le_bytes());
}

/// Validate a frame (length prefix, magic, version, checksum, kind) and
/// return its kind plus a reader positioned after the header, covering
/// everything up to (not including) the checksum. Magic and version are
/// read before the checksum, whose algorithm may differ between versions.
pub(crate) fn open_frame(frame: &[u8]) -> Result<(FrameKind, WireReader<'_>), WireError> {
    if frame.len() < LEN_BYTES + HEADER + 8 {
        return Err(WireError::Truncated);
    }
    let (len, body) = frame.split_at(LEN_BYTES);
    if u32::from_le_bytes(len.try_into().unwrap()) as usize != body.len() {
        return Err(WireError::Malformed("frame length"));
    }
    let (head, sum_bytes) = body.split_at(body.len() - 8);
    let mut r = WireReader::new(head);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    if frame_sum(head) != u64::from_le_bytes(sum_bytes.try_into().unwrap()) {
        return Err(WireError::ChecksumMismatch);
    }
    let kind_byte = r.u8()?;
    let kind = FrameKind::from_u8(kind_byte).ok_or(WireError::BadKind(kind_byte))?;
    Ok((kind, r))
}

/// Source and destination rank of a data frame, read without decoding
/// the payload — the hub's routing peek. `None` if the frame is not Data,
/// is too short, or its length prefix disagrees with its length.
pub(crate) fn peek_data_ends(frame: &[u8]) -> Option<(usize, usize)> {
    // len(4) magic(4) version(2) kind(1) src(4) dest(4)
    const KIND_AT: usize = LEN_BYTES + 6;
    const SRC_AT: usize = LEN_BYTES + HEADER;
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap());
    if frame.len() < SRC_AT + 8
        || frame[KIND_AT] != FrameKind::Data as u8
        || u32_at(0) as usize != frame.len() - LEN_BYTES
    {
        return None;
    }
    Some((u32_at(SRC_AT) as usize, u32_at(SRC_AT + 4) as usize))
}

// ---------------------------------------------------------------------
// envelope (data frame) codec
// ---------------------------------------------------------------------

/// Serialize `env` (headed for `dest`) as a complete data frame in `buf`.
/// `env.sender_ctx` is not carried: only a verifier sets it, and a
/// verifier never runs over a socket.
pub(crate) fn encode_data(buf: &mut Vec<u8>, dest: usize, env: &Envelope) {
    begin_frame(buf, FrameKind::Data);
    put_u32(buf, env.src as u32);
    put_u32(buf, dest as u32);
    put_u64(buf, env.tag);
    put_u64(buf, env.bytes as u64);
    env.payload.put_wire(buf);
    end_frame(buf);
}

/// A decoded data frame: the reconstructed envelope plus its on-wire
/// size, which the receive-side `transport_ser` books count.
pub(crate) struct DecodedData {
    pub env: Envelope,
    pub wire_bytes: u64,
}

/// Decode a data frame body (reader positioned after the frame header).
/// Primitive payloads stage through `pool`.
pub(crate) fn decode_data(
    r: &mut WireReader<'_>,
    pool: &BufferPool,
) -> Result<DecodedData, WireError> {
    let wire_bytes = (r.remaining() + HEADER + 8) as u64; // the body: header and checksum included
    let src = r.u32()? as usize;
    let _dest = r.u32()?;
    let tag = r.u64()?;
    let bytes = r.u64()? as usize;
    let payload = decode_payload(r, pool)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(DecodedData {
        env: Envelope {
            src,
            tag,
            payload,
            bytes,
            sender_ctx: None,
        },
        wire_bytes,
    })
}

// ---------------------------------------------------------------------
// payload section: the six `Msg` impls and the id -> type table
// ---------------------------------------------------------------------

/// Append the payload section for `data`: wire id (u16), element count
/// (u64), elements.
pub(crate) fn put_payload<T: Msg>(data: &[T], buf: &mut Vec<u8>) {
    put_u16(buf, T::WIRE_ID);
    put_u64(buf, data.len() as u64);
    T::put_all(data, buf);
}

/// Append `data` as `W`-byte little-endian words: one resize, one sweep.
fn put_words<T: Copy, const W: usize>(data: &[T], buf: &mut Vec<u8>, le: impl Fn(T) -> [u8; W]) {
    let at = buf.len();
    buf.resize(at + W * data.len(), 0);
    for (dst, &v) in buf[at..].chunks_exact_mut(W).zip(data) {
        dst.copy_from_slice(&le(v));
    }
}

/// Decode `n` `W`-byte little-endian words onto `out`: one bounds check,
/// one sweep.
fn get_words<T, const W: usize>(
    r: &mut WireReader<'_>,
    n: usize,
    out: &mut Vec<T>,
    from_le: impl Fn([u8; W]) -> T,
) -> Result<(), WireError> {
    let bytes = r.bytes(n.saturating_mul(W))?;
    out.extend(
        bytes
            .chunks_exact(W)
            .map(|w| from_le(w.try_into().unwrap())),
    );
    Ok(())
}

/// `Elem` for a fixed-width scalar: its wire id, its width and the
/// conversions to and from its little-endian bytes.
macro_rules! scalar_msg {
    ($t:ty, $id:expr, $w:expr, $le:expr, $from_le:expr) => {
        impl Elem for $t {
            const WIRE_ID: u16 = $id;
            const MIN_WIRE_BYTES: usize = $w;
            fn put_all(data: &[Self], buf: &mut Vec<u8>) {
                put_words::<$t, $w>(data, buf, $le);
            }
            fn get_all(
                r: &mut WireReader<'_>,
                n: usize,
                out: &mut Vec<Self>,
            ) -> Result<(), WireError> {
                get_words::<$t, $w>(r, n, out, $from_le)
            }
        }
    };
}

scalar_msg!(f64, 1, 8, |v: f64| v.to_bits().to_le_bytes(), |b| {
    f64::from_bits(u64::from_le_bytes(b))
});
scalar_msg!(u64, 2, 8, u64::to_le_bytes, u64::from_le_bytes);
scalar_msg!(u32, 4, 4, u32::to_le_bytes, u32::from_le_bytes);
scalar_msg!(
    usize,
    5,
    8,
    |v: usize| (v as u64).to_le_bytes(),
    |b| u64::from_le_bytes(b) as usize
);

impl Elem for u8 {
    const WIRE_ID: u16 = 3;
    const MIN_WIRE_BYTES: usize = 1;
    fn put_all(data: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(data);
    }
    fn get_all(r: &mut WireReader<'_>, n: usize, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.extend_from_slice(r.bytes(n)?);
        Ok(())
    }
}

impl<T: Msg> Elem for RoutedMsg<T> {
    const WIRE_ID: u16 = match T::WIRE_ID {
        1 => 6,
        2 => 7,
        3 => 8,
        5 => 9,
        _ => panic!("RoutedMsg<T> has a wire id only for T = f64, u64, u8, usize"),
    };
    const MIN_WIRE_BYTES: usize = 24;
    fn put_all(data: &[Self], buf: &mut Vec<u8>) {
        for m in data {
            put_u64(buf, m.src as u64);
            put_u64(buf, m.dest as u64);
            put_u64(buf, m.data.len() as u64);
            T::put_all(&m.data, buf);
        }
    }
    fn get_all(r: &mut WireReader<'_>, n: usize, out: &mut Vec<Self>) -> Result<(), WireError> {
        out.reserve(n);
        for _ in 0..n {
            let src = r.u64()? as usize;
            let dest = r.u64()? as usize;
            let len = r.count(T::MIN_WIRE_BYTES)?;
            let mut data = Vec::new();
            T::get_all(r, len, &mut data)?;
            out.push(RoutedMsg { src, dest, data });
        }
        Ok(())
    }
}

/// The name (`std::any::type_name`) of the element type with wire id
/// `id`, `""` for 0 (a barrier carries no element type), `None` for an
/// id outside the table: what a collective fingerprint names.
pub(crate) fn elem_type_name(id: u16) -> Option<&'static str> {
    use std::any::type_name;
    Some(match id {
        0 => "",
        1 => type_name::<f64>(),
        2 => type_name::<u64>(),
        3 => type_name::<u8>(),
        4 => type_name::<u32>(),
        5 => type_name::<usize>(),
        6 => type_name::<RoutedMsg<f64>>(),
        7 => type_name::<RoutedMsg<u64>>(),
        8 => type_name::<RoutedMsg<u8>>(),
        9 => type_name::<RoutedMsg<usize>>(),
        _ => return None,
    })
}

/// Decode the count and elements of a `Vec<T>` payload into a buffer
/// staged from `pool`: it becomes the boxed payload.
fn decode_elems<T: Msg>(
    r: &mut WireReader<'_>,
    pool: &BufferPool,
) -> Result<Box<dyn ErasedVec>, WireError> {
    let n = r.count(T::MIN_WIRE_BYTES)?;
    let mut v = pool.take::<T>();
    T::get_all(r, n, &mut v)?;
    Ok(v.detach())
}

/// Decode the payload section written by [`put_payload`]: the one place
/// a wire id turns back into an element type.
fn decode_payload(
    r: &mut WireReader<'_>,
    pool: &BufferPool,
) -> Result<Box<dyn ErasedVec>, WireError> {
    match r.u16()? {
        1 => decode_elems::<f64>(r, pool),
        2 => decode_elems::<u64>(r, pool),
        3 => decode_elems::<u8>(r, pool),
        4 => decode_elems::<u32>(r, pool),
        5 => decode_elems::<usize>(r, pool),
        6 => decode_elems::<RoutedMsg<f64>>(r, pool),
        7 => decode_elems::<RoutedMsg<u64>>(r, pool),
        8 => decode_elems::<RoutedMsg<u8>>(r, pool),
        9 => decode_elems::<RoutedMsg<usize>>(r, pool),
        other => Err(WireError::UnknownPayloadType(other)),
    }
}

// ---------------------------------------------------------------------
// WireCodec: the public composition layer
// ---------------------------------------------------------------------

/// Bidirectional byte codec for values that cross a process boundary —
/// per-rank results shipped from rank processes back to the
/// [`crate::World::run_dist`] launcher.
///
/// Driver crates implement this for their per-rank output structs,
/// composing the blanket impls for primitives, `String`, `Option`,
/// `Vec`, and small tuples with the [`put_u64`]-family helpers.
/// Encoding must be deterministic; decoding must consume exactly what
/// encoding produced.
pub trait WireCodec: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode one value, advancing the reader past it.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
    /// Append the encodings of `vals` in order: a `Vec<Self>`'s elements.
    /// The scalars override it with their bulk [`crate::Msg`] codec.
    fn encode_slice(vals: &[Self], buf: &mut Vec<u8>) {
        for v in vals {
            v.encode(buf);
        }
    }
    /// Decode `n` values in order, `n` already bounded by the bytes left.
    /// A value can take more memory than wire bytes, so the reservation is
    /// capped at the bytes left as well; a longer vector grows as it decodes.
    fn decode_vec(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(n.min(r.remaining() / size_of::<Self>().max(1)));
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

/// `WireCodec` for a scalar: one value through its `put_*`/reader pair,
/// a slice through its bulk [`Elem`] codec (the same bytes).
macro_rules! codec_prim {
    ($t:ty, $put:ident, $get:ident) => {
        impl WireCodec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                $put(buf, *self as _);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(r.$get()? as _)
            }
            fn encode_slice(vals: &[Self], buf: &mut Vec<u8>) {
                <$t as Elem>::put_all(vals, buf);
            }
            fn decode_vec(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
                let mut out = Vec::new();
                <$t as Elem>::get_all(r, n, &mut out)?;
                Ok(out)
            }
        }
    };
}

codec_prim!(u8, put_u8, u8);
codec_prim!(u32, put_u32, u32);
codec_prim!(u64, put_u64, u64);
codec_prim!(f64, put_f64, f64);
codec_prim!(usize, put_u64, u64);

impl WireCodec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(buf, *self as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool")),
        }
    }
}

impl WireCodec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.str()?.to_owned())
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => put_u8(buf, 0),
            Some(v) => {
                put_u8(buf, 1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Malformed("option tag")),
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.len() as u64);
        T::encode_slice(self, buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.count(1)?;
        T::decode_vec(r, n)
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WireCodec, B: WireCodec, C: WireCodec> WireCodec for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl WireCodec for MpiOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        let code: u8 = match self {
            MpiOp::Send => 0,
            MpiOp::Isend => 1,
            MpiOp::Recv => 2,
            MpiOp::Irecv => 3,
            MpiOp::Wait => 4,
            MpiOp::Barrier => 5,
            MpiOp::Allreduce => 8,
            MpiOp::Scan => 10,
            MpiOp::Alltoallv => 11,
            MpiOp::CrystalRouter => 12,
            MpiOp::FaultDelay => 13,
            MpiOp::TransportSer => 15,
            MpiOp::LbGather => 16,
            MpiOp::LbMigrate => 17,
        };
        put_u8(buf, code);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => MpiOp::Send,
            1 => MpiOp::Isend,
            2 => MpiOp::Recv,
            3 => MpiOp::Irecv,
            4 => MpiOp::Wait,
            5 => MpiOp::Barrier,
            8 => MpiOp::Allreduce,
            10 => MpiOp::Scan,
            11 => MpiOp::Alltoallv,
            12 => MpiOp::CrystalRouter,
            13 => MpiOp::FaultDelay,
            15 => MpiOp::TransportSer,
            16 => MpiOp::LbGather,
            17 => MpiOp::LbMigrate,
            _ => return Err(WireError::Malformed("mpi op")),
        })
    }
}

impl WireCodec for SiteStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.calls);
        put_f64(buf, self.time_s);
        put_u64(buf, self.bytes);
        put_u64(buf, self.max_bytes);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SiteStats {
            calls: r.u64()?,
            time_s: r.f64()?,
            bytes: r.u64()?,
            max_bytes: r.u64()?,
        })
    }
}

impl WireCodec for SiteKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.op.encode(buf);
        put_str(buf, &self.context);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SiteKey {
            op: MpiOp::decode(r)?,
            context: r.str()?.to_owned(),
        })
    }
}

impl WireCodec for CommStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.rank as u64);
        put_f64(buf, self.app_time_s);
        self.sites.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CommStats {
            rank: r.u64()? as usize,
            app_time_s: r.f64()?,
            sites: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(env: Envelope) -> (DecodedData, BufferPool) {
        let pool = BufferPool::new(true);
        let mut buf = Vec::new();
        encode_data(&mut buf, 1, &env);
        let (kind, mut r) = open_frame(&buf).expect("frame opens");
        assert_eq!(kind, FrameKind::Data);
        let d = decode_data(&mut r, &pool).expect("decodes");
        (d, pool)
    }

    #[test]
    fn data_round_trip_f64_boxed() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 0.25 - 3.0).collect();
        let env = Envelope::new(2, 0x77, data.clone());
        let (d, _) = round_trip(env);
        assert_eq!(d.env.src, 2);
        assert_eq!(d.env.tag, 0x77);
        assert_eq!(d.env.bytes, 800);
        assert_eq!(d.env.open::<f64>(), data);
    }

    #[test]
    fn data_round_trip_every_flat_type() {
        let e = Envelope::new(0, 1, vec![1u64, u64::MAX, 42]);
        assert_eq!(round_trip(e).0.env.open::<u64>(), vec![1, u64::MAX, 42]);
        let e = Envelope::new(0, 1, (0u8..=255).collect::<Vec<u8>>());
        assert_eq!(
            round_trip(e).0.env.open::<u8>(),
            (0u8..=255).collect::<Vec<u8>>()
        );
        let e = Envelope::new(0, 1, vec![7u32, u32::MAX]);
        assert_eq!(round_trip(e).0.env.open::<u32>(), vec![7, u32::MAX]);
        let e = Envelope::new(0, 1, vec![3usize, usize::MAX]);
        assert_eq!(round_trip(e).0.env.open::<usize>(), vec![3, usize::MAX]);
    }

    #[test]
    fn data_round_trip_preserves_nan_and_negzero_bits() {
        let vals = vec![f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE];
        let env = Envelope::new(0, 1, vals.clone());
        let got = round_trip(env).0.env.open::<f64>();
        for (a, b) in got.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn routed_msg_round_trip() {
        let msgs = vec![
            RoutedMsg {
                src: 0,
                dest: 3,
                data: vec![1.5f64, 2.5],
            },
            RoutedMsg {
                src: 2,
                dest: 1,
                data: Vec::new(),
            },
        ];
        let env = Envelope::new(0, 2, msgs.clone());
        assert_eq!(round_trip(env).0.env.open::<RoutedMsg<f64>>(), msgs);
        let msgs = vec![RoutedMsg {
            src: 7,
            dest: 0,
            data: vec![u64::MAX],
        }];
        let env = Envelope::new(7, 2, msgs.clone());
        assert_eq!(round_trip(env).0.env.open::<RoutedMsg<u64>>(), msgs);
        let msgs = vec![RoutedMsg {
            src: 1,
            dest: 2,
            data: vec![0u8, 255],
        }];
        let env = Envelope::new(1, 2, msgs.clone());
        assert_eq!(round_trip(env).0.env.open::<RoutedMsg<u8>>(), msgs);
    }

    /// One value of each of the nine wire ids, each with the payload
    /// section it must encode to: wire id (u16), element count (u64),
    /// elements, all little-endian.
    fn one_of_each_wire_id() -> Vec<(Envelope, String)> {
        fn routed<T>(v: T) -> Vec<RoutedMsg<T>> {
            vec![RoutedMsg {
                src: 2,
                dest: 3,
                data: vec![v],
            }]
        }
        const ONE: &str = "0100000000000000";
        // src 2, dest 3, one element
        const ROUTE: &str = "020000000000000003000000000000000100000000000000";
        const F64: &str = "000000000000f83f"; // 1.5
        const U64: &str = "0807060504030201";
        const USIZE: &str = "0201000000000000";
        let (f, u, b, w, z) = (
            1.5f64,
            0x0102_0304_0506_0708u64,
            0xabu8,
            0x0102_0304u32,
            0x0102usize,
        );
        vec![
            (Envelope::new(0, 0, vec![f]), format!("0100{ONE}{F64}")),
            (Envelope::new(0, 0, vec![u]), format!("0200{ONE}{U64}")),
            (Envelope::new(0, 0, vec![b]), format!("0300{ONE}ab")),
            (Envelope::new(0, 0, vec![w]), format!("0400{ONE}04030201")),
            (Envelope::new(0, 0, vec![z]), format!("0500{ONE}{USIZE}")),
            (
                Envelope::new(0, 0, routed(f)),
                format!("0600{ONE}{ROUTE}{F64}"),
            ),
            (
                Envelope::new(0, 0, routed(u)),
                format!("0700{ONE}{ROUTE}{U64}"),
            ),
            (
                Envelope::new(0, 0, routed(b)),
                format!("0800{ONE}{ROUTE}ab"),
            ),
            (
                Envelope::new(0, 0, routed(z)),
                format!("0900{ONE}{ROUTE}{USIZE}"),
            ),
        ]
    }

    fn payload_section(env: &Envelope) -> Vec<u8> {
        let mut buf = Vec::new();
        env.payload.put_wire(&mut buf);
        buf
    }

    #[test]
    fn payload_section_golden_bytes() {
        assert_eq!(VERSION, 8);
        for (env, want) in one_of_each_wire_id() {
            let hex: String = payload_section(&env)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(hex, want);
        }
    }

    /// A well-framed (magic, version, checksum all valid) data frame
    /// around an arbitrary payload section, decoded against a fresh pool.
    fn decode_section(section: &[u8]) -> Result<DecodedData, WireError> {
        let mut buf = Vec::new();
        begin_frame(&mut buf, FrameKind::Data);
        put_u32(&mut buf, 0); // src
        put_u32(&mut buf, 1); // dest
        put_u64(&mut buf, 7); // tag
        put_u64(&mut buf, 0); // bytes
        buf.extend_from_slice(section);
        end_frame(&mut buf);
        let (_, mut r) = open_frame(&buf).expect("framing is valid");
        decode_data(&mut r, &BufferPool::new(true))
    }

    /// Hostile payload sections behind valid framing, for every wire id:
    /// each is a `WireError`, none panics, and a declared count is refused
    /// before anything is reserved for it.
    #[test]
    fn hostile_payload_sections_are_errors_for_every_wire_id() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x0B5E_55ED);
        for (env, _) in one_of_each_wire_id() {
            let section = payload_section(&env);
            assert!(decode_section(&section).is_ok());
            // truncated at every length
            for cut in 0..section.len() {
                let got = decode_section(&section[..cut]);
                assert!(got.is_err(), "{cut} of {} bytes accepted", section.len());
            }
            // the wire id, then random bytes
            for _ in 0..64 {
                let mut bad = section[..2].to_vec();
                bad.extend((0..rng.range_usize(0, 96)).map(|_| rng.next_u64() as u8));
                assert!(decode_section(&bad).is_err());
            }
            // one flipped bit anywhere: an error or a different value, no panic
            for bit in 0..section.len() * 8 {
                let mut bad = section.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_section(&bad);
            }
            // a count one past what the bytes that follow could hold
            let id = u16::from_le_bytes([section[0], section[1]]);
            let min_bytes = match id {
                3 => 1,
                4 => 4,
                6..=9 => 24,
                _ => 8,
            };
            let mut bad = section[..2].to_vec();
            put_u64(&mut bad, 4);
            bad.resize(bad.len() + 3 * min_bytes, 0);
            let got = decode_section(&bad).map(|_| ());
            assert_eq!(got, Err(WireError::Oversized(4)), "wire id {id}");
        }
    }

    #[test]
    fn pooled_decode_recycles_buffers() {
        let pool = BufferPool::new(true);
        let mut buf = Vec::new();
        encode_data(&mut buf, 1, &Envelope::new(0, 1, vec![1.0f64; 64]));
        for _ in 0..3 {
            let (_, mut r) = open_frame(&buf).unwrap();
            let d = decode_data(&mut r, &pool).unwrap();
            drop(d.env.open_pooled::<f64>(&pool)); // parks the buffer
        }
        let (hits, misses) = pool.counters();
        assert!(
            hits >= 2,
            "decode did not recycle: {hits} hits {misses} misses"
        );
    }

    /// Recompute `frame`'s length prefix and checksum after an edit, so
    /// only the decoder can object to it.
    fn reseal(frame: &mut [u8]) {
        let n = frame.len();
        frame[..LEN_BYTES].copy_from_slice(&((n - LEN_BYTES) as u32).to_le_bytes());
        let sum = frame_sum(&frame[LEN_BYTES..n - 8]);
        frame[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    /// A data frame whose checksummed body (89 bytes) is two lane blocks
    /// and a tail of three words and one byte.
    fn sample_frame() -> Vec<u8> {
        let vals = vec![1.5f64, -0.0, f64::NAN, 7.25e-300, f64::INFINITY, -2.0];
        let env = Envelope::new(3, 0x51, vals);
        let mut buf = Vec::new();
        encode_data(&mut buf, 1, &env);
        buf
    }

    /// Every single-bit flip of a data frame is refused: in the prefix as a
    /// length that disagrees, in magic or version by name, anywhere else by
    /// the checksum.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let buf = sample_frame();
        assert!(open_frame(&buf).is_ok());
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            // frame offsets: prefix 0..4, magic 4..8, version 8..10
            let want = match bit / 8 {
                0..4 => WireError::Malformed("frame length"),
                4..8 => WireError::BadMagic(u32::from_le_bytes(bad[4..8].try_into().unwrap())),
                8..10 => WireError::BadVersion(u16::from_le_bytes(bad[8..10].try_into().unwrap())),
                _ => WireError::ChecksumMismatch,
            };
            assert_eq!(open_frame(&bad).map(|_| ()), Err(want), "bit {bit}");
        }
    }

    /// Every truncation and every one-byte extension is refused, also with
    /// the length prefix rewritten to agree, so only the checksum is left
    /// to object.
    #[test]
    fn every_truncation_and_extension_is_rejected() {
        let buf = sample_frame();
        for cut in 0..buf.len() {
            let mut bad = buf[..cut].to_vec();
            assert!(open_frame(&bad).is_err(), "truncation to {cut} bytes");
            if cut < LEN_BYTES {
                continue;
            }
            bad[..LEN_BYTES].copy_from_slice(&((cut - LEN_BYTES) as u32).to_le_bytes());
            let got = open_frame(&bad).map(|_| ());
            assert!(
                matches!(got, Err(WireError::Truncated | WireError::ChecksumMismatch)),
                "truncation to {cut} bytes: {got:?}"
            );
        }
        for byte in 0..=u8::MAX {
            let mut bad = buf.clone();
            bad.push(byte);
            assert_eq!(
                open_frame(&bad).map(|_| ()),
                Err(WireError::Malformed("frame length"))
            );
            bad[..LEN_BYTES].copy_from_slice(&((buf.len() + 1 - LEN_BYTES) as u32).to_le_bytes());
            assert_eq!(
                open_frame(&bad).map(|_| ()),
                Err(WireError::ChecksumMismatch),
                "{byte:#04x}"
            );
        }
    }

    /// The lane loop and the byte tail split the input the way a plain
    /// word-by-word walk does, at every length across two lane blocks and
    /// the tails around them; and at each length any one bit flip, or one
    /// appended zero byte, changes the sum.
    #[test]
    fn frame_sum_lanes_and_tail_agree_at_every_length() {
        fn word_by_word(bytes: &[u8]) -> u64 {
            let mut lanes = SUM_SEEDS;
            for (i, w) in bytes.chunks(8).enumerate() {
                let mut word = [0u8; 8];
                word[..w.len()].copy_from_slice(w);
                lanes[i % 4] = sum_step(lanes[i % 4], u64::from_le_bytes(word));
            }
            lanes.into_iter().fold(bytes.len() as u64, sum_step)
        }
        let bytes: Vec<u8> = (0..70u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=70 {
            let data = &bytes[..len];
            let sum = frame_sum(data);
            assert_eq!(sum, word_by_word(data), "length {len}");
            let mut longer = data.to_vec();
            longer.push(0);
            assert_ne!(frame_sum(&longer), sum, "length {len} + a zero byte");
            for bit in 0..len * 8 {
                let mut bad = data.to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(frame_sum(&bad), sum, "length {len}, bit {bit}");
            }
        }
    }

    /// The trailer of one frame, pinned: a change to `frame_sum` must bump
    /// `VERSION`, or peers of one build would reject each other's frames as
    /// corrupt instead of naming the version.
    #[test]
    fn frame_trailer_is_pinned() {
        let buf = sample_frame();
        assert_eq!(buf.len(), 101);
        let trailer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(trailer, 0x446B_D541_C88B_17C1);
    }

    /// A version-3 peer sealed its frames with byte-serial FNV-1a; it is
    /// named a stale peer, not a corrupt one.
    #[test]
    fn stale_peer_is_bad_version() {
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let mut frame = sample_frame();
        frame[LEN_BYTES + 4..LEN_BYTES + 6].copy_from_slice(&3u16.to_le_bytes());
        let n = frame.len();
        let sum = fnv1a(&frame[LEN_BYTES..n - 8]);
        frame[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            open_frame(&frame).map(|_| ()),
            Err(WireError::BadVersion(3))
        );
    }

    /// The bulk element codec round-trips every scalar type bitwise, NaN
    /// payloads and `-0.0` included, and writes exactly the per-element
    /// little-endian bytes.
    #[test]
    fn bulk_element_codec_round_trips_every_scalar_bitwise() {
        fn check<T: Elem + std::fmt::Debug>(
            vals: &[T],
            le: impl Fn(&T) -> Vec<u8>,
            bits: impl Fn(&T) -> u64,
        ) {
            let mut buf = vec![0xAA]; // put_all appends
            T::put_all(vals, &mut buf);
            let want: Vec<u8> = vals.iter().flat_map(&le).collect();
            assert_eq!(buf[1..], want[..]);
            let mut r = WireReader::new(&buf[1..]);
            let mut back = vec![vals[0].clone()]; // get_all appends
            T::get_all(&mut r, vals.len(), &mut back).unwrap();
            assert_eq!(r.remaining(), 0);
            let got: Vec<u64> = back[1..].iter().map(&bits).collect();
            assert_eq!(got, vals.iter().map(&bits).collect::<Vec<_>>());
            // one element short: an error, not a short vector
            let mut r = WireReader::new(&buf[1..buf.len() - 1]);
            assert_eq!(
                T::get_all(&mut r, vals.len(), &mut Vec::new()),
                Err(WireError::Truncated)
            );
        }
        let f = [
            -0.0,
            0.0,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // quiet NaN with a payload
            f64::from_bits(0xFFF0_0000_0000_0001), // signalling NaN, sign set
            f64::from_bits(1),                     // smallest subnormal
            f64::NEG_INFINITY,
            -1.5e300,
        ];
        check(&f, |v| v.to_bits().to_le_bytes().to_vec(), |v| v.to_bits());
        let u = [0u64, 1, u64::MAX, 0x0102_0304_0506_0708];
        check(&u, |v| v.to_le_bytes().to_vec(), |&v| v);
        let w = [0u32, 1, u32::MAX, 0x0102_0304];
        check(&w, |v| v.to_le_bytes().to_vec(), |&v| v as u64);
        let z = [0usize, 1, usize::MAX, 0x0102];
        check(&z, |&v| (v as u64).to_le_bytes().to_vec(), |&v| v as u64);
        let b: Vec<u8> = (0..=u8::MAX).collect();
        check(&b, |&v| vec![v], |&v| v as u64);
    }

    #[test]
    fn unknown_payload_type_is_rejected() {
        let mut buf = Vec::new();
        encode_data(&mut buf, 1, &Envelope::new(0, 1, vec![1u64]));
        // the wire id sits right after src/dest/tag/bytes
        let id_at = LEN_BYTES + HEADER + 4 + 4 + 8 + 8;
        let mut bad = buf.clone();
        bad[id_at] = 0x99;
        reseal(&mut bad);
        let pool = BufferPool::new(true);
        let (_, mut r) = open_frame(&bad).unwrap();
        assert!(matches!(
            decode_data(&mut r, &pool),
            Err(WireError::UnknownPayloadType(0x99))
        ));
    }

    #[test]
    fn oversized_count_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        encode_data(&mut buf, 1, &Envelope::new(0, 1, vec![1.0f64]));
        // corrupt the element count to something enormous
        let count_at = LEN_BYTES + HEADER + 4 + 4 + 8 + 8 + 2;
        let mut bad = buf.clone();
        bad[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bad);
        let pool = BufferPool::new(true);
        let (_, mut r) = open_frame(&bad).unwrap();
        assert!(matches!(
            decode_data(&mut r, &pool),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn peek_ends_match_encoded_ends() {
        let mut buf = Vec::new();
        encode_data(&mut buf, 13, &Envelope::new(4, 1, vec![1u8]));
        assert_eq!(peek_data_ends(&buf), Some((4, 13)));
        assert_eq!(peek_data_ends(&buf[..10]), None);
        assert_eq!(peek_data_ends(&buf[..buf.len() - 1]), None);
    }

    #[test]
    fn wire_codec_composes() {
        #[derive(Debug, PartialEq)]
        struct Sample {
            name: String,
            vals: Vec<f64>,
            flag: Option<u64>,
        }
        impl WireCodec for Sample {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.name.encode(buf);
                self.vals.encode(buf);
                self.flag.encode(buf);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Sample {
                    name: String::decode(r)?,
                    vals: Vec::decode(r)?,
                    flag: Option::decode(r)?,
                })
            }
        }
        let s = Sample {
            name: "hi".into(),
            vals: vec![1.0, -2.0],
            flag: Some(9),
        };
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(Sample::decode(&mut r).unwrap(), s);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn comm_stats_codec_round_trip() {
        let mut rec = crate::stats::CommRecorder::default();
        rec.record(
            MpiOp::Send,
            "gs:pairwise",
            std::time::Duration::from_millis(3),
            128,
        );
        rec.record_bulk(MpiOp::TransportSer, "transport:rx", 10, 0.5e-3, 4096, 700);
        let stats = rec.finish(3, 1.25);
        let mut buf = Vec::new();
        stats.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        let back = CommStats::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back, stats);
    }
}
