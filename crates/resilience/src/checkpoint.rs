//! The versioned, checksummed per-rank checkpoint format.
//!
//! A checkpoint captures everything one rank needs to re-enter its
//! timestep loop bitwise-identically: the step index, the RK stage,
//! simulation time, solver scalars, the conserved (or Krylov) fields —
//! and the fault-injection RNG state, without which a rollback would
//! replay a *different* injected-fault schedule and the recovered run
//! could diverge in timing-sensitive books even though the physics
//! matched.
//!
//! The bytes are `simmpi`'s wire encoding, so a checkpoint is checked by
//! the same code that checks a socket frame:
//!
//! ```text
//! checkpoint = "CMTR" | version (u16)
//!            | rank (u64) | step (u64) | stage (u32) | time (f64) | rng_state (u64)
//!            | scalars (Vec<f64>) | fields (Vec<Vec<f64>>) | frame_sum (u64)
//! ```
//!
//! Integers are little-endian and a `Vec` is its `u64` length, then its
//! elements ([`simmpi::WireCodec`]). The trailer is [`simmpi::frame_sum`]
//! over every byte before it. Magic and version are read first, then the
//! trailer is verified before any declared length is trusted, so a
//! foreign file, a file of another version, a truncated file or a
//! flipped bit is a [`WireError`] rather than a silently-wrong restart.

use simmpi::wire::put_u16;
use simmpi::{frame_sum, WireCodec, WireError, WireReader};

/// File magic: the first four bytes of every encoded checkpoint.
pub const MAGIC: [u8; 4] = *b"CMTR";

/// Current format version. Bump on any layout change; decoders reject
/// versions they do not know.
pub const VERSION: u16 = 2;

/// One rank's captured solver state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// The rank this state belongs to.
    pub rank: u64,
    /// Step index (timestep or CG iteration) at which the capture was
    /// taken — the loop re-enters *at* this step.
    pub step: u64,
    /// RK stage index at capture (0 when captured between whole steps).
    pub stage: u32,
    /// Simulation time at capture.
    pub time: f64,
    /// Fault-injection RNG state at capture
    /// ([`simmpi::Rank::fault_rng_state`]); 0 when no fault plan is
    /// installed.
    pub rng_state: u64,
    /// Solver-specific scalars (dt, CG's `r·z`, residual history, ...),
    /// in a solver-defined order after the head the drivers write
    /// ([`Checkpoint::begin_scalars`]).
    pub scalars: Vec<f64>,
    /// Solver field arrays (conserved variables, Krylov vectors, ...),
    /// in a solver-defined order.
    pub fields: Vec<Vec<f64>>,
}

/// The mini-app that wrote a checkpoint. Its tag and the world size the
/// run had open every checkpoint's `scalars`
/// ([`Checkpoint::begin_scalars`]), so a restart refuses a directory
/// written by the other mini-app or at another rank count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// The CMT-bone driver.
    CmtBone,
    /// The Nekbone driver.
    Nekbone,
}

impl App {
    const ALL: [App; 2] = [App::CmtBone, App::Nekbone];

    /// The first scalar of this app's checkpoints: its name's ASCII
    /// bytes as an integer, exact in an `f64` and unlike any owner rank
    /// or timestep an older checkpoint opened with.
    fn tag(self) -> f64 {
        f64::from(u32::from_le_bytes(match self {
            App::CmtBone => *b"CMTB",
            App::Nekbone => *b"NEKB",
        }))
    }

    /// The app's name in refusals.
    pub fn name(self) -> &'static str {
        match self {
            App::CmtBone => "cmt-bone",
            App::Nekbone => "nekbone",
        }
    }
}

/// The fixed-width values a checkpoint opens with, before its scalars:
/// [`Checkpoint`]'s first five fields.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Head {
    /// [`Checkpoint::rank`].
    pub rank: u64,
    /// [`Checkpoint::step`].
    pub step: u64,
    /// [`Checkpoint::stage`].
    pub stage: u32,
    /// [`Checkpoint::time`].
    pub time: f64,
    /// [`Checkpoint::rng_state`].
    pub rng_state: u64,
}

/// How much an [`Encoder`] writes: the scalar count, the field count and
/// the values of all fields together, which fix the encoded length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Shape {
    /// Scalars, the app tag and world size included.
    pub scalars: usize,
    /// Field arrays.
    pub fields: usize,
    /// Values summed over the fields.
    pub values: usize,
}

impl Shape {
    /// The encoded length in bytes: header, the five fixed-width values,
    /// the scalar vector, the field count, each field's length and
    /// values, and the trailer.
    pub fn encoded_len(self) -> usize {
        6 + 36 + 8 + 8 * self.scalars + 8 + 8 * self.fields + 8 * self.values + 8
    }
}

/// Make `buf` an empty buffer that holds `len` bytes without growing. A
/// buffer that must grow gets `len / 64` bytes of headroom on top, so a
/// checkpoint that grows by a little from save to save (nekbone's
/// residual history, a few particles migrating in) is not reallocated at
/// every save.
pub(crate) fn fit(buf: &mut Vec<u8>, len: usize) {
    buf.clear();
    if buf.capacity() < len {
        buf.reserve_exact(len + len / 64);
    }
}

/// The one writer of the checkpoint layout, over borrowed parts: `new`
/// writes the header and the [`Head`], then the scalars follow
/// ([`Encoder::begin_scalars`], [`Encoder::scalar`], [`Encoder::scalars`]),
/// then [`Encoder::fields`] hands over to a [`FieldSink`] that takes the
/// fields in order and seals the trailer. The [`Shape`] given to `new`
/// sizes the buffer once and is checked as the parts arrive, so a solver
/// encodes from its live state without gathering it into a
/// [`Checkpoint`] first, and the bytes are those of
/// [`Checkpoint::encode`] on the same values.
#[derive(Debug)]
pub struct Encoder<'b> {
    buf: &'b mut Vec<u8>,
    shape: Shape,
    /// Scalars still to come.
    scalars: usize,
}

impl<'b> Encoder<'b> {
    /// Start a checkpoint of `shape` in `buf`, replacing its contents.
    pub fn new(buf: &'b mut Vec<u8>, head: &Head, shape: Shape) -> Encoder<'b> {
        fit(buf, shape.encoded_len());
        buf.extend_from_slice(&MAGIC);
        put_u16(buf, VERSION);
        head.rank.encode(buf);
        head.step.encode(buf);
        head.stage.encode(buf);
        head.time.encode(buf);
        head.rng_state.encode(buf);
        shape.scalars.encode(buf);
        Encoder {
            buf,
            shape,
            scalars: shape.scalars,
        }
    }

    /// The first two scalars, as [`Checkpoint::begin_scalars`] writes them:
    /// `app`'s tag, then the world size `ranks`.
    pub fn begin_scalars(&mut self, app: App, ranks: usize) {
        self.scalars(&[app.tag(), ranks as f64]);
    }

    /// The next scalar.
    pub fn scalar(&mut self, v: f64) {
        self.scalars(&[v]);
    }

    /// The next scalars, in order.
    ///
    /// # Panics
    /// Panics if they overrun the shape's scalar count.
    pub fn scalars(&mut self, vs: &[f64]) {
        self.scalars = self
            .scalars
            .checked_sub(vs.len())
            .expect("more scalars than the shape declares");
        f64::encode_slice(vs, self.buf);
    }

    /// End the scalars and start the fields.
    ///
    /// # Panics
    /// Panics if fewer scalars were written than the shape declares.
    pub fn fields(self) -> FieldSink<'b> {
        assert_eq!(self.scalars, 0, "scalars missing from the shape's count");
        self.shape.fields.encode(self.buf);
        FieldSink {
            buf: self.buf,
            fields: self.shape.fields,
            values: self.shape.values,
        }
    }
}

/// The fields half of an [`Encoder`]: one call per field, in order, then
/// [`FieldSink::finish`].
#[derive(Debug)]
pub struct FieldSink<'b> {
    buf: &'b mut Vec<u8>,
    /// Fields and values still to come.
    fields: usize,
    values: usize,
}

impl FieldSink<'_> {
    /// The next field, from its values.
    pub fn field(&mut self, values: &[f64]) {
        self.begin(values.len());
        f64::encode_slice(values, self.buf);
    }

    /// The next field, `len` values that `fill` writes as little-endian
    /// bytes into the `8 * len` (zeroed) bytes it is handed, where it may
    /// also reorder them: how cmt-bone writes and sorts its particle
    /// records in place.
    pub fn field_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        self.begin(len);
        let start = self.buf.len();
        self.buf.resize(start + 8 * len, 0);
        fill(&mut self.buf[start..]);
    }

    fn begin(&mut self, len: usize) {
        self.fields = self
            .fields
            .checked_sub(1)
            .expect("more fields than the shape declares");
        self.values = self
            .values
            .checked_sub(len)
            .expect("more field values than the shape declares");
        len.encode(self.buf);
    }

    /// Seal the checkpoint with its trailer.
    ///
    /// # Panics
    /// Panics if fewer fields or values were written than the shape
    /// declares.
    pub fn finish(self) {
        assert_eq!(
            (self.fields, self.values),
            (0, 0),
            "fields or values missing from the shape's counts"
        );
        frame_sum(self.buf).encode(self.buf);
    }
}

impl Checkpoint {
    /// Clear `scalars` and write their head: `app`'s tag, then the world
    /// size `ranks`. The solver's own scalars follow.
    pub fn begin_scalars(&mut self, app: App, ranks: usize) {
        self.scalars.clear();
        self.scalars.extend([app.tag(), ranks as f64]);
    }

    /// The solver's scalars after the head, or, when the head says
    /// another app or another world size wrote them, why this run
    /// (`app` at `ranks` ranks) cannot restore them, naming both values.
    pub fn body_scalars(&self, app: App, ranks: usize) -> Result<&[f64], String> {
        let [tag, size, body @ ..] = &self.scalars[..] else {
            return Err(format!(
                "{} scalars hold no app tag and world size",
                self.scalars.len()
            ));
        };
        let Some(writer) = App::ALL.into_iter().find(|a| a.tag() == *tag) else {
            return Err(format!("scalar tag {tag} names no app"));
        };
        if writer != app {
            return Err(format!(
                "written by {}, this run is {}",
                writer.name(),
                app.name()
            ));
        }
        if *size != ranks as f64 {
            return Err(format!("written at {size} ranks, this run has {ranks}"));
        }
        Ok(body)
    }

    /// The fixed-width values this checkpoint opens with.
    fn head(&self) -> Head {
        Head {
            rank: self.rank,
            step: self.step,
            stage: self.stage,
            time: self.time,
            rng_state: self.rng_state,
        }
    }

    /// The sizes this checkpoint encodes.
    fn shape(&self) -> Shape {
        Shape {
            scalars: self.scalars.len(),
            fields: self.fields.len(),
            values: self.fields.iter().map(Vec::len).sum(),
        }
    }

    /// Serialize to the versioned byte format, in one buffer sized up
    /// front.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.shape().encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// [`Checkpoint::encode`] into `buf`, replacing its contents, through
    /// the [`Encoder`]: a buffer that already holds a checkpoint of this
    /// size is reused without allocating.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut enc = Encoder::new(buf, &self.head(), self.shape());
        enc.scalars(&self.scalars);
        let mut fields = enc.fields();
        for f in &self.fields {
            fields.field(f);
        }
        fields.finish();
    }

    /// Decode and verify a buffer produced by [`Checkpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, WireError> {
        let mut r = WireReader::new(bytes);
        let magic = r.u32()?;
        if magic != u32::from_le_bytes(MAGIC) {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let body = r.bytes(r.remaining().checked_sub(8).ok_or(WireError::Truncated)?)?;
        if r.u64()? != frame_sum(&bytes[..bytes.len() - 8]) {
            return Err(WireError::ChecksumMismatch);
        }
        let mut r = WireReader::new(body);
        let ckpt = Checkpoint {
            rank: r.u64()?,
            step: r.u64()?,
            stage: r.u32()?,
            time: r.f64()?,
            rng_state: r.u64()?,
            scalars: Vec::decode(&mut r)?,
            fields: Vec::decode(&mut r)?,
        };
        match r.remaining() {
            0 => Ok(ckpt),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::rng::SmallRng;

    fn sample() -> Checkpoint {
        Checkpoint {
            rank: 3,
            step: 42,
            stage: 2,
            time: 0.125,
            rng_state: 0xDEAD_BEEF_CAFE_F00D,
            scalars: vec![1e-3, -7.5, 0.0],
            fields: vec![vec![1.0, 2.0, 3.0], vec![], vec![-0.5; 17]],
        }
    }

    /// Offset of the field count in `sample()`'s encoding: header, the
    /// five fixed-width values, the scalar count and three scalars.
    const NFIELDS_AT: usize = 6 + 36 + 8 + 3 * 8;

    /// Rewrite the trailer so the checksum matches whatever `bytes` now
    /// hold, and the decoder gets past it to the check under test.
    fn reseal(bytes: &mut [u8]) {
        let n = bytes.len();
        let sum = frame_sum(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let ckpt = sample();
        let bytes = ckpt.encode();
        assert_eq!(bytes.len(), bytes.capacity(), "sized once");
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(ckpt, back);
        // NaN-free sample: PartialEq suffices. Also check bit patterns of
        // a negative zero survive.
        let mut z = sample();
        z.scalars[2] = -0.0;
        let back = Checkpoint::decode(&z.encode()).unwrap();
        assert_eq!(back.scalars[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ckpt = Checkpoint {
            rank: 0,
            step: 0,
            stage: 0,
            time: 0.0,
            rng_state: 0,
            scalars: vec![],
            fields: vec![],
        };
        assert_eq!(Checkpoint::decode(&ckpt.encode()).unwrap(), ckpt);
    }

    /// Every single-bit flip is refused: in the magic as `BadMagic`, in
    /// the version as `BadVersion`, anywhere else by the checksum.
    #[test]
    fn every_single_bit_flip_is_refused() {
        let bytes = sample().encode();
        for bit in 0..8 * bytes.len() {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let got = Checkpoint::decode(&bad);
            let want = match bit / 8 {
                0..4 => WireError::BadMagic(u32::from_le_bytes(bad[..4].try_into().unwrap())),
                4..6 => WireError::BadVersion(u16::from_le_bytes([bad[4], bad[5]])),
                _ => WireError::ChecksumMismatch,
            };
            assert_eq!(got, Err(want), "bit {bit}");
        }
    }

    #[test]
    fn every_truncation_is_refused() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let got = Checkpoint::decode(&bytes[..len]);
            let want = if len < 14 {
                WireError::Truncated
            } else {
                WireError::ChecksumMismatch
            };
            assert_eq!(got, Err(want), "len {len}");
        }
        let mut long = bytes;
        long.push(0);
        assert_eq!(Checkpoint::decode(&long), Err(WireError::ChecksumMismatch));
    }

    /// Version 1 (the previous format) and a future version are refused by
    /// number, before the checksum is read.
    #[test]
    fn other_versions_are_refused() {
        for v in [1u16, 3, 99] {
            let mut bytes = sample().encode();
            bytes[4..6].copy_from_slice(&v.to_le_bytes());
            reseal(&mut bytes);
            assert_eq!(Checkpoint::decode(&bytes), Err(WireError::BadVersion(v)));
        }
        let mut bad = sample().encode();
        bad[0] = b'X';
        assert!(matches!(
            Checkpoint::decode(&bad),
            Err(WireError::BadMagic(_))
        ));
    }

    /// A field count no file could hold, under a valid trailer, is
    /// refused before it sizes an allocation (`1 << 60` fields would
    /// overflow the capacity; `1 << 40` would try to reserve 24 TiB), and
    /// one field too many runs out of bytes.
    #[test]
    fn absurd_field_count_is_truncated_not_reserved() {
        for nfields in [1u64 << 60, 1 << 40, 4] {
            let mut bytes = sample().encode();
            bytes[NFIELDS_AT..NFIELDS_AT + 8].copy_from_slice(&nfields.to_le_bytes());
            reseal(&mut bytes);
            let want = if nfields == 4 {
                WireError::Truncated
            } else {
                WireError::Oversized(nfields)
            };
            assert_eq!(Checkpoint::decode(&bytes), Err(want), "nfields = {nfields}");
        }
    }

    /// A spare byte inside the sealed body is `TrailingBytes`, not
    /// silently ignored.
    #[test]
    fn trailing_body_bytes_are_refused() {
        let mut bytes = sample().encode();
        let n = bytes.len();
        bytes.insert(n - 8, 0);
        reseal(&mut bytes);
        assert_eq!(Checkpoint::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    /// Seeded arbitrary bytes — raw, behind a valid header, and as a
    /// sealed body (valid header and trailer), where every declared
    /// length reaches the decoder — are an `Err` and never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_decode() {
        let mut rng = SmallRng::seed_from_u64(0x434D_5452);
        let valid = sample().encode();
        for _ in 0..20_000 {
            let junk: Vec<u8> = (0..rng.range_usize(0, 160))
                .map(|_| rng.next_u64() as u8)
                .collect();
            assert!(Checkpoint::decode(&junk).is_err());
            let mut framed = valid[..6].to_vec();
            framed.extend_from_slice(&junk);
            assert!(Checkpoint::decode(&framed).is_err());
            framed.extend_from_slice(&[0; 8]);
            reseal(&mut framed);
            let _ = Checkpoint::decode(&framed);
            let mut bent = valid.clone();
            let at = rng.range_usize(6, bent.len() - 8);
            bent[at] ^= rng.range_u64(1, 256) as u8;
            reseal(&mut bent);
            let _ = Checkpoint::decode(&bent);
        }
    }

    /// The encoder fed part by part — head scalars, one scalar, a slice,
    /// a field from values and one filled in place — writes the bytes
    /// `Checkpoint::encode` writes, into a buffer that held other bytes.
    #[test]
    fn encoder_parts_write_what_encode_writes() {
        let mut ckpt = sample();
        ckpt.begin_scalars(App::Nekbone, 6);
        ckpt.scalars.extend([0.5, -2.0, 1e300]);
        let mut buf = vec![9; 1000];
        let mut enc = Encoder::new(&mut buf, &ckpt.head(), ckpt.shape());
        enc.begin_scalars(App::Nekbone, 6);
        enc.scalar(0.5);
        enc.scalars(&[-2.0, 1e300]);
        let mut fields = enc.fields();
        fields.field(&ckpt.fields[0]);
        fields.field_with(0, |bytes| assert!(bytes.is_empty()));
        fields.field_with(17, |bytes| {
            for b in bytes.as_chunks_mut::<8>().0 {
                *b = (-0.5f64).to_le_bytes();
            }
        });
        fields.finish();
        assert_eq!(buf, ckpt.encode());
        assert_eq!(buf.len(), ckpt.shape().encoded_len());
    }

    /// Parts that overrun or fall short of the declared shape panic
    /// rather than write a checkpoint of another length.
    #[test]
    fn encoder_refuses_parts_outside_its_shape() {
        let shape = Shape {
            scalars: 1,
            fields: 1,
            values: 2,
        };
        type Case = fn(&mut Vec<u8>, Shape);
        let cases: [(&str, Case); 4] = [
            ("more scalars", |buf, shape| {
                Encoder::new(buf, &Head::default(), shape).scalars(&[1.0, 2.0])
            }),
            ("scalars missing", |buf, shape| {
                let _ = Encoder::new(buf, &Head::default(), shape).fields();
            }),
            ("more field values", |buf, shape| {
                let mut enc = Encoder::new(buf, &Head::default(), shape);
                enc.scalar(1.0);
                enc.fields().field(&[1.0; 3]);
            }),
            ("fields or values missing", |buf, shape| {
                let mut enc = Encoder::new(buf, &Head::default(), shape);
                enc.scalar(1.0);
                enc.fields().finish();
            }),
        ];
        for (want, case) in cases {
            let err = std::panic::catch_unwind(|| case(&mut Vec::new(), shape)).expect_err(want);
            let msg = err.downcast_ref::<&str>().map(|s| s.to_string());
            let msg = msg
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap();
            assert!(msg.contains(want), "{want}: {msg}");
        }
    }

    #[test]
    fn encoded_format_is_pinned() {
        // Length, header and trailer of `sample()` in version 2: a change
        // here is a format change, and moves `VERSION` with it.
        let bytes = sample().encode();
        assert_eq!(bytes.len(), 274);
        assert_eq!(bytes[..6], *b"CMTR\x02\0");
        let trailer = u64::from_le_bytes(bytes[266..].try_into().unwrap());
        assert_eq!(trailer, 0x225D_AEBC_1E8D_36C2);
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), sample());
    }
}
