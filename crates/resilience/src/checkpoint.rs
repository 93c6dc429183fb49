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
//! The byte format is self-describing and fails loudly: a fixed magic,
//! an explicit version, little-endian fixed-width integers, and a CRC-64
//! trailer over every preceding byte, so a truncated file, a
//! foreign-endian write, or a flipped bit is a decode error rather than
//! a silently-wrong restart.

use std::fmt;

/// File magic: the first four bytes of every encoded checkpoint.
pub const MAGIC: [u8; 4] = *b"CMTR";

/// Current format version. Bump on any layout change; decoders reject
/// versions they do not know.
pub const VERSION: u32 = 1;

/// One rank's captured solver state.
#[derive(Debug, Clone, PartialEq)]
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
    /// in a solver-defined order.
    pub scalars: Vec<f64>,
    /// Solver field arrays (conserved variables, Krylov vectors, ...),
    /// in a solver-defined order.
    pub fields: Vec<Vec<f64>>,
}

/// Why a checkpoint failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Fewer bytes than the fixed header + trailer.
    TooShort,
    /// The magic bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is newer (or older) than this decoder knows.
    UnsupportedVersion(u32),
    /// The CRC-64 trailer does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// Internal lengths point past the end of the buffer.
    Truncated,
    /// An I/O error while reading or writing a checkpoint file.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::TooShort => write!(f, "checkpoint shorter than header"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic (not a CMTR file)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expect {VERSION})")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint truncated mid-payload"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// CRC-64/ECMA-182 generator polynomial (MSB-first, init 0, no final xor).
const POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// Slice-by-8 tables: `CRC_TABLE[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes.
const CRC_TABLE: [[u64; 256]; 8] = {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = (b as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc >> 63 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-64/ECMA-182 over `data`, eight bytes per step through a 16 KiB
/// table (slice-by-8): a checkpoint is over a megabyte every few steps,
/// and a bit-at-a-time CRC would cost a tenth of the step it guards.
pub fn crc64(data: &[u8]) -> u64 {
    let t = &CRC_TABLE;
    let mut crc = 0u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let x = crc ^ u64::from_be_bytes(w.try_into().expect("chunks_exact(8)"));
        // spelled out: as a `for k in 0..8` loop this measured 15 % slower
        crc = t[7][(x >> 56) as usize]
            ^ t[6][(x >> 48) as usize & 0xFF]
            ^ t[5][(x >> 40) as usize & 0xFF]
            ^ t[4][(x >> 32) as usize & 0xFF]
            ^ t[3][(x >> 24) as usize & 0xFF]
            ^ t[2][(x >> 16) as usize & 0xFF]
            ^ t[1][(x >> 8) as usize & 0xFF]
            ^ t[0][x as usize & 0xFF];
    }
    for &b in words.remainder() {
        crc = (crc << 8) ^ t[0][(crc >> 56) as usize ^ b as usize];
    }
    crc
}

/// Append `values` as little-endian bytes in one sweep.
fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    let at = buf.len();
    buf.resize(at + 8 * values.len(), 0);
    for (dst, v) in buf[at..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

impl Checkpoint {
    /// Serialize to the versioned byte format (with CRC-64 trailer).
    pub fn encode(&self) -> Vec<u8> {
        let payload_len: usize =
            8 * self.scalars.len() + self.fields.iter().map(|f| 8 + 8 * f.len()).sum::<usize>();
        let mut buf = Vec::with_capacity(64 + payload_len + 8);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.rank.to_le_bytes());
        buf.extend_from_slice(&self.step.to_le_bytes());
        buf.extend_from_slice(&self.stage.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // pad to 8-byte alignment
        buf.extend_from_slice(&self.time.to_le_bytes());
        buf.extend_from_slice(&self.rng_state.to_le_bytes());
        buf.extend_from_slice(&(self.scalars.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(self.fields.len() as u64).to_le_bytes());
        put_f64s(&mut buf, &self.scalars);
        for field in &self.fields {
            buf.extend_from_slice(&(field.len() as u64).to_le_bytes());
            put_f64s(&mut buf, field);
        }
        let crc = crc64(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode and verify a buffer produced by [`Checkpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        const HEADER: usize = 64;
        if bytes.len() < HEADER + 8 {
            return Err(CheckpointError::TooShort);
        }
        if bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let f64_at = |o: usize| f64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let version = u32_at(4);
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        // Verify the trailer before trusting any embedded length.
        let content = &bytes[..bytes.len() - 8];
        let stored = u64_at(bytes.len() - 8);
        let computed = crc64(content);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        let nscalars = u64_at(48) as usize;
        let nfields = u64_at(56) as usize;
        let mut off = HEADER;
        let take = |off: &mut usize, n: usize| -> Result<usize, CheckpointError> {
            let at = *off;
            *off = at.checked_add(n).ok_or(CheckpointError::Truncated)?;
            if *off > content.len() {
                return Err(CheckpointError::Truncated);
            }
            Ok(at)
        };
        // `len` values as one sweep, after `take` has bounded them
        let f64s = |off: &mut usize, len: usize| -> Result<Vec<f64>, CheckpointError> {
            let nbytes = len.checked_mul(8).ok_or(CheckpointError::Truncated)?;
            let at = take(off, nbytes)?;
            Ok(content[at..at + nbytes]
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
                .collect())
        };
        let scalars = f64s(&mut off, nscalars)?;
        // Each field carries at least its 8-byte length, so the bytes left
        // bound `nfields` before it sizes an allocation.
        if nfields > (content.len() - off) / 8 {
            return Err(CheckpointError::Truncated);
        }
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let len = u64_at(take(&mut off, 8)?) as usize;
            fields.push(f64s(&mut off, len)?);
        }
        if off != content.len() {
            return Err(CheckpointError::Truncated);
        }
        Ok(Checkpoint {
            rank: u64_at(8),
            step: u64_at(16),
            stage: u32_at(24),
            time: f64_at(32),
            rng_state: u64_at(40),
            scalars,
            fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let ckpt = sample();
        let bytes = ckpt.encode();
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

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_bad_magic_are_detected() {
        let bytes = sample().encode();
        assert_eq!(
            Checkpoint::decode(&bytes[..20]),
            Err(CheckpointError::TooShort)
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Checkpoint::decode(&bad), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        // fix up the trailer so the version check (not the CRC) fires
        let crc = crc64(&bytes[..bytes.len() - 8]);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );
    }

    /// A field count no file could hold, under a valid trailer, is
    /// `Truncated` before it sizes an allocation (`1 << 60` fields would
    /// overflow the capacity; `1 << 40` would try to reserve 24 TiB).
    #[test]
    fn absurd_field_count_is_truncated_not_reserved() {
        for nfields in [1u64 << 60, 1 << 40, 4] {
            let mut bytes = sample().encode();
            bytes[56..64].copy_from_slice(&nfields.to_le_bytes());
            let n = bytes.len();
            let crc = crc64(&bytes[..n - 8]);
            bytes[n - 8..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                Checkpoint::decode(&bytes),
                Err(CheckpointError::Truncated),
                "nfields = {nfields}"
            );
        }
    }

    /// The bit-at-a-time definition of CRC-64/ECMA-182 — the oracle the
    /// table-driven `crc64` is held to.
    fn crc64_bitwise(data: &[u8]) -> u64 {
        let mut crc = 0u64;
        for &b in data {
            crc ^= (b as u64) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 {
                    (crc << 1) ^ POLY
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    #[test]
    fn crc64_equals_the_bitwise_definition_at_every_length_and_alignment() {
        // splitmix64 bytes; 8 spare so every offset 0..8 sees 0..=1024
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc64(data),
                    crc64_bitwise(data),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc64_check_value_is_the_published_ecma_182_one() {
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347);
        assert_eq!(crc64_bitwise(b"123456789"), 0x6C40_DF5F_0B49_7347);
    }

    #[test]
    fn encoded_format_is_pinned() {
        // Length and trailer of `sample()` as the per-value encoder and
        // bitwise CRC wrote them before either was replaced: stored
        // checkpoints stay readable, `VERSION` stays 1.
        let bytes = sample().encode();
        assert_eq!(bytes.len(), 280);
        assert_eq!(bytes[..8], *b"CMTR\x01\0\0\0");
        let trailer = u64::from_le_bytes(bytes[272..].try_into().unwrap());
        assert_eq!(trailer, 0xC59E_F7C7_FD74_F4D4);
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), sample());
    }

    #[test]
    fn crc64_known_properties() {
        assert_eq!(crc64(b""), 0);
        assert_ne!(crc64(b"a"), crc64(b"b"));
        // appending a byte changes the checksum
        assert_ne!(crc64(b"checkpoint"), crc64(b"checkpoint\0"));
    }
}
