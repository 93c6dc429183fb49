//! Checkpoint storage with partner-rank redundancy, and the coordinated
//! rollback protocol the drivers run.
//!
//! ## Partner redundancy
//!
//! Every checkpoint is held twice: once by its own rank and once — as an
//! encoded replica — by that rank's *replica holder*, the next rank on
//! the ring (`(r + 1) % P`). A killed rank loses its entire memory (live
//! solver state, its own checkpoint bytes, and whatever replica it held
//! for its predecessor), but its replica holder still has the killed
//! rank's last checkpoint, so recovery needs one point-to-point message
//! and no stable storage. Disk is optional and orthogonal: with a
//! checkpoint directory configured, every save also lands in
//! `ckpt_rank{r}.cmtr` for cross-run `--restart`.
//!
//! ## Coordinated rollback
//!
//! The fault plan is SPMD state: every rank knows which ranks die at
//! which step, so kill detection needs no failure detector and no
//! communication. On a kill, *all* ranks roll back to their last
//! checkpoint (the killed rank restoring from its replica holder) and
//! re-enter the loop at the checkpointed step. The solvers are
//! deterministic, so replaying from the same state produces bitwise the
//! same trajectory — the recovered run ends bitwise identical to an
//! uninterrupted one. Restoring the fault-RNG state captured in the
//! checkpoint keeps the *injected-fault* schedule identical too.
//!
//! A limitation follows from the ring topology: a rank and its replica
//! holder must not die at the same step (both copies of one checkpoint
//! would be lost). [`validate`] refuses that plan before any rank
//! starts, and [`Resilience::recover`] asserts it.
//!
//! ## Two copies, moved in chunks
//!
//! A rank holds two encoded checkpoints: its own, which the solver
//! encodes straight from its live state ([`Resilience::save_with`]), and
//! its predecessor's replica. The replica moves in [`CHUNK`]-byte
//! messages, each copied into the held replica in place and its buffer
//! handed back to the sender as the acknowledgement that lets the next
//! chunk go, so no rank ever holds a third full copy in flight and the
//! chunk buffers return to the pool they came from. The first chunk
//! carries the replica's length, and the held replica takes exactly
//! that many bytes, so a checkpoint that shrank leaves no stale tail.
//! Recovery's re-fetch of a killed rank's checkpoint takes the same
//! path. A rollback or a restart decodes the held or loaded bytes straight
//! into the live state through a [`Decoder`]: no decoded copy exists.

use std::io;
use std::path::{Path, PathBuf};

use simmpi::{FaultPlan, KillEvent, Rank, Tag};

use crate::checkpoint::{fit, Checkpoint, Decoder};

/// Tag of the replica exchange that rides along with every save; the
/// acknowledgements go back on the next tag.
const CKPT_TAG: Tag = 0xC0 << 40;
/// Tag of the replica re-fetch during recovery (acknowledgements on the
/// next tag).
const RECOVERY_TAG: Tag = 0xC1 << 40;

/// Bytes per replica message: the replica's length (a `u64`) followed
/// by the checkpoint bytes, cut into messages of this size, the last one
/// partial. On the `multiphase` shape (1.15 MB per rank) 64 KiB and
/// 256 KiB save in the same time; the smaller keeps less in flight.
pub const CHUNK: usize = 64 << 10;

/// The rank holding `r`'s checkpoint replica in a world of `p` ranks.
fn replica_holder(r: usize, p: usize) -> usize {
    (r + 1) % p
}

/// Check a run's resilience settings at `ranks` ranks before any rank
/// starts: a restart directory holds every rank's file, kills need
/// checkpointing (`every > 0`), and no rank dies at the same step as its
/// replica holder (both copies of its checkpoint would be lost).
pub fn validate(
    ranks: usize,
    every: usize,
    restart: Option<&Path>,
    plan: Option<&FaultPlan>,
) -> Result<(), String> {
    if let Some(dir) = restart {
        let mut files = (0..ranks).map(|r| checkpoint_path(dir, r));
        if let Some(file) = files.find(|f| !f.is_file()) {
            let what = if dir.is_dir() {
                format!("checkpoint {}", file.display())
            } else {
                format!("directory {}", dir.display())
            };
            return Err(format!("restart {what} does not exist"));
        }
    }
    let Some(plan) = plan else { return Ok(()) };
    plan.validate(ranks)?;
    if !plan.kills.is_empty() && every == 0 {
        return Err("fault plan schedules rank kills but checkpointing is off \
             (set checkpoint_every)"
            .into());
    }
    for k in &plan.kills {
        let holder = replica_holder(k.rank, ranks);
        let lost = |h: &KillEvent| (h.rank, h.step) == (holder, k.step);
        if plan.kills.iter().any(lost) {
            return Err(format!(
                "fault plan kills ranks {} and {holder} (its replica holder) at step {}: \
                 both copies of its checkpoint would be lost",
                k.rank, k.step
            ));
        }
    }
    Ok(())
}

/// The rank whose replica `r` holds in a world of `p` ranks.
fn replica_source(r: usize, p: usize) -> usize {
    (r + p - 1) % p
}

/// Messages that carry a replica of `len` bytes, its length included.
fn chunk_count(len: usize) -> usize {
    (8 + len).div_ceil(CHUNK)
}

/// Append message `i` of `bytes`' replica stream to `msg`: the stream is
/// the length as a little-endian `u64`, then the bytes.
fn put_chunk(msg: &mut Vec<u8>, bytes: &[u8], i: usize) {
    let end = ((i + 1) * CHUNK).min(8 + bytes.len()) - 8;
    if i == 0 {
        msg.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        msg.extend_from_slice(&bytes[..end]);
    } else {
        msg.extend_from_slice(&bytes[i * CHUNK - 8..end]);
    }
}

/// Move a replica stream in [`CHUNK`]-byte messages (collective over the
/// ranks named): `out`'s bytes to their destination rank and, from its
/// source rank, another stream into `into`'s buffer, in place. Message
/// `i` goes out and message `i` comes in, and each received message's
/// buffer goes back empty on `tag + 1` as the acknowledgement the sender
/// waits for before message `i + 1`: one message in flight per link, and
/// every buffer parks in the pool it was taken from.
///
/// # Panics
/// Panics if a received message is not the size its stream's length
/// implies.
fn transfer(
    rank: &mut Rank,
    tag: Tag,
    out: Option<(usize, &[u8])>,
    mut into: Option<(usize, &mut Vec<u8>)>,
) {
    let ack = tag + 1;
    let nsend = out.map_or(0, |(_, bytes)| chunk_count(bytes.len()));
    // the incoming length, and with it the message count, arrives with
    // the first message
    let (mut want, mut nrecv) = (0, usize::from(into.is_some()));
    let mut i = 0;
    while i < nsend || i < nrecv {
        let out = out.filter(|_| i < nsend);
        if let Some((dest, bytes)) = out {
            let mut msg = rank.pooled_vec::<u8>();
            msg.reserve_exact(CHUNK);
            put_chunk(&mut msg, bytes, i);
            rank.isend_pooled(dest, tag, msg);
        }
        if let Some((src, held)) = into.as_mut().filter(|_| i < nrecv) {
            let req = rank.irecv(*src, tag);
            let mut msg = rank.wait_recv_pooled::<u8>(req);
            let data = if i == 0 {
                let (len, data) = msg
                    .split_first_chunk::<8>()
                    .expect("a replica stream opens with its length");
                want = u64::from_le_bytes(*len) as usize;
                nrecv = chunk_count(want);
                fit(held, want);
                data
            } else {
                &msg[..]
            };
            assert_eq!(
                held.len() + data.len(),
                ((i + 1) * CHUNK).min(8 + want) - 8,
                "replica message {i} of a {want}-byte stream from rank {src}"
            );
            held.extend_from_slice(data);
            msg.clear();
            rank.isend_pooled(*src, ack, msg);
        }
        if let Some((dest, _)) = out {
            let req = rank.irecv(dest, ack);
            drop(rank.wait_recv_pooled::<u8>(req));
        }
        i += 1;
    }
    if let Some((src, held)) = into {
        assert_eq!(
            held.len(),
            want,
            "replica stream from rank {src} ended short"
        );
    }
}

/// Driver-facing resilience orchestrator: checkpoint cadence, this
/// rank's encoded checkpoint and the replica it holds, kill-event
/// bookkeeping, and the rollback protocol. All communicating
/// methods are SPMD-collective — every rank must call them at the same
/// point with the same arguments-by-shape.
#[derive(Debug)]
pub struct Resilience {
    every: u64,
    dir: Option<PathBuf>,
    /// This rank's checkpoint file in `dir`, resolved (and `dir`
    /// created) by the first save.
    file: Option<PathBuf>,
    /// This rank's own latest encoded checkpoint; empty before the first
    /// save and after this rank is killed.
    own: Vec<u8>,
    /// Encoded replica of the ring predecessor's latest checkpoint.
    partner: Vec<u8>,
    /// One flag per fault-plan kill event: a kill fires once, so a
    /// post-rollback replay of the same step does not re-kill. Derived
    /// identically on every rank (SPMD).
    consumed: Vec<bool>,
}

impl Resilience {
    /// A new orchestrator checkpointing every `every` steps (0 disables
    /// checkpointing), optionally mirroring each save to `dir`.
    pub fn new(every: u64, dir: Option<PathBuf>) -> Resilience {
        Resilience {
            every,
            dir,
            file: None,
            own: Vec::new(),
            partner: Vec::new(),
            consumed: Vec::new(),
        }
    }

    /// Whether a checkpoint is due at the top of `step`.
    pub fn checkpoint_due(&self, step: u64) -> bool {
        self.every > 0 && step % self.every == 0
    }

    /// Save (collective): `encode` writes this rank's checkpoint into its
    /// own buffer, emptied of the last one (through a
    /// [`crate::Encoder`], handed this rank for the head), then the bytes
    /// go to this rank's replica holder over the ring and to disk if a
    /// directory is configured (the first save creates the directory and
    /// names this rank's file in it). Returns the encoded size in bytes.
    /// Once both buffers have held a checkpoint of this size (give or
    /// take their headroom), a save allocates nothing.
    ///
    /// # Panics
    /// Panics if `encode` writes nothing, and on a disk write error.
    pub fn save_with(
        &mut self,
        rank: &mut Rank,
        encode: impl FnOnce(&Rank, &mut Vec<u8>),
    ) -> usize {
        self.own.clear();
        encode(rank, &mut self.own);
        assert!(!self.own.is_empty(), "a checkpoint save encoded nothing");
        if let Some(dir) = &self.dir {
            let path = match &self.file {
                Some(path) => path,
                None => {
                    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                        panic!("creating checkpoint directory {}: {e}", dir.display())
                    });
                    self.file.insert(checkpoint_path(dir, rank.rank()))
                }
            };
            std::fs::write(path, &self.own)
                .unwrap_or_else(|e| panic!("writing checkpoint {}: {e}", path.display()));
        }
        self.replicate(rank, "checkpoint");
        self.own.len()
    }

    /// [`Resilience::save_with`] of an assembled `ckpt`.
    pub fn save(&mut self, rank: &mut Rank, ckpt: &Checkpoint) -> usize {
        self.save_with(rank, |_, buf| ckpt.encode_into(buf))
    }

    /// Ring replica exchange: the own bytes to the replica holder, the
    /// predecessor's into `partner`, chunk by chunk ([`transfer`]).
    /// Traffic is recorded under `context` so its cost is a distinct line
    /// in the mpiP-style report.
    fn replicate(&mut self, rank: &mut Rank, context: &str) {
        let (r, p) = (rank.rank(), rank.size());
        if p == 1 {
            return;
        }
        assert!(!self.own.is_empty(), "replicating before any save");
        let (own, partner) = (&self.own, &mut self.partner);
        rank.with_subcontext(context, |rank| {
            transfer(
                rank,
                CKPT_TAG,
                Some((replica_holder(r, p), own)),
                Some((replica_source(r, p), partner)),
            );
        });
    }

    /// The ranks killed by the fault plan at `step` that have not fired
    /// yet, marking them fired. SPMD-deterministic: every rank computes
    /// the same list without communicating.
    pub fn killed_at(&mut self, rank: &Rank, step: u64) -> Vec<usize> {
        let Some(plan) = rank.fault_plan() else {
            return Vec::new();
        };
        self.consumed.resize(plan.kills.len(), false);
        let mut killed = Vec::new();
        for (i, k) in plan.kills.iter().enumerate() {
            if k.step == step && !self.consumed[i] {
                self.consumed[i] = true;
                killed.push(k.rank);
            }
        }
        killed
    }

    /// Coordinated rollback after `killed` ranks died (collective):
    /// killed ranks lose their memory and re-fetch their checkpoint from
    /// their replica holder, chunk by chunk like a replica; then *every*
    /// rank re-replicates (restoring the ring invariant) and gets a
    /// [`Decoder`] over its own last checkpoint, which the caller
    /// restores solver state from. Recovery traffic is recorded under the
    /// `recovery` context.
    ///
    /// # Panics
    /// Panics if no checkpoint exists, if a rank and its replica holder
    /// died together (both copies lost), or if a replica fails its
    /// checksum.
    pub fn recover(&mut self, rank: &mut Rank, killed: &[usize]) -> Decoder<'_> {
        let (r, p) = (rank.rank(), rank.size());
        for &k in killed {
            assert!(
                !killed.contains(&replica_holder(k, p)),
                "ranks {k} and {} (its replica holder) killed at the same step: \
                 checkpoint irrecoverably lost",
                replica_holder(k, p)
            );
        }
        if killed.contains(&r) {
            // the rank's memory is gone: its own bytes and its replica
            self.own = Vec::new();
            self.partner = Vec::new();
        }
        // Replica holders of the dead send their replicas back.
        let out = killed.contains(&replica_source(r, p)).then(|| {
            assert!(
                !self.partner.is_empty(),
                "no replica held for killed predecessor"
            );
            (replica_source(r, p), &self.partner[..])
        });
        let into = killed
            .contains(&r)
            .then_some((replica_holder(r, p), &mut self.own));
        rank.with_subcontext("recovery", |rank| transfer(rank, RECOVERY_TAG, out, into));
        // Re-establish every replica: the dead ranks' memory was wiped,
        // so their predecessors' replicas no longer exist anywhere.
        assert!(
            !self.own.is_empty(),
            "recover called before any checkpoint was saved"
        );
        self.replicate(rank, "recovery");
        Decoder::new(&self.own).unwrap_or_else(|e| panic!("rank {r}: restoring checkpoint: {e}"))
    }
}

/// The on-disk path of rank `r`'s checkpoint under `dir`.
fn checkpoint_path(dir: &Path, r: usize) -> PathBuf {
    dir.join(format!("ckpt_rank{r}.cmtr"))
}

/// Load rank `r`'s checkpoint bytes from a `--restart` directory, checked
/// by [`Decoder::new`]. Every error names the file; bytes that fail the
/// check are `InvalidData`.
pub fn load_checkpoint(dir: &Path, r: usize) -> io::Result<Vec<u8>> {
    let path = checkpoint_path(dir, r);
    let named = |kind, e: &dyn std::fmt::Display| {
        io::Error::new(kind, format!("checkpoint {}: {e}", path.display()))
    };
    let bytes = std::fs::read(&path).map_err(|e| named(e.kind(), &e))?;
    Decoder::new(&bytes).map_err(|e| named(io::ErrorKind::InvalidData, &e))?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::{FaultPlan, World};

    /// Rank `r`'s checkpoint at `step`: sizes differ by rank and span
    /// several chunks from rank 1 on (rank 0's fits in one).
    fn ckpt_for(r: usize, step: u64) -> Checkpoint {
        Checkpoint {
            rank: r as u64,
            step,
            stage: 0,
            time: step as f64 * 0.1,
            rng_state: 7 * r as u64,
            scalars: vec![r as f64],
            fields: vec![
                vec![r as f64 + 0.5; 8],
                (0..r * 9_000 + 3).map(|i| i as f64 * 0.25).collect(),
            ],
        }
    }

    /// Raw bytes of `len` that differ by `round` and `r`: replication
    /// moves bytes and never decodes them, so any length is a stream.
    fn pattern(round: usize, r: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i * 31 + round * 7 + r * 13) as u8)
            .collect()
    }

    #[test]
    fn ring_helpers_are_inverse() {
        for p in [2usize, 3, 5, 8] {
            for r in 0..p {
                assert_eq!(replica_source(replica_holder(r, p), p), r);
                assert_ne!(replica_holder(r, p), r, "p={p}");
            }
        }
    }

    #[test]
    fn chunks_cover_the_stream_once() {
        for len in [0, 1, CHUNK - 9, CHUNK - 8, CHUNK - 7, CHUNK, 3 * CHUNK + 5] {
            let bytes = pattern(0, 1, len);
            let mut stream = Vec::new();
            for i in 0..chunk_count(len) {
                let start = stream.len();
                put_chunk(&mut stream, &bytes, i);
                assert!(stream.len() - start <= CHUNK, "len {len}: message {i}");
            }
            assert_eq!(stream[..8], (len as u64).to_le_bytes(), "len {len}");
            assert_eq!(stream[8..], bytes[..], "len {len}");
        }
    }

    /// Every rank's held replica equals its predecessor's bytes after
    /// every save, at P = 1, 2, 3 and 5, with per-rank sizes that differ
    /// and change from save to save: below one chunk, streams of exactly
    /// one, two and three chunks and a byte either side, and saves that
    /// shrink (the replica keeps no stale tail). The chunk buffers go
    /// back to the pool they came from, so after the first save no rank
    /// takes a fresh one however unequal the sizes.
    #[test]
    fn replicas_equal_their_predecessors_bytes_at_every_chunk_boundary() {
        let sizes = [
            10,
            CHUNK - 9,
            3 * CHUNK - 7,
            CHUNK - 8,
            2 * CHUNK - 9,
            CHUNK - 7,
            2 * CHUNK - 8,
            1,
            2 * CHUNK - 7,
            3 * CHUNK - 8,
            CHUNK,
        ];
        for p in [1usize, 2, 3, 5] {
            let res = World::new().run(p, move |rank| {
                let r = rank.rank();
                let size = |round: usize, r: usize| sizes[(round + 3 * r) % sizes.len()];
                let mut rz = Resilience::new(1, None);
                let mut warm = None;
                for round in 0..sizes.len() {
                    let mine = pattern(round, r, size(round, r));
                    let saved = rz.save_with(rank, |_, buf| buf.extend_from_slice(&mine));
                    assert_eq!(saved, mine.len());
                    assert_eq!(rz.own, mine, "p={p} rank {r} round {round}: own");
                    let src = replica_source(r, p);
                    let want = if p == 1 {
                        Vec::new()
                    } else {
                        pattern(round, src, size(round, src))
                    };
                    assert!(
                        rz.partner == want,
                        "p={p} rank {r} round {round}: held {} bytes, predecessor saved {}",
                        rz.partner.len(),
                        want.len()
                    );
                    let (_, misses) = rank.pool().counters();
                    assert_eq!(*warm.get_or_insert(misses), misses, "p={p} rank {r}");
                }
            });
            assert_eq!(res.results.len(), p);
        }
    }

    #[test]
    fn killed_rank_restores_from_replica_holder() {
        for p in [2usize, 3, 5] {
            for dead in [0, p - 1] {
                let res = World::new().run(p, move |rank| {
                    let mut rz = Resilience::new(2, None);
                    rz.save(rank, &ckpt_for(rank.rank(), 4));
                    // one rank dies; everyone runs the rollback protocol
                    let head = rz.recover(rank, &[dead]).head();
                    assert_eq!(head.step, 4);
                    let src = replica_source(rank.rank(), p);
                    assert_eq!(
                        rz.partner,
                        ckpt_for(src, 4).encode(),
                        "replica re-established"
                    );
                    Checkpoint::decode(&rz.own).unwrap()
                });
                for (r, ckpt) in res.results.iter().enumerate() {
                    assert_eq!(ckpt, &ckpt_for(r, 4), "p={p} dead {dead} rank {r}");
                }
            }
        }
    }

    #[test]
    fn replicas_survive_repeated_kills_of_the_same_rank() {
        // After recovery the ring invariant is re-established, so the
        // same rank can die again before the next checkpoint.
        let res = World::new().run(3, |rank| {
            let mut rz = Resilience::new(1, None);
            rz.save(rank, &ckpt_for(rank.rank(), 9));
            rz.recover(rank, &[1]);
            let a = Checkpoint::decode(&rz.own).unwrap();
            rz.recover(rank, &[1]);
            (a, Checkpoint::decode(&rz.own).unwrap())
        });
        for (r, (a, b)) in res.results.iter().enumerate() {
            assert_eq!(a, &ckpt_for(r, 9));
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "replica holder")]
    fn adjacent_kills_are_rejected() {
        let _ = World::new().run(4, |rank| {
            let mut rz = Resilience::new(1, None);
            rz.save(rank, &ckpt_for(rank.rank(), 0));
            rz.recover(rank, &[2, 3]);
        });
    }

    /// `validate` refuses a rank killed at the same step as its replica
    /// holder (the ring wraps), kills without checkpointing, and a
    /// restart directory that lacks a rank's file. Ranks 1 and 3 of 4 at
    /// one step, or 1 and 2 at different steps, are recoverable.
    #[test]
    fn validate_refuses_unrecoverable_settings() {
        let plan = |s: &str| FaultPlan::parse(s).unwrap();
        for p in [
            "kill:rank=1,step=5;kill:rank=2,step=5",
            "kill:rank=0,step=2;kill:rank=3,step=2",
        ] {
            let err = validate(4, 1, None, Some(&plan(p))).unwrap_err();
            assert!(err.contains("(its replica holder) at step"), "{p}: {err}");
        }
        for p in [
            "kill:rank=1,step=5;kill:rank=3,step=5",
            "kill:rank=1,step=5;kill:rank=2,step=6",
        ] {
            assert_eq!(validate(4, 1, None, Some(&plan(p))), Ok(()), "{p}");
        }
        let off = validate(4, 0, None, Some(&plan("kill:rank=1,step=5"))).unwrap_err();
        assert!(off.contains("checkpointing is off"), "{off}");
        let dir = std::env::temp_dir().join(format!("cmtr_validate_{}", std::process::id()));
        let err = validate(2, 0, Some(&dir), None).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(checkpoint_path(&dir, 0), b"").unwrap();
        let err = validate(2, 0, Some(&dir), None).unwrap_err();
        assert!(err.contains("ckpt_rank1.cmtr"), "{err}");
        std::fs::write(checkpoint_path(&dir, 1), b"").unwrap();
        assert_eq!(validate(2, 0, Some(&dir), None), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_at_fires_each_event_once() {
        let plan =
            FaultPlan::parse("kill:rank=1,step=3;kill:rank=0,step=3;kill:rank=1,step=5").unwrap();
        let res = World::new().with_fault_plan(plan).run(2, |rank| {
            let mut rz = Resilience::new(1, None);
            let first = rz.killed_at(rank, 3);
            let replay = rz.killed_at(rank, 3); // post-rollback re-entry
            let later = rz.killed_at(rank, 5);
            let never = rz.killed_at(rank, 4);
            (first, replay, later, never)
        });
        for (first, replay, later, never) in &res.results {
            assert_eq!(first, &vec![1, 0]);
            assert!(replay.is_empty());
            assert_eq!(later, &vec![1]);
            assert!(never.is_empty());
        }
    }

    #[test]
    fn checkpoint_and_recovery_traffic_is_visible_in_stats() {
        let res = World::new().run(2, |rank| {
            rank.set_context("main");
            let mut rz = Resilience::new(1, None);
            rz.save(rank, &ckpt_for(rank.rank(), 0));
            let _ = rz.recover(rank, &[1]);
        });
        for st in &res.stats {
            let has = |ctx: &str| st.sites.iter().any(|(k, _)| k.context == ctx);
            assert!(has("checkpoint"), "rank {}: no checkpoint entries", st.rank);
            assert!(has("recovery"), "rank {}: no recovery entries", st.rank);
        }
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("cmtr_vault_{}", std::process::id()));
        let dir2 = dir.clone();
        let _ = World::new().run(2, move |rank| {
            let mut rz = Resilience::new(1, Some(dir2.clone()));
            rz.save(rank, &ckpt_for(rank.rank(), 6));
        });
        for r in 0..2 {
            let back = load_checkpoint(&dir, r).unwrap();
            assert_eq!(back, ckpt_for(r, 6).encode());
        }
        let missing = load_checkpoint(&dir, 9).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        assert!(missing.to_string().contains("ckpt_rank9.cmtr"), "{missing}");
        // a file that does not decode is invalid data, named
        std::fs::write(checkpoint_path(&dir, 1), b"CMTR\x01\0\0\0").unwrap();
        let corrupt = load_checkpoint(&dir, 1).unwrap_err();
        assert_eq!(corrupt.kind(), io::ErrorKind::InvalidData);
        let msg = corrupt.to_string();
        assert!(
            msg.contains("ckpt_rank1.cmtr") && msg.contains("version 1"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
