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
//! would be lost). [`Resilience::recover`] panics loudly on that plan
//! rather than restoring garbage.

use std::io;
use std::path::{Path, PathBuf};

use simmpi::{Rank, Tag};

use crate::checkpoint::Checkpoint;

/// Tag of the replica exchange that rides along with every save.
const CKPT_TAG: Tag = 0xC0 << 40;
/// Tag of the replica re-fetch during recovery.
const RECOVERY_TAG: Tag = 0xC1 << 40;

/// The rank holding `r`'s checkpoint replica in a world of `p` ranks.
fn replica_holder(r: usize, p: usize) -> usize {
    (r + 1) % p
}

/// The rank whose replica `r` holds in a world of `p` ranks.
fn replica_source(r: usize, p: usize) -> usize {
    (r + p - 1) % p
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
    /// This rank's own latest encoded checkpoint.
    own: Option<Vec<u8>>,
    /// Encoded replica of the ring predecessor's latest checkpoint.
    partner: Option<Vec<u8>>,
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
            own: None,
            partner: None,
            consumed: Vec::new(),
        }
    }

    /// Whether a checkpoint is due at the top of `step`.
    pub fn checkpoint_due(&self, step: u64) -> bool {
        self.every > 0 && step % self.every == 0
    }

    /// Save `ckpt` (collective): encode it into this rank's own buffer,
    /// replicate the bytes to this rank's replica holder over the ring,
    /// and mirror to disk if a directory is configured. Returns the
    /// encoded size in bytes. Once every buffer has held a checkpoint of
    /// this size, a save allocates nothing.
    ///
    /// # Panics
    /// Panics on a disk write error.
    pub fn save(&mut self, rank: &mut Rank, ckpt: &Checkpoint) -> usize {
        let own = self.own.get_or_insert_with(Vec::new);
        ckpt.encode_into(own);
        if let Some(dir) = &self.dir {
            let path = checkpoint_path(dir, rank.rank());
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, &own))
                .unwrap_or_else(|e| panic!("writing checkpoint {}: {e}", path.display()));
        }
        let size = own.len();
        self.replicate(rank, "checkpoint");
        size
    }

    /// Ring replica exchange: send a pooled copy of the own bytes to the
    /// replica holder and swap the predecessor's into `partner`, so the
    /// replaced replica parks in this rank's pool, where the next save's
    /// copy finds it. Traffic is recorded under `context` so its cost is
    /// a distinct line in the mpiP-style report.
    fn replicate(&mut self, rank: &mut Rank, context: &str) {
        let (r, p) = (rank.rank(), rank.size());
        if p == 1 {
            return;
        }
        let own = self.own.as_deref().expect("replicating before any save");
        let partner = &mut self.partner;
        rank.with_subcontext(context, |rank| {
            let mut copy = rank.pooled_vec::<u8>();
            copy.extend_from_slice(own);
            rank.isend_pooled(replica_holder(r, p), CKPT_TAG, copy);
            let req = rank.irecv(replica_source(r, p), CKPT_TAG);
            let mut got = rank.wait_recv_pooled::<u8>(req);
            match partner {
                Some(held) => std::mem::swap(held, &mut *got),
                None => *partner = Some(got.to_vec()),
            }
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
    /// their replica holder; then *every* rank re-replicates (restoring
    /// the ring invariant) and decodes its own last checkpoint, which the
    /// caller restores solver state from. Recovery traffic is recorded
    /// under the `recovery` context.
    ///
    /// # Panics
    /// Panics if no checkpoint exists, if a rank and its replica holder
    /// died together (both copies lost), or if a replica fails its
    /// checksum.
    pub fn recover(&mut self, rank: &mut Rank, killed: &[usize]) -> Checkpoint {
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
            self.own = None;
            self.partner = None;
        }
        rank.with_subcontext("recovery", |rank| {
            // Replica holders of the dead send their replicas back.
            if killed.contains(&replica_source(r, p)) {
                let replica = self
                    .partner
                    .as_deref()
                    .expect("no replica held for killed predecessor");
                rank.isend(replica_source(r, p), RECOVERY_TAG, replica);
            }
            if killed.contains(&r) {
                self.own = Some(rank.recv::<u8>(replica_holder(r, p), RECOVERY_TAG));
            }
        });
        // Re-establish every replica: the dead ranks' memory was wiped,
        // so their predecessors' replicas no longer exist anywhere.
        assert!(
            self.own.is_some(),
            "recover called before any checkpoint was saved"
        );
        self.replicate(rank, "recovery");
        let own = self.own.as_deref().expect("checked above");
        Checkpoint::decode(own).unwrap_or_else(|e| panic!("rank {r}: restoring checkpoint: {e}"))
    }
}

/// The on-disk path of rank `r`'s checkpoint under `dir`.
fn checkpoint_path(dir: &Path, r: usize) -> PathBuf {
    dir.join(format!("ckpt_rank{r}.cmtr"))
}

/// Load rank `r`'s checkpoint from a `--restart` directory. Every error
/// names the file; one that does not decode is `InvalidData`.
pub fn load_checkpoint(dir: &Path, r: usize) -> io::Result<Checkpoint> {
    let path = checkpoint_path(dir, r);
    let named = |kind, e: &dyn std::fmt::Display| {
        io::Error::new(kind, format!("checkpoint {}: {e}", path.display()))
    };
    let bytes = std::fs::read(&path).map_err(|e| named(e.kind(), &e))?;
    Checkpoint::decode(&bytes).map_err(|e| named(io::ErrorKind::InvalidData, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::{FaultPlan, World};

    fn ckpt_for(r: usize, step: u64) -> Checkpoint {
        Checkpoint {
            rank: r as u64,
            step,
            stage: 0,
            time: step as f64 * 0.1,
            rng_state: 7 * r as u64,
            scalars: vec![r as f64],
            fields: vec![vec![r as f64 + 0.5; 8]],
        }
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
    fn killed_rank_restores_from_replica_holder() {
        for p in [2usize, 3, 5] {
            let res = World::new().run(p, move |rank| {
                let mut rz = Resilience::new(2, None);
                rz.save(rank, &ckpt_for(rank.rank(), 4));
                // rank 0 dies; everyone runs the rollback protocol
                let back = rz.recover(rank, &[0]);
                assert!(rz.own.is_some());
                back
            });
            for (r, ckpt) in res.results.iter().enumerate() {
                assert_eq!(ckpt, &ckpt_for(r, 4), "p={p} rank {r}");
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
            let a = rz.recover(rank, &[1]);
            let b = rz.recover(rank, &[1]);
            (a, b)
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
            rz.recover(rank, &[2, 3])
        });
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
            assert_eq!(back, ckpt_for(r, 6));
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
