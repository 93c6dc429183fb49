//! Collective operations, implemented with the textbook distributed
//! algorithms over the point-to-point layer.
//!
//! Every collective:
//! * is tagged with a per-call sequence number so back-to-back collectives
//!   cannot cross-match (all ranks must call collectives in the same
//!   order, the usual SPMD contract);
//! * is recorded as a single operation of its own kind (time measured
//!   around the whole algorithm, bytes = what this rank sent), matching
//!   how an MPI profiler attributes collective time;
//! * uses a fixed reduction/broadcast tree, so results are bitwise
//!   deterministic across runs for any rank count.

use std::sync::Arc;
use std::time::Instant;

use crate::envelope::{Msg, INLINE_ELEMS};
use crate::rank::Rank;
use crate::stats::MpiOp;
use crate::verify::CollKind;
use crate::ReduceOp;

impl Rank {
    /// Barrier: dissemination algorithm, `ceil(log2 P)` rounds.
    pub fn barrier(&mut self) {
        let start = Instant::now();
        let seq = self.next_coll_seq();
        self.verify_collective(seq, CollKind::Barrier, None, "", None);
        let p = self.size();
        let mut bytes = 0;
        let mut k = 1usize;
        let mut round = 0u64;
        while k < p {
            let to = (self.rank() + k) % p;
            let from = (self.rank() + p - k) % p;
            bytes += self.send_internal_slice::<u8>(to, Rank::coll_tag(seq, round), &[1]);
            let _ = self.recv_internal_pooled::<u8>(from, Rank::coll_tag(seq, round));
            k <<= 1;
            round += 1;
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Barrier), &ctx, start.elapsed(), bytes);
        self.context = ctx;
    }

    /// Broadcast `data` from `root` to every rank (binomial tree).
    ///
    /// Non-root ranks pass their (ignored) local buffer and receive the
    /// root's; the broadcast value is returned on every rank.
    pub fn bcast<T: Msg>(&mut self, root: usize, data: Vec<T>) -> Vec<T> {
        assert!(root < self.size(), "bcast root out of range");
        let start = Instant::now();
        let seq = self.next_coll_seq();
        // Only the root's buffer length is part of the contract; other
        // ranks pass an ignored placeholder.
        let len = (self.rank() == root).then_some(data.len());
        self.verify_collective(
            seq,
            CollKind::Bcast,
            Some(root),
            std::any::type_name::<T>(),
            len,
        );
        let p = self.size();
        let vrank = (self.rank() + p - root) % p; // root-relative rank
        let mut bytes = 0u64;
        let mut buf = data;
        // Receive once from the parent (unless root), then forward down
        // the binomial tree.
        let mut mask = 1usize;
        while mask < p {
            mask <<= 1;
        }
        // find receive step: lowest set bit structure — walk masks upward
        if vrank != 0 {
            let lsb = vrank & vrank.wrapping_neg();
            let parent_v = vrank - lsb;
            let parent = (parent_v + root) % p;
            let round = lsb.trailing_zeros() as u64;
            let (got, b) = self.recv_internal::<T>(parent, Rank::coll_tag(seq, round));
            bytes += b;
            buf = got;
        }
        // forward to children: bits above my lowest set bit (or all bits
        // for root)
        let my_lsb = if vrank == 0 {
            mask // effectively infinity
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut nchildren = 0u64;
        {
            let mut k = my_lsb >> 1;
            while k >= 1 {
                if vrank + k < p {
                    nchildren += 1;
                }
                k >>= 1;
            }
        }
        if nchildren > 0 && buf.len() > INLINE_ELEMS {
            // Share one Arc-backed payload across the whole fan-out: the
            // sends are reference bumps, and whichever consumer opens the
            // envelope last (or this rank, reclaiming below) moves the
            // buffer instead of cloning it.
            let shared = Arc::new(buf);
            let mut k = my_lsb >> 1;
            while k >= 1 {
                let child_v = vrank + k;
                if child_v < p {
                    let child = (child_v + root) % p;
                    let round = k.trailing_zeros() as u64;
                    bytes += self.send_internal_shared(
                        child,
                        Rank::coll_tag(seq, round),
                        Arc::clone(&shared),
                    );
                }
                k >>= 1;
            }
            buf = Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone());
        } else {
            let mut k = my_lsb >> 1;
            while k >= 1 {
                let child_v = vrank + k;
                if child_v < p {
                    let child = (child_v + root) % p;
                    let round = k.trailing_zeros() as u64;
                    bytes += self.send_internal_slice(child, Rank::coll_tag(seq, round), &buf);
                }
                k >>= 1;
            }
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Bcast), &ctx, start.elapsed(), bytes);
        self.context = ctx;
        buf
    }

    /// Generic elementwise reduce-to-root over a fixed binomial tree.
    /// Returns `Some(result)` on `root`, `None` elsewhere.
    pub fn reduce_with<T: Msg>(
        &mut self,
        root: usize,
        data: &[T],
        combine: impl Fn(&mut T, &T),
    ) -> Option<Vec<T>> {
        assert!(root < self.size(), "reduce root out of range");
        let start = Instant::now();
        let seq = self.next_coll_seq();
        self.verify_collective(
            seq,
            CollKind::Reduce,
            Some(root),
            std::any::type_name::<T>(),
            Some(data.len()),
        );
        let p = self.size();
        let vrank = (self.rank() + p - root) % p;
        let mut acc = data.to_vec();
        let mut bytes = 0u64;
        // Binomial-tree reduce: at round r (mask = 1 << r), ranks with the
        // mask bit set send to (vrank - mask) and retire; others receive
        // from (vrank + mask) if it exists.
        let mut mask = 1usize;
        let mut retired = false;
        let mut round = 0u64;
        while mask < p {
            if !retired {
                if vrank & mask != 0 {
                    let dst_v = vrank - mask;
                    let dst = (dst_v + root) % p;
                    // The retiring send is this rank's last use of the
                    // accumulator: move it instead of cloning.
                    bytes += self.send_internal(
                        dst,
                        Rank::coll_tag(seq, round),
                        std::mem::take(&mut acc),
                    );
                    retired = true;
                } else {
                    let src_v = vrank + mask;
                    if src_v < p {
                        let src = (src_v + root) % p;
                        let (other, b) =
                            self.recv_internal_pooled::<T>(src, Rank::coll_tag(seq, round));
                        bytes += b;
                        assert_eq!(
                            other.len(),
                            acc.len(),
                            "reduce length mismatch across ranks"
                        );
                        for (a, o) in acc.iter_mut().zip(other.iter()) {
                            combine(a, o);
                        }
                    }
                }
            }
            mask <<= 1;
            round += 1;
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Reduce), &ctx, start.elapsed(), bytes);
        self.context = ctx;
        if self.rank() == root {
            Some(acc)
        } else {
            None
        }
    }

    /// Generic elementwise allreduce: reduce to rank 0, then broadcast.
    pub fn allreduce_with<T: Msg>(&mut self, data: &[T], combine: impl Fn(&mut T, &T)) -> Vec<T> {
        // Recorded as one Allreduce op; the constituent reduce/bcast run
        // untimed inside it.
        let start = Instant::now();
        let seq = self.next_coll_seq();
        self.verify_collective(
            seq,
            CollKind::Allreduce,
            None,
            std::any::type_name::<T>(),
            Some(data.len()),
        );
        let p = self.size();
        let rank = self.rank();
        let mut acc = data.to_vec();
        let mut bytes = 0u64;
        // reduce to 0
        let mut mask = 1usize;
        let mut retired = false;
        let mut round = 0u64;
        while mask < p {
            if !retired {
                if rank & mask != 0 {
                    let dst = rank - mask;
                    // Retiring rank: the accumulator is dead after this
                    // send (the broadcast phase overwrites it), so move.
                    bytes += self.send_internal(
                        dst,
                        Rank::coll_tag(seq, round),
                        std::mem::take(&mut acc),
                    );
                    retired = true;
                } else if rank + mask < p {
                    let (other, b) =
                        self.recv_internal_pooled::<T>(rank + mask, Rank::coll_tag(seq, round));
                    bytes += b;
                    assert_eq!(other.len(), acc.len(), "allreduce length mismatch");
                    for (a, o) in acc.iter_mut().zip(other.iter()) {
                        combine(a, o);
                    }
                }
            }
            mask <<= 1;
            round += 1;
        }
        // broadcast from 0 (binomial, reversed masks), reusing rounds
        // offset by 32 to stay distinct from the reduce phase.
        let mut k = {
            let mut m = 1usize;
            while m < p {
                m <<= 1;
            }
            m >> 1
        };
        if rank != 0 {
            let lsb = rank & rank.wrapping_neg();
            let parent = rank - lsb;
            let round = 32 + lsb.trailing_zeros() as u64;
            let (got, b) = self.recv_internal_pooled::<T>(parent, Rank::coll_tag(seq, round));
            bytes += b;
            // acc was moved away by the retiring send; refill it from the
            // pooled receive (the pooled buffer itself stays recyclable).
            acc.clear();
            acc.extend_from_slice(&got);
        }
        let my_lsb = if rank == 0 {
            usize::MAX
        } else {
            rank & rank.wrapping_neg()
        };
        let mut nchildren = 0u64;
        {
            let mut kk = k;
            while kk >= 1 {
                if (rank == 0 || kk < my_lsb) && rank + kk < p {
                    nchildren += 1;
                }
                kk >>= 1;
            }
        }
        if nchildren > 0 && acc.len() > INLINE_ELEMS {
            // Arc-shared fan-out: N children cost zero clones; the last
            // opener (or this rank, reclaiming below) moves the buffer.
            let shared = Arc::new(acc);
            while k >= 1 {
                if (rank == 0 || k < my_lsb) && rank + k < p {
                    let round = 32 + k.trailing_zeros() as u64;
                    bytes += self.send_internal_shared(
                        rank + k,
                        Rank::coll_tag(seq, round),
                        Arc::clone(&shared),
                    );
                }
                k >>= 1;
            }
            // The clone runs only when a child still holds the Arc (lost
            // race), never on the common path where this rank is the last
            // holder.
            acc = Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone());
        } else {
            while k >= 1 {
                if (rank == 0 || k < my_lsb) && rank + k < p {
                    let round = 32 + k.trailing_zeros() as u64;
                    bytes += self.send_internal_slice(rank + k, Rank::coll_tag(seq, round), &acc);
                }
                k >>= 1;
            }
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Allreduce), &ctx, start.elapsed(), bytes);
        self.context = ctx;
        acc
    }

    /// Elementwise allreduce performed *in place* on `acc`: the
    /// allocation-free variant for steady-state use (the gather–scatter
    /// dense method and scalar dot products). Identical algorithm, tree,
    /// and verifier fingerprint as [`Rank::allreduce_with`]; payloads move
    /// inline (small) or through pooled buffers (large), so a warm rank
    /// performs no heap allocation here.
    pub fn allreduce_in_place<T: Msg>(&mut self, acc: &mut [T], combine: impl Fn(&mut T, &T)) {
        let start = Instant::now();
        let seq = self.next_coll_seq();
        self.verify_collective(
            seq,
            CollKind::Allreduce,
            None,
            std::any::type_name::<T>(),
            Some(acc.len()),
        );
        let p = self.size();
        let rank = self.rank();
        let mut bytes = 0u64;
        // reduce to 0 (same binomial schedule as allreduce_with)
        let mut mask = 1usize;
        let mut retired = false;
        let mut round = 0u64;
        while mask < p {
            if !retired {
                if rank & mask != 0 {
                    bytes += self.send_internal_slice(rank - mask, Rank::coll_tag(seq, round), acc);
                    retired = true;
                } else if rank + mask < p {
                    let (other, b) =
                        self.recv_internal_pooled::<T>(rank + mask, Rank::coll_tag(seq, round));
                    bytes += b;
                    assert_eq!(other.len(), acc.len(), "allreduce length mismatch");
                    for (a, o) in acc.iter_mut().zip(other.iter()) {
                        combine(a, o);
                    }
                }
            }
            mask <<= 1;
            round += 1;
        }
        // broadcast from 0, rounds offset by 32
        if rank != 0 {
            let lsb = rank & rank.wrapping_neg();
            let parent = rank - lsb;
            let round = 32 + lsb.trailing_zeros() as u64;
            let (got, b) = self.recv_internal_pooled::<T>(parent, Rank::coll_tag(seq, round));
            bytes += b;
            acc.clone_from_slice(&got);
        }
        let my_lsb = if rank == 0 {
            usize::MAX
        } else {
            rank & rank.wrapping_neg()
        };
        let mut k = {
            let mut m = 1usize;
            while m < p {
                m <<= 1;
            }
            m >> 1
        };
        while k >= 1 {
            if (rank == 0 || k < my_lsb) && rank + k < p {
                let round = 32 + k.trailing_zeros() as u64;
                bytes += self.send_internal_slice(rank + k, Rank::coll_tag(seq, round), acc);
            }
            k >>= 1;
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Allreduce), &ctx, start.elapsed(), bytes);
        self.context = ctx;
    }

    /// Elementwise `f64` allreduce with a named operator.
    pub fn allreduce_f64(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        self.allreduce_with(data, |a, b| *a = op.apply_f64(*a, *b))
    }

    /// Elementwise `u64` allreduce with a named operator.
    pub fn allreduce_u64(&mut self, data: &[u64], op: ReduceOp) -> Vec<u64> {
        self.allreduce_with(data, |a, b| *a = op.apply_u64(*a, *b))
    }

    /// Scalar allreduce convenience (the CG dot-product workhorse).
    /// Runs in place on a stack cell — allocation-free.
    pub fn allreduce_scalar(&mut self, v: f64, op: ReduceOp) -> f64 {
        let mut a = [v];
        self.allreduce_in_place(&mut a, |x, y| *x = op.apply_f64(*x, *y));
        a[0]
    }

    /// Exclusive prefix sum of a `u64` across ranks: rank `r` receives
    /// `sum of values on ranks 0..r` (0 on rank 0). Hillis–Steele
    /// doubling, `ceil(log2 P)` rounds.
    ///
    /// The gather-scatter setup uses this to hand out the bases of the
    /// globally consistent compact id numbering.
    pub fn exscan_u64(&mut self, v: u64) -> u64 {
        let start = Instant::now();
        let seq = self.next_coll_seq();
        self.verify_collective(seq, CollKind::Exscan, None, "u64", Some(1));
        let p = self.size();
        let rank = self.rank();
        let mut bytes = 0u64;
        let mut inclusive = v; // sum over (rank - 2^d + 1 ..= rank) grows each round
        let mut k = 1usize;
        let mut round = 0u64;
        while k < p {
            if rank + k < p {
                bytes +=
                    self.send_internal_slice(rank + k, Rank::coll_tag(seq, round), &[inclusive]);
            }
            if rank >= k {
                let (got, b) =
                    self.recv_internal_pooled::<u64>(rank - k, Rank::coll_tag(seq, round));
                bytes += b;
                inclusive += got[0];
            }
            k <<= 1;
            round += 1;
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Scan), &ctx, start.elapsed(), bytes);
        self.context = ctx;
        inclusive - v
    }

    /// Gather each rank's buffer to `root`. Returns `Some(vec of per-rank
    /// buffers)` on root, `None` elsewhere.
    pub fn gather<T: Msg>(&mut self, root: usize, mut data: Vec<T>) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size(), "gather root out of range");
        let start = Instant::now();
        let seq = self.next_coll_seq();
        // Contributions legitimately differ in length per rank.
        self.verify_collective(
            seq,
            CollKind::Gather,
            Some(root),
            std::any::type_name::<T>(),
            None,
        );
        let p = self.size();
        let mut bytes = 0u64;
        let out = if self.rank() == root {
            let mut all: Vec<Vec<T>> = Vec::with_capacity(p);
            for src in 0..p {
                if src == root {
                    // Root's own contribution: move, don't clone.
                    all.push(std::mem::take(&mut data));
                } else {
                    let (got, b) = self.recv_internal::<T>(src, Rank::coll_tag(seq, 0));
                    bytes += b;
                    all.push(got);
                }
            }
            Some(all)
        } else {
            bytes += self.send_internal(root, Rank::coll_tag(seq, 0), data);
            None
        };
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Gather), &ctx, start.elapsed(), bytes);
        self.context = ctx;
        out
    }

    /// All-to-all exchange with per-peer buffers (`MPI_Alltoallv`):
    /// `sends[q]` goes to rank `q`; returns `recvs` with `recvs[q]` from
    /// rank `q`. Implemented with the pairwise-exchange schedule
    /// (`P-1` steps, step `s` pairs rank `r` with `r±s`).
    pub fn alltoallv<T: Msg>(&mut self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.size();
        assert_eq!(sends.len(), p, "alltoallv needs one send buffer per rank");
        let start = Instant::now();
        let seq = self.next_coll_seq();
        // Per-peer buffer lengths legitimately differ; the contract is
        // one buffer per rank, already asserted above.
        self.verify_collective(
            seq,
            CollKind::Alltoallv,
            None,
            std::any::type_name::<T>(),
            None,
        );
        let rank = self.rank();
        let mut recvs: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        recvs[rank] = std::mem::take(&mut sends[rank]);
        let mut bytes = 0u64;
        for step in 1..p {
            let to = (rank + step) % p;
            let from = (rank + p - step) % p;
            let payload = std::mem::take(&mut sends[to]);
            bytes += self.send_internal(to, Rank::coll_tag(seq, step as u64), payload);
            let (got, b) = self.recv_internal::<T>(from, Rank::coll_tag(seq, step as u64));
            bytes += b;
            recvs[from] = got;
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Alltoallv), &ctx, start.elapsed(), bytes);
        self.context = ctx;
        recvs
    }
}
