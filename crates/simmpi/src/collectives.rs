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

use std::time::Instant;

use crate::envelope::{sealed::Elem, Msg};
use crate::rank::Rank;
use crate::stats::MpiOp;
use crate::verify::CollKind;
use crate::ReduceOp;

impl Rank {
    /// Barrier: dissemination algorithm, `ceil(log2 P)` rounds.
    pub fn barrier(&mut self) {
        let start = Instant::now();
        let seq = self.next_coll_seq();
        self.verify_collective(seq, CollKind::Barrier, 0, None);
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

    /// Elementwise allreduce performed *in place* on `acc`: a binomial
    /// reduce to rank 0, then a binomial broadcast back (rounds offset by
    /// 32). Every allreduce runs this one tree. Payloads move through
    /// pooled buffers, so a warm rank performs no heap allocation here.
    pub fn allreduce_in_place<T: Msg>(&mut self, acc: &mut [T], combine: impl Fn(&mut T, &T)) {
        let start = Instant::now();
        let seq = self.next_coll_seq();
        self.verify_collective(seq, CollKind::Allreduce, T::WIRE_ID, Some(acc.len()));
        let p = self.size();
        let rank = self.rank();
        let mut bytes = 0u64;
        // reduce to 0
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
        // children: rank + k for each k below this rank's lowest set bit
        let my_lsb = if rank == 0 {
            usize::MAX
        } else {
            rank & rank.wrapping_neg()
        };
        let mut k = p.next_power_of_two() >> 1;
        while k >= 1 {
            if k < my_lsb && rank + k < p {
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

    /// Elementwise `f64` allreduce with a named operator, on a copy of
    /// `data`.
    pub fn allreduce_f64(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let mut acc = data.to_vec();
        self.allreduce_in_place(&mut acc, |a, b| *a = op.apply_f64(*a, *b));
        acc
    }

    /// Elementwise `u64` allreduce with a named operator, on a copy of
    /// `data`.
    pub fn allreduce_u64(&mut self, data: &[u64], op: ReduceOp) -> Vec<u64> {
        let mut acc = data.to_vec();
        self.allreduce_in_place(&mut acc, |a, b| *a = op.apply_u64(*a, *b));
        acc
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
        self.verify_collective(seq, CollKind::Exscan, u64::WIRE_ID, Some(1));
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
        self.verify_collective(seq, CollKind::Alltoallv, T::WIRE_ID, None);
        let rank = self.rank();
        let mut recvs: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        recvs[rank] = std::mem::take(&mut sends[rank]);
        let mut bytes = 0u64;
        for step in 1..p {
            let to = (rank + step) % p;
            let from = (rank + p - step) % p;
            let tag = Rank::coll_tag(seq, step as u64);
            bytes += self.send_internal_box(to, tag, Box::new(std::mem::take(&mut sends[to])));
            let (got, b) = self.recv_internal_pooled::<T>(from, tag);
            bytes += b;
            recvs[from] = got.take();
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder
            .record(self.badged(MpiOp::Alltoallv), &ctx, start.elapsed(), bytes);
        self.context = ctx;
        recvs
    }
}
