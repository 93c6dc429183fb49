//! The crystal router: Nek5000's generalized all-to-all.
//!
//! The paper (§VI): "All-to-all communication using the crystal router
//! exchange is guaranteed to complete in `log2 P` stages", originally
//! developed for hypercubes. Each rank starts with an arbitrary set of
//! `(destination, payload)` messages; at hypercube stage `d` every rank
//! exchanges with its dimension-`d` partner all held messages whose
//! destination lies in the partner's half, bundling them into one
//! transfer. After `log2 P` stages every message is home.
//!
//! Non-power-of-two rank counts use the standard fold/unfold extension:
//! the ranks above the largest power of two `m <= P` first fold their
//! traffic into their `r - m` partner, the hypercube runs on `m` ranks,
//! and a final unfold step delivers messages destined to the folded ranks.
//!
//! The staging vectors (the held set and each stage's outbound bundle)
//! cycle through the rank's [`crate::BufferPool`], and
//! [`Rank::crystal_router_into`] lets callers keep the outgoing/arrived
//! vectors across calls, so a warm steady-state routing step performs no
//! heap allocation.

use std::time::Instant;

use crate::envelope::Msg;
use crate::rank::Rank;
use crate::stats::MpiOp;

/// One routed message: originating rank, final destination, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedMsg<T> {
    /// Rank that injected the message.
    pub src: usize,
    /// Final destination rank.
    pub dest: usize,
    /// Payload values.
    pub data: Vec<T>,
}

/// Wire-equivalent size of a bundle of routed messages: 16 header bytes
/// (src + dest ids) plus the payload per message. `Envelope`'s own byte
/// count cannot see through the nested `Vec`s, so the router accounts for
/// its traffic with this function instead.
fn bundle_bytes<T>(msgs: &[RoutedMsg<T>]) -> u64 {
    msgs.iter()
        .map(|m| 16 + (m.data.len() * std::mem::size_of::<T>()) as u64)
        .sum()
}

impl Rank {
    /// Route every `(dest, payload)` in `outgoing` to its destination via
    /// the crystal-router algorithm; returns all messages that arrived at
    /// this rank as `(src, payload)` pairs, sorted by source rank for
    /// determinism.
    pub fn crystal_router<T: Msg>(
        &mut self,
        mut outgoing: Vec<(usize, Vec<T>)>,
    ) -> Vec<(usize, Vec<T>)> {
        let mut arrived = Vec::new();
        self.crystal_router_into(&mut outgoing, &mut arrived);
        arrived
    }

    /// [`Rank::crystal_router`] with caller-owned staging: drains
    /// `outgoing`, clears `arrived`, and fills it with the `(src,
    /// payload)` pairs delivered to this rank, sorted by source rank (the
    /// sort is deterministic, but the relative order of two messages from
    /// the *same* source is unspecified). Reusing both vectors across
    /// calls — together with the pooled internal staging — makes the
    /// steady-state routing step allocation-free.
    pub fn crystal_router_into<T: Msg>(
        &mut self,
        outgoing: &mut Vec<(usize, Vec<T>)>,
        arrived: &mut Vec<(usize, Vec<T>)>,
    ) {
        let p = self.size();
        let rank = self.rank();
        for (dest, _) in outgoing.iter() {
            assert!(*dest < p, "crystal router destination {dest} out of range");
        }
        let start = Instant::now();
        let seq = self.next_coll_seq();
        // Message sets legitimately differ per rank; only kind and
        // element type are part of the cross-rank contract.
        self.verify_collective(
            seq,
            crate::verify::CollKind::CrystalRouter,
            T::WIRE_ID,
            None,
        );
        let mut held = self.pool.take::<RoutedMsg<T>>();
        for (dest, data) in outgoing.drain(..) {
            held.push(RoutedMsg {
                src: rank,
                dest,
                data,
            });
        }
        let mut bytes = 0u64;

        // Largest power of two <= p.
        let m = if p.is_power_of_two() {
            p
        } else {
            p.next_power_of_two() >> 1
        };
        let dims = m.trailing_zeros() as u64;
        // Map a destination into the folded hypercube.
        let fold = |d: usize| if d >= m { d - m } else { d };
        // Placeholder a message is swapped with when it moves to an
        // outbound bundle (no heap behind it).
        let hollow = || RoutedMsg {
            src: 0,
            dest: 0,
            data: Vec::new(),
        };

        // Phase A (fold): excess ranks hand everything to rank - m.
        if rank >= m {
            let sent = bundle_bytes(&held);
            let boxed = held.detach();
            self.send_internal_box(rank - m, Rank::coll_tag(seq, 100), boxed);
            held = self.pool.take();
            bytes += sent;
        } else if rank + m < p {
            let (mut got, _) =
                self.recv_internal_pooled::<RoutedMsg<T>>(rank + m, Rank::coll_tag(seq, 100));
            bytes += bundle_bytes(&got);
            held.append(&mut got);
        }

        // Hypercube phase among ranks < m: log2(m) stages. Each stage's
        // outbound bundle comes from the pool, travels boxed, and parks in
        // the partner's pool; the partner's bundle arrives the same way.
        if rank < m {
            for d in 0..dims {
                let bit = 1usize << d;
                let partner = rank ^ bit;
                let mut theirs = self.pool.take::<RoutedMsg<T>>();
                held.retain_mut(|msg| {
                    if (fold(msg.dest) & bit) == (rank & bit) {
                        true
                    } else {
                        theirs.push(std::mem::replace(msg, hollow()));
                        false
                    }
                });
                let sent = bundle_bytes(&theirs);
                self.send_internal_box(partner, Rank::coll_tag(seq, d), theirs.detach());
                bytes += sent;
                let (mut got, _) =
                    self.recv_internal_pooled::<RoutedMsg<T>>(partner, Rank::coll_tag(seq, d));
                bytes += bundle_bytes(&got);
                held.append(&mut got);
            }
        }

        // Phase C (unfold): deliver messages destined to folded ranks.
        if rank < m && rank + m < p {
            let mut theirs = self.pool.take::<RoutedMsg<T>>();
            held.retain_mut(|msg| {
                if msg.dest == rank {
                    true
                } else {
                    theirs.push(std::mem::replace(msg, hollow()));
                    false
                }
            });
            let sent = bundle_bytes(&theirs);
            self.send_internal_box(rank + m, Rank::coll_tag(seq, 101), theirs.detach());
            bytes += sent;
        } else if rank >= m {
            let (mut got, _) =
                self.recv_internal_pooled::<RoutedMsg<T>>(rank - m, Rank::coll_tag(seq, 101));
            bytes += bundle_bytes(&got);
            held.append(&mut got);
        }

        debug_assert!(held.iter().all(|msg| msg.dest == rank));
        held.sort_unstable_by_key(|msg| msg.src);
        arrived.clear();
        for msg in held.drain(..) {
            arrived.push((msg.src, msg.data));
        }
        let ctx = std::mem::take(&mut self.context);
        self.recorder.record(
            self.badged(MpiOp::CrystalRouter),
            &ctx,
            start.elapsed(),
            bytes,
        );
        self.context = ctx;
    }
}
