//! Randomized stress tests of the message-passing runtime: arbitrary
//! tag/source schedules, interleaved collectives, and payload-type mixes.
//! Randomization is seeded (`simmpi::rng::SmallRng`) so every run executes
//! the identical schedule.

use simmpi::rng::SmallRng;
use simmpi::{ReduceOp, World};

/// Every rank sends a random number of messages with random tags to every
/// other rank; receivers pull them in a *different* random order. All
/// payloads must arrive intact (the out-of-order matching path).
#[test]
fn out_of_order_matching_stress() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for _ in 0..5 {
        let p = rng.range_usize(2, 6);
        // plan[src][dst] = vec of (tag, value)
        let plan: Vec<Vec<Vec<(u64, f64)>>> = (0..p)
            .map(|src| {
                (0..p)
                    .map(|dst| {
                        if src == dst {
                            return Vec::new();
                        }
                        let n = rng.range_usize(0, 6);
                        (0..n)
                            .map(|i| (rng.range_u64(0, 3), (src * 100 + dst * 10 + i) as f64))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let shuffle_seed: u64 = rng.next_u64();
        let plan2 = plan.clone();
        let res = World::new().run(p, move |rank| {
            let me = rank.rank();
            // send everything
            for dst in 0..rank.size() {
                for &(tag, v) in &plan2[me][dst] {
                    rank.send(dst, tag, &[v]);
                }
            }
            // receive in shuffled per-(src, tag) order: FIFO holds within
            // one (src, tag) stream, so pull each stream in order but
            // interleave streams randomly.
            let mut streams: Vec<(usize, u64, usize)> = Vec::new(); // (src, tag, remaining)
            for src in 0..rank.size() {
                for tag in 0..3u64 {
                    let cnt = plan2[src][me].iter().filter(|(t, _)| *t == tag).count();
                    if cnt > 0 {
                        streams.push((src, tag, cnt));
                    }
                }
            }
            let mut order = SmallRng::seed_from_u64(shuffle_seed ^ me as u64);
            let mut got: Vec<(usize, u64, f64)> = Vec::new();
            while !streams.is_empty() {
                let pick = order.range_usize(0, streams.len());
                let (src, tag, _) = streams[pick];
                let v = rank.recv::<f64>(src, tag)[0];
                got.push((src, tag, v));
                streams[pick].2 -= 1;
                if streams[pick].2 == 0 {
                    streams.remove(pick);
                }
            }
            got
        });
        // verify: per (src, dst, tag) the value sequence matches the plan
        for dst in 0..p {
            for src in 0..p {
                for tag in 0..3u64 {
                    let sent: Vec<f64> = plan[src][dst]
                        .iter()
                        .filter(|(t, _)| *t == tag)
                        .map(|&(_, v)| v)
                        .collect();
                    let recvd: Vec<f64> = res.results[dst]
                        .iter()
                        .filter(|&&(s, t, _)| s == src && t == tag)
                        .map(|&(_, _, v)| v)
                        .collect();
                    assert_eq!(sent, recvd, "src {src} dst {dst} tag {tag}");
                }
            }
        }
    }
}

/// Mixed payload types through the same mailbox must not confuse the
/// type-erased envelopes.
#[test]
fn mixed_payload_types() {
    let res = World::new().run(2, |rank| {
        if rank.rank() == 0 {
            rank.send(1, 1, &[1.5f64, 2.5]);
            rank.send(1, 2, &[7u64, 8, 9]);
            rank.send(1, 3, &[1u8, 0]);
            rank.send(1, 4, &[0xdead_beefu32]);
            0
        } else {
            let f = rank.recv::<f64>(0, 1);
            let u = rank.recv::<u64>(0, 2);
            let b = rank.recv::<u8>(0, 3);
            let s = rank.recv::<u32>(0, 4);
            assert_eq!(f, vec![1.5, 2.5]);
            assert_eq!(u, vec![7, 8, 9]);
            assert_eq!(b, vec![1, 0]);
            assert_eq!(s, vec![0xdead_beef]);
            1
        }
    });
    assert_eq!(res.results, vec![0, 1]);
}

/// Random interleavings of collectives keep their sequence numbers
/// straight: a mix of barriers, allreduces (copying and in place, some
/// past the inline limit), exclusive scans and alltoallvs in a random
/// (but SPMD-identical) order produces, on every rank, the values a
/// serial computation predicts.
#[test]
fn random_collective_sequences() {
    /// Allreduce vector length of op `i`: 1..=12, so both inline and
    /// pooled payloads run through the tree.
    fn len(seed: u64, i: usize) -> usize {
        1 + (seed as usize + i) % 12
    }
    /// What rank `r` of `p` sees from op `i` of kind `op`.
    fn expect(op: u8, seed: u64, i: usize, r: usize, p: usize) -> Vec<u64> {
        let ranks: u64 = (0..p as u64).sum();
        match op {
            0 => Vec::new(),
            1 | 2 => (0..len(seed, i) as u64)
                .map(|j| 31 * ranks + p as u64 * (7 * i as u64 + j))
                .collect(),
            3 => vec![(0..r as u64).map(|q| q + i as u64).sum()],
            _ => (0..p)
                .flat_map(|q| vec![(q * 100 + r + i) as u64; (q + r + i) % 3])
                .collect(),
        }
    }
    let mut rng = SmallRng::seed_from_u64(0x5EED_C011);
    for _ in 0..12 {
        let p = rng.range_usize(1, 6);
        let nops = rng.range_usize(1, 12);
        let ops: Vec<u8> = (0..nops).map(|_| rng.range_u64(0, 5) as u8).collect();
        let seed = rng.next_u64();
        let ops2 = ops.clone();
        let res = World::new().run(p, move |rank| {
            let (me, size) = (rank.rank(), rank.size());
            let mut got = Vec::new();
            for (i, &op) in ops2.iter().enumerate() {
                let data: Vec<u64> = (0..len(seed, i) as u64)
                    .map(|j| 31 * me as u64 + 7 * i as u64 + j)
                    .collect();
                got.push(match op {
                    0 => {
                        rank.barrier();
                        Vec::new()
                    }
                    1 => rank.allreduce_u64(&data, ReduceOp::Sum),
                    2 => {
                        let mut acc: Vec<f64> = data.iter().map(|&v| v as f64).collect();
                        rank.allreduce_in_place(&mut acc, |a, b| *a += *b);
                        acc.iter().map(|&v| v as u64).collect()
                    }
                    3 => vec![rank.exscan_u64((me + i) as u64)],
                    _ => {
                        let sends = (0..size)
                            .map(|q| vec![(me * 100 + q + i) as u64; (me + q + i) % 3])
                            .collect();
                        rank.alltoallv(sends).concat()
                    }
                });
            }
            got
        });
        for (r, got) in res.results.iter().enumerate() {
            for (i, &op) in ops.iter().enumerate() {
                assert_eq!(got[i], expect(op, seed, i, r, p), "p={p} rank {r} op {i}");
            }
        }
    }
}
