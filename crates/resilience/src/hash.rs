//! Bitwise state fingerprints.
//!
//! The resilience tests and the CI fault-injection smoke job compare a
//! recovered run against an uninterrupted one by *bitwise* equality of
//! the final solver state, not by a tolerance — rollback recovery replays
//! the identical trajectory, so anything weaker would hide real
//! divergence. Both solver drivers hash each rank's final fields with
//! FNV-1a and fold the per-rank hashes together in rank order.

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold `bytes` into an FNV-1a running hash (order-sensitive).
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
}

/// Fold a slice of `f64` values into the hash, bitwise (little-endian
/// byte order, so NaN payloads and signed zeros are distinguished).
pub fn fnv1a_f64s(hash: &mut u64, values: &[f64]) {
    for v in values {
        fnv1a(hash, &v.to_le_bytes());
    }
}

/// Fold `values[e * stride..][..stride]` into `hashes[e]` for every `e`:
/// [`fnv1a_f64s`] once per element, with four elements' chains advanced
/// together. One chain is a dependent xor→multiply per byte; four
/// independent ones keep the multiplier busy. Remainder elements go
/// through `fnv1a_f64s` itself.
pub fn fnv1a_f64s_lockstep(hashes: &mut [u64], values: &[f64], stride: usize) {
    assert_eq!(values.len(), hashes.len() * stride, "one stride per hash");
    let mut quads = hashes.chunks_exact_mut(4);
    let mut blocks = values.chunks_exact(4 * stride);
    for (h, v) in (&mut quads).zip(&mut blocks) {
        let mut s = [h[0], h[1], h[2], h[3]];
        for i in 0..stride {
            let w: [u64; 4] = std::array::from_fn(|c| v[c * stride + i].to_bits());
            for byte in 0..8 {
                for c in 0..4 {
                    s[c] = (s[c] ^ (w[c] >> (8 * byte) & 0xFF)).wrapping_mul(FNV_PRIME);
                }
            }
        }
        h.copy_from_slice(&s);
    }
    let tail = quads.into_remainder().iter_mut();
    for (h, v) in tail.zip(blocks.remainder().chunks_exact(stride)) {
        fnv1a_f64s(h, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_equals_one_chain_per_element() {
        let stride = 5;
        for nel in 0..=9 {
            let values: Vec<f64> = (0..nel * stride)
                .map(|i| (i as f64 * 0.37 - 3.0).sin() * if i % 7 == 0 { -0.0 } else { 1e3 })
                .collect();
            // distinct starting states: the chains are mid-way, as they
            // are from the second field on
            let start: Vec<u64> = (0..nel as u64).map(|e| FNV_OFFSET ^ e).collect();
            let mut want = start.clone();
            for (h, v) in want.iter_mut().zip(values.chunks_exact(stride)) {
                fnv1a_f64s(h, v);
            }
            let mut got = start;
            fnv1a_f64s_lockstep(&mut got, &values, stride);
            assert_eq!(got, want, "{nel} elements");
        }
    }

    #[test]
    fn hash_is_order_and_bit_sensitive() {
        let mut a = FNV_OFFSET;
        let mut b = FNV_OFFSET;
        fnv1a_f64s(&mut a, &[1.0, 2.0]);
        fnv1a_f64s(&mut b, &[2.0, 1.0]);
        assert_ne!(a, b);
        let mut c = FNV_OFFSET;
        fnv1a_f64s(&mut c, &[0.0, -0.0]);
        let mut d = FNV_OFFSET;
        fnv1a_f64s(&mut d, &[0.0, 0.0]);
        assert_ne!(c, d, "signed zeros must be distinguished");
    }
}
