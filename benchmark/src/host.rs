//! The host record printed with every result, and the two host ceilings
//! the kernel numbers are read against (sustained memory bandwidth and
//! peak multiply-add rate), measured in the same run.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::q;

/// One attribute (`level`, `type`, `size`) of cpu0's `i`-th cache as the
/// kernel reports it.
fn cache_attr(i: usize, attr: &str) -> Option<String> {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{i}/{attr}"
    ))
    .ok()
    .map(|s| s.trim().to_string())
}

/// What a reader needs to know about the machine a result came from.
/// Printed, never used to normalise a number.
pub fn record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let caches: Vec<String> = (0..8)
        .filter_map(|i| {
            let kind = match cache_attr(i, "type")?.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            Some(format!(
                "L{}{kind} {}",
                cache_attr(i, "level")?,
                cache_attr(i, "size")?
            ))
        })
        .collect();
    let tool = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "host: nproc {nproc} | isa {} | caches {} | {} | commit {} | ranks 2 (threads) | socket_mode threads",
        cmt_core::kernels::simd::active_isa().name(),
        if caches.is_empty() {
            "unknown".into()
        } else {
            caches.join(", ")
        },
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// Size in bytes of the last-level cache the kernel reports for cpu0
/// (0 when it reports none).
pub fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let s = cache_attr(i, "size")?;
            let (num, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                b'G' => (&s[..s.len() - 1], 1 << 30),
                _ => (s.as_str(), 1),
            };
            Some(num.parse::<usize>().ok()? * mult)
        })
        .max()
        .unwrap_or(0)
}

/// Bytes of each of the three triad arrays: four times the reported
/// last-level cache (64 MiB assumed when none is reported), capped so the
/// three arrays together stay within 1 GiB.
pub fn stream_array_bytes() -> usize {
    let llc = match llc_bytes() {
        0 => 64 << 20,
        b => b,
    };
    (4 * llc).min((1 << 30) / 3) / 8 * 8
}

/// Sustained memory bandwidth in GB/s: the STREAM triad `a = b + s*c`,
/// one thread per rank, 3 arrays x 8 bytes per element counted. The
/// fastest of `passes` passes counts, as STREAM reports it: a ceiling is
/// a best case.
pub fn stream_gbs(passes: usize) -> f64 {
    let threads = crate::workloads::RANKS;
    let chunk = stream_array_bytes() / 8 / threads;
    let barrier = std::sync::Barrier::new(threads);
    let slowest_thread_best = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut a = vec![0.0f64; chunk];
                    let b = vec![1.0f64; chunk];
                    let c = vec![2.0f64; chunk];
                    let mut best = f64::INFINITY;
                    // pass 0 touches every page for the first time and
                    // is not timed
                    for pass in 0..=passes {
                        barrier.wait();
                        let t = Instant::now();
                        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                            *a = b + 3.0 * c;
                        }
                        black_box(&mut a);
                        barrier.wait();
                        if pass > 0 {
                            best = best.min(t.elapsed().as_secs_f64());
                        }
                    }
                    best
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("triad thread"))
            .fold(0.0f64, f64::max)
    });
    (3 * 8 * chunk * threads) as f64 / slowest_thread_best / 1e9
}

/// Independent multiply-add chains on register-resident data.
#[inline(always)]
fn madd_chains(iters: usize, x: f64) -> f64 {
    let mut acc = [[x; 4]; 8];
    let (m, a) = (black_box(1.000_000_1f64), black_box(1e-9f64));
    for _ in 0..iters {
        for lane in acc.iter_mut() {
            for v in lane.iter_mut() {
                *v = *v * m + a;
            }
        }
    }
    acc.iter().flatten().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn madd_chains_avx2(iters: usize, x: f64) -> f64 {
    madd_chains(iters, x)
}

/// Peak separate multiply + add rate in GFLOP/s over both cores, at the
/// vector width the simd kernel tier dispatches to. No FMA: the kernels
/// use none (it would break their bitwise identity across tiers), so
/// this, not the FMA peak, is their ceiling.
pub fn peak_gflops() -> f64 {
    const ITERS: usize = 400_000;
    let flops_per_call = (ITERS * 8 * 4 * 2) as f64;
    let threads = crate::workloads::RANKS;
    let run = |x: f64| -> f64 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 support was verified on the line above.
            return unsafe { madd_chains_avx2(ITERS, x) };
        }
        madd_chains(ITERS, x)
    };
    let samples: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                let hs: Vec<_> = (0..threads)
                    .map(|i| s.spawn(move || black_box(run(black_box(1.0 + i as f64)))))
                    .collect();
                for h in hs {
                    h.join().expect("peak thread");
                }
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    flops_per_call * threads as f64 / q(&samples) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_arrays_are_capped_and_aligned() {
        let b = stream_array_bytes();
        assert!(b > 0 && b.is_multiple_of(8));
        assert!(3 * b <= 1 << 30);
    }

    #[test]
    fn record_is_one_line() {
        let r = record();
        assert!(r.starts_with("host: nproc "));
        assert!(!r.contains('\n'));
    }
}
