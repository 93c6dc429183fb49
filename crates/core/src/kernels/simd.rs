//! Hand-written SIMD derivative/dealias/particle kernels with runtime ISA
//! dispatch.
//!
//! The `simd` kernel tier vectorizes the tensor-product contractions
//! **lane-parallel across independent output points**: one vector lane
//! owns one output, and every lane performs the *exact scalar
//! accumulation order* of the [`super::opt`] kernels (ascending `m`,
//! separate multiply and add — never FMA, which would contract the
//! rounding). IEEE-754 arithmetic is identical per lane whether it runs
//! in a scalar register or a vector lane, so the results are **bitwise
//! identical** to `opt` — all determinism, `--verify`, checkpoint, and
//! state-hash guarantees carry over unchanged.
//!
//! Every deriv direction and every dealias stage is the same batched
//! small matrix product (`planes`), and all of them accumulate in one
//! micro-kernel (`contract`): `out[i] = sum_k coef[k] * src[k*stride + i]`
//! over a unit-stride run of outputs. Why this wins even though LLVM
//! already auto-vectorizes `opt`:
//!
//! * `dudr` (and dealias stage 1) are per-output *dot products* — a
//!   floating-point reduction LLVM must not reassociate, so `opt`'s
//!   inner loop compiles to scalar adds. Laying adjacent outputs across
//!   lanes (via a transposed copy of `D` so lanes load contiguously)
//!   turns the same arithmetic into full-width vector code with no
//!   reduction at all.
//! * `duds`/`dudt` (and dealias stages 2–3) are axpy accumulations that
//!   do vectorize, but `opt` round-trips the output through memory once
//!   per `k`. Here each output accumulates in a register across the
//!   whole `k` loop — one store per output instead of `n`.
//! * **Register tile.** Up to four vectors of adjacent outputs share
//!   each coefficient broadcast, so four independent add chains hide the
//!   add latency a single chain would serialize on. The dealias stages
//!   also block `R = 3` output rows: each source vector is loaded once
//!   per `k` and feeds all three rows, so a multiply no longer needs its
//!   own load. Lanes never interact, so how many are in flight cannot
//!   change any lane's value.
//! * **No scalar tail.** The ragged end of a run is one *overlapped*
//!   vector at `len - W`: its lanes redo outputs the previous vector
//!   already produced, with the same operands in the same order, and
//!   store the same bits again. Only runs shorter than one vector
//!   (`len < W`) take a scalar loop.
//! * **Const contraction length.** `K` (and, for `dudr`/`duds`, the run
//!   length) is a const generic picked by one `match` per call
//!   (`with_const_k!`), so the `k` loop unrolls, the tile choice folds
//!   and `dudr`'s transposed `D` stays in registers across columns.
//!   Unrolling keeps the ascending-`k` order; it only removes the loop.
//! * **Particle interpolation.** [`interp3_lanes`] evaluates three fields
//!   at four particles of one element, one particle per lane (one avx2
//!   vector, two sse2 ones), each lane in the scalar kernel's sequence
//!   ([`super::interp3_lanes`]): the cardinal divisions, `s = 0 + sum_i
//!   l_i u` ascending, `acc += (l_k l_j) s` in row order. The scalar
//!   lanes compile to the SSE2 baseline's two-lane registers. Here two
//!   consecutive rows' sums also run side by side, so six add chains (on
//!   avx2; twelve on sse2) hide the add latency. A group with a lane
//!   within `1e-14` of a node takes the scalar lanes, whose delta branch
//!   the vector code does not have.
//!
//! ## Dispatch
//!
//! [`active_isa`] picks the widest ISA the CPU supports at first use
//! (`is_x86_feature_detected!`), caches it in a `OnceLock` (the env
//! lookup allocates, so it must never sit on the per-call hot path),
//! and honors a `CMT_SIMD_ISA` override (`avx2` / `sse2` / `scalar`)
//! for testing the narrower paths. The override can only *lower* the
//! ISA — it cannot enable instructions the CPU lacks. Non-x86_64
//! builds, shapes beyond [`MAX_SIMD_N`], and the `scalar` fallback all
//! delegate to the [`super::opt`] kernels, the particle kernel to the
//! scalar lanes (trivially bitwise identical). Every `*_with` form takes
//! an explicit [`SimdIsa`] so tests can compare the vector and fallback
//! paths in-process.

// One of the three modules inside the crate-level `deny(unsafe_code)`
// boundary; every site carries a SAFETY comment (clippy enforces it).
#![allow(unsafe_code)]

use super::{opt, INTERP_LANES};

/// Largest `n` (and dealias `m`) the vector kernels handle; beyond this
/// the on-stack transposed-operator buffers would not fit and the
/// kernels fall back to [`super::opt`]. The paper's range is `N <= 25`.
pub const MAX_SIMD_N: usize = 32;

/// Output rows per register tile in the dealias stages: each loaded
/// source vector feeds this many rows. The derivatives keep one row per
/// tile (blocking them measured no gain at `N = 10` and lost at small
/// `N`).
#[cfg(target_arch = "x86_64")]
const DEALIAS_ROWS: usize = 3;

/// The instruction set a simd kernel call runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// 4-wide `f64` AVX2 kernels.
    Avx2,
    /// 2-wide `f64` SSE2 kernels (x86_64 baseline).
    Sse2,
    /// Scalar fallback — delegates to [`super::opt`].
    Scalar,
}

impl SimdIsa {
    /// All ISAs, widest first.
    pub const ALL: [SimdIsa; 3] = [SimdIsa::Avx2, SimdIsa::Sse2, SimdIsa::Scalar];

    /// Report name (`avx2` / `sse2` / `scalar`).
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Sse2 => "sse2",
            SimdIsa::Scalar => "scalar",
        }
    }

    /// Whether this ISA can run on the current machine.
    pub fn available(self) -> bool {
        match self {
            SimdIsa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            SimdIsa::Sse2 => cfg!(target_arch = "x86_64"),
            SimdIsa::Scalar => true,
        }
    }
}

/// Widest ISA the CPU supports (ignores the env override).
fn detect() -> SimdIsa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            SimdIsa::Avx2
        } else {
            SimdIsa::Sse2 // baseline on x86_64
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdIsa::Scalar
    }
}

/// The ISA every implicit-dispatch simd call uses, decided once per
/// process: hardware detection, optionally *lowered* by `CMT_SIMD_ISA`
/// (`avx2` | `sse2` | `scalar`; unknown values are ignored). Cached so
/// the env lookup (which allocates) never recurs on the hot path.
pub fn active_isa() -> SimdIsa {
    static ACTIVE: std::sync::OnceLock<SimdIsa> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let detected = detect();
        match std::env::var("CMT_SIMD_ISA").ok().as_deref() {
            Some("scalar") => SimdIsa::Scalar,
            Some("sse2") if detected != SimdIsa::Scalar => SimdIsa::Sse2,
            _ => detected, // "avx2" cannot upgrade past what the CPU has
        }
    })
}

/// Clamp the requested ISA to what this shape supports: the vector
/// kernels are instantiated for contraction lengths `2..=MAX_SIMD_N` and
/// their transposed-operator buffer holds orders up to `MAX_SIMD_N`;
/// any other shape falls back to the scalar (`opt`) path.
fn clamp(isa: SimdIsa, k: usize, max_order: usize) -> SimdIsa {
    if k < 2 || max_order > MAX_SIMD_N {
        SimdIsa::Scalar
    } else {
        isa
    }
}

/// Call `$isa::$f::<K> $args` with the runtime contraction length `$n`
/// as the const `K`, so the kernel's `k` loop unrolls and, where the run
/// length is `K` or `K^2`, its tile choice folds. [`clamp`] keeps `$n`
/// inside the instantiated range.
#[cfg(target_arch = "x86_64")]
macro_rules! with_const_k {
    ($n:expr, $isa:ident::$f:ident $args:tt) => {
        with_const_k!(@arms $n, $isa::$f $args,
            2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
    };
    (@arms $n:expr, $isa:ident::$f:ident $args:tt, $($k:literal)*) => {
        match $n {
            $($k => $isa::$f::<$k> $args,)*
            _ => unreachable!("clamp() admits only 2..=MAX_SIMD_N"),
        }
    };
}

/// The x86_64 vector kernel bodies, generated once per ISA.
///
/// Each kernel is a safe `#[target_feature]` fn: the pointer-based
/// load/store intrinsics are confined to the two `ld`/`st` helpers,
/// whose bounds invariant every call site maintains. Lane arithmetic
/// uses explicit mul/add intrinsics (no FMA) so each lane reproduces
/// the scalar rounding sequence exactly.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_kernel_impls {
    ($isa_mod:ident, $feat:literal, $vec:ty, $lanes:expr,
     $setzero:path, $set1:path, $add:path, $sub:path, $mul:path, $div:path,
     $loadu:path, $storeu:path) => {
        pub(super) mod $isa_mod {
            use super::super::INTERP_LANES;
            use super::{DEALIAS_ROWS, MAX_SIMD_N};
            use core::arch::x86_64::*;

            /// Vector width in `f64` lanes.
            const W: usize = $lanes;

            /// Load `W` contiguous lanes starting at `s[at]`.
            #[inline]
            #[target_feature(enable = $feat)]
            fn ld(s: &[f64], at: usize) -> $vec {
                debug_assert!(at + W <= s.len());
                // SAFETY: every call site keeps `at + W <= s.len()` —
                // `tile` inside the window `contract` asserts once per
                // `R`-row call, `rk_stage` by its loop bound, `cardinal`
                // at `v * W` for `v < INTERP_LANES / W` of a lane array
                // (re-checked by the debug_assert above) — so all W f64
                // lanes are in bounds of the borrowed slice.
                unsafe { $loadu(s.as_ptr().add(at)) }
            }

            /// Store `W` lanes to `s[at..at + W]`.
            #[inline]
            #[target_feature(enable = $feat)]
            fn st(s: &mut [f64], at: usize, v: $vec) {
                debug_assert!(at + W <= s.len());
                // SAFETY: call sites keep `at + W <= s.len()` — `tile`
                // inside the `R` runs whose window `contract` asserts once
                // per call, `rk_stage` by its loop bound, `interp3` at
                // `v * W` for `v < INTERP_LANES / W` of a lane array (see
                // the debug_assert) — so the store stays in bounds of the
                // exclusively borrowed slice.
                unsafe { $storeu(s.as_mut_ptr().add(at), v) }
            }

            /// One register tile of [`contract`]: `R` output rows by `T`
            /// vectors of adjacent outputs from `at` in each row. Per
            /// `k`, each of the `T` source vectors is loaded once and
            /// feeds all `R` rows, and each row's coefficient broadcast
            /// feeds all `T` vectors, so `R * T` independent add chains
            /// are in flight. A vector that would cross the end of the
            /// run is pulled back to `len - W` and recomputes lanes its
            /// neighbour also owns — the same per-lane sequence, so the
            /// same bits.
            #[inline]
            #[target_feature(enable = $feat)]
            fn tile<const K: usize, const ZERO: bool, const R: usize, const T: usize>(
                coef: &[f64],
                src: &[f64],
                stride: usize,
                out: &mut [f64],
                len: usize,
                at: usize,
            ) {
                let mut pos = [0; T];
                for (t, p) in pos.iter_mut().enumerate() {
                    *p = (at + t * W).min(len - W);
                }
                let mut acc = [[$setzero(); T]; R];
                for k in 0..K {
                    let mut c = [$setzero(); R];
                    for (r, cr) in c.iter_mut().enumerate() {
                        *cr = $set1(coef[r * K + k]);
                    }
                    for t in 0..T {
                        let v = ld(src, k * stride + pos[t]);
                        for r in 0..R {
                            let prod = $mul(c[r], v);
                            acc[r][t] = if ZERO || k > 0 {
                                $add(acc[r][t], prod)
                            } else {
                                prod
                            };
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for t in 0..T {
                        st(out, r * len + pos[t], row[t]);
                    }
                }
            }

            /// The contraction micro-kernel — the only place a lane
            /// accumulates: `out[r * len + i] = sum_k coef[r * K + k] *
            /// src[k * stride + i]` over `R` unit-stride runs of one
            /// length, ascending `k`, separate multiply and add. The `R`
            /// rows share every source load and never mix lanes, so each
            /// row's bits are those of its own `R = 1` call. `ZERO` picks
            /// the scalar code's init flavour: start from an explicit
            /// `0.0` (`opt::deriv_r`, the dealias stages) or let the
            /// `k = 0` product assign (`opt::deriv_s`/`deriv_t`); they
            /// differ on signed zeros. `P` is the run length where the
            /// caller knows it at compile time (0: take `out.len() / R`);
            /// the tile choice below then folds whether or not this body
            /// gets inlined.
            #[inline]
            #[target_feature(enable = $feat)]
            fn contract<const K: usize, const ZERO: bool, const P: usize, const R: usize>(
                coef: &[f64],
                src: &[f64],
                stride: usize,
                out: &mut [f64],
            ) {
                let len = if P == 0 { out.len() / R } else { P };
                // The window every `ld`/`st` of these `R` runs stays inside.
                assert!(out.len() == R * len && coef.len() >= R * K);
                assert!((K - 1) * stride + len <= src.len());
                if len < W {
                    for r in 0..R {
                        let row = &mut out[r * len..(r + 1) * len];
                        let cr = &coef[r * K..r * K + K];
                        for (i, o) in row.iter_mut().enumerate() {
                            let mut s = if ZERO { 0.0 } else { cr[0] * src[i] };
                            for k in usize::from(!ZERO)..K {
                                s += cr[k] * src[k * stride + i];
                            }
                            *o = s;
                        }
                    }
                    return;
                }
                let mut at = 0;
                while at < len {
                    match (len - at).div_ceil(W) {
                        1 => tile::<K, ZERO, R, 1>(coef, src, stride, out, len, at),
                        2 => tile::<K, ZERO, R, 2>(coef, src, stride, out, len, at),
                        3 => tile::<K, ZERO, R, 3>(coef, src, stride, out, len, at),
                        _ => tile::<K, ZERO, R, 4>(coef, src, stride, out, len, at),
                    }
                    at += 4 * W;
                }
            }

            /// Batched small matrix product `out_b = op * src_b` for
            /// `b in 0..nblk`: `op` is `m x K` row-major, each `src_b`
            /// is `K` contiguous planes of `plane` values and each
            /// `out_b` is `m` such planes. The output planes go `R` at a
            /// time through one [`contract`] call (their `op` rows and
            /// output runs are both contiguous), and the `m mod R` tail
            /// one at a time. Every deriv direction and dealias stage is
            /// this with its own `(m, plane, nblk)`; `P` repeats `plane`
            /// where it is a compile-time constant (0 elsewhere).
            #[target_feature(enable = $feat)]
            fn planes<const K: usize, const ZERO: bool, const P: usize, const R: usize>(
                m: usize,
                plane: usize,
                op: &[f64],
                src: &[f64],
                out: &mut [f64],
                nblk: usize,
            ) {
                debug_assert!(P == 0 || P == plane);
                let plane = if P == 0 { plane } else { P };
                let full = m - m % R;
                for b in 0..nblk {
                    let sb = &src[b * K * plane..(b + 1) * K * plane];
                    let ob = &mut out[b * m * plane..(b + 1) * m * plane];
                    for c in (0..full).step_by(R) {
                        let rows = &mut ob[c * plane..(c + R) * plane];
                        contract::<K, ZERO, P, R>(&op[c * K..(c + R) * K], sb, plane, rows);
                    }
                    for c in full..m {
                        let run = &mut ob[c * plane..(c + 1) * plane];
                        contract::<K, ZERO, P, 1>(&op[c * K..c * K + K], sb, plane, run);
                    }
                }
            }

            /// `dudr`: the data is the `n^2 nel x K` "operator" whose
            /// rows broadcast, and a transposed copy of `D` supplies the
            /// `K` planes of `K` adjacent outputs `i`. Zero-init like
            /// `opt::deriv_r`.
            #[target_feature(enable = $feat)]
            pub(in super::super) fn deriv_r<const K: usize>(
                nel: usize,
                d: &[f64],
                u: &[f64],
                out: &mut [f64],
            ) {
                let mut dt = [0.0f64; MAX_SIMD_N * MAX_SIMD_N];
                for i in 0..K {
                    for m in 0..K {
                        dt[m * K + i] = d[i * K + m];
                    }
                }
                planes::<K, true, K, 1>(K * K * nel, K, u, &dt[..K * K], out, 1);
            }

            /// `duds`: per `k`-slab, `D` times the slab's `K` rows of
            /// `K`; first-product-assigns like `opt::deriv_s`.
            #[target_feature(enable = $feat)]
            pub(in super::super) fn deriv_s<const K: usize>(
                nel: usize,
                d: &[f64],
                u: &[f64],
                out: &mut [f64],
            ) {
                planes::<K, false, K, 1>(K, K, d, u, out, K * nel);
            }

            /// `dudt`: per element, `D` times the element's `K` fused
            /// `K^2` planes; first-product-assigns like `opt::deriv_t`.
            #[target_feature(enable = $feat)]
            pub(in super::super) fn deriv_t<const K: usize>(
                nel: usize,
                d: &[f64],
                u: &[f64],
                out: &mut [f64],
            ) {
                planes::<K, false, 0, 1>(K, K * K, d, u, out, nel);
            }

            /// Three-stage dealias contraction (`K = n` in, runtime `m`
            /// out), per-output bitwise identical to
            /// `kernels::tensor3_apply_scratch`: every stage zero-inits
            /// and ascends, stage 1 `deriv_r`-style through a transposed
            /// `J`, stages 2-3 as `J` times planes of `m` and `m^2`.
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $feat)]
            pub(in super::super) fn tensor3<const K: usize>(
                m: usize,
                j_mat: &[f64],
                u: &[f64],
                out: &mut [f64],
                nel: usize,
                t1: &mut [f64],
                t2: &mut [f64],
            ) {
                debug_assert!(m <= MAX_SIMD_N);
                let mut jt = [0.0f64; MAX_SIMD_N * MAX_SIMD_N];
                for a in 0..m {
                    for mm in 0..K {
                        jt[mm * m + a] = j_mat[a * K + mm];
                    }
                }
                let (n2, m2) = (K * K, m * m);
                let t1 = &mut t1[..n2 * m];
                let t2 = &mut t2[..K * m2];
                for e in 0..nel {
                    let ue = &u[e * n2 * K..(e + 1) * n2 * K];
                    let oe = &mut out[e * m2 * m..(e + 1) * m2 * m];
                    planes::<K, true, 0, DEALIAS_ROWS>(n2, m, ue, &jt[..K * m], t1, 1);
                    planes::<K, true, 0, DEALIAS_ROWS>(m, m, j_mat, t1, t2, K);
                    planes::<K, true, 0, DEALIAS_ROWS>(m, m2, j_mat, t2, oe, 1);
                }
            }

            /// Fused RK stage update `u = a*u0 + b*u + cdt*rhs`:
            /// lanewise `(a*u0 + b*u) + cdt*rhs` in the scalar
            /// evaluation order (left-to-right adds, no FMA).
            #[target_feature(enable = $feat)]
            pub(in super::super) fn rk_stage(
                a: f64,
                b: f64,
                cdt: f64,
                u: &mut [f64],
                u0: &[f64],
                rhs: &[f64],
            ) {
                let av = $set1(a);
                let bv = $set1(b);
                let cv = $set1(cdt);
                let len = u.len();
                let mut i = 0;
                while i + W <= len {
                    let t = $add(
                        $add($mul(av, ld(u0, i)), $mul(bv, ld(u, i))),
                        $mul(cv, ld(rhs, i)),
                    );
                    st(u, i, t);
                    i += W;
                }
                for ii in i..len {
                    u[ii] = a * u0[ii] + b * u[ii] + cdt * rhs[ii];
                }
            }

            /// Vectors per particle lane group.
            const V: usize = INTERP_LANES / W;

            /// One direction's cardinal values for a lane group none of
            /// whose lanes sits on a node: per lane `o = b_i / (x - x_i)`
            /// and `denom += o` in ascending `i`, then `o /= denom`, as
            /// in the scalar `cardinal_lanes`.
            #[inline]
            #[target_feature(enable = $feat)]
            fn cardinal<const K: usize>(
                nodes: &[f64],
                bary: &[f64],
                x: &[f64; INTERP_LANES],
            ) -> [[$vec; V]; K] {
                let mut xv = [$setzero(); V];
                for (v, xv) in xv.iter_mut().enumerate() {
                    *xv = ld(x, v * W);
                }
                let mut o = [[$setzero(); V]; K];
                let mut denom = [$setzero(); V];
                for i in 0..K {
                    let (xn, b) = ($set1(nodes[i]), $set1(bary[i]));
                    for v in 0..V {
                        o[i][v] = $div(b, $sub(xv[v], xn));
                        denom[v] = $add(denom[v], o[i][v]);
                    }
                }
                for oi in o.iter_mut() {
                    for v in 0..V {
                        oi[v] = $div(oi[v], denom[v]);
                    }
                }
                o
            }

            /// `R` consecutive `(k, j)` rows of `interp3` from row `q`:
            /// their `i` sums run side by side (more independent add
            /// chains), then fold into `acc` in row order.
            #[inline]
            #[target_feature(enable = $feat)]
            fn rows<const K: usize, const R: usize>(
                q: usize,
                lr: &[[$vec; V]; K],
                ls: &[[$vec; V]; K],
                lt: &[[$vec; V]; K],
                data: &[&[f64]; 3],
                acc: &mut [[$vec; V]; 3],
            ) {
                let mut s = [[[$setzero(); V]; 3]; R];
                for (i, li) in lr.iter().enumerate() {
                    for (r, sr) in s.iter_mut().enumerate() {
                        for (f, sf) in sr.iter_mut().enumerate() {
                            let u = $set1(data[f][(q + r) * K + i]);
                            for v in 0..V {
                                sf[v] = $add(sf[v], $mul(li[v], u));
                            }
                        }
                    }
                }
                for (r, sr) in s.iter().enumerate() {
                    let (k, j) = ((q + r) / K, (q + r) % K);
                    for v in 0..V {
                        let w = $mul(lt[k][v], ls[j][v]);
                        for f in 0..3 {
                            acc[f][v] = $add(acc[f][v], $mul(w, sr[f][v]));
                        }
                    }
                }
            }

            /// The particle kernel `kernels::interp3_lanes` with each
            /// lane in a vector lane: the same per-lane sequence
            /// (`s = 0 + sum_i l_i u` ascending, `acc += (l_k l_j) s` in
            /// row order, separate multiply and add). `None` when a lane
            /// is within `1e-14` of a node: the scalar delta path owns
            /// that group.
            #[target_feature(enable = $feat)]
            pub(in super::super) fn interp3<const K: usize>(
                nodes: &[f64],
                bary: &[f64],
                data: [&[f64]; 3],
                rst: &[[f64; INTERP_LANES]; 3],
            ) -> Option<[[f64; INTERP_LANES]; 3]> {
                let (nodes, bary) = (&nodes[..K], &bary[..K]);
                let mut near = false;
                for x in rst {
                    for &xn in nodes {
                        for &xl in x {
                            near |= (xl - xn).abs() < 1e-14;
                        }
                    }
                }
                if near {
                    return None;
                }
                let data = data.map(|d| &d[..K * K * K]);
                let lr = cardinal::<K>(nodes, bary, &rst[0]);
                let ls = cardinal::<K>(nodes, bary, &rst[1]);
                let lt = cardinal::<K>(nodes, bary, &rst[2]);
                let mut acc = [[$setzero(); V]; 3];
                let mut q = 0;
                while q + 2 <= K * K {
                    rows::<K, 2>(q, &lr, &ls, &lt, &data, &mut acc);
                    q += 2;
                }
                if q < K * K {
                    rows::<K, 1>(q, &lr, &ls, &lt, &data, &mut acc);
                }
                let mut out = [[0.0; INTERP_LANES]; 3];
                for (o, a) in out.iter_mut().zip(&acc) {
                    for v in 0..V {
                        st(o, v * W, a[v]);
                    }
                }
                Some(out)
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_kernel_impls!(
    avx2,
    "avx2",
    __m256d,
    4,
    _mm256_setzero_pd,
    _mm256_set1_pd,
    _mm256_add_pd,
    _mm256_sub_pd,
    _mm256_mul_pd,
    _mm256_div_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd
);

#[cfg(target_arch = "x86_64")]
simd_kernel_impls!(
    sse2,
    "sse2",
    __m128d,
    2,
    _mm_setzero_pd,
    _mm_set1_pd,
    _mm_add_pd,
    _mm_sub_pd,
    _mm_mul_pd,
    _mm_div_pd,
    _mm_loadu_pd,
    _mm_storeu_pd
);

/// `dudr` with the process-wide [`active_isa`].
pub fn deriv_r(n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    deriv_r_with(active_isa(), n, nel, d, u, out);
}

/// `dudr` with an explicit ISA (tests compare vector vs fallback paths).
pub fn deriv_r_with(isa: SimdIsa, n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    match clamp(isa, n, n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` only reaches a dispatch site after
        // `SimdIsa::available` / `detect()` confirmed the CPU supports
        // avx2 via `is_x86_feature_detected!` (the env override can
        // only lower the ISA), so the target-feature contract holds.
        SimdIsa::Avx2 => unsafe { with_const_k!(n, avx2::deriv_r(nel, d, u, out)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is part of the x86_64 baseline, statically enabled
        // on every x86_64 target, so the target-feature contract holds.
        SimdIsa::Sse2 => unsafe { with_const_k!(n, sse2::deriv_r(nel, d, u, out)) },
        _ => opt::deriv_r(n, nel, d, u, out),
    }
}

/// `duds` with the process-wide [`active_isa`].
pub fn deriv_s(n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    deriv_s_with(active_isa(), n, nel, d, u, out);
}

/// `duds` with an explicit ISA.
pub fn deriv_s_with(isa: SimdIsa, n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    match clamp(isa, n, n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies a successful runtime
        // `is_x86_feature_detected!("avx2")` (see `deriv_r_with`).
        SimdIsa::Avx2 => unsafe { with_const_k!(n, avx2::deriv_s(nel, d, u, out)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is the x86_64 baseline (see `deriv_r_with`).
        SimdIsa::Sse2 => unsafe { with_const_k!(n, sse2::deriv_s(nel, d, u, out)) },
        _ => opt::deriv_s(n, nel, d, u, out),
    }
}

/// `dudt` with the process-wide [`active_isa`].
pub fn deriv_t(n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    deriv_t_with(active_isa(), n, nel, d, u, out);
}

/// `dudt` with an explicit ISA.
pub fn deriv_t_with(isa: SimdIsa, n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    match clamp(isa, n, n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies a successful runtime
        // `is_x86_feature_detected!("avx2")` (see `deriv_r_with`).
        SimdIsa::Avx2 => unsafe { with_const_k!(n, avx2::deriv_t(nel, d, u, out)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is the x86_64 baseline (see `deriv_r_with`).
        SimdIsa::Sse2 => unsafe { with_const_k!(n, sse2::deriv_t(nel, d, u, out)) },
        _ => opt::deriv_t(n, nel, d, u, out),
    }
}

/// Vectorized dealias contraction with the process-wide [`active_isa`];
/// same contract (and bitwise-identical results) as
/// [`super::tensor3_apply_scratch`].
#[allow(clippy::too_many_arguments)]
pub fn tensor3_apply_scratch(
    m: usize,
    n: usize,
    j_mat: &[f64],
    u: &[f64],
    out: &mut [f64],
    nel: usize,
    t1: &mut [f64],
    t2: &mut [f64],
) {
    tensor3_apply_scratch_with(active_isa(), m, n, j_mat, u, out, nel, t1, t2);
}

/// [`tensor3_apply_scratch`] with an explicit ISA.
#[allow(clippy::too_many_arguments)]
pub fn tensor3_apply_scratch_with(
    isa: SimdIsa,
    m: usize,
    n: usize,
    j_mat: &[f64],
    u: &[f64],
    out: &mut [f64],
    nel: usize,
    t1: &mut [f64],
    t2: &mut [f64],
) {
    assert_eq!(j_mat.len(), m * n, "J must be m x n");
    assert_eq!(u.len(), n * n * n * nel, "u length mismatch");
    assert_eq!(out.len(), m * m * m * nel, "out length mismatch");
    let big = m.max(n);
    assert!(t1.len() >= big * big * big, "t1 scratch too small");
    assert!(t2.len() >= big * big * big, "t2 scratch too small");
    match clamp(isa, n, big) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies a successful runtime
        // `is_x86_feature_detected!("avx2")` (see `deriv_r_with`).
        SimdIsa::Avx2 => unsafe { with_const_k!(n, avx2::tensor3(m, j_mat, u, out, nel, t1, t2)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is the x86_64 baseline (see `deriv_r_with`).
        SimdIsa::Sse2 => unsafe { with_const_k!(n, sse2::tensor3(m, j_mat, u, out, nel, t1, t2)) },
        _ => super::tensor3_apply_scratch(m, n, j_mat, u, out, nel, t1, t2),
    }
}

/// Fused RK stage update `u = a*u0 + b*u + cdt*rhs` in one pass, with
/// the process-wide [`active_isa`] — bitwise identical to the scalar
/// loop for every ISA.
pub fn rk_stage_update(a: f64, b: f64, cdt: f64, u: &mut [f64], u0: &[f64], rhs: &[f64]) {
    rk_stage_update_with(active_isa(), a, b, cdt, u, u0, rhs);
}

/// [`rk_stage_update`] with an explicit ISA.
pub fn rk_stage_update_with(
    isa: SimdIsa,
    a: f64,
    b: f64,
    cdt: f64,
    u: &mut [f64],
    u0: &[f64],
    rhs: &[f64],
) {
    debug_assert_eq!(u.len(), u0.len());
    debug_assert_eq!(u.len(), rhs.len());
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies a successful runtime
        // `is_x86_feature_detected!("avx2")` (see `deriv_r_with`).
        SimdIsa::Avx2 => unsafe { avx2::rk_stage(a, b, cdt, u, u0, rhs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is the x86_64 baseline (see `deriv_r_with`).
        SimdIsa::Sse2 => unsafe { sse2::rk_stage(a, b, cdt, u, u0, rhs) },
        _ => {
            for i in 0..u.len() {
                u[i] = a * u0[i] + b * u[i] + cdt * rhs[i];
            }
        }
    }
}

/// The particle kernel [`super::interp3_lanes`] with the process-wide
/// [`active_isa`].
pub fn interp3_lanes(
    nodes: &[f64],
    bary: &[f64],
    data: [&[f64]; 3],
    rst: &[[f64; INTERP_LANES]; 3],
    scratch: &mut [[f64; INTERP_LANES]],
) -> [[f64; INTERP_LANES]; 3] {
    interp3_lanes_with(active_isa(), nodes, bary, data, rst, scratch)
}

/// [`interp3_lanes`] with an explicit ISA; bitwise identical to the
/// scalar lanes for every ISA. A group with a lane within `1e-14` of a
/// node takes the scalar lanes (and their delta), as does every group
/// under [`SimdIsa::Scalar`] or beyond [`MAX_SIMD_N`].
pub fn interp3_lanes_with(
    isa: SimdIsa,
    nodes: &[f64],
    bary: &[f64],
    data: [&[f64]; 3],
    rst: &[[f64; INTERP_LANES]; 3],
    scratch: &mut [[f64; INTERP_LANES]],
) -> [[f64; INTERP_LANES]; 3] {
    let n = nodes.len();
    assert_eq!(scratch.len(), 3 * n, "lane scratch length");
    let vector = match clamp(isa, n, n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies a successful runtime
        // `is_x86_feature_detected!("avx2")` (see `deriv_r_with`).
        SimdIsa::Avx2 => unsafe { with_const_k!(n, avx2::interp3(nodes, bary, data, rst)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is the x86_64 baseline (see `deriv_r_with`).
        SimdIsa::Sse2 => unsafe { with_const_k!(n, sse2::interp3(nodes, bary, data, rst)) },
        _ => None,
    };
    vector.unwrap_or_else(|| super::interp3_lanes(nodes, bary, data, rst, scratch))
}

#[cfg(test)]
mod tests {
    use super::super::{opt, tensor3_apply_scratch as scalar_tensor3};
    use super::*;
    use crate::poly::{gll_nodes, interp_matrix, Basis};

    fn pseudo_random(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// `nel` elements of `per_elem` values where the two init flavours
    /// of `contract` part ways: every third element is random data laced
    /// with `+0.0`/`-0.0`, the next all `+0.0`, the next zeros of random
    /// sign (`0.0 + -0.0` is `+0.0`, a first product of `-0.0` is not).
    fn zero_laced(per_elem: usize, nel: usize, seed: u64) -> Vec<f64> {
        let mut u = pseudo_random(per_elem * nel, seed);
        for (e, ue) in u.chunks_mut(per_elem).enumerate() {
            for (i, v) in ue.iter_mut().enumerate() {
                *v = match (e % 3, i % 7) {
                    (0, 2) | (1, _) => 0.0,
                    (0, 5) => -0.0,
                    (0, _) => *v,
                    _ => 0.0f64.copysign(*v),
                };
            }
        }
        u
    }

    /// ISAs runnable on this machine (always includes Scalar).
    fn runnable() -> Vec<SimdIsa> {
        SimdIsa::ALL
            .iter()
            .copied()
            .filter(|i| i.available())
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn all_isas_bitwise_match_opt_all_dirs_and_ragged_shapes() {
        // Ragged on every axis: n sweeps the full dispatch range (odd,
        // even, < lane width), nel is not a multiple of anything. The
        // run lengths n and n^2 cover W-1, W, W+1, 4W, 4W+1 and 5W-1 for
        // both lane widths, so every tile count and the overlapped tail
        // are hit; `out` is NaN-poisoned and the debug-profile `ld`/`st`
        // asserts catch a vector that leaves its run.
        for n in 2..=25 {
            for &nel in &[1usize, 3] {
                let b = Basis::new(n);
                let random = pseudo_random(n * n * n * nel, 17 + n as u64);
                let zeros = zero_laced(n * n * n, nel, 29 + n as u64);
                let mut want = vec![0.0; random.len()];
                let mut got = vec![0.0; random.len()];
                type F = fn(SimdIsa, usize, usize, &[f64], &[f64], &mut [f64]);
                type G = fn(usize, usize, &[f64], &[f64], &mut [f64]);
                let pairs: [(F, G); 3] = [
                    (deriv_r_with, opt::deriv_r),
                    (deriv_s_with, opt::deriv_s),
                    (deriv_t_with, opt::deriv_t),
                ];
                for (fs, fo) in pairs {
                    for u in [&random, &zeros] {
                        fo(n, nel, &b.d, u, &mut want);
                        for isa in runnable() {
                            got.fill(f64::NAN);
                            fs(isa, n, nel, &b.d, u, &mut got);
                            assert_eq!(bits(&got), bits(&want), "{} n={n} nel={nel}", isa.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_n_falls_back_to_opt() {
        let n = MAX_SIMD_N + 3;
        let b = Basis::new(n);
        let u = pseudo_random(n * n * n, 5);
        let mut want = vec![0.0; u.len()];
        let mut got = vec![0.0; u.len()];
        opt::deriv_r(n, 1, &b.d, &u, &mut want);
        for isa in SimdIsa::ALL {
            deriv_r_with(isa, n, 1, &b.d, &u, &mut got);
            assert_eq!(got, want, "{}", isa.name());
        }
    }

    #[test]
    fn tensor3_bitwise_matches_scalar_both_directions() {
        // Dealias up (m > n) and back down (m < n), odd/even orders, the
        // benchmark's shapes, the largest instantiation, and for each
        // lane width W an m of W-1, W, W+1, 4W, 4W+1 and 5W-1 (stage 1-2
        // run length; stage 3 runs m^2; no GLL rule has m = 1).
        //
        // Then every order pair n in 2..=16, m in n..=n+6, up and back
        // down, pins the row tails of the `DEALIAS_ROWS = 3` tiles:
        // stages 2-3 have one output row per target node, so their row
        // counts sweep every residue mod 3 in both directions; stage 1
        // has a row per source-plane point, a square, so its residues
        // mod 3 are 0 and 1 only, and both come up.
        let mut shapes = vec![(8usize, 5usize), (5, 8), (7, 6), (3, 2), (2, 3), (13, 9)];
        shapes.extend([
            (15, 10),
            (10, 15),
            (9, 6),
            (6, 9),
            (4, 4),
            (25, 17),
            (32, 21),
        ]);
        shapes.extend([2usize, 3, 4, 5, 8, 9, 16, 17, 19].map(|m| (m, 6)));
        for n in 2..=16usize {
            shapes.push((n, n));
            for m in n + 1..=n + 6 {
                shapes.extend([(m, n), (n, m)]);
            }
        }
        for (m, n) in shapes {
            // The interpolation matrix, and an arbitrary operator whose
            // first row is all negative: on zero data its products are
            // all `-0.0`, the one case where the last stage's init
            // flavour reaches `out` (stages 1-2 only feed zero-init sums).
            let mut arbitrary = pseudo_random(m * n, (m * 41 + n) as u64);
            arbitrary[..n].iter_mut().for_each(|v| *v = -v.abs());
            let interp = interp_matrix(&gll_nodes(n), &gll_nodes(m));
            for (j, nel) in [(&interp, 1usize), (&interp, 3), (&arbitrary, 3)] {
                let big = m.max(n);
                let mut t1 = vec![0.0; big * big * big];
                let mut t2 = vec![0.0; big * big * big];
                let mut want = vec![0.0; m * m * m * nel];
                for u in [
                    pseudo_random(n * n * n * nel, (m * 31 + n) as u64),
                    zero_laced(n * n * n, nel, (m * 37 + n) as u64),
                ] {
                    scalar_tensor3(m, n, j, &u, &mut want, nel, &mut t1, &mut t2);
                    for isa in runnable() {
                        let mut got = vec![f64::NAN; want.len()];
                        t1.fill(f64::NAN);
                        t2.fill(f64::NAN);
                        tensor3_apply_scratch_with(
                            isa, m, n, j, &u, &mut got, nel, &mut t1, &mut t2,
                        );
                        assert_eq!(bits(&got), bits(&want), "{} m={m} n={n}", isa.name());
                    }
                }
            }
        }
    }

    #[test]
    fn rk_stage_bitwise_matches_scalar_for_ragged_lengths() {
        for &len in &[1usize, 2, 3, 4, 5, 7, 8, 64, 129] {
            let u_init = pseudo_random(len, 1);
            let u0 = pseudo_random(len, 2);
            let rhs = pseudo_random(len, 3);
            let (a, b, cdt) = (0.75, 0.25, 0.25 * 1e-3);
            let mut want = u_init.clone();
            for i in 0..len {
                want[i] = a * u0[i] + b * want[i] + cdt * rhs[i];
            }
            for isa in runnable() {
                let mut got = u_init.clone();
                rk_stage_update_with(isa, a, b, cdt, &mut got, &u0, &rhs);
                assert_eq!(bits(&got), bits(&want), "{} len={len}", isa.name());
            }
        }
    }

    #[test]
    fn interp3_lanes_bitwise_matches_scalar_lanes() {
        // Per order: lanes inside and past [-1, 1] (the RK2 midpoint
        // extrapolates), a lane exactly on a node and one within 1e-14
        // (both the scalar delta), lanes 2e-14 and 1e-13 off a node (the
        // vector path, with huge cardinal terms), and ragged groups whose
        // spare lanes repeat the last particle, as the tracker pads them.
        for n in 2..=12 {
            let nodes = gll_nodes(n);
            let bary = crate::poly::barycentric_weights(&nodes);
            let fields: Vec<Vec<f64>> = (0..3)
                .map(|f| pseudo_random(n * n * n, (n * 3 + f) as u64))
                .collect();
            let data = [&fields[0][..], &fields[1][..], &fields[2][..]];
            let r = pseudo_random(12 * 8, 101 + n as u64);
            let x = |i: usize| 1.3 * r[i];
            let mid = nodes[n / 2];
            let mut groups: Vec<[[f64; INTERP_LANES]; 3]> = Vec::new();
            for g in 0..8 {
                groups.push(std::array::from_fn(|d| {
                    std::array::from_fn(|l| x(g * 12 + d * 4 + l))
                }));
            }
            for (d, off) in [(0, 0.0), (1, 1e-15), (2, -5e-15)] {
                let mut g = groups[d];
                g[d][1] = mid + off;
                assert!(super::super::node_hit(&nodes, g[d][1]).is_some());
                groups.push(g);
            }
            for (d, off) in [(0, 2e-14f64), (1, -1e-13), (2, 1e-13)] {
                let mut g = groups[d + 3];
                g[d][2] = nodes[0] + off.abs();
                g[(d + 1) % 3][3] = mid + off;
                assert!(super::super::node_hit(&nodes, g[d][2]).is_none());
                groups.push(g);
            }
            for used in 1..INTERP_LANES {
                let g = groups[used];
                groups.push(g.map(|xs| std::array::from_fn(|l| xs[l.min(used - 1)])));
            }
            let mut scratch = vec![[0.0; INTERP_LANES]; 3 * n];
            for g in &groups {
                let want = super::super::interp3_lanes(&nodes, &bary, data, g, &mut scratch);
                for isa in runnable() {
                    scratch
                        .iter_mut()
                        .for_each(|s| *s = [f64::NAN; INTERP_LANES]);
                    let got = interp3_lanes_with(isa, &nodes, &bary, data, g, &mut scratch);
                    assert_eq!(
                        got.map(|f| f.map(f64::to_bits)),
                        want.map(|f| f.map(f64::to_bits)),
                        "{} n={n} rst={g:?}",
                        isa.name()
                    );
                }
            }
        }
    }

    #[test]
    fn active_isa_is_available_and_stable() {
        let isa = active_isa();
        assert!(isa.available(), "{}", isa.name());
        assert_eq!(isa, active_isa(), "active ISA must be cached");
    }

    #[test]
    fn isa_names_are_distinct() {
        assert_eq!(SimdIsa::Avx2.name(), "avx2");
        assert_eq!(SimdIsa::Sse2.name(), "sse2");
        assert_eq!(SimdIsa::Scalar.name(), "scalar");
        assert!(SimdIsa::Scalar.available());
    }
}
