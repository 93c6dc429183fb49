//! Hand-written SIMD derivative/dealias kernels with runtime ISA dispatch.
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
//! Why this wins even though LLVM already auto-vectorizes `opt`:
//!
//! * `dudr` (and dealias stage 1) are per-output *dot products* — a
//!   floating-point reduction LLVM must not reassociate, so `opt`'s
//!   inner loop compiles to scalar adds. Laying four adjacent outputs
//!   across lanes (via a transposed copy of `D` so lanes load
//!   contiguously) turns the same arithmetic into full-width vector
//!   code with no reduction at all.
//! * `duds`/`dudt` (and dealias stages 2–3) are axpy accumulations that
//!   do vectorize, but `opt` round-trips the output through memory once
//!   per `m`. Here each 4-output chunk accumulates in a register across
//!   the whole `m` loop — one store per output instead of `n`.
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
//! delegate to the [`super::opt`] kernels (trivially bitwise
//! identical). Every `*_with` form takes an explicit [`SimdIsa`] so
//! tests can compare the vector and fallback paths in-process.

// One of the three modules inside the crate-level `deny(unsafe_code)`
// boundary; every site carries a SAFETY comment (clippy enforces it).
#![allow(unsafe_code)]

use super::opt;

/// Largest `n` (and dealias `m`) the vector kernels handle; beyond this
/// the on-stack transposed-operator buffers would not fit and the
/// kernels fall back to [`super::opt`]. The paper's range is `N <= 25`.
pub const MAX_SIMD_N: usize = 32;

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

/// Clamp the requested ISA to what this shape supports: oversized
/// operators fall back to the scalar (`opt`) path.
fn clamp(isa: SimdIsa, max_order: usize) -> SimdIsa {
    if max_order > MAX_SIMD_N {
        SimdIsa::Scalar
    } else {
        isa
    }
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
     $setzero:path, $set1:path, $add:path, $mul:path, $loadu:path, $storeu:path) => {
        pub(super) mod $isa_mod {
            use super::MAX_SIMD_N;
            use core::arch::x86_64::*;

            /// Vector width in `f64` lanes.
            const W: usize = $lanes;

            /// Load `W` contiguous lanes starting at `s[at]`.
            #[inline]
            #[target_feature(enable = $feat)]
            fn ld(s: &[f64], at: usize) -> $vec {
                debug_assert!(at + W <= s.len());
                // SAFETY: every call site advances `at` under the loop
                // invariant `at + W <= s.len()` (re-checked by the
                // debug_assert above), so all W f64 lanes are in bounds
                // of the borrowed slice.
                unsafe { $loadu(s.as_ptr().add(at)) }
            }

            /// Store `W` lanes to `s[at..at + W]`.
            #[inline]
            #[target_feature(enable = $feat)]
            fn st(s: &mut [f64], at: usize, v: $vec) {
                debug_assert!(at + W <= s.len());
                // SAFETY: call sites keep `at + W <= s.len()` (see the
                // debug_assert), so the store stays in bounds of the
                // exclusively borrowed slice.
                unsafe { $storeu(s.as_mut_ptr().add(at), v) }
            }

            /// Lane-parallel `dudr`: lanes own adjacent outputs `i`;
            /// each accumulates `sum_m D[i,m] * u[c,m]` ascending from
            /// an explicit zero, exactly like `opt::deriv_r`'s scalar
            /// `s = 0.0; s += ...` sequence. A transposed copy of `D`
            /// makes the per-`m` lane loads contiguous.
            #[target_feature(enable = $feat)]
            pub(in super::super) fn deriv_r(
                n: usize,
                nel: usize,
                d: &[f64],
                u: &[f64],
                out: &mut [f64],
            ) {
                debug_assert!(n <= MAX_SIMD_N);
                let mut dt = [0.0f64; MAX_SIMD_N * MAX_SIMD_N];
                for i in 0..n {
                    for m in 0..n {
                        dt[m * n + i] = d[i * n + m];
                    }
                }
                let ncols = n * n * nel;
                for c in 0..ncols {
                    let ucol = &u[c * n..c * n + n];
                    let ocol = &mut out[c * n..c * n + n];
                    let mut i = 0;
                    while i + W <= n {
                        let mut acc = $setzero();
                        for (m, &um) in ucol.iter().enumerate() {
                            acc = $add(acc, $mul(ld(&dt, m * n + i), $set1(um)));
                        }
                        st(ocol, i, acc);
                        i += W;
                    }
                    // ragged tail: the scalar opt accumulation verbatim
                    for ii in i..n {
                        let drow = &d[ii * n..ii * n + n];
                        let mut s = 0.0;
                        for (dv, uv) in drow.iter().zip(ucol) {
                            s += dv * uv;
                        }
                        ocol[ii] = s;
                    }
                }
            }

            /// Lane-parallel `duds`: per `k`-slab, lanes own adjacent
            /// outputs along `i`; the accumulator *initializes* with the
            /// `m = 0` product (matching `opt::deriv_s`'s assign-first
            /// pass) and adds the rest ascending, held in a register
            /// across the whole `m` loop.
            #[target_feature(enable = $feat)]
            pub(in super::super) fn deriv_s(
                n: usize,
                nel: usize,
                d: &[f64],
                u: &[f64],
                out: &mut [f64],
            ) {
                let n2 = n * n;
                for sl in 0..n * nel {
                    let slab = &u[sl * n2..(sl + 1) * n2];
                    let oslab = &mut out[sl * n2..(sl + 1) * n2];
                    for j in 0..n {
                        let drow = &d[j * n..j * n + n];
                        let ocol = &mut oslab[j * n..j * n + n];
                        let d0 = drow[0];
                        let mut i = 0;
                        while i + W <= n {
                            let mut acc = $mul($set1(d0), ld(slab, i));
                            for (m, &dv) in drow.iter().enumerate().skip(1) {
                                acc = $add(acc, $mul($set1(dv), ld(slab, m * n + i)));
                            }
                            st(ocol, i, acc);
                            i += W;
                        }
                        for ii in i..n {
                            let mut s = d0 * slab[ii];
                            for (m, &dv) in drow.iter().enumerate().skip(1) {
                                s += dv * slab[m * n + ii];
                            }
                            ocol[ii] = s;
                        }
                    }
                }
            }

            /// Lane-parallel `dudt`: per element, lanes own adjacent
            /// outputs in the fused `n^2` plane; assign-first `m = 0`
            /// then ascending adds, register-resident across `m` —
            /// the same per-output sequence as `opt::deriv_t`.
            #[target_feature(enable = $feat)]
            pub(in super::super) fn deriv_t(
                n: usize,
                nel: usize,
                d: &[f64],
                u: &[f64],
                out: &mut [f64],
            ) {
                let n2 = n * n;
                let n3 = n2 * n;
                for e in 0..nel {
                    let ue = &u[e * n3..(e + 1) * n3];
                    let oe = &mut out[e * n3..(e + 1) * n3];
                    for k in 0..n {
                        let drow = &d[k * n..k * n + n];
                        let ocol = &mut oe[k * n2..(k + 1) * n2];
                        let d0 = drow[0];
                        let mut i = 0;
                        while i + W <= n2 {
                            let mut acc = $mul($set1(d0), ld(ue, i));
                            for (m, &dv) in drow.iter().enumerate().skip(1) {
                                acc = $add(acc, $mul($set1(dv), ld(ue, m * n2 + i)));
                            }
                            st(ocol, i, acc);
                            i += W;
                        }
                        for ii in i..n2 {
                            let mut s = d0 * ue[ii];
                            for (m, &dv) in drow.iter().enumerate().skip(1) {
                                s += dv * ue[m * n2 + ii];
                            }
                            ocol[ii] = s;
                        }
                    }
                }
            }

            /// Vectorized three-stage dealias contraction, per-output
            /// bitwise identical to `kernels::tensor3_apply_scratch`:
            /// stage 1 is `deriv_r`-style dot products (zero-init,
            /// ascending, via a transposed `J`), stages 2–3 accumulate
            /// from an explicit zero ascending over the contraction
            /// index — the same value sequence as the scalar
            /// `fill(0.0)`-then-`+=` loops.
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $feat)]
            pub(in super::super) fn tensor3(
                m: usize,
                n: usize,
                j_mat: &[f64],
                u: &[f64],
                out: &mut [f64],
                nel: usize,
                t1: &mut [f64],
                t2: &mut [f64],
            ) {
                debug_assert!(m <= MAX_SIMD_N && n <= MAX_SIMD_N);
                let mut jt = [0.0f64; MAX_SIMD_N * MAX_SIMD_N];
                for a in 0..m {
                    for mm in 0..n {
                        jt[mm * m + a] = j_mat[a * n + mm];
                    }
                }
                let n3 = n * n * n;
                let m2 = m * m;
                let m3 = m2 * m;
                for e in 0..nel {
                    let ue = &u[e * n3..(e + 1) * n3];
                    // r-direction: (m x n) * (n x n^2), dot products.
                    for c in 0..n * n {
                        let ucol = &ue[c * n..c * n + n];
                        let tcol = &mut t1[c * m..c * m + m];
                        let mut a = 0;
                        while a + W <= m {
                            let mut acc = $setzero();
                            for (mm, &um) in ucol.iter().enumerate() {
                                acc = $add(acc, $mul(ld(&jt, mm * m + a), $set1(um)));
                            }
                            st(tcol, a, acc);
                            a += W;
                        }
                        for aa in a..m {
                            let jrow = &j_mat[aa * n..aa * n + n];
                            let mut s = 0.0;
                            for (jm, um) in jrow.iter().zip(ucol) {
                                s += jm * um;
                            }
                            tcol[aa] = s;
                        }
                    }
                    // s-direction: per k-slab axpy runs of length m.
                    for k in 0..n {
                        let slab = &t1[k * m * n..(k + 1) * m * n];
                        let oslab = &mut t2[k * m2..(k + 1) * m2];
                        for b in 0..m {
                            let jrow = &j_mat[b * n..b * n + n];
                            let ocol = &mut oslab[b * m..b * m + m];
                            let mut i = 0;
                            while i + W <= m {
                                let mut acc = $setzero();
                                for (mcol, &jv) in jrow.iter().enumerate() {
                                    acc = $add(acc, $mul($set1(jv), ld(slab, mcol * m + i)));
                                }
                                st(ocol, i, acc);
                                i += W;
                            }
                            for ii in i..m {
                                let mut s = 0.0;
                                for (mcol, &jv) in jrow.iter().enumerate() {
                                    s += jv * slab[mcol * m + ii];
                                }
                                ocol[ii] = s;
                            }
                        }
                    }
                    // t-direction: axpy runs of length m^2.
                    let oe = &mut out[e * m3..(e + 1) * m3];
                    for c in 0..m {
                        let jrow = &j_mat[c * n..c * n + n];
                        let ocol = &mut oe[c * m2..(c + 1) * m2];
                        let mut i = 0;
                        while i + W <= m2 {
                            let mut acc = $setzero();
                            for (kcol, &jv) in jrow.iter().enumerate() {
                                acc = $add(acc, $mul($set1(jv), ld(t2, kcol * m2 + i)));
                            }
                            st(ocol, i, acc);
                            i += W;
                        }
                        for ii in i..m2 {
                            let mut s = 0.0;
                            for (kcol, &jv) in jrow.iter().enumerate() {
                                s += jv * t2[kcol * m2 + ii];
                            }
                            ocol[ii] = s;
                        }
                    }
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
    _mm256_mul_pd,
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
    _mm_mul_pd,
    _mm_loadu_pd,
    _mm_storeu_pd
);

/// `dudr` with the process-wide [`active_isa`].
pub fn deriv_r(n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    deriv_r_with(active_isa(), n, nel, d, u, out);
}

/// `dudr` with an explicit ISA (tests compare vector vs fallback paths).
pub fn deriv_r_with(isa: SimdIsa, n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    match clamp(isa, n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` only reaches a dispatch site after
        // `SimdIsa::available` / `detect()` confirmed the CPU supports
        // avx2 via `is_x86_feature_detected!` (the env override can
        // only lower the ISA), so the target-feature contract holds.
        SimdIsa::Avx2 => unsafe { avx2::deriv_r(n, nel, d, u, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is part of the x86_64 baseline, statically enabled
        // on every x86_64 target, so the target-feature contract holds.
        SimdIsa::Sse2 => unsafe { sse2::deriv_r(n, nel, d, u, out) },
        _ => opt::deriv_r(n, nel, d, u, out),
    }
}

/// `duds` with the process-wide [`active_isa`].
pub fn deriv_s(n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    deriv_s_with(active_isa(), n, nel, d, u, out);
}

/// `duds` with an explicit ISA.
pub fn deriv_s_with(isa: SimdIsa, n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    match clamp(isa, n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies a successful runtime
        // `is_x86_feature_detected!("avx2")` (see `deriv_r_with`).
        SimdIsa::Avx2 => unsafe { avx2::deriv_s(n, nel, d, u, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is the x86_64 baseline (see `deriv_r_with`).
        SimdIsa::Sse2 => unsafe { sse2::deriv_s(n, nel, d, u, out) },
        _ => opt::deriv_s(n, nel, d, u, out),
    }
}

/// `dudt` with the process-wide [`active_isa`].
pub fn deriv_t(n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    deriv_t_with(active_isa(), n, nel, d, u, out);
}

/// `dudt` with an explicit ISA.
pub fn deriv_t_with(isa: SimdIsa, n: usize, nel: usize, d: &[f64], u: &[f64], out: &mut [f64]) {
    match clamp(isa, n) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies a successful runtime
        // `is_x86_feature_detected!("avx2")` (see `deriv_r_with`).
        SimdIsa::Avx2 => unsafe { avx2::deriv_t(n, nel, d, u, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is the x86_64 baseline (see `deriv_r_with`).
        SimdIsa::Sse2 => unsafe { sse2::deriv_t(n, nel, d, u, out) },
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
    match clamp(isa, big) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` implies a successful runtime
        // `is_x86_feature_detected!("avx2")` (see `deriv_r_with`).
        SimdIsa::Avx2 => unsafe { avx2::tensor3(m, n, j_mat, u, out, nel, t1, t2) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sse2 is the x86_64 baseline (see `deriv_r_with`).
        SimdIsa::Sse2 => unsafe { sse2::tensor3(m, n, j_mat, u, out, nel, t1, t2) },
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

    /// ISAs runnable on this machine (always includes Scalar).
    fn runnable() -> Vec<SimdIsa> {
        SimdIsa::ALL
            .iter()
            .copied()
            .filter(|i| i.available())
            .collect()
    }

    #[test]
    fn all_isas_bitwise_match_opt_all_dirs_and_ragged_shapes() {
        // Ragged on every axis: n sweeps the full dispatch range (odd,
        // even, < lane width), nel is not a multiple of anything.
        for n in 2..=25 {
            for &nel in &[1usize, 3] {
                let b = Basis::new(n);
                let u = pseudo_random(n * n * n * nel, 17 + n as u64);
                let mut want = vec![0.0; u.len()];
                let mut got = vec![0.0; u.len()];
                type F = fn(SimdIsa, usize, usize, &[f64], &[f64], &mut [f64]);
                type G = fn(usize, usize, &[f64], &[f64], &mut [f64]);
                let pairs: [(F, G); 3] = [
                    (deriv_r_with, opt::deriv_r),
                    (deriv_s_with, opt::deriv_s),
                    (deriv_t_with, opt::deriv_t),
                ];
                for (fs, fo) in pairs {
                    fo(n, nel, &b.d, &u, &mut want);
                    for isa in runnable() {
                        got.fill(f64::NAN);
                        fs(isa, n, nel, &b.d, &u, &mut got);
                        assert_eq!(
                            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "{} n={n} nel={nel}",
                            isa.name()
                        );
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
        // Dealias up (m > n) and back down (m < n), odd/even orders.
        for &(m, n) in &[(8usize, 5usize), (5, 8), (7, 6), (3, 2), (2, 3), (13, 9)] {
            let xn = gll_nodes(n);
            let xm = gll_nodes(m);
            let j = interp_matrix(&xn, &xm);
            let nel = 3;
            let u = pseudo_random(n * n * n * nel, (m * 31 + n) as u64);
            let big = m.max(n);
            let mut t1 = vec![0.0; big * big * big];
            let mut t2 = vec![0.0; big * big * big];
            let mut want = vec![0.0; m * m * m * nel];
            scalar_tensor3(m, n, &j, &u, &mut want, nel, &mut t1, &mut t2);
            for isa in runnable() {
                let mut got = vec![f64::NAN; want.len()];
                t1.fill(f64::NAN);
                t2.fill(f64::NAN);
                tensor3_apply_scratch_with(isa, m, n, &j, &u, &mut got, nel, &mut t1, &mut t2);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} m={m} n={n}",
                    isa.name()
                );
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
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} len={len}",
                    isa.name()
                );
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
