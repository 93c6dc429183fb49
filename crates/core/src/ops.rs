//! Physical-space operators assembled from the derivative kernels.
//!
//! CMT-bone's elements are uniform Cartesian hexahedra, so the mapping from
//! the reference element `[-1,1]^3` to a physical element of extents
//! `(hx, hy, hz)` is diagonal: `d/dx = (2/hx) d/dr` etc. This module builds
//! the physical gradient, the discontinuous-Galerkin advection right-hand
//! side (volume term + upwind surface lifting), the two BR1 viscous face
//! terms and the stable timestep on top of the [`crate::kernels`] and
//! [`crate::face`] primitives. The serial reference solvers and the
//! distributed mini-app call these same functions on the volume data and
//! the exchanged own + neighbor trace sums; they differ only in how the
//! sums are exchanged.

use crate::face::{self, Face};
use crate::field::Field;
use crate::kernels::{self, DerivDir, KernelVariant};
use crate::poly::Basis;

/// Uniform Cartesian element geometry (all elements congruent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementGeom {
    /// Element extent in x.
    pub hx: f64,
    /// Element extent in y.
    pub hy: f64,
    /// Element extent in z.
    pub hz: f64,
}

impl ElementGeom {
    /// Cubic elements of edge `h`.
    pub fn cube(h: f64) -> Self {
        ElementGeom {
            hx: h,
            hy: h,
            hz: h,
        }
    }

    /// Reference-to-physical derivative scale `2/h` along `axis`
    /// (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn dscale(&self, axis: usize) -> f64 {
        2.0 / self.extent(axis)
    }

    /// Element extent along `axis`.
    #[inline]
    pub fn extent(&self, axis: usize) -> f64 {
        match axis {
            0 => self.hx,
            1 => self.hy,
            2 => self.hz,
            _ => panic!("axis must be 0..3, got {axis}"),
        }
    }
}

/// Physical gradient: `(gx, gy, gz) = ((2/hx) du/dr, (2/hy) du/ds, (2/hz) du/dt)`.
pub fn phys_grad(
    variant: KernelVariant,
    basis: &Basis,
    geom: &ElementGeom,
    u: &Field,
    gx: &mut Field,
    gy: &mut Field,
    gz: &mut Field,
) {
    kernels::grad(variant, &basis.d, u, gx, gy, gz);
    gx.scale(geom.dscale(0));
    gy.scale(geom.dscale(1));
    gz.scale(geom.dscale(2));
}

/// Volume term of the advection RHS:
/// `rhs = -(cx du/dx + cy du/dy + cz du/dz)`, computed with a single
/// scratch field (one derivative at a time, accumulated).
pub fn advect_volume_rhs(
    variant: KernelVariant,
    basis: &Basis,
    geom: &ElementGeom,
    vel: [f64; 3],
    u: &Field,
    rhs: &mut Field,
    scratch: &mut Field,
) {
    assert_eq!((u.n(), u.nel()), (rhs.n(), rhs.nel()), "rhs shape");
    assert_eq!(
        (u.n(), u.nel()),
        (scratch.n(), scratch.nel()),
        "scratch shape"
    );
    advect_volume_rhs_slices(
        variant,
        basis,
        geom,
        vel,
        u.n(),
        u.nel(),
        u.as_slice(),
        rhs.as_mut_slice(),
        scratch.as_mut_slice(),
    );
}

/// Slice form of [`advect_volume_rhs`]: `u`, `rhs`, and `scratch` are
/// `nel` contiguous elements in `Field` layout. The per-element
/// arithmetic is independent, so any element range is a valid call.
#[allow(clippy::too_many_arguments)]
pub fn advect_volume_rhs_slices(
    variant: KernelVariant,
    basis: &Basis,
    geom: &ElementGeom,
    vel: [f64; 3],
    n: usize,
    nel: usize,
    u: &[f64],
    rhs: &mut [f64],
    scratch: &mut [f64],
) {
    let n3 = n * n * n;
    assert_eq!(u.len(), n3 * nel, "u length");
    assert_eq!(rhs.len(), n3 * nel, "rhs length");
    assert_eq!(scratch.len(), n3 * nel, "scratch length");
    // Fused accumulation: the first contributing axis *assigns*
    // `0.0 + a*s` (the explicit `0.0 +` preserves the zero-fill-then-add
    // value sequence bitwise — `-0.0` inputs round-trip identically, and
    // LLVM may not fold `0.0 + x`), later axes accumulate. This removes
    // the separate zero-fill pass over `rhs` between contractions.
    let mut wrote = false;
    for (axis, dir) in [(0, DerivDir::R), (1, DerivDir::S), (2, DerivDir::T)] {
        if vel[axis] == 0.0 {
            continue;
        }
        kernels::deriv(variant, dir, n, nel, &basis.d, u, scratch);
        let a = -vel[axis] * geom.dscale(axis);
        if wrote {
            for (r, &s) in rhs.iter_mut().zip(scratch.iter()) {
                *r += a * s;
            }
        } else {
            for (r, &s) in rhs.iter_mut().zip(scratch.iter()) {
                *r = 0.0 + a * s;
            }
            wrote = true;
        }
    }
    if !wrote {
        rhs.fill(0.0); // zero velocity: no axis contributed
    }
}

/// Upwind surface lifting for constant-velocity advection in strong-form
/// DG-SEM: for every inflow face (`c . n < 0`) add
///
/// ```text
/// rhs[face node] -= (2 / h_axis) / w_end * (F*_n - F_n)
///                 = (2 / h_axis) / w_end * (-c.n) * (u_nbr - u_in)
/// ```
///
/// where `w_end` is the GLL endpoint weight. On outflow faces the upwind
/// flux equals the interior flux and the correction vanishes.
///
/// `uin` are the element's own face traces (from [`face::full2face`]) and
/// `unbr` the neighbor traces in *matching face-point order*. The
/// solvers call [`upwind_lift`], which takes what an Add exchange
/// delivers instead; both wrap the same per-face kernel.
pub fn upwind_face_correction(
    basis: &Basis,
    geom: &ElementGeom,
    vel: [f64; 3],
    uin: &[f64],
    unbr: &[f64],
    rhs: &mut Field,
) {
    let fpe = face::face_values_per_element(rhs.n());
    assert_eq!(uin.len(), fpe * rhs.nel(), "uin length");
    assert_eq!(unbr.len(), fpe * rhs.nel(), "unbr length");
    let traces = Traces::Pair {
        own: uin,
        nbr: unbr,
    };
    upwind_inflow_faces(basis, geom, vel, traces, rhs);
}

/// [`upwind_face_correction`] from the volume data `u` and `sum`, the
/// exchanged own + neighbor trace sum (an Add exchange of
/// [`face::full2face`] of `u`): each inflow face point reads its own
/// trace from `u` and recovers the neighbor trace as `sum - own`.
pub fn upwind_lift(
    basis: &Basis,
    geom: &ElementGeom,
    vel: [f64; 3],
    u: &[f64],
    sum: &[f64],
    rhs: &mut Field,
) {
    check_volume_and_sum(rhs, u, sum);
    upwind_inflow_faces(basis, geom, vel, Traces::Sum { u, sum }, rhs);
}

/// Where a lift reads a face point's own and neighbor traces.
#[derive(Clone, Copy)]
enum Traces<'a> {
    /// Both traces given, in surface layout.
    Pair { own: &'a [f64], nbr: &'a [f64] },
    /// The volume data and the exchanged own + neighbor trace sum.
    Sum { u: &'a [f64], sum: &'a [f64] },
}

/// The element and face loop of both upwind forms: each inflow face gets
/// its traces sliced out of `traces` and handed to [`upwind_face`].
fn upwind_inflow_faces(
    basis: &Basis,
    geom: &ElementGeom,
    vel: [f64; 3],
    traces: Traces,
    rhs: &mut Field,
) {
    let n = rhs.n();
    let (n2, n3) = (n * n, n * n * n);
    let fpe = face::face_values_per_element(n);
    let w_end = basis.weights[0];
    for (e, re) in rhs.as_mut_slice().chunks_exact_mut(n3).enumerate() {
        for f in Face::ALL {
            let axis = f.axis();
            let cn = vel[axis] * f.sign() as f64;
            if cn >= 0.0 {
                continue; // outflow or tangential: F* == F
            }
            let lift = geom.dscale(axis) / w_end;
            let off = e * fpe + f.index() * n2;
            match traces {
                Traces::Pair { own, nbr } => {
                    let (own, nbr) = (&own[off..][..n2], &nbr[off..][..n2]);
                    upwind_face(n, f, lift, cn, re, |p, _| (own[p], nbr[p]));
                }
                Traces::Sum { u, sum } => {
                    let (ue, sum) = (&u[e * n3..][..n3], &sum[off..][..n2]);
                    upwind_face(n, f, lift, cn, re, |p, i| {
                        let own = ue[i];
                        (own, sum[p] - own)
                    });
                }
            }
        }
    }
}

/// The upwind correction on one inflow face `f` of one element (`re` is
/// its RHS): `trace(p, i)` gives the own and neighbor trace of face point
/// `p`, whose volume index is `i`.
#[inline(always)]
fn upwind_face(
    n: usize,
    f: Face,
    lift: f64,
    cn: f64,
    re: &mut [f64],
    trace: impl Fn(usize, usize) -> (f64, f64),
) {
    face::for_each_face_index(n, f, |p, i| {
        let (own, nbr) = trace(p, i);
        let jump = nbr - own;
        // -(2/h)/w * (F*_n - F_n) with F*_n - F_n = cn * jump
        re[i] += -lift * cn * jump;
    });
}

/// BR1 gradient lift on the two faces normal to `axis`. On entry `q`
/// holds the volume part `dscale_axis D_axis u`; the central trace
/// `u* = (u_in + u_nbr) / 2` then adds
///
/// ```text
/// q[face node] += (2 / h_axis) / w_end * sign * (u* - u_in)
///               = (2 / h_axis) / w_end * sign * (u_nbr - u_in) / 2
/// ```
///
/// `u` is the volume data and `sum` its exchanged trace sum, as for
/// [`upwind_lift`].
pub fn br1_gradient_lift(
    basis: &Basis,
    geom: &ElementGeom,
    axis: usize,
    u: &[f64],
    sum: &[f64],
    q: &mut Field,
) {
    let lift = geom.dscale(axis) / basis.weights[0];
    for_each_axis_face_point(axis, u, sum, q, |sign, own, nbr, q| {
        *q += lift * sign * (0.5 * (nbr - own));
    });
}

/// BR1 central viscous-flux correction on the two faces normal to `axis`,
/// for `u_t = ... + div(nu q)`: the interior flux `F_n = sign nu q_in` is
/// replaced by the central `F*_n = sign nu (q_in + q_nbr) / 2`,
///
/// ```text
/// rhs[face node] += (2 / h_axis) / w_end * (F*_n - F_n)
///                 = (2 / h_axis) / w_end * sign * nu * (q_nbr - q_in) / 2
/// ```
///
/// `q` is the gradient component `q_axis` and `qsum` its exchanged trace
/// sum, as for [`upwind_lift`].
pub fn br1_central_correction(
    basis: &Basis,
    geom: &ElementGeom,
    axis: usize,
    nu: f64,
    q: &[f64],
    qsum: &[f64],
    rhs: &mut Field,
) {
    let lift = geom.dscale(axis) / basis.weights[0];
    for_each_axis_face_point(axis, q, qsum, rhs, |sign, own, nbr, r| {
        *r += lift * sign * nu * 0.5 * (nbr - own);
    });
}

/// Walk the two faces normal to `axis` of every element of `out`, handing
/// `visit` the face's sign, the point's own trace (read from the volume
/// data `u`) and neighbor trace (`sum - own`), and the value of `out`
/// under it.
fn for_each_axis_face_point(
    axis: usize,
    u: &[f64],
    sum: &[f64],
    out: &mut Field,
    mut visit: impl FnMut(f64, f64, f64, &mut f64),
) {
    check_volume_and_sum(out, u, sum);
    let n = out.n();
    let (n2, n3) = (n * n, n * n * n);
    let fpe = face::face_values_per_element(n);
    for (e, (oe, ue)) in out
        .as_mut_slice()
        .chunks_exact_mut(n3)
        .zip(u.chunks_exact(n3))
        .enumerate()
    {
        for f in [Face::from_index(2 * axis), Face::from_index(2 * axis + 1)] {
            let sign = f.sign() as f64;
            let se = &sum[e * fpe + f.index() * n2..][..n2];
            face::for_each_face_index(n, f, |p, i| {
                let own = ue[i];
                visit(sign, own, se[p] - own, &mut oe[i]);
            });
        }
    }
}

/// Length checks of the (volume, trace sum) pair a lift reads against
/// the field it writes.
fn check_volume_and_sum(out: &Field, u: &[f64], sum: &[f64]) {
    let n = out.n();
    assert_eq!(u.len(), n * n * n * out.nel(), "volume length");
    assert_eq!(
        sum.len(),
        face::face_values_per_element(n) * out.nel(),
        "trace sum length"
    );
}

/// CFL-stable timestep on congruent elements of order `n`: per axis the
/// advective limit `cfl h / (N^2 |c|)` (GLL spacing near the endpoints
/// scales like `h / N^2`) and, for `nu > 0`, the diffusive limit
/// `cfl h^2 / (N^4 nu)`. With neither limit active it is `cfl` itself.
pub fn stable_dt(n: usize, geom: &ElementGeom, velocity: [f64; 3], nu: f64, cfl: f64) -> f64 {
    let n2 = (n * n) as f64;
    let mut dt = f64::INFINITY;
    for axis in 0..3 {
        let h = geom.extent(axis);
        let c = velocity[axis].abs();
        if c > 0.0 {
            dt = dt.min(cfl * h / (n2 * c));
        }
        if nu > 0.0 {
            dt = dt.min(cfl * h * h / (n2 * n2 * nu));
        }
    }
    if dt.is_finite() {
        dt
    } else {
        cfl
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn phys_grad_scales_reference_gradient() {
        let n = 5;
        let basis = Basis::new(n);
        let geom = ElementGeom {
            hx: 2.0,
            hy: 0.5,
            hz: 4.0,
        };
        // u = r + s + t on the reference element
        let x = basis.nodes.clone();
        let u = Field::from_fn(n, 1, |_, i, j, k| x[i] + x[j] + x[k]);
        let mut gx = Field::zeros(n, 1);
        let mut gy = Field::zeros(n, 1);
        let mut gz = Field::zeros(n, 1);
        phys_grad(
            KernelVariant::Optimized,
            &basis,
            &geom,
            &u,
            &mut gx,
            &mut gy,
            &mut gz,
        );
        assert!(gx.as_slice().iter().all(|v| (v - 1.0).abs() < 1e-11));
        assert!(gy.as_slice().iter().all(|v| (v - 4.0).abs() < 1e-11));
        assert!(gz.as_slice().iter().all(|v| (v - 0.5).abs() < 1e-11));
    }

    #[test]
    fn advect_volume_rhs_matches_analytic() {
        let n = 6;
        let basis = Basis::new(n);
        let geom = ElementGeom::cube(2.0); // dscale = 1, physical == reference
        let x = basis.nodes.clone();
        // u = x^2 - 2 y + z, c = (1, 2, 3): rhs = -(2x - 4 + 3)
        let u = Field::from_fn(n, 1, |_, i, j, k| x[i] * x[i] - 2.0 * x[j] + x[k]);
        let mut rhs = Field::zeros(n, 1);
        let mut scratch = Field::zeros(n, 1);
        advect_volume_rhs(
            KernelVariant::Simd,
            &basis,
            &geom,
            [1.0, 2.0, 3.0],
            &u,
            &mut rhs,
            &mut scratch,
        );
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let want = -(2.0 * x[i] - 4.0 + 3.0);
                    let got = rhs.get(0, i, j, k);
                    assert!((got - want).abs() < 1e-10, "{got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn zero_velocity_gives_zero_rhs() {
        let basis = Basis::new(4);
        let geom = ElementGeom::cube(1.0);
        let u = Field::from_fn(4, 2, |_, i, j, k| (i * j + k) as f64);
        let mut rhs = Field::from_fn(4, 2, |_, _, _, _| 9.0);
        let mut scratch = Field::zeros(4, 2);
        advect_volume_rhs(
            KernelVariant::Basic,
            &basis,
            &geom,
            [0.0, 0.0, 0.0],
            &u,
            &mut rhs,
            &mut scratch,
        );
        assert!(rhs.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn upwind_correction_vanishes_when_traces_agree() {
        let n = 4;
        let basis = Basis::new(n);
        let geom = ElementGeom::cube(1.0);
        let u = Field::from_fn(n, 2, |e, i, j, k| (e + i + j + k) as f64);
        let mut faces = vec![0.0; face::face_values_per_element(n) * 2];
        face::full2face(n, 2, u.as_slice(), &mut faces);
        let mut rhs = Field::zeros(n, 2);
        upwind_face_correction(&basis, &geom, [1.0, -0.5, 2.0], &faces, &faces, &mut rhs);
        assert!(rhs.as_slice().iter().all(|&v| v == 0.0));
    }

    /// The loop `upwind_face_correction` had before the stride-table
    /// walk: a `%`, a `/` and an indexed write per face point.
    fn old_upwind_face_correction(
        basis: &Basis,
        geom: &ElementGeom,
        vel: [f64; 3],
        uin: &[f64],
        unbr: &[f64],
        rhs: &mut Field,
    ) {
        let (n, nel) = (rhs.n(), rhs.nel());
        let n2 = n * n;
        let fpe = face::face_values_per_element(n);
        let w_end = basis.weights[0];
        for e in 0..nel {
            for f in Face::ALL {
                let axis = f.axis();
                let cn = vel[axis] * f.sign() as f64;
                if cn >= 0.0 {
                    continue;
                }
                let lift = geom.dscale(axis) / w_end;
                let off = e * fpe + f.index() * n2;
                for p in 0..n2 {
                    let jump = unbr[off + p] - uin[off + p];
                    let corr = -lift * cn * jump;
                    let (a, b, last) = (p % n, p / n, n - 1);
                    let (i, j, k) = match f {
                        Face::RMinus => (0, a, b),
                        Face::RPlus => (last, a, b),
                        Face::SMinus => (a, 0, b),
                        Face::SPlus => (a, last, b),
                        Face::TMinus => (a, b, 0),
                        Face::TPlus => (a, b, last),
                    };
                    rhs.as_mut_slice()[e * n * n2 + (k * n + j) * n + i] += corr;
                }
            }
        }
    }

    #[test]
    fn upwind_correction_is_bitwise_the_old_loop() {
        for (n, vel) in [
            (2, [0.7, -0.4, 0.9]),
            (5, [-0.3, 0.6, -0.8]),
            (7, [0.5, 0.5, 0.0]),
        ] {
            let nel = 3;
            let basis = Basis::new(n);
            let geom = ElementGeom {
                hx: 0.5,
                hy: 1.25,
                hz: 2.0,
            };
            let len = face::face_values_per_element(n) * nel;
            let uin: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let unbr: Vec<f64> = (0..len).map(|i| (i as f64 * 0.91).cos() / 3.0).collect();
            let start = Field::from_fn(n, nel, |e, i, j, k| {
                0.1 * (e + 2 * i + 3 * j + 5 * k) as f64
            });
            let (mut new, mut old) = (start.clone(), start);
            upwind_face_correction(&basis, &geom, vel, &uin, &unbr, &mut new);
            old_upwind_face_correction(&basis, &geom, vel, &uin, &unbr, &mut old);
            let bits = |f: &Field| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&new), bits(&old), "n={n}");
        }
    }

    #[test]
    fn stable_dt_takes_the_tighter_limit() {
        let geom = ElementGeom::cube(1.0);
        let advective = stable_dt(6, &geom, [0.8, -0.5, 0.3], 0.0, 0.25);
        assert_eq!(advective, 0.25 / (36.0 * 0.8));
        assert!(stable_dt(6, &geom, [0.8, -0.5, 0.3], 0.5, 0.25) < advective);
        assert_eq!(stable_dt(6, &geom, [0.0; 3], 0.0, 0.25), 0.25);
    }

    #[test]
    fn br1_terms_vanish_when_traces_agree_and_touch_only_their_axis() {
        let n = 4;
        let basis = Basis::new(n);
        let geom = ElementGeom::cube(1.0);
        let u = Field::from_fn(n, 2, |e, i, j, k| {
            ((e + 3 * i + 5 * j + 7 * k) as f64).sin()
        });
        let mut own = vec![0.0; face::face_values_per_element(n) * 2];
        face::full2face(n, 2, u.as_slice(), &mut own);
        // a neighbor equal to the own trace: the sum is twice the trace
        let agree: Vec<f64> = own.iter().map(|v| 2.0 * v).collect();
        let mut q = Field::zeros(n, 2);
        br1_gradient_lift(&basis, &geom, 1, u.as_slice(), &agree, &mut q);
        br1_central_correction(&basis, &geom, 1, 0.7, u.as_slice(), &agree, &mut q);
        assert!(q.as_slice().iter().all(|&v| v == 0.0));
        // a unit jump lifts sign * (1 or nu) / 2 onto the s-faces only
        let jump: Vec<f64> = own.iter().map(|v| 2.0 * v + 1.0).collect();
        let mut corr = Field::zeros(n, 2);
        br1_gradient_lift(&basis, &geom, 1, u.as_slice(), &jump, &mut q);
        br1_central_correction(&basis, &geom, 1, 0.7, u.as_slice(), &jump, &mut corr);
        let lift = geom.dscale(1) / basis.weights[0];
        for (field, scale) in [(&q, 1.0), (&corr, 0.7)] {
            for e in 0..2 {
                for k in 0..n {
                    for j in 0..n {
                        for i in 0..n {
                            let sign = match j {
                                0 => -1.0,
                                j if j == n - 1 => 1.0,
                                _ => 0.0,
                            };
                            let want = sign * scale * 0.5 * lift;
                            assert!((field.get(e, i, j, k) - want).abs() < 1e-12);
                        }
                    }
                }
            }
        }
    }

    /// Pseudo-random values in `[-1, 1)` (xorshift64*), so the kernel
    /// checks below see no structure a face walk could hide behind.
    pub(crate) fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
                (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    /// Volume data, its own traces and an Add-exchange trace sum with
    /// pseudo-random neighbor traces: what a lift sees after the exchange.
    fn volume_and_sum(n: usize, nel: usize, seed: u64) -> (Field, Vec<f64>, Vec<f64>) {
        let u = noise(n * n * n * nel, seed);
        let mut own = vec![0.0; face::face_values_per_element(n) * nel];
        face::full2face(n, nel, &u, &mut own);
        let nbr = noise(own.len(), seed + 1);
        let sum = own.iter().zip(&nbr).map(|(o, b)| o + b).collect();
        let mut field = Field::zeros(n, nel);
        field.as_mut_slice().copy_from_slice(&u);
        (field, own, sum)
    }

    /// The neighbor traces the exchange sum stands for, recovered the way
    /// the solvers did before the lifts took the sum: `sum - own`.
    pub(crate) fn recovered(own: &[f64], sum: &[f64]) -> Vec<f64> {
        sum.iter().zip(own).map(|(s, o)| s - o).collect()
    }

    fn bits(f: &Field) -> Vec<u64> {
        f.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The BR1 lifts as they were when they took own and neighbor traces.
    fn old_br1_walk(
        axis: usize,
        own: &[f64],
        nbr: &[f64],
        out: &mut Field,
        mut visit: impl FnMut(f64, f64, f64, &mut f64),
    ) {
        let n = out.n();
        let n2 = n * n;
        let fpe = face::face_values_per_element(n);
        for (e, ue) in out.as_mut_slice().chunks_exact_mut(n * n2).enumerate() {
            for f in [Face::from_index(2 * axis), Face::from_index(2 * axis + 1)] {
                let sign = f.sign() as f64;
                let off = e * fpe + f.index() * n2;
                let (own, nbr) = (&own[off..off + n2], &nbr[off..off + n2]);
                face::for_each_face_point(n, f, ue, |p, v| visit(sign, own[p], nbr[p], v));
            }
        }
    }

    #[test]
    fn upwind_lift_is_bitwise_the_recovered_trace_path() {
        let (n, nel) = (5, 4);
        let basis = Basis::new(n);
        let geom = ElementGeom {
            hx: 0.5,
            hy: 1.25,
            hz: 2.0,
        };
        // each face alone the inflow one, then every sign pattern of a
        // full velocity (three inflow faces, one per axis)
        let mut velocities: Vec<[f64; 3]> = Face::ALL
            .iter()
            .map(|f| {
                let mut v = [0.0; 3];
                v[f.axis()] = -0.7 * f.sign() as f64;
                v
            })
            .collect();
        velocities.extend((0..8).map(|m| {
            let s = |bit: usize| if m >> bit & 1 == 0 { 1.0 } else { -1.0 };
            [0.8 * s(0), 0.53 * s(1), 0.31 * s(2)]
        }));
        for (seed, vel) in velocities.into_iter().enumerate() {
            let (u, own, sum) = volume_and_sum(n, nel, 10 + seed as u64);
            let start = Field::from_fn(n, nel, |e, i, j, k| {
                0.1 * (e + 2 * i + 3 * j + 5 * k) as f64
            });
            let (mut new, mut old) = (start.clone(), start.clone());
            upwind_lift(&basis, &geom, vel, u.as_slice(), &sum, &mut new);
            let nbr = recovered(&own, &sum);
            upwind_face_correction(&basis, &geom, vel, &own, &nbr, &mut old);
            assert_eq!(bits(&new), bits(&old), "vel={vel:?}");
            assert_ne!(bits(&new), bits(&start), "vel={vel:?}: no face lifted");
        }
    }

    #[test]
    fn br1_lifts_are_bitwise_the_recovered_trace_path() {
        let (n, nel) = (5, 4);
        let basis = Basis::new(n);
        let geom = ElementGeom {
            hx: 0.5,
            hy: 1.25,
            hz: 2.0,
        };
        let nu = 0.02;
        for axis in 0..3 {
            let (u, own, sum) = volume_and_sum(n, nel, 40 + axis as u64);
            let nbr = recovered(&own, &sum);
            let lift = geom.dscale(axis) / basis.weights[0];
            let start = Field::from_fn(n, nel, |e, i, j, k| {
                0.1 * (e + 2 * i + 3 * j + 5 * k) as f64
            });

            let (mut new, mut old) = (start.clone(), start.clone());
            br1_gradient_lift(&basis, &geom, axis, u.as_slice(), &sum, &mut new);
            old_br1_walk(axis, &own, &nbr, &mut old, |sign, own, nbr, q| {
                *q += lift * sign * (0.5 * (nbr - own));
            });
            assert_eq!(bits(&new), bits(&old), "gradient lift, axis {axis}");
            assert_ne!(bits(&new), bits(&start));

            let (mut new, mut old) = (start.clone(), start.clone());
            br1_central_correction(&basis, &geom, axis, nu, u.as_slice(), &sum, &mut new);
            old_br1_walk(axis, &own, &nbr, &mut old, |sign, own, nbr, r| {
                *r += lift * sign * nu * 0.5 * (nbr - own);
            });
            assert_eq!(bits(&new), bits(&old), "central correction, axis {axis}");
            assert_ne!(bits(&new), bits(&start));
        }
    }

    #[test]
    fn upwind_correction_only_touches_inflow_faces() {
        let n = 3;
        let basis = Basis::new(n);
        let geom = ElementGeom::cube(2.0);
        let uin = vec![0.0; face::face_values_per_element(n)];
        let mut unbr = vec![0.0; face::face_values_per_element(n)];
        // put a nonzero neighbor value on every face; with c = (+1, 0, 0)
        // only face RMinus (index 0) is inflow.
        for v in unbr.iter_mut() {
            *v = 1.0;
        }
        let mut rhs = Field::zeros(n, 1);
        upwind_face_correction(&basis, &geom, [1.0, 0.0, 0.0], &uin, &unbr, &mut rhs);
        let w_end = basis.weights[0];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let got = rhs.get(0, i, j, k);
                    if i == 0 {
                        // lift = (2/h)/w * (-cn) * jump = 1/w * 1 * 1
                        let want = 1.0 / w_end;
                        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
                    } else {
                        assert_eq!(got, 0.0, "non-inflow node touched at i={i}");
                    }
                }
            }
        }
    }
}
