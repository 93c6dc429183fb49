//! Workspace-level property-based tests: randomized inputs against
//! invariants that span crates. Each property runs a fixed number of
//! seeded trials (`simmpi::rng::SmallRng`), so failures reproduce exactly.

use cmt_core::kernels::{deriv, tensor3_apply, DerivDir, KernelVariant};
use cmt_core::poly::{gll_nodes, interp_matrix, Basis};
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_mesh::{balanced_factor3, MeshConfig, RankMesh};
use simmpi::rng::SmallRng;
use simmpi::{ReduceOp, World};
use std::collections::HashMap;

/// All kernel variants agree on random data for random shapes.
#[test]
fn kernel_variants_agree() {
    let mut rng = SmallRng::seed_from_u64(0x7E57_0001);
    for _ in 0..24 {
        let n = rng.range_usize(2, 14);
        let nel = rng.range_usize(1, 5);
        let basis = Basis::new(n);
        let u: Vec<f64> = (0..n * n * n * nel)
            .map(|_| rng.range_f64(-1.0, 1.0))
            .collect();
        for dir in DerivDir::ALL {
            let mut base: Option<Vec<f64>> = None;
            for variant in KernelVariant::ALL {
                let mut out = vec![0.0; u.len()];
                deriv(variant, dir, n, nel, &basis.d, &u, &mut out);
                match &base {
                    None => base = Some(out),
                    Some(b) => {
                        for (x, y) in b.iter().zip(&out) {
                            assert!((x - y).abs() < 1e-10 * (1.0 + x.abs()));
                        }
                    }
                }
            }
        }
    }
}

/// The simd tier's ISA ladder: every instruction set the host supports
/// — and the forced scalar fallback — produces results bitwise
/// identical to the `opt` reference, for all three derivative
/// directions, the dealias contractions (both up- and down-sampling),
/// and the fused RK stage update, across the paper's N range and ragged
/// element counts. This is the lane-parallel determinism contract: the
/// vector units only ever change *which outputs* are computed together,
/// never the per-output accumulation order.
#[test]
fn simd_isas_are_bitwise_identical_to_opt_including_dealias() {
    use cmt_core::kernels::simd::{self, SimdIsa};
    use cmt_core::kernels::tensor3_apply_scratch;
    let mut rng = SmallRng::seed_from_u64(0x7E57_0009);
    let isas: Vec<SimdIsa> = SimdIsa::ALL.into_iter().filter(|i| i.available()).collect();
    assert!(
        isas.contains(&SimdIsa::Scalar),
        "scalar fallback must always be available"
    );
    for n in 2usize..=25 {
        // ragged counts: never a multiple of either vector width
        for nel in [1usize, 3, 7] {
            let n3 = n * n * n;
            let basis = Basis::new(n);
            let u: Vec<f64> = (0..n3 * nel).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            for (dir, simd_deriv) in [
                (
                    DerivDir::R,
                    simd::deriv_r_with as fn(SimdIsa, usize, usize, &[f64], &[f64], &mut [f64]),
                ),
                (DerivDir::S, simd::deriv_s_with),
                (DerivDir::T, simd::deriv_t_with),
            ] {
                let mut reference = vec![0.0; u.len()];
                deriv(
                    KernelVariant::Optimized,
                    dir,
                    n,
                    nel,
                    &basis.d,
                    &u,
                    &mut reference,
                );
                for &isa in &isas {
                    let mut out = vec![0.0; u.len()];
                    simd_deriv(isa, n, nel, &basis.d, &u, &mut out);
                    assert_eq!(reference, out, "n={n} nel={nel} {dir:?} {isa:?}");
                }
            }
            // dealias round trip: up to the fine mesh and back down
            let m = n + 3;
            let xn = gll_nodes(n);
            let xm = gll_nodes(m);
            let up = interp_matrix(&xn, &xm);
            let down = interp_matrix(&xm, &xn);
            let big3 = m * m * m;
            let (mut t1, mut t2) = (vec![0.0; big3], vec![0.0; big3]);
            let mut fine_ref = vec![0.0; big3 * nel];
            tensor3_apply_scratch(m, n, &up, &u, &mut fine_ref, nel, &mut t1, &mut t2);
            let mut coarse_ref = vec![0.0; n3 * nel];
            tensor3_apply_scratch(
                n,
                m,
                &down,
                &fine_ref,
                &mut coarse_ref,
                nel,
                &mut t1,
                &mut t2,
            );
            for &isa in &isas {
                let mut fine = vec![0.0; big3 * nel];
                simd::tensor3_apply_scratch_with(
                    isa, m, n, &up, &u, &mut fine, nel, &mut t1, &mut t2,
                );
                assert_eq!(fine_ref, fine, "n={n}->m={m} nel={nel} {isa:?}");
                let mut coarse = vec![0.0; n3 * nel];
                simd::tensor3_apply_scratch_with(
                    isa,
                    n,
                    m,
                    &down,
                    &fine,
                    &mut coarse,
                    nel,
                    &mut t1,
                    &mut t2,
                );
                assert_eq!(coarse_ref, coarse, "m={m}->n={n} nel={nel} {isa:?}");
            }
            // fused RK stage update
            let u0: Vec<f64> = (0..n3 * nel).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let rhs: Vec<f64> = (0..n3 * nel).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let (a, b, cdt) = (0.3, 0.7, 0.01);
            let mut scalar = u.clone();
            for i in 0..scalar.len() {
                scalar[i] = a * u0[i] + b * scalar[i] + cdt * rhs[i];
            }
            for &isa in &isas {
                let mut v = u.clone();
                simd::rk_stage_update_with(isa, a, b, cdt, &mut v, &u0, &rhs);
                assert_eq!(scalar, v, "rk stage n={n} nel={nel} {isa:?}");
            }
        }
    }
}

/// Differentiating after interpolating to a finer GLL mesh agrees
/// with interpolating the derivative (both exact for polynomial data).
#[test]
fn dealias_commutes_with_derivative_on_polynomials() {
    for deg in 0usize..4 {
        let n = 5;
        let m = 8;
        let xn = gll_nodes(n);
        let xm = gll_nodes(m);
        let up = interp_matrix(&xn, &xm);
        let bn = Basis::new(n);
        let bm = Basis::new(m);
        // u = x^deg (function of r only)
        let u: Vec<f64> = {
            let mut v = vec![0.0; n * n * n];
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        v[(k * n + j) * n + i] = xn[i].powi(deg as i32);
                    }
                }
            }
            v
        };
        // path A: interpolate then differentiate on fine mesh
        let mut fine = vec![0.0; m * m * m];
        tensor3_apply(m, n, &up, &u, &mut fine, 1);
        let mut da = vec![0.0; m * m * m];
        deriv(
            KernelVariant::Optimized,
            DerivDir::R,
            m,
            1,
            &bm.d,
            &fine,
            &mut da,
        );
        // path B: differentiate then interpolate
        let mut du = vec![0.0; n * n * n];
        deriv(
            KernelVariant::Optimized,
            DerivDir::R,
            n,
            1,
            &bn.d,
            &u,
            &mut du,
        );
        let mut db = vec![0.0; m * m * m];
        tensor3_apply(m, n, &up, &du, &mut db, 1);
        for (a, b) in da.iter().zip(&db) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }
}

/// balanced_factor3 always factors exactly and near-cubically.
#[test]
fn factor3_exact() {
    for v in 1usize..4096 {
        let f = balanced_factor3(v);
        assert_eq!(f[0] * f[1] * f[2], v);
        assert!(f[0] >= f[1] && f[1] >= f[2]);
    }
}

/// gs_op(Add) equals a dense serial reference on random id maps, for
/// every method, on random world sizes.
#[test]
fn gs_matches_dense_reference() {
    let mut rng = SmallRng::seed_from_u64(0x7E57_0002);
    for _ in 0..24 {
        let p = rng.range_usize(1, 5);
        let universe = rng.range_u64(2, 20);
        let nlens = rng.range_usize(1, 5);
        let lens: Vec<usize> = (0..nlens).map(|_| rng.range_usize(1, 25)).collect();
        let ids: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                let len = lens[r % lens.len()];
                (0..len).map(|_| rng.range_u64(0, universe)).collect()
            })
            .collect();
        let vals: Vec<Vec<f64>> = ids
            .iter()
            .map(|v| {
                v.iter()
                    .map(|_| (rng.next_u64() % 17) as f64 - 8.0)
                    .collect()
            })
            .collect();
        let mut combined: HashMap<u64, f64> = HashMap::new();
        for (idv, valv) in ids.iter().zip(&vals) {
            for (&g, &v) in idv.iter().zip(valv) {
                *combined.entry(g).or_insert(0.0) += v;
            }
        }
        for method in GsMethod::ALL {
            let ids_c = ids.clone();
            let vals_c = vals.clone();
            let res = World::new().run(p, move |rank| {
                let mut v = vals_c[rank.rank()].clone();
                let handle = GsHandle::setup(rank, &ids_c[rank.rank()]);
                handle.gs_op(rank, &mut v, GsOp::Add, method);
                v
            });
            for (r, got) in res.results.iter().enumerate() {
                for (i, g) in got.iter().enumerate() {
                    let want = combined[&ids[r][i]];
                    assert!(
                        (g - want).abs() < 1e-9 * (1.0 + want.abs()),
                        "{method:?} rank {r} slot {i}: {g} vs {want}"
                    );
                }
            }
        }
    }
}

/// The split-phase pair (gs_op_start + overlap compute + gs_op_finish)
/// is bitwise identical to the blocking gs_op, for every method, on
/// random multi-field batches, id maps, and world sizes.
#[test]
fn split_phase_gs_is_bitwise_identical_to_blocking() {
    let mut rng = SmallRng::seed_from_u64(0x7E57_0007);
    for _ in 0..12 {
        let p = rng.range_usize(1, 6);
        let universe = rng.range_u64(2, 18);
        let k = rng.range_usize(1, 5); // fields per batched exchange
        let ids: Vec<Vec<u64>> = (0..p)
            .map(|_| {
                let len = rng.range_usize(1, 21);
                (0..len).map(|_| rng.range_u64(0, universe)).collect()
            })
            .collect();
        let vals: Vec<Vec<Vec<f64>>> = ids
            .iter()
            .map(|idv| {
                (0..k)
                    .map(|_| idv.iter().map(|_| rng.range_f64(-4.0, 4.0)).collect())
                    .collect()
            })
            .collect();
        for method in GsMethod::ALL {
            let ids_c = ids.clone();
            let vals_c = vals.clone();
            let res = World::new().run(p, move |rank| {
                let me = rank.rank();
                let handle = GsHandle::setup(rank, &ids_c[me]);
                // blocking reference: one gs_op per field
                let mut blocking = vals_c[me].clone();
                for f in blocking.iter_mut() {
                    handle.gs_op(rank, f, GsOp::Add, method);
                }
                // split-phase: one batched start, compute, one finish
                let mut split = vals_c[me].clone();
                let views: Vec<&[f64]> = split.iter().map(|f| f.as_slice()).collect();
                let pending = handle.gs_op_start(rank, &views, GsOp::Add, method);
                let burn: f64 = split.iter().flatten().map(|v| v * v).sum();
                assert!(burn.is_finite());
                let mut outs: Vec<&mut [f64]> =
                    split.iter_mut().map(|f| f.as_mut_slice()).collect();
                handle.gs_op_finish(rank, pending, &mut outs);
                (blocking, split)
            });
            for (r, (blocking, split)) in res.results.iter().enumerate() {
                assert_eq!(blocking, split, "{method:?} p={p} k={k} rank {r}");
            }
        }
    }
}

/// Crystal router delivers exactly the messages alltoallv does, for
/// random sparse patterns and world sizes (incl. non-powers-of-two).
#[test]
fn crystal_router_equals_alltoallv() {
    let mut rng = SmallRng::seed_from_u64(0x7E57_0003);
    for _ in 0..24 {
        let p = rng.range_usize(1, 7);
        let pattern: Vec<bool> = (0..36).map(|_| rng.bool()).collect();
        let seed = rng.next_u64();
        let res = World::new().run(p, move |rank| {
            let me = rank.rank();
            let pp = rank.size();
            // sends[q]: payload iff pattern bit set
            let sends: Vec<Vec<u64>> = (0..pp)
                .map(|q| {
                    if pattern[(me * pp + q) % pattern.len()] {
                        vec![seed ^ ((me * 100 + q) as u64), 7]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let via_a2a = rank.alltoallv(sends.clone());
            let outgoing: Vec<(usize, Vec<u64>)> = sends
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_empty())
                .map(|(q, v)| (q, v.clone()))
                .collect();
            let mut via_cr: Vec<Vec<u64>> = vec![Vec::new(); pp];
            for (src, data) in rank.crystal_router(outgoing) {
                via_cr[src] = data;
            }
            (via_a2a, via_cr)
        });
        for (a2a, cr) in &res.results {
            assert_eq!(a2a, cr);
        }
    }
}

/// allreduce equals the serial fold for random vectors, sizes and ops,
/// for `f64` and `u64` alike. Lengths reach past the inline limit, so
/// pooled payloads run through the tree too. The inputs are integers, so
/// the fold is exact and the results must match bit for bit.
#[test]
fn allreduce_matches_serial_fold() {
    let mut rng = SmallRng::seed_from_u64(0x7E57_0004);
    for trial in 0..24 {
        let p = rng.range_usize(1, 7);
        let len = rng.range_usize(1, 65);
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][trial % 3];
        let seed = rng.next_u64();
        let ints: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                (0..len)
                    .map(|i| seed.wrapping_mul(r as u64 * 31 + i as u64 + 1) % 1000)
                    .collect()
            })
            .collect();
        let floats: Vec<Vec<f64>> = ints
            .iter()
            .map(|row| row.iter().map(|&v| v as f64 - 500.0).collect())
            .collect();
        let fold_f64 = |rows: &[Vec<f64>]| {
            let mut acc = rows[0].clone();
            for row in &rows[1..] {
                for (a, v) in acc.iter_mut().zip(row) {
                    *a = op.apply_f64(*a, *v);
                }
            }
            acc
        };
        let fold_u64 = |rows: &[Vec<u64>]| {
            let mut acc = rows[0].clone();
            for row in &rows[1..] {
                for (a, v) in acc.iter_mut().zip(row) {
                    *a = op.apply_u64(*a, *v);
                }
            }
            acc
        };
        let (expect_f64, expect_u64) = (fold_f64(&floats), fold_u64(&ints));
        let res = World::new().run(p, |rank| {
            let me = rank.rank();
            (
                rank.allreduce_f64(&floats[me], op),
                rank.allreduce_u64(&ints[me], op),
            )
        });
        for (got_f64, got_u64) in &res.results {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got_f64), bits(&expect_f64), "p={p} len={len}");
            assert_eq!(got_u64, &expect_u64, "p={p} len={len}");
        }
    }
}

/// Free-stream preservation (well-balancedness): any admissible
/// uniform state is an exact steady solution of the Euler DG
/// discretization, whatever the mesh shape and kernel variant.
#[test]
fn euler_preserves_random_uniform_states() {
    use cmt_repro::cmt_core::eos::Primitive;
    use cmt_repro::cmt_core::euler::{EulerConfig, EulerSolver};
    use cmt_repro::cmt_core::KernelVariant;
    let mut rng = SmallRng::seed_from_u64(0x7E57_0005);
    for trial in 0..8 {
        let rho = rng.range_f64(0.1, 5.0);
        let u = rng.range_f64(-2.0, 2.0);
        let v = rng.range_f64(-2.0, 2.0);
        let w = rng.range_f64(-2.0, 2.0);
        let p = rng.range_f64(0.1, 5.0);
        let n = rng.range_usize(3, 7);
        let mut s = EulerSolver::new(EulerConfig {
            n,
            elems: [2, 1, 2],
            variant: KernelVariant::ALL[trial % KernelVariant::ALL.len()],
            ..Default::default()
        });
        s.init(|_, _, _| Primitive {
            rho,
            vel: [u, v, w],
            p,
        });
        let dt = s.stable_dt(0.3);
        for _ in 0..3 {
            s.step(dt);
        }
        let expect = cmt_repro::cmt_core::eos::IdealGas::default().conserved(Primitive {
            rho,
            vel: [u, v, w],
            p,
        });
        for (c, &want) in expect.iter().enumerate() {
            for &got in s.state()[c].as_slice() {
                assert!(
                    (got - want).abs() < 1e-10 * (1.0 + want.abs()),
                    "field {c}: {got} vs {want}"
                );
            }
        }
    }
}

/// Mesh invariants on random shapes: ownership partitions, neighbor
/// symmetry, face-gid pairing.
#[test]
fn mesh_invariants() {
    let mut rng = SmallRng::seed_from_u64(0x7E57_0006);
    for _ in 0..24 {
        let cfg = MeshConfig {
            n: rng.range_usize(2, 6),
            proc_dims: [
                rng.range_usize(1, 4),
                rng.range_usize(1, 4),
                rng.range_usize(1, 3),
            ],
            local_elems: [
                rng.range_usize(1, 4),
                rng.range_usize(1, 4),
                rng.range_usize(1, 3),
            ],
            periodic: rng.bool(),
        };
        let periodic = cfg.periodic;
        let meshes: Vec<RankMesh> = (0..cfg.ranks())
            .map(|r| RankMesh::new(cfg.clone(), r))
            .collect();
        // ownership partition
        let mut seen = vec![false; cfg.total_elems()];
        for m in &meshes {
            for le in 0..m.nel() {
                let gid = m.global_elem_id(le);
                assert!(!seen[gid]);
                seen[gid] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // neighbor symmetry
        use cmt_core::face::Face;
        use cmt_mesh::Neighbor;
        for m in &meshes {
            for le in 0..m.nel() {
                for f in Face::ALL {
                    match m.neighbor(le, f) {
                        Neighbor::Boundary => assert!(!periodic),
                        Neighbor::Local(e) => {
                            let back = meshes[m.rank()].neighbor(e, f.opposite());
                            assert_eq!(back, Neighbor::Local(le));
                        }
                        Neighbor::Remote { rank, elem } => {
                            match meshes[rank].neighbor(elem, f.opposite()) {
                                Neighbor::Remote { rank: br, elem: be } => {
                                    assert_eq!((br, be), (m.rank(), le));
                                }
                                other => panic!("asymmetric: {other:?}"),
                            }
                        }
                    }
                }
            }
        }
        // face-exchange gids shared by exactly 1 or 2 holders
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for m in &meshes {
            for g in m.face_exchange_gids() {
                *counts.entry(g).or_insert(0) += 1;
            }
        }
        for (&g, &c) in &counts {
            assert!(c <= 2, "gid {g} held {c} times");
            if periodic {
                assert_eq!(c, 2);
            }
        }
    }
}
