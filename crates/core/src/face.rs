//! Surface (face) extraction — the `full2face_cmt` kernel of the paper.
//!
//! The numerical-flux term of the DG formulation is evaluated on element
//! surfaces. `full2face` gathers, for every element, the `6 n^2` boundary
//! values out of the `n^3` volume data into one contiguous surface array
//! (the buffer that is subsequently exchanged with nearest neighbors);
//! `face2full_add` scatters surface contributions back into the volume.
//!
//! Face numbering (a [`Face`] per coordinate extreme):
//!
//! | face | plane    | in-face coordinates (fastest first) |
//! |------|----------|-------------------------------------|
//! | 0    | `r = -1` | `(j, k)`                            |
//! | 1    | `r = +1` | `(j, k)`                            |
//! | 2    | `s = -1` | `(i, k)`                            |
//! | 3    | `s = +1` | `(i, k)`                            |
//! | 4    | `t = -1` | `(i, j)`                            |
//! | 5    | `t = +1` | `(i, j)`                            |
//!
//! Because the mesh is conforming and Cartesian, the point ordering of face
//! `2f` on one element matches face `2f+1` on its neighbor directly —
//! no rotation/orientation table is needed (CMT-nek inherits the general
//! table from Nek5000; the Cartesian identity case is what the mini-app
//! exercises).

/// One of the six faces of the reference hexahedron.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face {
    /// `r = -1` (west).
    RMinus = 0,
    /// `r = +1` (east).
    RPlus = 1,
    /// `s = -1` (south).
    SMinus = 2,
    /// `s = +1` (north).
    SPlus = 3,
    /// `t = -1` (bottom).
    TMinus = 4,
    /// `t = +1` (top).
    TPlus = 5,
}

impl Face {
    /// All six faces in index order.
    pub const ALL: [Face; 6] = [
        Face::RMinus,
        Face::RPlus,
        Face::SMinus,
        Face::SPlus,
        Face::TMinus,
        Face::TPlus,
    ];

    /// Face index `0..6`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Construct from an index `0..6`.
    ///
    /// # Panics
    /// Panics for indices `>= 6`.
    pub fn from_index(i: usize) -> Face {
        Face::ALL[i]
    }

    /// The face on the opposite side of the element (the one a conforming
    /// neighbor presents to us).
    pub fn opposite(self) -> Face {
        Face::from_index(self.index() ^ 1)
    }

    /// The coordinate axis this face is normal to (0 = r, 1 = s, 2 = t).
    pub fn axis(self) -> usize {
        self.index() / 2
    }

    /// `-1` for the minus-side faces, `+1` for the plus-side faces.
    pub fn sign(self) -> i64 {
        if self.index() % 2 == 0 {
            -1
        } else {
            1
        }
    }

    /// Outward unit normal in reference coordinates.
    pub fn normal(self) -> [f64; 3] {
        let mut nrm = [0.0; 3];
        nrm[self.axis()] = self.sign() as f64;
        nrm
    }
}

/// Number of values in the surface array of one element (`6 n^2`).
#[inline]
pub fn face_values_per_element(n: usize) -> usize {
    6 * n * n
}

/// Stride table of face `f` within one element's `n^3` volume data:
/// `(base, stride_a, stride_b)` such that face point `(a, b)` (face-local
/// ordering documented above, `p = a + n*b`) sits at volume index
/// `base + a * stride_a + b * stride_b`. Walking `(a, b)` with it costs
/// two adds per point, where recovering them from `p` costs a division
/// by a runtime `n`.
#[inline]
pub fn face_strides(n: usize, f: Face) -> (usize, usize, usize) {
    let n2 = n * n;
    let last = n - 1;
    match f {
        Face::RMinus => (0, n, n2),
        Face::RPlus => (last, n, n2),
        Face::SMinus => (0, 1, n2),
        Face::SPlus => (last * n, 1, n2),
        Face::TMinus => (0, 1, n),
        Face::TPlus => (last * n2, 1, n),
    }
}

/// Flat index *within one element's volume data* of face point `p` (with
/// `p = a + n*b` in the face-local `(a, b)` ordering documented above) of
/// face `f`.
#[inline]
pub fn face_point_volume_index(n: usize, f: Face, p: usize) -> usize {
    let (base, stride_a, stride_b) = face_strides(n, f);
    base + (p % n) * stride_a + (p / n) * stride_b
}

/// Walk face `f` of one element in face-point order, handing `visit`
/// each face-point index `p` together with its index within the
/// element's `n^3` volume data.
#[inline]
pub fn for_each_face_index(n: usize, f: Face, mut visit: impl FnMut(usize, usize)) {
    let (base, stride_a, stride_b) = face_strides(n, f);
    for b in 0..n {
        let row = base + b * stride_b;
        for a in 0..n {
            visit(b * n + a, row + a * stride_a);
        }
    }
}

/// Walk face `f` of one element (`ue` is its `n^3` volume data) in
/// face-point order, handing `visit` each face-point index `p` together
/// with the volume value under it.
#[inline]
pub fn for_each_face_point(
    n: usize,
    f: Face,
    ue: &mut [f64],
    mut visit: impl FnMut(usize, &mut f64),
) {
    for_each_face_index(n, f, |p, i| visit(p, &mut ue[i]));
}

/// Gather all element faces into a contiguous surface array.
///
/// `u` is the `[e][k][j][i]` volume data (`n^3 * nel` values); `faces` is
/// overwritten and laid out `[e][face][b][a]` (`6 n^2 * nel` values).
///
/// # Panics
/// Panics on length mismatches.
pub fn full2face(n: usize, nel: usize, u: &[f64], faces: &mut [f64]) {
    assert_eq!(u.len(), n * n * n * nel, "volume length mismatch");
    assert_eq!(faces.len(), 6 * n * n * nel, "surface length mismatch");
    let (n2, n3) = (n * n, n * n * n);
    let last = n - 1;
    for (ue, fe) in u.chunks_exact(n3).zip(faces.chunks_exact_mut(6 * n2)) {
        let (f0, rest) = fe.split_at_mut(n2);
        let (f1, rest) = rest.split_at_mut(n2);
        let (f2, rest) = rest.split_at_mut(n2);
        let (f3, rest) = rest.split_at_mut(n2);
        let (f4, f5) = rest.split_at_mut(n2);
        // Walked plane by plane (`b` = k): the t faces are whole planes,
        // the s faces one row of each plane, and only the r faces gather
        // at stride `n`.
        f4.copy_from_slice(&ue[..n2]); // (a, b, 0)
        f5.copy_from_slice(&ue[last * n2..]); // (a, b, last)
        for (b, plane) in ue.chunks_exact(n2).enumerate() {
            f2[b * n..][..n].copy_from_slice(&plane[..n]); // (a, 0, b)
            f3[b * n..][..n].copy_from_slice(&plane[last * n..]); // (a, last, b)
            for (a, row) in plane.chunks_exact(n).enumerate() {
                f0[b * n + a] = row[0]; // (0, a, b)
                f1[b * n + a] = row[last]; // (last, a, b)
            }
        }
    }
}

/// Scatter-accumulate surface values back into the volume:
/// `u[point] += faces[face point]` for every face point.
///
/// Edge and corner points receive one contribution per incident face,
/// mirroring the behaviour of Nek's `add_face2full`.
pub fn face2full_add(n: usize, nel: usize, faces: &[f64], u: &mut [f64]) {
    assert_eq!(u.len(), n * n * n * nel, "volume length mismatch");
    assert_eq!(faces.len(), 6 * n * n * nel, "surface length mismatch");
    let n2 = n * n;
    let n3 = n2 * n;
    for e in 0..nel {
        let ue = &mut u[e * n3..(e + 1) * n3];
        let fe = &faces[e * 6 * n2..(e + 1) * 6 * n2];
        for f in Face::ALL {
            let fv = &fe[f.index() * n2..(f.index() + 1) * n2];
            for_each_face_point(n, f, ue, |p, u| *u += fv[p]);
        }
    }
}

/// Overwrite variant of [`face2full_add`]: `u[point] = faces[face point]`.
/// At edges/corners the *last* face in [`Face::ALL`] order wins; interior
/// volume points are left untouched.
pub fn face2full_copy(n: usize, nel: usize, faces: &[f64], u: &mut [f64]) {
    assert_eq!(u.len(), n * n * n * nel, "volume length mismatch");
    assert_eq!(faces.len(), 6 * n * n * nel, "surface length mismatch");
    let n2 = n * n;
    let n3 = n2 * n;
    for e in 0..nel {
        let ue = &mut u[e * n3..(e + 1) * n3];
        let fe = &faces[e * 6 * n2..(e + 1) * 6 * n2];
        for f in Face::ALL {
            let fv = &fe[f.index() * n2..(f.index() + 1) * n2];
            for_each_face_point(n, f, ue, |p, u| *u = fv[p]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_and_axis() {
        assert_eq!(Face::RMinus.opposite(), Face::RPlus);
        assert_eq!(Face::TPlus.opposite(), Face::TMinus);
        assert_eq!(Face::SMinus.axis(), 1);
        assert_eq!(Face::RPlus.sign(), 1);
        assert_eq!(Face::TMinus.normal(), [0.0, 0.0, -1.0]);
    }

    #[test]
    fn full2face_extracts_expected_points() {
        let n = 3;
        // encode u[i,j,k] = 100i + 10j + k
        let mut u = vec![0.0; 27];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    u[(k * n + j) * n + i] = (100 * i + 10 * j + k) as f64;
                }
            }
        }
        let mut faces = vec![0.0; 54];
        full2face(n, 1, &u, &mut faces);
        // Face RMinus (i = 0): point (a=j, b=k)
        assert_eq!(faces[0], 0.0); // j=0, k=0
        assert_eq!(faces[1], 10.0); // j=1, k=0
        assert_eq!(faces[3], 1.0); // j=0, k=1
                                   // Face RPlus (i = 2): starts at offset 9
        assert_eq!(faces[9], 200.0);
        // Face SPlus (j = 2): offset 27, point (a=i, b=k)
        assert_eq!(faces[27 + 1], 120.0); // i=1, k=0
                                          // Face TPlus (k = 2): offset 45, point (a=i, b=j)
        assert_eq!(faces[45 + 2 * 3 + 1], 122.0); // i=1, j=2
    }

    #[test]
    fn face_volume_index_consistent_with_full2face() {
        let n = 4;
        let u: Vec<f64> = (0..64).map(|v| v as f64).collect();
        let mut faces = vec![0.0; 6 * 16];
        full2face(n, 1, &u, &mut faces);
        for f in Face::ALL {
            for p in 0..16 {
                assert_eq!(
                    faces[f.index() * 16 + p],
                    u[face_point_volume_index(n, f, p)],
                    "face {f:?} point {p}"
                );
            }
        }
    }

    /// The index formula `face_strides` replaced, kept as the oracle.
    fn old_face_point_volume_index(n: usize, f: Face, p: usize) -> usize {
        let (a, b, last) = (p % n, p / n, n - 1);
        let (i, j, k) = match f {
            Face::RMinus => (0, a, b),
            Face::RPlus => (last, a, b),
            Face::SMinus => (a, 0, b),
            Face::SPlus => (a, last, b),
            Face::TMinus => (a, b, 0),
            Face::TPlus => (a, b, last),
        };
        (k * n + j) * n + i
    }

    #[test]
    fn face_strides_agree_with_the_coordinate_formula() {
        for n in 2..=12 {
            for f in Face::ALL {
                let (base, stride_a, stride_b) = face_strides(n, f);
                let mut walked = Vec::new();
                for_each_face_point(n, f, &mut vec![0.0; n * n * n], |p, _| walked.push(p));
                assert_eq!(walked, (0..n * n).collect::<Vec<_>>(), "n={n} {f:?}");
                for p in 0..n * n {
                    let want = old_face_point_volume_index(n, f, p);
                    assert_eq!(base + (p % n) * stride_a + (p / n) * stride_b, want);
                    assert_eq!(face_point_volume_index(n, f, p), want, "n={n} {f:?} p={p}");
                }
                // the walker hands out exactly those volume points, in order
                let mut ue: Vec<f64> = (0..n * n * n).map(|v| v as f64).collect();
                for_each_face_point(n, f, &mut ue, |p, u| {
                    assert_eq!(*u as usize, old_face_point_volume_index(n, f, p));
                });
            }
        }
    }

    #[test]
    fn face2full_add_accumulates_multiplicity() {
        let n = 3;
        let faces = vec![1.0; 6 * 9];
        let mut u = vec![0.0; 27];
        face2full_add(n, 1, &faces, &mut u);
        // Face centers belong to 1 face, edge midpoints to 2, corners to 3.
        assert_eq!(u[(1 * n + 1) * n], 1.0); // center of r=-1 face
        assert_eq!(u[1], 2.0); // edge (j=0, k=0) midpoint: (k*n + j)*n + i with i=1
        assert_eq!(u[0], 3.0); // corner
        assert_eq!(u[(1 * n + 1) * n + 1], 0.0); // interior untouched
    }

    #[test]
    fn roundtrip_gather_scatter_copy() {
        let n = 5;
        let nel = 3;
        let u: Vec<f64> = (0..n * n * n * nel).map(|v| (v % 97) as f64).collect();
        let mut faces = vec![0.0; 6 * n * n * nel];
        full2face(n, nel, &u, &mut faces);
        let mut v = u.clone();
        face2full_copy(n, nel, &faces, &mut v);
        // copy-back of self-extracted faces is the identity
        assert_eq!(u, v);
    }

    #[test]
    fn multi_element_faces_do_not_alias() {
        let n = 2;
        let nel = 2;
        let u: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let mut faces = vec![0.0; 6 * 4 * 2];
        full2face(n, nel, &u, &mut faces);
        // element 1's RMinus face must read from the second element block
        assert_eq!(faces[24], u[8]);
    }
}
