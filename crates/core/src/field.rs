//! Element field storage.
//!
//! A [`Field`] holds one scalar unknown (one component of the conserved
//! vector `U` — mass, a momentum component, or energy) for all `nel`
//! elements resident on a process, at `n^3` GLL points per element.
//!
//! Layout is Nek-style `[e][k][j][i]` with `i` fastest, i.e. the flat index
//! of point `(i, j, k)` of element `e` is
//! `((e * n + k) * n + j) * n + i`. The derivative kernels in
//! [`crate::kernels`] rely on this layout and its implied strides
//! (`1` in `r`, `n` in `s`, `n^2` in `t`).

/// One scalar spectral-element field: `nel` elements of `n^3` GLL values.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    n: usize,
    nel: usize,
    data: Vec<f64>,
}

impl AsRef<[f64]> for Field {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl AsMut<[f64]> for Field {
    fn as_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl Field {
    /// A zero-initialized field with `nel` elements of `n^3` points.
    ///
    /// # Panics
    /// Panics if `n < 2` (an element needs at least the two Lobatto
    /// endpoints per direction).
    pub fn zeros(n: usize, nel: usize) -> Self {
        assert!(n >= 2, "element order n must be >= 2, got {n}");
        Field {
            n,
            nel,
            data: vec![0.0; n * n * n * nel],
        }
    }

    /// Build a field by evaluating `f(e, i, j, k)` at every point.
    pub fn from_fn(
        n: usize,
        nel: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f64,
    ) -> Self {
        let mut fld = Field::zeros(n, nel);
        let mut idx = 0;
        for e in 0..nel {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        fld.data[idx] = f(e, i, j, k);
                        idx += 1;
                    }
                }
            }
        }
        fld
    }

    /// Wrap an existing flat buffer. `data.len()` must equal `n^3 * nel`.
    ///
    /// # Panics
    /// Panics on a length mismatch or `n < 2`.
    pub fn from_vec(n: usize, nel: usize, data: Vec<f64>) -> Self {
        assert!(n >= 2, "element order n must be >= 2, got {n}");
        assert_eq!(
            data.len(),
            n * n * n * nel,
            "buffer length {} != n^3 * nel = {}",
            data.len(),
            n * n * n * nel
        );
        Field { n, nel, data }
    }

    /// Points per direction.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of local elements.
    #[inline]
    pub fn nel(&self) -> usize {
        self.nel
    }

    /// Points per element (`n^3`).
    #[inline]
    pub fn points_per_element(&self) -> usize {
        self.n * self.n * self.n
    }

    /// Total number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the field holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of all values.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view of all values.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Flat index of point `(i, j, k)` in element `e`.
    #[inline]
    pub fn index(&self, e: usize, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(e < self.nel && i < self.n && j < self.n && k < self.n);
        ((e * self.n + k) * self.n + j) * self.n + i
    }

    /// Value at point `(i, j, k)` of element `e`.
    #[inline]
    pub fn get(&self, e: usize, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.index(e, i, j, k)]
    }

    /// Set the value at point `(i, j, k)` of element `e`.
    #[inline]
    pub fn set(&mut self, e: usize, i: usize, j: usize, k: usize, v: f64) {
        let idx = self.index(e, i, j, k);
        self.data[idx] = v;
    }

    /// Read-only view of one element's `n^3` values.
    #[inline]
    pub fn element(&self, e: usize) -> &[f64] {
        let np = self.points_per_element();
        &self.data[e * np..(e + 1) * np]
    }

    /// Fill every value with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self += alpha * other` (the RK-stage axpy workhorse).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Field) {
        assert_eq!(self.n, other.n, "axpy: order mismatch");
        assert_eq!(self.nel, other.nel, "axpy: element count mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Pointwise `self = beta * self + alpha * other`.
    pub fn axpby(&mut self, alpha: f64, other: &Field, beta: f64) {
        assert_eq!(self.n, other.n, "axpby: order mismatch");
        assert_eq!(self.nel, other.nel, "axpby: element count mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = beta * *a + alpha * b;
        }
    }

    /// Scale every value by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Local (unreduced) dot product with `other`.
    pub fn dot(&self, other: &Field) -> f64 {
        assert_eq!(self.data.len(), other.data.len(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Local max-norm.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Local sum of all values (used by conservation checks).
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_i_fastest() {
        let f = Field::zeros(4, 2);
        assert_eq!(f.index(0, 0, 0, 0), 0);
        assert_eq!(f.index(0, 1, 0, 0), 1);
        assert_eq!(f.index(0, 0, 1, 0), 4);
        assert_eq!(f.index(0, 0, 0, 1), 16);
        assert_eq!(f.index(1, 0, 0, 0), 64);
        assert_eq!(f.index(1, 3, 3, 3), 127);
    }

    #[test]
    fn from_fn_round_trips_get() {
        let f = Field::from_fn(3, 2, |e, i, j, k| (e * 1000 + k * 100 + j * 10 + i) as f64);
        assert_eq!(f.get(1, 2, 1, 0), 1012.0);
        assert_eq!(f.get(0, 0, 2, 2), 220.0);
        assert_eq!(f.len(), 54);
    }

    #[test]
    fn element_views_partition_data() {
        let f = Field::from_fn(2, 3, |e, _, _, _| e as f64);
        for e in 0..3 {
            assert!(f.element(e).iter().all(|&v| v == e as f64));
            assert_eq!(f.element(e).len(), 8);
        }
    }

    #[test]
    fn axpy_axpby_scale() {
        let mut a = Field::from_fn(2, 1, |_, i, j, k| (i + j + k) as f64);
        let b = Field::from_fn(2, 1, |_, _, _, _| 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.get(0, 1, 1, 1), 4.0);
        a.axpby(1.0, &b, 0.0); // a = b
        assert_eq!(a.as_slice(), b.as_slice());
        a.scale(3.0);
        assert!(a.as_slice().iter().all(|&v| v == 6.0));
    }

    #[test]
    fn dot_and_norms() {
        let a = Field::from_fn(2, 1, |_, _, _, _| 2.0);
        let b = Field::from_fn(2, 1, |_, _, _, _| -3.0);
        assert_eq!(a.dot(&b), -48.0);
        assert_eq!(b.norm_inf(), 3.0);
        assert_eq!(a.sum(), 16.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_length() {
        let _ = Field::from_vec(3, 2, vec![0.0; 10]);
    }

    #[test]
    #[should_panic]
    fn axpy_rejects_shape_mismatch() {
        let mut a = Field::zeros(3, 2);
        let b = Field::zeros(3, 3);
        a.axpy(1.0, &b);
    }
}
