//! Dense row-major `f32` n-dimensional array.
//!
//! This is the storage type underlying the autodiff engine. It is deliberately
//! simple: contiguous `Vec<f32>` data plus a shape. All the operations needed
//! by DeepST (matrix products, broadcasts, convolutions) are implemented as
//! straightforward loops; at the model sizes used in this reproduction they
//! are fast enough, and the simplicity makes the gradient checks in
//! [`crate::ops`] trustworthy.

use std::fmt;

/// A dense, row-major array of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Array {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Array {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Array{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:?}, ...]", &self.data[..8])
        }
    }
}

impl Array {
    /// Create an array from a shape and raw data. Panics if the element count
    /// implied by `shape` does not match `data.len()`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            data.len(),
            "shape {:?} implies {} elements, got {}",
            shape,
            n,
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Wrap a recycled buffer (already sized and zeroed by the tape's pool)
    /// without re-validating beyond a debug assertion.
    pub(crate) fn from_buffer(shape: &[usize], data: Vec<f32>) -> Self {
        debug_assert_eq!(shape.iter().product::<usize>(), data.len());
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A 1-D array over `data`.
    pub fn vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(&[n], data)
    }

    /// A scalar (0-d is represented as shape `[1]`).
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(&[1], vec![v])
    }

    /// All-zero array of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// All-one array of the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Array of the given shape filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![v; n],
        }
    }

    /// Zero array with the same shape as `other`.
    pub fn zeros_like(other: &Array) -> Self {
        Self::zeros(&other.shape)
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut a = Self::zeros(&[n, n]);
        for i in 0..n {
            a.data[i * n + i] = 1.0;
        }
        a
    }

    /// The shape of the array.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Capacity of the data buffer, in elements.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Re-dimension in place, reusing both the shape and the data buffer:
    /// the data is resized to `shape`'s element count, zero-filled when
    /// `zero`, otherwise keeping whatever valid values it held (growth
    /// zero-fills).
    pub(crate) fn recast(&mut self, shape: &[usize], zero: bool) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        if zero {
            self.data.clear();
        }
        self.data.resize(shape.iter().product(), 0.0);
    }

    /// The number of rows when viewed as a matrix (first dimension).
    #[inline]
    pub fn rows(&self) -> usize {
        self.shape.first().copied().unwrap_or(1)
    }

    /// The number of columns when viewed as a matrix (product of trailing dims).
    #[inline]
    pub fn cols(&self) -> usize {
        if self.shape.len() <= 1 {
            self.shape.first().copied().unwrap_or(1)
        } else {
            self.shape[1..].iter().product()
        }
    }

    /// Reinterpret with a new shape; element count must match.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "reshape {:?} -> {:?}",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Element access for 2-D arrays.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for 2-D arrays.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2);
        let c_stride = self.shape[1];
        &mut self.data[r * c_stride + c]
    }

    /// Get the `r`-th row of a 2-D array as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// Get the `r`-th row of a 2-D array as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Elementwise binary operation producing a new array. Shapes must match.
    pub fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Array, f: F) -> Array {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Array {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise unary map producing a new array.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Array {
        Array {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// In-place `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Array) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += scale * other` (same shape).
    pub fn axpy(&mut self, scale: f32, other: &Array) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// In-place multiply every element by `s`.
    pub fn scale_mut(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Matrix product `self(m×k) · other(k×n)`.
    ///
    /// Dispatches to the cache-blocked packing kernel in [`crate::gemm`];
    /// see that module for the blocking scheme and determinism notes.
    pub fn matmul(&self, other: &Array) -> Array {
        assert_eq!(
            self.ndim(),
            2,
            "matmul lhs must be 2-D, got {:?}",
            self.shape
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul rhs must be 2-D, got {:?}",
            other.shape
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dims: {:?} x {:?}",
            self.shape, other.shape
        );
        let mut out = Array::zeros(&[m, n]);
        crate::gemm::gemm(m, k, n, &self.data, &other.data, &mut out.data, false);
        out
    }

    /// Matrix product `selfᵀ · other` without materializing the transpose
    /// (the kernel transposes into reusable scratch, not a fresh Array).
    pub fn t_matmul(&self, other: &Array) -> Array {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "t_matmul inner dims: {:?}ᵀ x {:?}",
            self.shape, other.shape
        );
        let mut out = Array::zeros(&[m, n]);
        crate::gemm::gemm_at(m, k, n, &self.data, &other.data, &mut out.data, false);
        out
    }

    /// `out += selfᵀ · other`, reusing `out`'s allocation.
    pub fn t_matmul_acc(&self, other: &Array, out: &mut Array) {
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "t_matmul_acc inner dims: {:?}ᵀ x {:?}",
            self.shape, other.shape
        );
        assert_eq!(out.shape(), [m, n]);
        crate::gemm::gemm_at(m, k, n, &self.data, &other.data, &mut out.data, true);
    }

    /// Matrix product `self · otherᵀ` without materializing the transpose
    /// (the transpose is folded into the kernel's B-packing pass).
    pub fn matmul_t(&self, other: &Array) -> Array {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_t inner dims: {:?} x {:?}ᵀ",
            self.shape, other.shape
        );
        let mut out = Array::zeros(&[m, n]);
        crate::gemm::gemm_bt(m, k, n, &self.data, &other.data, &mut out.data, false);
        out
    }

    /// `out += self · otherᵀ`, reusing `out`'s allocation.
    pub fn matmul_t_acc(&self, other: &Array, out: &mut Array) {
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_t_acc inner dims: {:?} x {:?}ᵀ",
            self.shape, other.shape
        );
        assert_eq!(out.shape(), [m, n]);
        crate::gemm::gemm_bt(m, k, n, &self.data, &other.data, &mut out.data, true);
    }

    /// The original triple-loop `matmul`: kept as the correctness oracle
    /// for the packed kernels.
    #[cfg(test)]
    pub(crate) fn matmul_naive(&self, other: &Array) -> Array {
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        assert_eq!(k, other.shape[0]);
        let mut out = Array::zeros(&[m, n]);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out.data[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Oracle for [`Array::t_matmul`].
    #[cfg(test)]
    pub(crate) fn t_matmul_naive(&self, other: &Array) -> Array {
        let (k, m) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        assert_eq!(k, other.shape[0]);
        let mut out = Array::zeros(&[m, n]);
        for p in 0..k {
            let a_row = &self.data[p * m..(p + 1) * m];
            let b_row = &other.data[p * n..(p + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                let o_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Oracle for [`Array::matmul_t`].
    #[cfg(test)]
    pub(crate) fn matmul_t_naive(&self, other: &Array) -> Array {
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[0];
        assert_eq!(k, other.shape[1]);
        let mut out = Array::zeros(&[m, n]);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut s = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    s += a * b;
                }
                out.data[i * n + j] = s;
            }
        }
        out
    }

    /// Transposed copy of a 2-D array.
    pub fn transpose(&self) -> Array {
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Array::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element. Panics on empty arrays.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Panics on empty arrays.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of the data.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Squared L2 norm *continued from* a running accumulator: the serial
    /// fold `acc + Σ vᵢ²` in element order. Chaining this across the blocks
    /// of a row-partitioned tensor reproduces, bit for bit, [`Array::sq_norm`]
    /// of the concatenated dense tensor — the float additions happen in the
    /// identical order. (`sq_norm()` is `sq_norm_acc(0.0)`.)
    pub fn sq_norm_acc(&self, acc: f32) -> f32 {
        self.data.iter().fold(acc, |a, &v| a + v * v)
    }

    /// `true` iff all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference against another array of the same shape.
    pub fn max_abs_diff(&self, other: &Array) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Stack 1-D arrays (all the same length) into a 2-D `[n, d]` array.
    pub fn stack_rows(rows: &[Array]) -> Array {
        assert!(!rows.is_empty(), "stack_rows on empty slice");
        let d = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * d);
        for r in rows {
            assert_eq!(r.len(), d, "stack_rows rows must have equal length");
            data.extend_from_slice(&r.data);
        }
        Array::from_vec(&[rows.len(), d], data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let a = Array::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.len(), 6);
        assert_eq!(a.at2(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn bad_shape_panics() {
        let _ = Array::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn zeros_ones_full_eye() {
        assert_eq!(Array::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Array::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Array::full(&[3], 2.5).sum(), 7.5);
        let e = Array::eye(3);
        assert_eq!(e.at2(0, 0), 1.0);
        assert_eq!(e.at2(0, 1), 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Array::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Array::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Array::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let i = Array::eye(2);
        assert_eq!(a.matmul(&i).data(), a.data());
        assert_eq!(i.matmul(&a).data(), a.data());
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Array::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Array::from_vec(&[2, 4], vec![1., 0., 2., -1., 3., 1., 0., 2.]);
        // aᵀ·b via t_matmul matches explicit transpose.
        let want = a.transpose().matmul(&b);
        let got = a.t_matmul(&b);
        assert!(want.max_abs_diff(&got) < 1e-6);
        // a·cᵀ via matmul_t matches explicit transpose.
        let c = Array::from_vec(&[5, 3], (0..15).map(|v| v as f32).collect());
        let want = a.matmul(&c.transpose());
        let got = a.matmul_t(&c);
        assert!(want.max_abs_diff(&got) < 1e-6);
    }

    #[test]
    fn zip_map_axpy() {
        let a = Array::vector(vec![1., 2., 3.]);
        let b = Array::vector(vec![4., 5., 6.]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[4., 10., 18.]);
        assert_eq!(a.map(|x| x + 1.0).data(), &[2., 3., 4.]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[9., 12., 15.]);
    }

    #[test]
    fn reductions() {
        let a = Array::from_vec(&[2, 2], vec![1., -3., 2., 0.]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.min(), -3.0);
        assert_eq!(a.argmax(), 2);
        assert_eq!(a.sq_norm(), 14.0);
        assert!(a.all_finite());
    }

    #[test]
    fn nan_detected() {
        let a = Array::vector(vec![1.0, f32::NAN]);
        assert!(!a.all_finite());
    }

    #[test]
    fn stack_rows_works() {
        let rows = vec![Array::vector(vec![1., 2.]), Array::vector(vec![3., 4.])];
        let m = Array::stack_rows(&rows);
        assert_eq!(m.shape(), &[2, 2]);
        assert_eq!(m.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn reshape_roundtrip() {
        let a = Array::from_vec(&[2, 3], (0..6).map(|v| v as f32).collect());
        let b = a.clone().reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn row_access() {
        let a = Array::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.row(1), &[4., 5., 6.]);
    }

    mod packed_vs_naive {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Packed matmul equals the naive triple loop (elementwise to
            /// f32 rounding) for arbitrary shapes including kernel edges.
            #[test]
            fn matmul_matches_oracle(m in 1usize..=13, k in 1usize..=17, n in 1usize..=19,
                                     data in proptest::collection::vec(-3.0f32..3.0, 13 * 17 + 17 * 19)) {
                let a = Array::from_vec(&[m, k], data[..m * k].to_vec());
                let b = Array::from_vec(&[k, n], data[13 * 17..13 * 17 + k * n].to_vec());
                let fast = a.matmul(&b);
                let slow = a.matmul_naive(&b);
                prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
            }

            /// Packed `selfᵀ·other` equals its oracle.
            #[test]
            fn t_matmul_matches_oracle(k in 1usize..=13, m in 1usize..=17, n in 1usize..=19,
                                       data in proptest::collection::vec(-3.0f32..3.0, 13 * 17 + 13 * 19)) {
                let a = Array::from_vec(&[k, m], data[..k * m].to_vec());
                let b = Array::from_vec(&[k, n], data[13 * 17..13 * 17 + k * n].to_vec());
                let fast = a.t_matmul(&b);
                let slow = a.t_matmul_naive(&b);
                prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
            }

            /// Packed `self·otherᵀ` equals its oracle.
            #[test]
            fn matmul_t_matches_oracle(m in 1usize..=13, k in 1usize..=17, n in 1usize..=19,
                                       data in proptest::collection::vec(-3.0f32..3.0, 13 * 17 + 19 * 17)) {
                let a = Array::from_vec(&[m, k], data[..m * k].to_vec());
                let b = Array::from_vec(&[n, k], data[13 * 17..13 * 17 + n * k].to_vec());
                let fast = a.matmul_t(&b);
                let slow = a.matmul_t_naive(&b);
                prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
            }
        }
    }
}
