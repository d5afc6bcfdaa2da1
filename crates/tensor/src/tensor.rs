//! A minimal dense 2-D tensor over `f32`.
//!
//! The workspace only needs dense linear algebra for the training substrate
//! (matrix multiply, elementwise maps, row/column reductions), so [`Tensor`]
//! is deliberately small: row-major storage, two dimensions, explicit shapes.
//! Vectors are represented as `1 × n` or `n × 1` tensors or as plain slices
//! where that is clearer.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use crate::gemm;
use crate::rng::FastRng;

/// Error produced when tensor shapes are incompatible for an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    expected: (usize, usize),
    actual: (usize, usize),
    op: &'static str,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape mismatch in {}: expected {:?}, got {:?}",
            self.op, self.expected, self.actual
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major `rows × cols` matrix of `f32`.
///
/// # Examples
///
/// ```
/// use marsit_tensor::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a `rows × cols` tensor filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` tensor filled with `value`.
    #[must_use]
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.set(i, i, 1.0);
        }
        t
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a tensor with i.i.d. uniform entries in `[-scale, scale)`.
    #[must_use]
    pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut FastRng) -> Self {
        let data = (0..rows * cols)
            .map(|_| (rng.next_f64() as f32 * 2.0 - 1.0) * scale)
            .collect();
        Self { rows, cols, data }
    }

    /// Creates a tensor with i.i.d. standard-normal entries scaled by `std`.
    ///
    /// Uses the Box–Muller transform for determinism across platforms.
    #[must_use]
    pub fn gaussian(rows: usize, cols: usize, std: f32, rng: &mut FastRng) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1 = rng.next_f64().max(1e-300);
            let u2 = rng.next_f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push((r * theta.cos()) as f32 * std);
            if data.len() < n {
                data.push((r * theta.sin()) as f32 * std);
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of the data.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self × other`.
    ///
    /// This and the two transposed products are thin, allocating callers of
    /// the one blocked kernel in [`crate::gemm`]; hot paths call
    /// [`gemm::matmul_into`] and its siblings on slices they own.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    #[must_use]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        gemm::matmul_into(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Matrix product `selfᵀ × other` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    #[must_use]
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        gemm::matmul_tn_into(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Matrix product `self × otherᵀ`. `otherᵀ` is packed into a scratch
    /// panel per call so the kernel can run its lanes across output columns.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    #[must_use]
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.rows);
        gemm::matmul_nt_into(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut Vec::new(),
            &mut out.data,
        );
        out
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// ℓ2-norm of the flattened tensor.
    #[must_use]
    pub fn norm_l2(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Scales all elements by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// `self += alpha * other`, in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (x, &y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
    }

    /// Index of the maximum element in row `r` (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or the tensor has zero columns.
    #[must_use]
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        assert!(!row.is_empty(), "argmax of empty row");
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }
}

impl Add for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, s: f32) -> Tensor {
        let mut out = self.clone();
        out.scale_inplace(s);
        out
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy_inplace(1.0, rhs);
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let mut rng = FastRng::new(1, 0);
        let a = Tensor::gaussian(4, 4, 1.0, &mut rng);
        let i = Tensor::identity(4);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = FastRng::new(2, 0);
        let a = Tensor::gaussian(5, 3, 1.0, &mut rng);
        let b = Tensor::gaussian(5, 4, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = FastRng::new(3, 0);
        let a = Tensor::gaussian(5, 3, 1.0, &mut rng);
        let b = Tensor::gaussian(4, 3, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = FastRng::new(4, 0);
        let a = Tensor::uniform(3, 7, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_scale() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[0.5, 0.5]]);
        assert_eq!(&a + &b, Tensor::from_rows(&[&[1.5, 2.5]]));
        assert_eq!(&a - &b, Tensor::from_rows(&[&[0.5, 1.5]]));
        assert_eq!(&a * 2.0, Tensor::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Tensor::from_rows(&[&[1.0, 1.0]]);
        let b = Tensor::from_rows(&[&[2.0, 3.0]]);
        a.axpy_inplace(0.5, &b);
        assert_eq!(a, Tensor::from_rows(&[&[2.0, 2.5]]));
    }

    #[test]
    fn norm_is_the_flattened_l2() {
        let a = Tensor::from_rows(&[&[3.0, 0.0], &[1.0, 4.0]]);
        assert!((a.norm_l2() - (9.0f32 + 1.0 + 16.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_row_ties_pick_first() {
        let a = Tensor::from_rows(&[&[1.0, 5.0, 5.0, 2.0]]);
        assert_eq!(a.argmax_row(0), 1);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = FastRng::new(5, 0);
        let g = Tensor::gaussian(100, 100, 2.0, &mut rng);
        let n = g.len() as f32;
        let mean = g.sum() / n;
        let var = g.as_slice().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_tn shape mismatch")]
    fn matmul_tn_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(3, 2);
        let _ = a.matmul_tn(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_nt shape mismatch")]
    fn matmul_nt_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(3, 2);
        let _ = a.matmul_nt(&b);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Tensor::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
    }
}
