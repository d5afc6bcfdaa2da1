//! A minimal dense 2-D tensor over `f32`.
//!
//! The workspace only needs dense linear algebra for the training substrate
//! (matrix multiply, elementwise arithmetic, reductions), so [`Tensor`]
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
/// let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Tensor::from_vec(2, 1, vec![1.0, 1.0]);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 7.0);
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

    /// Creates a tensor with i.i.d. normal entries of standard deviation
    /// `std`, drawn by [`FastRng::fill_gaussian`] in row-major order.
    #[must_use]
    pub fn gaussian(rows: usize, cols: usize, std: f32, rng: &mut FastRng) -> Self {
        let mut t = Self::zeros(rows, cols);
        rng.fill_gaussian(&mut t.data, std);
        t
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

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
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
        for x in &mut out.data {
            *x *= s;
        }
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

    fn row(values: &[f32]) -> Tensor {
        Tensor::from_vec(1, values.len(), values.to_vec())
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (rows, cols) = t.shape();
        let data = (0..rows * cols)
            .map(|i| t.get(i % rows, i / rows))
            .collect();
        Tensor::from_vec(cols, rows, data)
    }

    #[test]
    fn identity_matmul_is_noop() {
        let mut rng = FastRng::new(1, 0);
        let a = Tensor::gaussian(4, 4, 1.0, &mut rng);
        let i = Tensor::from_vec(4, 4, (0..16).map(|k| f32::from(k % 5 == 0)).collect());
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_vec(2, 2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = FastRng::new(2, 0);
        let a = Tensor::gaussian(5, 3, 1.0, &mut rng);
        let b = Tensor::gaussian(5, 4, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = transpose(&a).matmul(&b);
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
        let slow = a.matmul(&transpose(&b));
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn add_sub_scale() {
        let a = row(&[1.0, 2.0]);
        let b = row(&[0.5, 0.5]);
        assert_eq!(&a + &b, row(&[1.5, 2.5]));
        assert_eq!(&a - &b, row(&[0.5, 1.5]));
        assert_eq!(&a * 2.0, row(&[2.0, 4.0]));
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = row(&[1.0, 1.0]);
        a.axpy_inplace(0.5, &row(&[2.0, 3.0]));
        assert_eq!(a, row(&[2.0, 2.5]));
    }

    #[test]
    fn argmax_row_ties_pick_first() {
        assert_eq!(row(&[1.0, 5.0, 5.0, 2.0]).argmax_row(0), 1);
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
