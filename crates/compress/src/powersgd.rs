//! PowerSGD: practical low-rank gradient compression (Vogels et al.,
//! NeurIPS'19 — the paper's related work \[24\]).
//!
//! The gradient is viewed as a matrix `G (n×m)` and approximated as
//! `P Qᵀ` with rank `r`, refreshed by one power iteration per round:
//! `P = G Q̂_prev` (then orthogonalized), `Q = Gᵀ P`. Compression is
//! *linear* in `G`, so it composes with all-reduce — but it needs **two
//! sequential all-reduce rounds per synchronization** (one for `P`, one for
//! `Q`), which is exactly the inefficiency under RAR that the paper's
//! related-work section calls out. Reconstruction is biased; error feedback
//! restores convergence.

use marsit_tensor::rng::FastRng;
use marsit_tensor::Tensor;

/// Chooses a near-square matrix shape `(rows, cols)` with
/// `rows·cols ≥ d` for reshaping a flat gradient.
#[must_use]
pub fn matrix_shape(d: usize) -> (usize, usize) {
    assert!(d > 0, "dimension must be positive");
    let rows = (d as f64).sqrt().ceil() as usize;
    let cols = d.div_ceil(rows);
    (rows, cols)
}

/// Modified Gram–Schmidt orthonormalization of the columns of `m`, in
/// place. A column that depends on the ones before it — what is left after
/// projection is below `1e-4` of its norm before, i.e. cancellation residue —
/// is set to zero rather than normalised into a copy of an earlier direction,
/// so a rank-deficient `m` yields orthonormal columns beside zero ones.
pub fn orthonormalize_columns(m: &mut Tensor) {
    let (rows, cols) = m.shape();
    let column_norm = |m: &Tensor, c: usize| {
        let mut norm = 0.0f32;
        for r in 0..rows {
            norm += m.get(r, c) * m.get(r, c);
        }
        norm.sqrt()
    };
    for c in 0..cols {
        let before = column_norm(m, c);
        // Subtract projections onto previous columns.
        for prev in 0..c {
            let mut dot = 0.0f32;
            for r in 0..rows {
                dot += m.get(r, c) * m.get(r, prev);
            }
            for r in 0..rows {
                let v = m.get(r, c) - dot * m.get(r, prev);
                m.set(r, c, v);
            }
        }
        let norm = column_norm(m, c);
        let scale = if norm > 1e-4 * before {
            1.0 / norm
        } else {
            0.0
        };
        for r in 0..rows {
            m.set(r, c, m.get(r, c) * scale);
        }
    }
}

/// One worker's PowerSGD state: the warm-started `Q` factor and the error
/// feedback memory.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSgd {
    rows: usize,
    cols: usize,
    rank: usize,
    d: usize,
    q: Tensor,
    error: Vec<f32>,
}

/// The two low-rank factors transmitted per round.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerFactors {
    /// Left factor `P (rows×rank)`, already orthonormalized.
    pub p: Tensor,
    /// Right factor `Q (cols×rank)`.
    pub q: Tensor,
}

impl PowerFactors {
    /// Wire size of one worker's factors in bits (fp32 entries).
    #[must_use]
    pub fn wire_bits(&self) -> usize {
        (self.p.len() + self.q.len()) * 32
    }
}

impl PowerSgd {
    /// Creates a compressor for `d`-dimensional gradients at the given rank.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `rank == 0`.
    #[must_use]
    pub fn new(d: usize, rank: usize, seed: u64) -> Self {
        assert!(d > 0 && rank > 0, "dimension and rank must be positive");
        let (rows, cols) = matrix_shape(d);
        let rank = rank.min(cols).min(rows);
        let mut rng = FastRng::new(seed, 0x90E5);
        let q = Tensor::gaussian(cols, rank, 1.0, &mut rng);
        Self {
            rows,
            cols,
            rank,
            d,
            q,
            error: vec![0.0; d],
        }
    }

    /// The rank actually used (clamped to the matrix shape).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The matrix shape used for reshaping.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Current error-feedback memory.
    #[must_use]
    pub fn error(&self) -> &[f32] {
        &self.error
    }

    /// Reshapes `grad + error` into the padded matrix (the distributed
    /// protocol's view of this worker's compensated gradient).
    pub fn to_matrix(&self, grad: &[f32]) -> Tensor {
        let mut m = Tensor::zeros(self.rows, self.cols);
        let buf = m.as_mut_slice();
        for (i, (&g, &e)) in grad.iter().zip(&self.error).enumerate() {
            buf[i] = g + e;
        }
        m
    }

    /// Compresses `grad` (with error feedback) into low-rank factors and
    /// updates the memory against the local reconstruction.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the configured dimension.
    pub fn compress(&mut self, grad: &[f32]) -> PowerFactors {
        assert_eq!(grad.len(), self.d, "gradient length mismatch");
        let g = self.to_matrix(grad);
        // One power iteration: P = G·Q̂, orthonormalize, Q = Gᵀ·P.
        let mut p = g.matmul(&self.q);
        orthonormalize_columns(&mut p);
        let q = g.matmul_tn(&p);
        // Local reconstruction Ĝ = P·Qᵀ and error update.
        let reconstruction = p.matmul_nt(&q);
        let rec = reconstruction.as_slice();
        for ((e, &gv), &r) in self.error.iter_mut().zip(grad).zip(rec) {
            *e = gv + *e - r;
        }
        self.q = q.clone();
        PowerFactors { p, q }
    }

    /// Decodes factors back into a flat gradient approximation.
    #[must_use]
    pub fn decode(&self, factors: &PowerFactors) -> Vec<f32> {
        let rec = factors.p.matmul_nt(&factors.q);
        rec.as_slice()[..self.d].to_vec()
    }

    /// Round 1 of the distributed protocol: this worker's contribution
    /// `P_w = (G_w + e_w)·Q̂` to the first all-reduce.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the configured dimension.
    #[must_use]
    pub fn project_p(&self, grad: &[f32]) -> Tensor {
        assert_eq!(grad.len(), self.d, "gradient length mismatch");
        self.to_matrix(grad).matmul(&self.q)
    }

    /// Round 2 of the distributed protocol: this worker's contribution
    /// `Q_w = (G_w + e_w)ᵀ·P̄` to the second all-reduce, given the
    /// orthonormalized mean `p_mean`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn project_q(&self, grad: &[f32], p_mean: &Tensor) -> Tensor {
        assert_eq!(grad.len(), self.d, "gradient length mismatch");
        self.to_matrix(grad).matmul_tn(p_mean)
    }

    /// Finishes the round: absorbs the shared reconstruction into the error
    /// memory and warm-starts `Q` for the next round.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn absorb(&mut self, grad: &[f32], reconstruction: &[f32], q_mean: &Tensor) {
        assert_eq!(grad.len(), self.d, "gradient length mismatch");
        assert_eq!(
            reconstruction.len(),
            self.d,
            "reconstruction length mismatch"
        );
        for ((e, &g), &r) in self.error.iter_mut().zip(grad).zip(reconstruction) {
            *e = g + *e - r;
        }
        self.q = q_mean.clone();
    }

    /// Reconstructs the flat gradient `P̄·Q̄ᵀ` truncated to `d`.
    #[must_use]
    pub fn reconstruct(&self, p_mean: &Tensor, q_mean: &Tensor) -> Vec<f32> {
        p_mean.matmul_nt(q_mean).as_slice()[..self.d].to_vec()
    }

    /// Resets the memory and re-seeds `Q`.
    pub fn reset(&mut self, seed: u64) {
        let mut rng = FastRng::new(seed, 0x90E5);
        self.q = Tensor::gaussian(self.cols, self.rank, 1.0, &mut rng);
        self.error.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_tensor::stats::{dist_sq, norm_l2};

    #[test]
    fn matrix_shape_covers_d() {
        for d in [1usize, 7, 64, 1000, 12345] {
            let (r, c) = matrix_shape(d);
            assert!(r * c >= d);
            assert!(
                r * c < d + r + c,
                "shape ({r},{c}) wastes too much for d={d}"
            );
        }
    }

    #[test]
    fn orthonormalize_produces_orthonormal_columns() {
        let mut rng = FastRng::new(1, 0);
        let mut m = Tensor::gaussian(16, 4, 1.0, &mut rng);
        orthonormalize_columns(&mut m);
        for a in 0..4 {
            for b in 0..4 {
                let dot: f32 = (0..16).map(|r| m.get(r, a) * m.get(r, b)).sum();
                let expected = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-4, "({a},{b}): {dot}");
            }
        }
    }

    /// A rank-1 input keeps one unit column and zeroes the dependent one,
    /// instead of normalising its cancellation residue into `±` the first.
    #[test]
    fn orthonormalize_zeroes_a_dependent_column() {
        let mut m = Tensor::zeros(5, 2);
        for r in 0..5 {
            let v = 0.1 + r as f32 * 0.37;
            m.set(r, 0, v);
            m.set(r, 1, 3.0 * v);
        }
        orthonormalize_columns(&mut m);
        let norm0: f32 = (0..5).map(|r| m.get(r, 0) * m.get(r, 0)).sum();
        assert!((norm0 - 1.0).abs() < 1e-6, "{norm0}");
        assert!((0..5).all(|r| m.get(r, 1) == 0.0));
    }

    #[test]
    fn rank_r_matrix_reconstructs_after_warmup() {
        // A genuinely rank-2 gradient should be captured almost exactly
        // after a few power iterations.
        let d = 256;
        let (rows, cols) = matrix_shape(d);
        let mut rng = FastRng::new(2, 0);
        let u = Tensor::gaussian(rows, 2, 1.0, &mut rng);
        let v = Tensor::gaussian(cols, 2, 1.0, &mut rng);
        let low_rank = u.matmul_nt(&v);
        let grad = low_rank.as_slice()[..d].to_vec();
        let mut comp = PowerSgd::new(d, 2, 7);
        let mut approx = Vec::new();
        for _ in 0..4 {
            comp.error.fill(0.0); // isolate the factorization quality
            let factors = comp.compress(&grad);
            approx = comp.decode(&factors);
        }
        let rel = dist_sq(&approx, &grad).sqrt() / f64::from(norm_l2(&grad));
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn error_feedback_telescopes() {
        let d = 100;
        let mut rng = FastRng::new(3, 0);
        let grad: Vec<f32> = (0..d).map(|_| rng.next_f64() as f32 - 0.5).collect();
        let mut comp = PowerSgd::new(d, 1, 5);
        let mut applied = vec![0.0f64; d];
        let rounds = 60;
        for _ in 0..rounds {
            let factors = comp.compress(&grad);
            for (a, v) in applied.iter_mut().zip(comp.decode(&factors)) {
                *a += f64::from(v);
            }
        }
        // applied + residual ≈ rounds · grad.
        for j in 0..d {
            let total = applied[j] + f64::from(comp.error()[j]);
            let target = f64::from(grad[j]) * f64::from(rounds);
            assert!(
                (total - target).abs() < 0.3 * target.abs().max(1.0),
                "coord {j}: {total} vs {target}"
            );
        }
    }

    #[test]
    fn wire_bits_are_much_smaller_than_dense() {
        let d = 10_000;
        let mut comp = PowerSgd::new(d, 2, 1);
        let grad = vec![0.1f32; d];
        let factors = comp.compress(&grad);
        assert!(
            factors.wire_bits() < 32 * d / 10,
            "{} bits",
            factors.wire_bits()
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut a = PowerSgd::new(64, 2, 3);
        let b = a.clone();
        let _ = a.compress(&vec![0.5; 64]);
        assert_ne!(a, b);
        a.reset(3);
        assert_eq!(a, b);
    }
}
