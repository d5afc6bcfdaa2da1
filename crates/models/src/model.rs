//! The [`Model`] abstraction used by the distributed-training simulator.
//!
//! Synchronization strategies operate on *flat* gradient vectors (that is
//! what travels on the wire), so models expose their parameters and
//! gradients as contiguous `f32` slices regardless of internal structure.

use marsit_datagen::Dataset;

/// Loss and accuracy of a model on a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Evaluation {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
}

impl std::fmt::Display for Evaluation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "loss={:.4} acc={:.2}%", self.loss, self.accuracy * 100.0)
    }
}

/// A trainable classifier with flat parameter and gradient views.
///
/// Implementations must be deterministic: identical parameters and identical
/// batches produce identical losses and gradients, which the simulator relies
/// on to verify the worker-consistency invariant of multi-hop all-reduce.
pub trait Model {
    /// Total number of trainable parameters `D`.
    fn num_params(&self) -> usize;

    /// Copies the current parameters into `out`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `out.len() != num_params()`.
    fn read_params(&self, out: &mut [f32]);

    /// Overwrites the parameters from `params`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != num_params()`.
    fn write_params(&mut self, params: &[f32]);

    /// Computes the mean loss on `batch` and writes the gradient of that
    /// loss with respect to the parameters into `grad_out`.
    ///
    /// Returns the mean loss.
    ///
    /// # Panics
    ///
    /// Implementations panic if `grad_out.len() != num_params()` or if the
    /// batch dimensionality does not match the model.
    fn loss_and_grad(&self, batch: &Dataset, grad_out: &mut [f32]) -> f64;

    /// Evaluates loss and top-1 accuracy on `data`.
    fn evaluate(&self, data: &Dataset) -> Evaluation;

    /// Convenience: returns the parameters as a fresh vector.
    fn params_vec(&self) -> Vec<f32> {
        let mut v = vec![0.0; self.num_params()];
        self.read_params(&mut v);
        v
    }

    /// Applies `params[i] -= update[i]` for all `i` — the raw model update
    /// of Marsit's Algorithm 2, line 6 (`x_{t+1} = x_t − g_t`).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `update.len() != num_params()`.
    fn apply_update(&mut self, update: &[f32]) {
        let mut p = self.params_vec();
        assert_eq!(update.len(), p.len(), "update length mismatch");
        for (x, &u) in p.iter_mut().zip(update) {
            *x -= u;
        }
        self.write_params(&p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_display() {
        let e = Evaluation {
            loss: 1.5,
            accuracy: 0.925,
        };
        assert_eq!(format!("{e}"), "loss=1.5000 acc=92.50%");
    }
}
