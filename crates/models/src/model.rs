//! The [`Evaluation`] a model reports on a held-out dataset.

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
