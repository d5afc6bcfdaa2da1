//! Per-round time accounting split into the three phases the paper plots.
//!
//! Figure 5 decomposes each approach's round time into *computation*,
//! *compression*, and *communication*; Figure 1a compares total iteration
//! times. [`PhaseBreakdown`] is the accumulator those experiments read out.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Time spent in each phase of a training round, in seconds.
///
/// # Examples
///
/// ```
/// use marsit_simnet::PhaseBreakdown;
///
/// let round = PhaseBreakdown::new(0.010, 0.002, 0.030);
/// assert!((round.total() - 0.042).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Forward/backward compute time.
    pub compute_s: f64,
    /// Compression / decompression / codec time that is *not* hidden behind
    /// communication.
    pub compression_s: f64,
    /// Network transfer time.
    pub communication_s: f64,
}

impl PhaseBreakdown {
    /// Creates a breakdown from the three phase durations.
    ///
    /// # Panics
    ///
    /// Panics if any duration is negative.
    #[must_use]
    pub fn new(compute_s: f64, compression_s: f64, communication_s: f64) -> Self {
        assert!(
            compute_s >= 0.0 && compression_s >= 0.0 && communication_s >= 0.0,
            "durations must be non-negative"
        );
        Self {
            compute_s,
            compression_s,
            communication_s,
        }
    }

    /// A zero breakdown.
    #[must_use]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total round time.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.compute_s + self.compression_s + self.communication_s
    }

    /// Scales all phases by `k` (e.g. per-round → per-epoch).
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        assert!(k >= 0.0, "scale must be non-negative");
        Self {
            compute_s: self.compute_s * k,
            compression_s: self.compression_s * k,
            communication_s: self.communication_s * k,
        }
    }

    /// Fraction of the round spent communicating (0 if the total is 0).
    #[must_use]
    pub fn communication_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.communication_s / t
        }
    }
}

impl Add for PhaseBreakdown {
    type Output = PhaseBreakdown;

    fn add(self, rhs: PhaseBreakdown) -> PhaseBreakdown {
        PhaseBreakdown {
            compute_s: self.compute_s + rhs.compute_s,
            compression_s: self.compression_s + rhs.compression_s,
            communication_s: self.communication_s + rhs.communication_s,
        }
    }
}

impl AddAssign for PhaseBreakdown {
    fn add_assign(&mut self, rhs: PhaseBreakdown) {
        *self = *self + rhs;
    }
}

impl Sum for PhaseBreakdown {
    fn sum<I: Iterator<Item = PhaseBreakdown>>(iter: I) -> Self {
        iter.fold(Self::zero(), Add::add)
    }
}

impl std::fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compute {:.3}ms + codec {:.3}ms + comm {:.3}ms = {:.3}ms",
            self.compute_s * 1e3,
            self.compression_s * 1e3,
            self.communication_s * 1e3,
            self.total() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_fraction() {
        let p = PhaseBreakdown::new(1.0, 0.5, 2.5);
        assert_eq!(p.total(), 4.0);
        assert_eq!(p.communication_fraction(), 0.625);
        assert_eq!(PhaseBreakdown::zero().communication_fraction(), 0.0);
    }

    #[test]
    fn add_and_sum() {
        let a = PhaseBreakdown::new(1.0, 2.0, 3.0);
        let b = PhaseBreakdown::new(0.5, 0.5, 0.5);
        let c = a + b;
        assert_eq!(c.compute_s, 1.5);
        let total: PhaseBreakdown = [a, b].into_iter().sum();
        assert_eq!(total, c);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn scaled_multiplies_all() {
        let p = PhaseBreakdown::new(1.0, 2.0, 3.0).scaled(2.0);
        assert_eq!(p, PhaseBreakdown::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", PhaseBreakdown::zero()).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = PhaseBreakdown::new(-1.0, 0.0, 0.0);
    }
}
