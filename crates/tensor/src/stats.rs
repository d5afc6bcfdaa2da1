//! Small statistics helpers shared across the workspace: norms, moments,
//! and online mean/variance accumulation used by the experiment harness.

/// ℓ1-norm of a slice.
///
/// # Examples
///
/// ```
/// assert_eq!(marsit_tensor::stats::norm_l1(&[1.0, -2.0, 3.0]), 6.0);
/// ```
#[must_use]
pub fn norm_l1(xs: &[f32]) -> f32 {
    xs.iter().map(|x| x.abs()).sum()
}

/// ℓ2-norm of a slice.
///
/// # Examples
///
/// ```
/// assert_eq!(marsit_tensor::stats::norm_l2(&[3.0, 4.0]), 5.0);
/// ```
#[must_use]
pub fn norm_l2(xs: &[f32]) -> f32 {
    xs.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Squared ℓ2-norm of a slice (avoids the square root).
#[must_use]
pub fn norm_l2_sq(xs: &[f32]) -> f64 {
    xs.iter().map(|&x| f64::from(x) * f64::from(x)).sum()
}

/// Squared ℓ2-norm accumulated over eight interleaved f64 lanes.
///
/// Element `j` feeds lane `j % 8`; the eight partials are summed left to
/// right at the end. The fold order (and therefore the exact rounding) is a
/// **frozen contract**: every path that must agree bit-for-bit on a residual
/// norm — whether it materializes the residual or fuses the subtraction into
/// a sign walk — uses this same lane assignment. Not interchangeable with
/// [`norm_l2_sq`], whose serial fold rounds differently.
///
/// The lane structure exists *for* SIMD: the eight f64 accumulators are two
/// 4-wide (or one 8-wide) vector registers, and every build — scalar, AVX2,
/// AVX-512 — performs the identical widen/multiply/add sequence per lane, so
/// the runtime dispatch never changes a bit (no FMA contraction: multiply
/// and add stay separate operations everywhere).
#[must_use]
pub fn norm_l2_sq_striped(xs: &[f32]) -> f64 {
    sum_norms_l2_sq_striped(&[xs])
}

/// [`norm_l2_sq_striped`] of every slice of `xs`, summed in order —
/// bit-identical to summing the one-slice calls with [`Iterator::sum`], with
/// one independent accumulator chain per slice of a group of up to eight, so
/// the sweep runs at memory bandwidth instead of add latency.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn sum_norms_l2_sq_striped<V: AsRef<[f32]>>(xs: &[V]) -> f64 {
    crate::norm::Build::detect().sum(xs, None)
}

/// Squared Euclidean distance between two slices.
///
/// # Panics
///
/// Panics on length mismatch.
#[must_use]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// Arithmetic mean of a slice (0.0 for empty input).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Half-width of a normal-approximation confidence interval for an
/// empirical Bernoulli(`p`) rate estimated from `n` trials:
/// `Z · sqrt(p(1−p)/n)`, with a floor of `Z/(2√n)` (the worst case at
/// `p = ½`) scaled down to `Z/n` when `p(1−p)` is exactly 0, so the
/// interval never collapses to zero width.
///
/// The workspace's statistical tests use `Z = 5` ([`STAT_TEST_Z`]): a
/// two-sided per-comparison false-positive probability of about
/// `5.7 × 10⁻⁷`, so even a suite making tens of thousands of such
/// comparisons flags spuriously less than once in ~100 full runs —
/// while still catching any real bias several standard errors wide.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `n == 0`.
///
/// # Examples
///
/// ```
/// use marsit_tensor::stats::binomial_ci_halfwidth;
///
/// // p = 0.5, n = 10_000: σ = 0.005, half-width = 0.025 at Z = 5.
/// let hw = binomial_ci_halfwidth(0.5, 10_000);
/// assert!((hw - 0.025).abs() < 1e-12);
/// ```
#[must_use]
pub fn binomial_ci_halfwidth(p: f64, n: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    assert!(n > 0, "need at least one trial");
    let var = p * (1.0 - p);
    if var == 0.0 {
        // Degenerate distribution: allow integer-resolution slack so a
        // single flipped trial is still within the interval.
        STAT_TEST_Z / n as f64
    } else {
        STAT_TEST_Z * (var / n as f64).sqrt()
    }
}

/// The `Z` multiplier used by [`binomial_ci_halfwidth`] — 5 standard
/// errors, i.e. a two-sided tail mass of ≈ 5.7 × 10⁻⁷ per comparison.
pub const STAT_TEST_Z: f64 = 5.0;

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use marsit_tensor::stats::Accumulator;
///
/// let mut acc = Accumulator::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert!((acc.mean() - 5.0).abs() < 1e-12);
/// assert!((acc.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0.0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 if fewer than 1 observation).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation (0.0 if fewer than 2 observations).
    #[must_use]
    pub fn sample_std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Minimum observation (∞ if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Accumulator {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Accumulator {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Self::new();
        acc.extend(iter);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_known_values() {
        assert_eq!(norm_l1(&[1.0, -1.0, 2.0]), 4.0);
        assert_eq!(norm_l2(&[3.0, -4.0]), 5.0);
        assert_eq!(norm_l2_sq(&[3.0, -4.0]), 25.0);
    }

    #[test]
    fn dist_sq_known() {
        assert_eq!(dist_sq(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
        assert_eq!(dist_sq(&[], &[]), 0.0);
    }

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn accumulator_single_value() {
        let mut a = Accumulator::new();
        a.push(3.0);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.population_variance(), 0.0);
        assert_eq!(a.sample_std(), 0.0);
        assert_eq!(a.min(), 3.0);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn accumulator_from_iterator() {
        let a: Accumulator = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 2.0).abs() < 1e-12);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn binomial_ci_halfwidth_known_values() {
        // σ = sqrt(0.25/100) = 0.05 → 0.25 at Z = 5.
        assert!((binomial_ci_halfwidth(0.5, 100) - 0.25).abs() < 1e-12);
        // Shrinks as 1/√n.
        let a = binomial_ci_halfwidth(0.3, 1_000);
        let b = binomial_ci_halfwidth(0.3, 4_000);
        assert!((a / b - 2.0).abs() < 1e-9);
        // Degenerate p never yields a zero-width interval.
        assert!(binomial_ci_halfwidth(0.0, 1_000) > 0.0);
        assert!(binomial_ci_halfwidth(1.0, 1_000) > 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn binomial_ci_rejects_bad_p() {
        let _ = binomial_ci_halfwidth(1.5, 10);
    }

    #[test]
    fn accumulator_matches_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (f64::from(i) * 0.37).sin() * 5.0)
            .collect();
        let acc: Accumulator = xs.iter().copied().collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((acc.mean() - m).abs() < 1e-9);
        assert!((acc.population_variance() - v).abs() < 1e-9);
    }
}
