//! Log2-bucket histograms with deterministic quantiles.
//!
//! Buckets are keyed by the floating-point exponent (`floor(log2 v)`,
//! extracted from the bit pattern — no libm, so bucketing is identical on
//! every platform). Count, sum, min, and max are exact; quantiles are
//! bucket-resolution upper bounds clamped to the exact max, which makes them
//! deterministic and monotone in `q`.

use crate::json;

/// A log2-bucket histogram of non-negative samples.
///
/// ```
/// use marsit_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000 {
///     h.observe(f64::from(v));
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.max(), 1000.0);
/// assert!(h.quantile(0.5) >= 500.0 && h.quantile(0.5) <= 1000.0);
/// assert!(h.quantile(0.99) >= h.quantile(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples with value ≤ 0 (there is no log2 bucket for them).
    zeros: u64,
    /// Exponent of `counts[0]`.
    lowest: i32,
    /// Count of bucket `lowest + i` at index `i`, for positive samples: a
    /// dense window from the lowest to the highest exponent observed, so
    /// recording a sample indexes its bucket instead of walking a tree. The
    /// window is exactly that span (derived equality stays meaningful) and
    /// grows only when a sample lands outside it.
    counts: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Exponent of the power-of-two bucket containing `v` (`v > 0`).
/// Subnormals all land in the lowest normal bucket, −1023.
fn bucket_exponent(v: f64) -> i32 {
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
    if biased == 0 {
        -1023
    } else {
        biased - 1023
    }
}

/// 2^e as `f64`, saturating to 0 / ∞ outside the normal range.
fn pow2(e: i32) -> f64 {
    if e < -1022 {
        0.0
    } else if e > 1023 {
        f64::INFINITY
    } else {
        f64::from_bits(((e + 1023) as u64) << 52)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zeros: 0,
            lowest: 0,
            counts: Vec::new(),
        }
    }

    /// Record one sample. Non-finite samples are ignored; non-positive ones
    /// land in a dedicated zero bucket.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v > 0.0 {
            let e = bucket_exponent(v);
            if self.counts.is_empty() {
                self.lowest = e;
            } else if e < self.lowest {
                let grow = (self.lowest - e) as usize;
                self.counts.splice(0..0, std::iter::repeat_n(0, grow));
                self.lowest = e;
            }
            let i = (e - self.lowest) as usize;
            if i >= self.counts.len() {
                self.counts.resize(i + 1, 0);
            }
            self.counts[i] += 1;
        } else {
            self.zeros += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum (0.0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0.0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean of all samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Deterministic quantile estimate for `q ∈ [0, 1]`: the upper edge of
    /// the bucket holding the ⌈q·count⌉-th smallest sample, clamped to the
    /// exact extremes. Within a factor of 2 of the true quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.zeros;
        if cum >= target {
            return self.min;
        }
        for (e, n) in self.buckets() {
            cum += n;
            if cum >= target {
                return pow2(e + 1).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Iterate `(bucket_exponent, count)` pairs in ascending exponent order.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        (self.lowest..)
            .zip(&self.counts)
            .filter(|&(_, &n)| n > 0)
            .map(|(e, &n)| (e, n))
    }

    /// Samples that fell in the non-positive bucket.
    pub fn zero_count(&self) -> u64 {
        self.zeros
    }

    /// Append this histogram as a JSON object (count, sum, extremes, p50/95/99,
    /// and `[exponent, count]` bucket pairs) to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        out.push_str(&self.count.to_string());
        out.push_str(",\"sum\":");
        json::write_f64(out, self.sum);
        out.push_str(",\"min\":");
        json::write_f64(out, self.min());
        out.push_str(",\"max\":");
        json::write_f64(out, self.max());
        out.push_str(",\"mean\":");
        json::write_f64(out, self.mean());
        out.push_str(",\"p50\":");
        json::write_f64(out, self.quantile(0.50));
        out.push_str(",\"p95\":");
        json::write_f64(out, self.quantile(0.95));
        out.push_str(",\"p99\":");
        json::write_f64(out, self.quantile(0.99));
        out.push_str(",\"zeros\":");
        out.push_str(&self.zeros.to_string());
        out.push_str(",\"buckets\":[");
        for (i, (e, n)) in self.buckets().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{e},{n}]"));
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_aggregates() {
        let mut h = Histogram::new();
        for v in [0.5, 1.0, 2.0, 4.0, 0.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 7.5);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 4.0);
        assert_eq!(h.mean(), 1.5);
        assert_eq!(h.zero_count(), 1);
    }

    #[test]
    fn bucket_exponents_match_log2() {
        for (v, e) in [
            (1.0, 0),
            (1.5, 0),
            (2.0, 1),
            (3.99, 1),
            (0.5, -1),
            (0.26, -2),
        ] {
            assert_eq!(bucket_exponent(v), e, "v={v}");
        }
        assert_eq!(bucket_exponent(f64::MIN_POSITIVE / 2.0), -1023); // subnormal
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_truth() {
        let mut h = Histogram::new();
        for v in 1..=1024 {
            h.observe(f64::from(v));
        }
        let mut prev = 0.0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(est >= prev, "quantile not monotone at q={q}");
            prev = est;
            // log2 buckets: the estimate is within 2x above the true quantile.
            let truth = (q * 1024.0).max(1.0);
            assert!(est >= truth - 1.0, "q={q}: {est} < {truth}");
            assert!(est <= truth * 2.0 + 1.0, "q={q}: {est} > 2*{truth}");
        }
        assert_eq!(h.quantile(1.0), 1024.0); // exact max
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        let mut s = String::new();
        h.write_json(&mut s);
        assert!(crate::json::parse(&s).is_ok(), "{s}");
    }

    /// The dense bucket window grows downward and upward as samples arrive,
    /// and what it holds — buckets, quantiles, equality, the JSON — does
    /// not depend on the order they arrive in.
    #[test]
    fn bucket_window_is_order_independent() {
        let samples = [4.0, 0.5, 1024.0, 0.0, 6.0, 0.5, 0.125, 8.0];
        let (mut up, mut down) = (Histogram::new(), Histogram::new());
        for &v in &samples {
            up.observe(v);
        }
        for &v in samples.iter().rev() {
            down.observe(v);
        }
        assert_eq!(up, down);
        let buckets: Vec<(i32, u64)> = up.buckets().collect();
        assert_eq!(buckets, [(-3, 1), (-1, 2), (2, 2), (3, 1), (10, 1)]);
        assert_eq!(up.quantile(0.5), 1.0);
        let (mut a, mut b) = (String::new(), String::new());
        up.write_json(&mut a);
        down.write_json(&mut b);
        assert_eq!(a, b);
        assert!(
            a.ends_with("\"buckets\":[[-3,1],[-1,2],[2,2],[3,1],[10,1]]}"),
            "{a}"
        );
    }

    #[test]
    fn ignores_non_finite() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }
}
