//! Integer sign-sum vectors: the growing payload of MAR-extended signSGD.
//!
//! Under a parameter server, signSGD-family methods transmit one bit per
//! coordinate because the server receives each worker's signs separately.
//! Under multi-hop all-reduce the only linear aggregate is the *sum of
//! signs*, whose per-coordinate range grows with the number of workers
//! folded in — the "bit length expansion" of the paper's Section 3.1, upper
//! bounded by `⌈log₂ M⌉` extra bits. [`SignSumVec`] implements that payload
//! exactly, sized at fixed width or by its exact Elias-γ bit count.

use marsit_tensor::SignVec;

/// A vector of per-coordinate sign sums `Σ_m σ_m ∈ [−count, count]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignSumVec {
    sums: Vec<i32>,
    /// Number of ±1 terms folded into each coordinate.
    count: u32,
}

impl SignSumVec {
    /// Starts a sum from a single worker's sign vector.
    #[must_use]
    pub fn from_signs(signs: &SignVec) -> Self {
        Self {
            sums: signs.iter().map(|b| if b { 1 } else { -1 }).collect(),
            count: 1,
        }
    }

    /// An all-zero sum over `len` coordinates with no terms folded in.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            sums: vec![0; len],
            count: 0,
        }
    }

    /// Reassembles a sum vector from raw sums and a term count (used when a
    /// collective stitches together per-segment results).
    ///
    /// # Panics
    ///
    /// Panics if any sum exceeds `count` in magnitude.
    #[must_use]
    pub fn from_parts(sums: Vec<i32>, count: u32) -> Self {
        assert!(
            sums.iter().all(|s| s.unsigned_abs() <= count),
            "sum magnitude exceeds term count"
        );
        Self { sums, count }
    }

    /// Number of coordinates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Whether the vector has zero coordinates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Number of ±1 terms folded into each coordinate.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The raw sums.
    #[must_use]
    pub fn sums(&self) -> &[i32] {
        &self.sums
    }

    /// Folds another worker's signs into the sum.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn add_signs(&mut self, signs: &SignVec) {
        assert_eq!(self.sums.len(), signs.len(), "length mismatch");
        for (s, b) in self.sums.iter_mut().zip(signs.iter()) {
            *s += if b { 1 } else { -1 };
        }
        self.count += 1;
    }

    /// Merges another partial sum into this one.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn merge(&mut self, other: &SignSumVec) {
        assert_eq!(self.sums.len(), other.sums.len(), "length mismatch");
        for (s, &o) in self.sums.iter_mut().zip(&other.sums) {
            *s += o;
        }
        self.count += other.count;
    }

    /// Majority vote: the sign of each sum (ties vote `+1`, matching the
    /// `sgn(0) = +1` convention of [`SignVec::from_signs`]).
    #[must_use]
    pub fn majority_sign(&self) -> SignVec {
        self.sums.iter().map(|&s| s >= 0).collect()
    }

    /// Mean of the folded signs per coordinate, in `[−1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if no terms have been folded in.
    #[must_use]
    pub fn mean_signs(&self) -> Vec<f32> {
        assert!(self.count > 0, "mean of empty sign sum");
        let inv = 1.0 / self.count as f32;
        self.sums.iter().map(|&s| s as f32 * inv).collect()
    }

    /// Fixed-width wire size in bits: each coordinate needs
    /// `⌈log₂(2·count + 1)⌉` bits to cover `[−count, count]`.
    #[must_use]
    pub fn fixed_width_bits(&self) -> usize {
        self.len() * Self::bits_per_coord(self.count)
    }

    /// Bits per coordinate of a fixed-width encoding after folding `count`
    /// workers: `⌈log₂(2·count + 1)⌉` (1 bit for a single worker).
    #[must_use]
    pub fn bits_per_coord(count: u32) -> usize {
        if count <= 1 {
            return 1;
        }
        let states = 2 * u64::from(count) + 1;
        (64 - (states - 1).leading_zeros()) as usize
    }

    /// Exact Elias-γ coded wire size in bits (what the paper's baselines use
    /// to compact the growing payload).
    #[must_use]
    pub fn elias_bits(&self) -> usize {
        Self::elias_bits_of(&self.sums)
    }

    /// Exact Elias-γ coded size in bits of raw `sums`, without encoding
    /// them. Each sum `s` is zigzag-mapped (`0, −1, 1, −2, … → 0, 1, 2, 3,
    /// …`) and shifted by one so that γ applies: it codes
    /// `n = 2|s| + [s ≥ 0]` in `2⌊log₂ n⌋ + 1` bits.
    #[must_use]
    pub fn elias_bits_of(sums: &[i32]) -> usize {
        sums.iter()
            .map(|&s| {
                let n = 2 * u64::from(s.unsigned_abs()) + u64::from(s >= 0);
                2 * n.ilog2() as usize + 1
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn sv(bits: &[bool]) -> SignVec {
        bits.iter().copied().collect()
    }

    #[test]
    fn from_signs_and_add() {
        let mut sum = SignSumVec::from_signs(&sv(&[true, false, true]));
        sum.add_signs(&sv(&[true, true, false]));
        assert_eq!(sum.sums(), &[2, 0, 0]);
        assert_eq!(sum.count(), 2);
    }

    #[test]
    fn merge_accumulates_counts() {
        let a = SignSumVec::from_signs(&sv(&[true, true]));
        let mut b = SignSumVec::from_signs(&sv(&[false, true]));
        b.merge(&a);
        assert_eq!(b.sums(), &[0, 2]);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn majority_ties_are_positive() {
        let mut sum = SignSumVec::from_signs(&sv(&[true, false]));
        sum.add_signs(&sv(&[false, true]));
        let vote = sum.majority_sign();
        assert!(vote.get(0));
        assert!(vote.get(1));
    }

    #[test]
    fn mean_signs_range() {
        let mut sum = SignSumVec::from_signs(&sv(&[true, false, true]));
        sum.add_signs(&sv(&[true, false, false]));
        assert_eq!(sum.mean_signs(), vec![1.0, -1.0, 0.0]);
    }

    #[test]
    fn bits_per_coord_growth() {
        // 1 worker: 1 bit. 2 workers: range [−2,2] = 5 states -> 3 bits.
        // 8 workers: 17 states -> 5 bits. Matches ⌈log2⌉ growth bounded by
        // ⌈log2 M⌉ + 1 extra bits.
        assert_eq!(SignSumVec::bits_per_coord(1), 1);
        assert_eq!(SignSumVec::bits_per_coord(2), 3);
        assert_eq!(SignSumVec::bits_per_coord(3), 3);
        assert_eq!(SignSumVec::bits_per_coord(4), 4);
        assert_eq!(SignSumVec::bits_per_coord(8), 5);
        assert_eq!(SignSumVec::bits_per_coord(32), 7);
    }

    #[test]
    fn elias_beats_fixed_width_for_balanced_sums() {
        // IID signs concentrate near zero, where γ codes are short.
        use marsit_tensor::rng::FastRng;
        let mut sum = SignSumVec::zeros(10_000);
        for s in 0..16 {
            sum.merge(&SignSumVec::from_signs(&SignVec::bernoulli_uniform(
                10_000,
                0.5,
                &mut FastRng::new(s, 1),
            )));
        }
        assert!(sum.elias_bits() < sum.fixed_width_bits() * 2);
        assert!(sum.elias_bits() > sum.len()); // still more than 1 bit/coord
    }

    /// Reference Elias-γ encoder, one bit at a time: the zigzag of `s`
    /// plus one, as `⌊log₂ n⌋` zeros followed by `n` MSB-first.
    fn reference_gamma(s: i32) -> Vec<bool> {
        let v = i64::from(s);
        let n = ((v << 1) ^ (v >> 63)) as u64 + 1;
        let width = 64 - n.leading_zeros();
        let mut bits = vec![false; width as usize - 1];
        bits.extend((0..width).rev().map(|i| (n >> i) & 1 == 1));
        bits
    }

    fn reference_bits(sums: &[i32]) -> usize {
        sums.iter().map(|&s| reference_gamma(s).len()).sum()
    }

    #[test]
    fn reference_gamma_known_codewords() {
        // 0 → n=1 "1"; −1 → n=2 "010"; 1 → n=3 "011"; −2 → n=4 "00100".
        let word = |s| -> String {
            reference_gamma(s)
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect()
        };
        assert_eq!(word(0), "1");
        assert_eq!(word(-1), "010");
        assert_eq!(word(1), "011");
        assert_eq!(word(-2), "00100");
    }

    #[test]
    fn elias_bits_of_matches_reference_at_every_edge() {
        let mut edges = vec![0, 1, -1, i32::MIN, i32::MAX, -i32::MAX];
        for k in 1..31 {
            let p = 1i32 << k;
            edges.extend([p - 1, -(p - 1), p, -p]);
        }
        for &s in &edges {
            assert_eq!(
                SignSumVec::elias_bits_of(&[s]),
                reference_bits(&[s]),
                "sum {s}"
            );
        }
        assert_eq!(SignSumVec::elias_bits_of(&edges), reference_bits(&edges));
        assert_eq!(SignSumVec::elias_bits_of(&[]), 0);
    }

    proptest! {
        /// Full-range sums and the small ones a ring really carries.
        #[test]
        fn elias_bits_of_matches_reference(
            wide in prop::collection::vec(any::<i32>(), 0..64),
            narrow in prop::collection::vec(-40i32..41, 0..64),
        ) {
            prop_assert_eq!(SignSumVec::elias_bits_of(&wide), reference_bits(&wide));
            prop_assert_eq!(SignSumVec::elias_bits_of(&narrow), reference_bits(&narrow));
        }
    }
}
