//! The `⊙` operator: unbiased one-bit sign aggregation (paper Section 4.1.1).
//!
//! Combining a received sign vector `v_i` with the local sign vector `v_i*`
//! must stay within one bit *and* remain an unbiased estimate of the mean
//! sign. Marsit achieves this with
//!
//! ```text
//! v_i ⊙ v_i* = (v_i AND v_i*) OR ((v_i XOR v_i*) AND v)
//! ```
//!
//! where the *transient vector* `v` resolves disagreements by a Bernoulli
//! draw (Eq. 2): when folding the `m`-th worker into an aggregate of `m−1`,
//! a disagreeing bit keeps the local value with probability `1/m`. By
//! induction the final bit at every coordinate is the sign of a *uniformly
//! random* worker — an unbiased one-bit sample of the sign average.
//!
//! This module implements the operator in the generalized *weighted* form
//! needed by 2D-torus all-reduce, where both operands may already aggregate
//! several workers: [`combine_weighted_assign`]`(recv, a, local, b)` keeps
//! the received bit with probability `a/(a+b)`. Eq. (2) is exactly the
//! `b = 1` case. A deliberately *biased* variant
//! ([`combine_unweighted_assign`]) is provided for the ablation study in
//! `DESIGN.md`. Each operator folds the received aggregate into the local
//! one in place; its `_reference` twin is the composed form it must
//! reproduce bit for bit, kept for differential testing.
//!
//! These are the per-hop forms — the definition of `⊙`. The synchronizer
//! resolves the hops of a still fault-free reduce chain from one winner index
//! shared by the chain instead (same distribution, `⌈log₂ g⌉` random bits per
//! coordinate; `DESIGN.md` §9, stream contract v2) and falls back to
//! [`combine_weighted_assign`] everywhere else.

use marsit_tensor::rng::FastRng;
use marsit_tensor::SignVec;

/// Folds `received` (an aggregate over `a` workers) into `local` (an
/// aggregate over `b` workers), which becomes an unbiased one-bit aggregate
/// over `a + b` workers. Allocates nothing.
///
/// Implements the paper's bit-wise form: matching bits pass through
/// unchanged; disagreeing bits take the value of the transient vector `v`,
/// drawn per Eq. (2) generalized to weights: `P(v_j = 1) = a/(a+b)` when the
/// local bit is 0, and `b/(a+b)` when the local bit is 1 — i.e. the output
/// bit equals the received bit with probability `a/(a+b)`.
///
/// The transient vector is generated word-parallel (64 lanes per RNG word);
/// whenever `a + b` is a power of two — every step of a power-of-two ring
/// and both phases of a power-of-two torus — the keep probability is dyadic
/// and realized *exactly*; otherwise the per-bit bias is below `2⁻³²` (see
/// [`SignVec::bernoulli_uniform`]).
///
/// # Panics
///
/// Panics if the vectors' lengths differ or `a + b == 0`.
///
/// # Examples
///
/// ```
/// use marsit_core::ominus::combine_weighted_assign;
/// use marsit_tensor::{rng::FastRng, SignVec};
///
/// let recv = SignVec::ones(8);
/// let mut local = SignVec::ones(8);
/// let mut rng = FastRng::new(0, 0);
/// // Agreement passes through regardless of the draw.
/// combine_weighted_assign(&recv, 3, &mut local, 1, &mut rng);
/// assert_eq!(local, SignVec::ones(8));
/// ```
pub fn combine_weighted_assign(
    received: &SignVec,
    a: usize,
    local: &mut SignVec,
    b: usize,
    rng: &mut FastRng,
) {
    assert_eq!(received.len(), local.len(), "sign vector lengths differ");
    assert!(a + b > 0, "weights must not both be zero");
    // Transient vector v (Eq. 2 generalized): where the local bit is 1 the
    // disagreeing received bit must be 0, so emitting 1 means keeping
    // *local* → P = b/(a+b). Where the local bit is 0 the received bit is 1,
    // so emitting 1 means keeping *received* → P = a/(a+b). One
    // Bernoulli(a/(a+b)) mask `keep` with v = local XOR keep realizes
    // exactly those per-bit probabilities; the fused kernel evaluates the
    // whole ⊙ expression in a single word pass on the same RNG stream as
    // the composed form ([`combine_weighted_reference`]).
    SignVec::transient_combine_assign(received, local, a as f64 / (a + b) as f64, rng);
}

/// The original composed implementation of [`combine_weighted_assign`], retained
/// verbatim as the differential-testing reference: ~8 intermediate
/// `SignVec`s, but the exact semantics (and RNG stream) the fused kernel
/// must reproduce bit for bit.
///
/// # Panics
///
/// Panics if the vectors' lengths differ or `a + b == 0`.
#[must_use]
pub fn combine_weighted_reference(
    received: &SignVec,
    a: usize,
    local: &SignVec,
    b: usize,
    rng: &mut FastRng,
) -> SignVec {
    assert_eq!(received.len(), local.len(), "sign vector lengths differ");
    assert!(a + b > 0, "weights must not both be zero");
    let p_keep_received = a as f64 / (a + b) as f64;
    let keep = SignVec::bernoulli_uniform(received.len(), p_keep_received, rng);
    let v = local.and(&keep.not()).or(&local.not().and(&keep));
    // v_i ⊙ v_i* = (v_i AND v_i*) OR ((v_i XOR v_i*) AND v)
    received.and(local).or(&received.xor(local).and(&v))
}

/// Ablation: an *unweighted* coin-flip combine (`P(keep received) = ½`
/// regardless of aggregate sizes), folding `received` into `local`.
///
/// This looks plausible but is biased: early workers in the chain are
/// exponentially down-weighted, so the result over-represents late workers.
/// Kept for the ablation benchmark that quantifies the value of Eq. (2)'s
/// weighting.
///
/// # Panics
///
/// Panics if the vectors' lengths differ.
pub fn combine_unweighted_assign(received: &SignVec, local: &mut SignVec, rng: &mut FastRng) {
    assert_eq!(received.len(), local.len(), "sign vector lengths differ");
    SignVec::transient_combine_assign(received, local, 0.5, rng);
}

/// The original composed implementation of [`combine_unweighted_assign`], retained
/// as the differential-testing reference.
///
/// # Panics
///
/// Panics if the vectors' lengths differ.
#[must_use]
pub fn combine_unweighted_reference(
    received: &SignVec,
    local: &SignVec,
    rng: &mut FastRng,
) -> SignVec {
    assert_eq!(received.len(), local.len(), "sign vector lengths differ");
    let keep = SignVec::bernoulli_uniform(received.len(), 0.5, rng);
    received.and(local).or(&received
        .xor(local)
        .and(&local.and(&keep.not()).or(&local.not().and(&keep))))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`combine_weighted_assign`] folding `received` into a copy of `local`.
    pub(super) fn weighted(
        received: &SignVec,
        a: usize,
        local: &SignVec,
        b: usize,
        rng: &mut FastRng,
    ) -> SignVec {
        let mut out = local.clone();
        combine_weighted_assign(received, a, &mut out, b, rng);
        out
    }

    #[test]
    fn agreement_always_passes_through() {
        let mut rng = FastRng::new(1, 0);
        let v = SignVec::bernoulli_uniform(256, 0.5, &mut rng);
        for _ in 0..20 {
            let out = weighted(&v, 5, &v, 3, &mut rng);
            assert_eq!(out, v);
        }
    }

    #[test]
    fn disagreement_probability_matches_weights() {
        // recv = all ones, local = all zeros: every bit disagrees; output
        // bit is 1 iff the received value is kept, expected rate a/(a+b).
        let n = 200_000;
        let recv = SignVec::ones(n);
        let local = SignVec::zeros(n);
        for (a, b) in [(1usize, 1usize), (3, 1), (7, 1), (4, 4), (12, 4)] {
            let mut rng = FastRng::new(42, (a * 100 + b) as u64);
            let out = weighted(&recv, a, &local, b, &mut rng);
            let rate = out.count_ones() as f64 / n as f64;
            let expect = a as f64 / (a + b) as f64;
            assert!(
                (rate - expect).abs() < 0.005,
                "a={a} b={b}: rate {rate} vs {expect}"
            );
        }
    }

    /// Strongly asymmetric weights (e.g. folding worker 64 into an
    /// aggregate of 63) must keep the combine unbiased: the keep
    /// probability 63/64 is dyadic, so the word-parallel transient vector
    /// realizes it *exactly*, and the empirical rate has to sit inside a 5σ
    /// binomial interval. Complements the operand-swap property test, which
    /// only exercises weights up to 8.
    #[test]
    fn strongly_asymmetric_weights_stay_unbiased() {
        let n = 1 << 16;
        let trials = 16u64;
        let total = trials * n as u64;
        let recv = SignVec::ones(n);
        let local = SignVec::zeros(n);
        for (a, b) in [(63usize, 1usize), (1, 63), (127, 1), (255, 1)] {
            let expect = a as f64 / (a + b) as f64;
            let hw = marsit_tensor::stats::binomial_ci_halfwidth(expect, total);
            let mut rng = FastRng::new(0xA5, (a * 1000 + b) as u64);
            let mut ones = 0usize;
            for _ in 0..trials {
                ones += weighted(&recv, a, &local, b, &mut rng).count_ones();
            }
            let rate = ones as f64 / total as f64;
            assert!(
                (rate - expect).abs() <= hw,
                "a={a} b={b}: rate {rate} vs {expect} (±{hw})"
            );
        }
    }

    #[test]
    fn eq2_matches_weighted_b1_statistics() {
        let n = 100_000;
        let recv = SignVec::zeros(n);
        let local = SignVec::ones(n);
        let mut rng = FastRng::new(3, 0);
        // Eq. (2) with m = 4: fold one worker into an aggregate of three,
        // keeping local w.p. 1/4.
        let out = weighted(&recv, 3, &local, 1, &mut rng);
        let rate = out.count_ones() as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.006, "rate {rate}");
    }

    /// The induction behind Theorem 1: chaining Eq. (2) along a ring makes
    /// the final bit a uniform sample over all workers' signs, i.e.
    /// `E[final bit] = mean of input bits`.
    #[test]
    fn chained_combine_is_unbiased_over_chain() {
        let m = 6;
        let n = 64;
        let mut seed_rng = FastRng::new(9, 0);
        let inputs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(n, 0.5, &mut seed_rng))
            .collect();
        let trials = 40_000;
        let mut ones = vec![0u32; n];
        let mut rng = FastRng::new(17, 0);
        for _ in 0..trials {
            let mut agg = inputs[0].clone();
            for (i, input) in inputs.iter().enumerate().skip(1) {
                agg = weighted(&agg, i, input, 1, &mut rng);
            }
            for (j, o) in ones.iter_mut().enumerate() {
                *o += u32::from(agg.get(j));
            }
        }
        for (j, &o) in ones.iter().enumerate() {
            let measured = f64::from(o) / f64::from(trials as u32);
            let expected = inputs.iter().filter(|v| v.get(j)).count() as f64 / m as f64;
            // Binomial standard error ≈ 0.5/√trials ≈ 0.0025; allow 5σ.
            assert!(
                (measured - expected).abs() < 0.015,
                "coord {j}: measured {measured} vs expected {expected}"
            );
        }
    }

    /// Weighted combine keeps unbiasedness when merging two multi-worker
    /// aggregates (the torus column phase).
    #[test]
    fn weighted_merge_of_aggregates_is_unbiased() {
        let n = 32;
        let mut seed_rng = FastRng::new(11, 0);
        let recv = SignVec::bernoulli_uniform(n, 0.5, &mut seed_rng);
        let local = SignVec::bernoulli_uniform(n, 0.5, &mut seed_rng);
        let (a, b) = (4usize, 4usize);
        let trials = 40_000;
        let mut ones = vec![0u32; n];
        let mut rng = FastRng::new(23, 0);
        for _ in 0..trials {
            let out = weighted(&recv, a, &local, b, &mut rng);
            for (j, o) in ones.iter_mut().enumerate() {
                *o += u32::from(out.get(j));
            }
        }
        for (j, &o) in ones.iter().enumerate() {
            let measured = f64::from(o) / f64::from(trials as u32);
            let expected = (a as f64 * f64::from(u8::from(recv.get(j)))
                + b as f64 * f64::from(u8::from(local.get(j))))
                / (a + b) as f64;
            assert!(
                (measured - expected).abs() < 0.015,
                "coord {j}: measured {measured} vs expected {expected}"
            );
        }
    }

    /// The ablation combine is measurably biased: chaining over M workers
    /// with equal-weight coin flips over-weights late workers.
    #[test]
    fn unweighted_combine_is_biased_toward_late_workers() {
        let m = 5;
        let n = 20_000;
        // Worker 0 says all-ones; everyone else says all-zeros. The true
        // mean bit is 1/m = 0.2; the coin-flip chain keeps worker 0's bits
        // with probability 2^-(m-1) = 0.0625.
        let mut inputs = vec![SignVec::zeros(n); m];
        inputs[0] = SignVec::ones(n);
        let mut rng = FastRng::new(31, 0);
        let trials = 200;
        let mut total_rate = 0.0;
        for _ in 0..trials {
            let mut agg = inputs[0].clone();
            for input in &inputs[1..] {
                let mut next = input.clone();
                combine_unweighted_assign(&agg, &mut next, &mut rng);
                agg = next;
            }
            total_rate += agg.count_ones() as f64 / n as f64;
        }
        let rate = total_rate / f64::from(trials as u32);
        assert!(
            (rate - 0.0625).abs() < 0.01,
            "rate {rate} should be ~2^-(m-1)"
        );
        assert!(
            (rate - 0.2).abs() > 0.05,
            "rate {rate} must differ from unbiased 1/m"
        );
    }

    #[test]
    fn determinism_given_same_rng_stream() {
        let mut r1 = FastRng::new(5, 7);
        let mut r2 = FastRng::new(5, 7);
        let mut seed_rng = FastRng::new(1, 1);
        let a = SignVec::bernoulli_uniform(100, 0.5, &mut seed_rng);
        let b = SignVec::bernoulli_uniform(100, 0.5, &mut seed_rng);
        assert_eq!(
            weighted(&a, 2, &b, 1, &mut r1),
            weighted(&a, 2, &b, 1, &mut r2)
        );
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn length_mismatch_panics() {
        let mut rng = FastRng::new(0, 0);
        combine_weighted_assign(&SignVec::zeros(4), 1, &mut SignVec::zeros(5), 1, &mut rng);
    }
}

#[cfg(test)]
mod properties {
    //! Property-based tests of `⊙`'s algebraic invariants: the packed
    //! bitwise form agrees with the scalar specification on every bit, the
    //! output is bounded by AND/OR (count conservation), agreements are
    //! untouched, and the keep/flip split matches the consumed Bernoulli
    //! mask exactly.

    use proptest::prelude::*;

    use super::tests::weighted;
    use super::*;

    fn signvec_from_bits(bits: &[bool]) -> SignVec {
        let mut v = SignVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    proptest! {
        /// Bitwise identity: `(a AND b) OR ((a XOR b) AND v)` equals the
        /// scalar spec "agreement passes through; disagreement takes the
        /// received bit iff the transient draw kept it". The Bernoulli mask
        /// is replayed by cloning the RNG before the combine.
        #[test]
        fn packed_combine_matches_scalar_spec(
            recv_bits in prop::collection::vec(any::<bool>(), 1..200),
            local_bits in prop::collection::vec(any::<bool>(), 1..200),
            a in 1usize..12,
            b in 1usize..12,
            seed in any::<u64>(),
        ) {
            let n = recv_bits.len().min(local_bits.len());
            let recv = signvec_from_bits(&recv_bits[..n]);
            let local = signvec_from_bits(&local_bits[..n]);
            let mut rng = FastRng::new(seed, 1);
            // Replay the exact keep-mask the combine will draw.
            let keep = SignVec::bernoulli_uniform(
                n,
                a as f64 / (a + b) as f64,
                &mut rng.clone(),
            );
            let out = weighted(&recv, a, &local, b, &mut rng);
            for j in 0..n {
                // Agreement passes through; a disagreement keeps the
                // received bit iff the transient draw kept it.
                let expected = if recv.get(j) == local.get(j) || keep.get(j) {
                    recv.get(j)
                } else {
                    local.get(j)
                };
                prop_assert_eq!(
                    out.get(j),
                    expected,
                    "bit {} (recv {} local {} keep {})",
                    j,
                    recv.get(j),
                    local.get(j),
                    keep.get(j)
                );
            }
        }

        /// Count conservation: every output bit is bounded below by
        /// `a AND b` and above by `a OR b` — `⊙` only ever resolves
        /// disagreements, never inverts an agreement.
        #[test]
        fn output_is_bounded_by_and_and_or(
            recv_bits in prop::collection::vec(any::<bool>(), 1..300),
            local_bits in prop::collection::vec(any::<bool>(), 1..300),
            a in 1usize..20,
            b in 1usize..20,
            seed in any::<u64>(),
        ) {
            let n = recv_bits.len().min(local_bits.len());
            let recv = signvec_from_bits(&recv_bits[..n]);
            let local = signvec_from_bits(&local_bits[..n]);
            let mut rng = FastRng::new(seed, 2);
            let out = weighted(&recv, a, &local, b, &mut rng);
            let floor = recv.and(&local);
            let ceil = recv.or(&local);
            // Bitwise: floor ⊆ out ⊆ ceil.
            prop_assert_eq!(out.and(&floor), floor.clone());
            prop_assert_eq!(out.or(&ceil), ceil.clone());
            // Count form of the same fact.
            prop_assert!(out.count_ones() >= floor.count_ones());
            prop_assert!(out.count_ones() <= ceil.count_ones());
            // Agreement bits pass through exactly.
            let agree = recv.xor(&local).not();
            prop_assert_eq!(out.and(&agree), recv.and(&agree));
        }

        /// Differential: the fused in-place `combine_weighted_assign` — the
        /// form production runs — is bit-identical to the retained composed
        /// reference AND consumes the same number of RNG draws, leaving the
        /// generator in the same state, across random lengths, weights up to
        /// 255, and seeds. This is the contract that lets every pre-fusion
        /// statistical and fault-tolerance guarantee carry over unchanged.
        #[test]
        fn fused_weighted_matches_reference_bit_for_bit(
            len in 1usize..=300,
            a in 1usize..=255,
            b in 1usize..=255,
            seed in any::<u64>(),
            input_seed in any::<u64>(),
        ) {
            let mut seed_rng = FastRng::new(input_seed, 0);
            let recv = SignVec::bernoulli_uniform(len, 0.5, &mut seed_rng);
            let local = SignVec::bernoulli_uniform(len, 0.5, &mut seed_rng);
            let mut ref_rng = FastRng::new(seed, 3);
            let expected = combine_weighted_reference(&recv, a, &local, b, &mut ref_rng);
            let mut fused_rng = FastRng::new(seed, 3);
            let mut fused = local.clone();
            combine_weighted_assign(&recv, a, &mut fused, b, &mut fused_rng);
            prop_assert_eq!(&fused, &expected, "fused output differs");
            prop_assert_eq!(
                fused_rng.draws(), ref_rng.draws(),
                "fused draw count differs"
            );
            prop_assert_eq!(&fused_rng, &ref_rng, "fused RNG state differs");
        }

        /// Differential: same contract for the unweighted ablation combine.
        #[test]
        fn fused_unweighted_matches_reference_bit_for_bit(
            len in 1usize..=300,
            seed in any::<u64>(),
            input_seed in any::<u64>(),
        ) {
            let mut seed_rng = FastRng::new(input_seed, 1);
            let recv = SignVec::bernoulli_uniform(len, 0.5, &mut seed_rng);
            let local = SignVec::bernoulli_uniform(len, 0.5, &mut seed_rng);
            let mut ref_rng = FastRng::new(seed, 4);
            let expected = combine_unweighted_reference(&recv, &local, &mut ref_rng);
            let mut fused_rng = FastRng::new(seed, 4);
            let mut fused = local.clone();
            combine_unweighted_assign(&recv, &mut fused, &mut fused_rng);
            prop_assert_eq!(&fused, &expected, "fused output differs");
            prop_assert_eq!(
                fused_rng.draws(), ref_rng.draws(),
                "fused draw count differs"
            );
            prop_assert_eq!(&fused_rng, &ref_rng, "fused RNG state differs");
        }

        /// Swapping operands (and weights) leaves the *expected* output
        /// unchanged: over many trials the one-rate of `⊙(r,a; l,b)` and
        /// `⊙(l,b; r,a)` on all-disagreeing inputs both converge to
        /// `a/(a+b)`, within a 5σ binomial confidence interval.
        #[test]
        fn operand_swap_preserves_expectation(
            a in 1usize..9,
            b in 1usize..9,
            seed in any::<u64>(),
        ) {
            let n = 4096;
            let recv = SignVec::ones(n);
            let local = SignVec::zeros(n);
            let trials = 8u64;
            let total = trials * n as u64;
            let mut fwd_ones = 0usize;
            let mut swp_ones = 0usize;
            let mut rng_f = FastRng::new(seed, 10);
            let mut rng_s = FastRng::new(seed, 11);
            for _ in 0..trials {
                fwd_ones +=
                    weighted(&recv, a, &local, b, &mut rng_f).count_ones();
                // Swapped: local is now the all-ones aggregate of weight a.
                swp_ones +=
                    weighted(&local, b, &recv, a, &mut rng_s).count_ones();
            }
            let expect = a as f64 / (a + b) as f64;
            let hw = marsit_tensor::stats::binomial_ci_halfwidth(expect, total);
            let fwd = fwd_ones as f64 / total as f64;
            let swp = swp_ones as f64 / total as f64;
            prop_assert!(
                (fwd - expect).abs() <= hw,
                "forward rate {} vs {} (±{})", fwd, expect, hw
            );
            prop_assert!(
                (swp - expect).abs() <= hw,
                "swapped rate {} vs {} (±{})", swp, expect, hw
            );
        }
    }
}
