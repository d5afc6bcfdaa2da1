//! Dense tensors, bit-packed sign vectors, and deterministic randomness —
//! the numeric substrate of the Marsit (DAC 2022) reproduction.
//!
//! The paper trains neural networks with PyTorch on GPUs; this workspace
//! rebuilds the minimum numeric stack required to exercise the same
//! synchronization code paths on a CPU:
//!
//! - [`Tensor`]: a row-major `f32` matrix with the linear algebra needed for
//!   exact backpropagation (matmul and transposed variants, elementwise
//!   arithmetic, reductions).
//! - [`gemm`]: the one register-blocked, bit-identical kernel behind all
//!   three matrix products, callable on caller-owned slices.
//! - [`SignVec`]: a bit-packed sign vector — the one-bit wire format of
//!   Marsit's `⊙` operator and of every signSGD-family compressor.
//! - [`rng`]: seed-splitting and a fast generator — Bernoulli draws and
//!   [`rng::FastRng::fill_gaussian`] — so that all stochastic compression and
//!   every synthetic dataset is reproducible bit-for-bit.
//! - [`stats`]: norms and online moments used by the experiment harness.
//! - [`lanes`]: the lane executor that spreads one round's per-coordinate
//!   sweeps over the host's cores without changing a bit.
//!
//! # Examples
//!
//! ```
//! use marsit_tensor::{SignVec, Tensor};
//! use marsit_tensor::rng::FastRng;
//!
//! let mut rng = FastRng::new(42, 0);
//! let grad = Tensor::gaussian(1, 1000, 1.0, &mut rng);
//! let signs = SignVec::from_signs(grad.as_slice());
//! // One bit per coordinate: 1000 bits -> 125 bytes on the wire.
//! assert_eq!(signs.packed_bytes(), 125);
//! ```

mod gaussian;
pub mod gemm;
pub mod lanes;
mod norm;
pub mod rng;
pub mod signvec;
pub mod stats;
pub mod tensor;

pub use norm::{advance_striped_norms, fold_striped_norm, NormLanes};
pub use signvec::{
    compensate_block, compensate_block_words, fill_bernoulli_masks_indexed,
    fill_winner_planes_indexed, winner_plane_count, Residual, ScaledSignLut, SignVec,
    PROLOGUE_BLOCK,
};
pub use tensor::{ShapeError, Tensor};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::rng::FastRng;
    use crate::SignVec;

    proptest! {
        /// AND/OR/XOR on packed words agree with per-bit evaluation.
        #[test]
        fn bitwise_ops_agree_with_scalar(bits_a in prop::collection::vec(any::<bool>(), 1..300),
                                         bits_b_seed in any::<u64>()) {
            let n = bits_a.len();
            let mut rng = FastRng::new(bits_b_seed, 0);
            let bits_b: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.5)).collect();
            let a: SignVec = bits_a.iter().copied().collect();
            let b: SignVec = bits_b.iter().copied().collect();
            for i in 0..n {
                prop_assert_eq!(a.and(&b).get(i), bits_a[i] & bits_b[i]);
                prop_assert_eq!(a.or(&b).get(i), bits_a[i] | bits_b[i]);
                prop_assert_eq!(a.xor(&b).get(i), bits_a[i] ^ bits_b[i]);
                prop_assert_eq!(a.not().get(i), !bits_a[i]);
            }
        }

        /// Serialization round-trips for arbitrary lengths.
        #[test]
        fn signvec_bytes_round_trip(bits in prop::collection::vec(any::<bool>(), 0..500)) {
            let v: SignVec = bits.iter().copied().collect();
            let restored = SignVec::from_bytes(v.len(), &v.to_bytes());
            prop_assert_eq!(restored, v);
        }

        /// matching_count is symmetric and bounded by len.
        #[test]
        fn matching_count_symmetric(bits in prop::collection::vec(any::<(bool, bool)>(), 1..300)) {
            let a: SignVec = bits.iter().map(|&(x, _)| x).collect();
            let b: SignVec = bits.iter().map(|&(_, y)| y).collect();
            prop_assert_eq!(a.matching_count(&b), b.matching_count(&a));
            prop_assert!(a.matching_count(&b) <= a.len());
            let expected = bits.iter().filter(|&&(x, y)| x == y).count();
            prop_assert_eq!(a.matching_count(&b), expected);
        }

        /// slice/splice are mutually inverse.
        #[test]
        fn slice_splice_inverse(bits in prop::collection::vec(any::<bool>(), 2..300),
                                cut in 0usize..100) {
            let v: SignVec = bits.iter().copied().collect();
            let start = cut % bits.len();
            let count = (bits.len() - start).min(bits.len() / 2 + 1);
            let part = v.slice(start, count);
            let mut rebuilt = v.clone();
            rebuilt.splice(start, &part);
            prop_assert_eq!(rebuilt, v);
        }
    }
}
