//! Gradient compression for the Marsit reproduction.
//!
//! Implements the compression baselines the paper compares against and
//! the bit accounting of their MAR extensions:
//!
//! - [`compressor`]: worker-side compressors — [`PlainSign`] (signSGD),
//!   [`EfSign`] (EF-signSGD with error feedback), [`Ssdm`] (unbiased
//!   stochastic sign);
//! - [`cascading`]: the cascading-compression pipeline of Section 3.2, whose
//!   compounding error motivates Marsit (Theorem 3);
//! - [`sums`]: integer sign-sum payloads with the `⌈log₂ M⌉` bit growth of
//!   Section 3.1, sized at fixed width or by their Elias-γ bit count (the
//!   paper's payload compaction, counted but never encoded);
//! - [`message`]: the `(signs, scale)` wire message shared by the sign
//!   family;
//! - [`powersgd`]: low-rank PowerSGD with error feedback — linear and
//!   MAR-compatible, but needing two sequential all-reduce passes per
//!   round (the related-work inefficiency the paper notes).
//!
//! # Examples
//!
//! Unbiased stochastic sign compression (SSDM), decoded to `‖v‖·σ`:
//!
//! ```
//! use marsit_compress::{Compressor, Ssdm};
//! use marsit_tensor::rng::FastRng;
//!
//! let mut rng = FastRng::new(0, 0);
//! let grad = [0.5f32, -2.0, 1.0];
//! let msg = Ssdm::new().compress(&grad, &mut rng);
//! assert_eq!(msg.wire_bits(), 3 + 32); // one bit per coordinate + scale
//! ```

pub mod cascading;
pub mod compressor;
pub mod message;
pub mod powersgd;
pub mod sums;

pub use cascading::{
    cascade_reduce, cascade_reduce_deterministic, cascade_reduce_practical, exact_sum,
    CascadeOutcome,
};
pub use compressor::{Compressor, EfSign, PlainSign, Ssdm};
pub use message::SignMessage;
pub use powersgd::{PowerFactors, PowerSgd};
pub use sums::SignSumVec;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::sums::SignSumVec;
    use marsit_tensor::SignVec;

    proptest! {
        /// Sign-sum merging is order-independent and majority vote matches a
        /// scalar recount.
        #[test]
        fn sign_sum_merge_commutes(bits in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 16..17), 1..8)) {
            let vecs: Vec<SignVec> = bits.iter().map(|b| b.iter().copied().collect()).collect();
            let mut forward = SignSumVec::zeros(16);
            for v in &vecs {
                forward.add_signs(v);
            }
            let mut backward = SignSumVec::zeros(16);
            for v in vecs.iter().rev() {
                backward.add_signs(v);
            }
            prop_assert_eq!(&forward, &backward);
            // Majority recount.
            for j in 0..16 {
                let ones = bits.iter().filter(|b| b[j]).count() as i32;
                let sum = 2 * ones - bits.len() as i32;
                prop_assert_eq!(forward.majority_sign().get(j), sum >= 0);
            }
        }
    }
}
