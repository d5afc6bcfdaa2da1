//! **Marsit** — the paper's primary contribution: a learning-synchronization
//! framework achieving one-bit-per-coordinate transmission under multi-hop
//! all-reduce without cascading compression.
//!
//! Reproduces "Sign Bit is Enough: A Learning Synchronization Framework for
//! Multi-hop All-reduce with Ultimate Compression" (Wu et al., DAC 2022).
//! The three mechanisms:
//!
//! - [`ominus`] — the bit-wise `⊙` operator with its Bernoulli transient
//!   vector (Eq. 2), generalized to weighted combines so it composes over
//!   both ring and 2D-torus all-reduce while staying an unbiased estimator
//!   of the mean sign;
//! - [`compensation`] — the global compensation mechanism that carries the
//!   quantization residual `g_t^{(m)} − g_t` into the next round;
//! - [`schedule`] — the `K`-periodic full-precision synchronization that
//!   resets the accumulated error (Figure 3's accuracy/bits trade-off).
//!
//! [`Marsit`] assembles them into Algorithm 1; [`theory`] provides the
//! deviation bounds of Theorems 2–3 and their Monte-Carlo estimators.
//!
//! # Examples
//!
//! One synchronization round over a 4-worker ring:
//!
//! ```
//! use marsit_core::{Marsit, MarsitConfig, SyncSchedule};
//! use marsit_simnet::Topology;
//!
//! let cfg = MarsitConfig::new(SyncSchedule::every(100), 0.01, 7);
//! let mut sync = Marsit::new(cfg, 4, 1000);
//! let updates = vec![vec![0.01f32; 1000]; 4];
//! let out = sync.synchronize(&updates, Topology::ring(4));
//! assert_eq!(out.global_update.len(), 1000);
//! // Round 0 with finite K is a full-precision reset round.
//! assert!(out.full_precision);
//! ```

pub mod compensation;
pub mod marsit;
pub mod ominus;
pub mod schedule;
pub mod theory;
pub mod transport;

pub use compensation::Compensation;
pub use marsit::{CombineKind, Marsit, MarsitConfig, MarsitSnapshot, SyncOutcome, WorkspaceHandle};
pub use schedule::SyncSchedule;
pub use transport::{process_worker_main, RunArtifacts, Scenario, WORKER_MODE};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::ominus::combine_weighted_assign;
    use marsit_tensor::rng::FastRng;
    use marsit_tensor::SignVec;

    proptest! {
        /// ⊙ output bits always come from one of the two operands.
        #[test]
        fn combine_output_is_one_of_inputs(
            bits in prop::collection::vec(any::<(bool, bool)>(), 1..200),
            a in 1usize..10,
            b in 1usize..10,
            seed in any::<u64>(),
        ) {
            let recv: SignVec = bits.iter().map(|&(x, _)| x).collect();
            let mut out: SignVec = bits.iter().map(|&(_, y)| y).collect();
            let mut rng = FastRng::new(seed, 0);
            combine_weighted_assign(&recv, a, &mut out, b, &mut rng);
            for (j, &(x, y)) in bits.iter().enumerate() {
                let o = out.get(j);
                prop_assert!(o == x || o == y, "bit {j} = {o} not among inputs ({x}, {y})");
                if x == y {
                    prop_assert_eq!(o, x);
                }
            }
        }

        /// Degenerate weights: a=0 would panic, but weight dominance holds —
        /// with overwhelmingly large `a` the received bits win almost surely.
        #[test]
        fn combine_respects_extreme_weights(seed in any::<u64>()) {
            let recv = SignVec::ones(64);
            let mut out = SignVec::zeros(64);
            let mut rng = FastRng::new(seed, 1);
            combine_weighted_assign(&recv, 1_000_000, &mut out, 1, &mut rng);
            // With P(keep local) = 1e-6 per bit, 64 bits flip with
            // probability < 1e-4; allow none in this single draw.
            prop_assert!(out.count_ones() >= 63);
        }
    }
}
