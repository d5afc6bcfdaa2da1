//! Multi-hop and single-hop collectives for the Marsit reproduction.
//!
//! Implements the communication *schedules* the paper assumes —
//! bit-exact, in-process, with per-hop transfer tracing:
//!
//! - [`ring`]: ring all-reduce (RAR) for `f32` sums, growing integer
//!   sign-sums (the MAR extensions of signSGD baselines), and one-bit
//!   payloads with a pluggable combine operator (where Marsit's `⊙` lives);
//! - [`torus`]: 2D-torus all-reduce (TAR) versions of the same three;
//! - [`tree`] / [`segring`]: the extension paradigms the paper names
//!   (binary-tree all-reduce and segmented-ring all-reduce), with one-bit
//!   variants proving Marsit composes over them too;
//! - [`gossip`]: decentralized neighbour averaging, the slow-consensus
//!   baseline the introduction contrasts with MAR;
//! - [`ps`]: parameter-server exchanges for the single-hop baselines;
//! - [`reconfigure`]: elastic-membership topology re-formation (torus →
//!   survivor ring, ring re-expansion, lone-survivor and empty terminal
//!   modes) plus the typed [`SyncError`] the fault-aware schedules surface;
//! - [`trace`]: what actually crossed the wire, priceable with
//!   `marsit_simnet`'s α–β model.
//!
//! # Examples
//!
//! ```
//! use marsit_collectives::ring::ring_allreduce_sum;
//!
//! let mut data = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
//! let trace = ring_allreduce_sum(&mut data);
//! assert_eq!(data[0], vec![4.0, 6.0]);
//! assert_eq!(data[1], vec![4.0, 6.0]); // consensus
//! assert_eq!(trace.num_steps(), 2); // 2(M−1) with M = 2
//! ```

pub mod engine;
pub mod gossip;
pub mod ps;
pub mod reconfigure;
pub mod ring;
pub mod segring;
pub mod torus;
pub mod trace;
pub mod tree;

pub use engine::{
    allreduce_onebit, compile_plan, run_lockstep, run_rank, run_threaded, EnginePlan, PlanTopology,
    PlannedTransfer,
};
pub use reconfigure::{DegradedMode, EffectiveTopology, SyncError, TopologyReconfigurer};
pub use ring::{CombineCtx, PlannedHop, RingOnebitScratch, StepCombine, SumWire};
pub use trace::Trace;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::ring::{ring_allreduce_majority, ring_allreduce_sum, SumWire};
    use crate::torus::torus_allreduce_sum;
    use marsit_tensor::SignVec;

    proptest! {
        /// Ring all-reduce reaches consensus on the exact sum for any
        /// worker count and dimension.
        #[test]
        fn ring_sum_consensus(m in 2usize..7, d in 1usize..40, seed in any::<u32>()) {
            use marsit_tensor::rng::FastRng;
            let mut rng = FastRng::new(u64::from(seed), 0);
            let mut data: Vec<Vec<f32>> = (0..m)
                .map(|_| (0..d).map(|_| (rng.next_f64() as f32) - 0.5).collect())
                .collect();
            let mut expected = vec![0.0f32; d];
            for w in &data {
                for (e, &x) in expected.iter_mut().zip(w) {
                    *e += x;
                }
            }
            let _ = ring_allreduce_sum(&mut data);
            for w in &data {
                for (x, e) in w.iter().zip(&expected) {
                    prop_assert!((x - e).abs() < 1e-3);
                }
            }
        }

        /// Torus all-reduce agrees with ring all-reduce on the sums.
        #[test]
        fn torus_matches_ring(rows in 2usize..4, cols in 2usize..4, d in 4usize..30, seed in any::<u32>()) {
            use marsit_tensor::rng::FastRng;
            let m = rows * cols;
            let mut rng = FastRng::new(u64::from(seed), 1);
            let payloads: Vec<Vec<f32>> = (0..m)
                .map(|_| (0..d).map(|_| (rng.next_f64() as f32) - 0.5).collect())
                .collect();
            let mut ring_data = payloads.clone();
            let mut torus_data = payloads;
            let _ = ring_allreduce_sum(&mut ring_data);
            let _ = torus_allreduce_sum(&mut torus_data, rows, cols);
            for (r, t) in ring_data[0].iter().zip(&torus_data[0]) {
                prop_assert!((r - t).abs() < 1e-3);
            }
        }

        /// Majority vote over the ring matches a direct per-coordinate count
        /// regardless of wire encoding.
        #[test]
        fn ring_majority_correct(m in 2usize..6, d in 1usize..50, seed in any::<u32>()) {
            use marsit_tensor::rng::FastRng;
            let mut rng = FastRng::new(u64::from(seed), 2);
            let signs: Vec<SignVec> = (0..m)
                .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
                .collect();
            for wire in [SumWire::Elias, SumWire::FixedWidth] {
                let (vote, _) = ring_allreduce_majority(&signs, wire);
                for j in 0..d {
                    let s: i32 = signs.iter().map(|v| if v.get(j) { 1 } else { -1 }).sum();
                    prop_assert_eq!(vote.get(j), s >= 0);
                }
            }
        }
    }
}
