//! Multi-hop and single-hop collectives for the Marsit reproduction.
//!
//! Implements the communication *schedules* the paper assumes —
//! bit-exact, in-process, with per-hop transfer tracing:
//!
//! - [`ring`] / [`torus`]: ring all-reduce (RAR) and 2D-torus all-reduce
//!   (TAR), the two schedules of the paper's evaluation;
//! - [`tree`] / [`segring`]: the extension paradigms the paper names
//!   (binary-tree all-reduce and segmented-ring all-reduce);
//! - [`engine`]: the one topology dispatch ([`allreduce_sum`],
//!   [`allreduce_signsum`], [`allreduce_majority`], [`allreduce_onebit`]),
//!   and the same one-bit schedules compiled to a plan and run over a real
//!   transport;
//! - [`gossip`]: decentralized neighbour averaging, the slow-consensus
//!   baseline the introduction contrasts with MAR;
//! - [`ps`]: parameter-server exchanges for the single-hop baselines;
//! - [`reconfigure`]: elastic-membership topology re-formation (torus →
//!   survivor ring, ring re-expansion, lone-survivor and empty terminal
//!   modes) plus the typed [`SyncError`] the schedules surface;
//! - [`trace`]: what actually crossed the wire, priceable with
//!   `marsit_simnet`'s α–β model.
//!
//! # Schedules and payloads
//!
//! The paper's comparison is one schedule carrying different payloads, and
//! so is the code: each all-reduce topology has **one** function that
//! enumerates its hops and keeps the books — fates, per-cell aggregation
//! counts, combine contexts, trace, hop telemetry — without reading a
//! payload element, generic (monomorphised) over what the hops carry:
//!
//! | payload | bytes of a cell on the wire | reduce hop | gather hop |
//! |---|---|---|---|
//! | `f32` sums, in place on the callers' buffers | `4 · elems` | `dst[x] += src[x]` | `dst[x] = src[x]` |
//! | growing integer sign-sums (signSGD / SSDM / EF-signSGD under MAR) | [`SumWire`] of the sender's cell before the merge | `dst[x] += src[x]` | at the width of the reduced sums; a majority vote gathers one-bit votes |
//! | one-bit signs (Marsit) | `⌈elems / 8⌉.max(1)` | the caller's [`StepCombine`] (`⊙`) | one bit per coordinate |
//!
//! # Faults
//!
//! Every payload on every all-reduce topology takes a
//! [`FaultInjector`](marsit_simnet::FaultInjector), with the same meaning.
//! Reduce transfers are best-effort: one that exhausts its retry budget is
//! *omitted* — the receiver keeps its aggregate and its count, so the result
//! degrades toward an aggregate over what arrived, every [`CombineCtx`] still
//! reports the exact number of workers on each side (`⊙` stays unbiased),
//! and a sign-sum's count is what was actually folded. A one-bit reduce hop
//! whose chain is still the fault-free plan's — equal inputs, nothing omitted
//! before it — says so with a [`ChainSlot`] in its context, which lets `⊙`
//! resolve the whole chain from one shared draw; the first omission takes
//! the rest of that chain back to the counts alone. Gather and broadcast
//! transfers are reliable, so all workers agree on the result.
//! Retransmissions appear as extra trace steps and as `hop` events that
//! rebuild the trace. An inert injector gives the clean schedule.
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
mod payload;
pub mod ps;
pub mod reconfigure;
pub mod ring;
pub mod segring;
pub mod torus;
pub mod trace;
pub mod tree;

pub use engine::{
    allreduce_majority, allreduce_onebit, allreduce_signsum, allreduce_sum, compile_plan,
    run_lockstep, run_rank, EnginePlan, PlanTopology, PlannedTransfer,
};
pub use reconfigure::{DegradedMode, EffectiveTopology, SyncError, TopologyReconfigurer};
pub use ring::{ChainSlot, CombineCtx, PlannedHop, RingOnebitScratch, StepCombine, SumWire};
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

        /// The wire byte counts are the bit counts `SignSumVec` reports,
        /// rounded up to whole bytes, for any sums and any term count.
        #[test]
        fn sum_wire_bytes_round_up_sign_sum_bits(
            sums in prop::collection::vec(any::<i32>(), 0..40),
            small in prop::collection::vec(-20i32..21, 0..40),
            extra in 0u32..1000,
        ) {
            use marsit_compress::SignSumVec;
            for sums in [sums, small] {
                let widest = sums.iter().map(|s| s.unsigned_abs()).max().unwrap_or(0);
                let s = SignSumVec::from_parts(sums, widest.saturating_add(extra));
                prop_assert_eq!(SumWire::Elias.wire_bytes(&s), s.elias_bits().div_ceil(8));
                prop_assert_eq!(
                    SumWire::FixedWidth.wire_bytes(&s),
                    s.fixed_width_bits().div_ceil(8)
                );
            }
        }
    }
}
