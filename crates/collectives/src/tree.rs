//! Tree all-reduce: the extension paradigm the paper names alongside TAR
//! ("Marsit can be easily extended to other all-reduce paradigms including
//! segmented-ring all-reduce \[25\] and tree all-reduce \[24\]", Section 5).
//!
//! A binary reduction tree: `⌈log₂ M⌉` *reduce* levels fold pairs of
//! aggregates upward to worker 0, then the same number of *broadcast*
//! levels fan the result back out. Latency is logarithmic (vs linear for a
//! ring) at the cost of moving the full payload on every level — the
//! classic latency/bandwidth trade.
//!
//! The one-bit variant demonstrates exactly why Marsit's *weighted* `⊙`
//! matters: a tree merge combines two aggregates of arbitrary sizes, which
//! Eq. (2)'s `b = 1` special case cannot express but
//! `combine_weighted(recv, a, local, b)` can.

use marsit_compress::SignSumVec;
use marsit_simnet::FaultInjector;
use marsit_tensor::SignVec;

use crate::engine::{allreduce_onebit, allreduce_signsum, allreduce_sum, PlanTopology};
use crate::payload::Payload;
use crate::reconfigure::SyncError;
use crate::ring::{clean, Book, CombineCtx, SumWire, Wire};
use crate::trace::Trace;

/// Number of reduce levels of a binary tree over `m` workers.
#[must_use]
pub fn tree_levels(m: usize) -> usize {
    assert!(m >= 1, "tree needs at least 1 worker");
    (usize::BITS - (m - 1).leading_zeros()) as usize
}

/// The `(parent, child)` pairs of tree level `level` (stride `s = 2^level`):
/// worker `w + s` reports to `w` for every `w` divisible by `2s`. The one
/// function that enumerates a tree's hops — reduce levels run child → parent
/// bottom-up, broadcast levels parent → child top-down.
fn level_pairs(m: usize, level: usize) -> impl Iterator<Item = (usize, usize)> {
    let stride = 1usize << level;
    (0..m)
        .step_by(2 * stride)
        .map(move |w| (w, w + stride))
        .take_while(move |&(_, child)| child < m)
}

/// In-place binary-tree all-reduce summing `f32` payloads.
///
/// On return every `data[w]` holds the elementwise sum. The trace has one
/// step per tree level (reduce levels then broadcast levels); transfers
/// within a level ride disjoint links.
///
/// # Panics
///
/// Panics if fewer than 2 workers or payload lengths differ.
pub fn tree_allreduce_sum(data: &mut [Vec<f32>]) -> Trace {
    let inj = &mut FaultInjector::inert();
    clean(allreduce_sum(PlanTopology::Tree, data, inj))
}

/// Binary-tree all-reduce of sign vectors into global sign sums (Elias-coded
/// integer payloads whose widths grow toward the root, as under any linear
/// MAR scheme).
///
/// # Panics
///
/// Panics if fewer than 2 workers or sign lengths differ.
#[must_use]
pub fn tree_allreduce_signsum(signs: &[SignVec]) -> (SignSumVec, Trace) {
    let inj = &mut FaultInjector::inert();
    clean(allreduce_signsum(
        PlanTopology::Tree,
        signs,
        SumWire::Elias,
        inj,
    ))
}

/// Binary-tree all-reduce of one-bit payloads with a caller-supplied
/// combine (Marsit over a reduction tree).
///
/// Every transfer is one bit per coordinate. Combine contexts carry the
/// subtree sizes: at stride `s`, the received aggregate covers up to `s`
/// workers and the local aggregate up to `s` workers (exact counts are
/// tracked per node, handling non-power-of-two `m`).
/// `combine(received, local, ctx)` merges the child's aggregate *into* the
/// parent's in place — no clone per merge. Under faults
/// ([`allreduce_onebit`] with an injector) an omitted upward transfer
/// excludes the child's whole subtree from the consensus.
///
/// # Panics
///
/// Panics if fewer than 2 workers, sign lengths differ, or the combine
/// changes the local vector's length.
pub fn tree_allreduce_onebit<F>(signs: &[SignVec], combine: F) -> (SignVec, Trace)
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    let inj = &mut FaultInjector::inert();
    clean(allreduce_onebit(PlanTopology::Tree, signs, inj, combine))
}

/// The one function that enumerates a tree's hops, whatever they carry: `m`
/// workers all-reducing `d` elements of `payload` over `wire`. A tree is a
/// one-segment grid: a level's merges are one reduce step (one
/// [`Payload::step_begin`] plan), the root's cell is the result, and the
/// broadcast levels are reliable copies.
pub(crate) fn tree_exec<P: Payload>(
    m: usize,
    d: usize,
    wire: &mut Wire<'_>,
    book: &mut Book,
    payload: &mut P,
) -> Result<(), SyncError> {
    if m < 2 {
        return Err(SyncError::TooFewWorkers { needed: 2, got: m });
    }
    book.load(m, d, 1, |_| 1);
    payload.load(wire.frame, m, d, &book.segs)?;
    let levels = tree_levels(m);
    for level in 0..levels {
        let hops = level_pairs(m, level).map(|(w, child)| (child, w, 0));
        book.reduce_step(level, hops, 0, None, wire, payload);
    }
    book.reduced(0, 0, wire, payload);
    for (g, level) in (0..levels).rev().enumerate() {
        wire.open_step();
        for (w, child) in level_pairs(m, level) {
            book.copy_hop(g, (w, child, 0), wire, payload);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_tensor::rng::FastRng;

    fn payloads(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = FastRng::new(seed, 0);
        (0..m)
            .map(|_| (0..d).map(|_| rng.next_f64() as f32 - 0.5).collect())
            .collect()
    }

    fn signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
        let mut rng = FastRng::new(seed, 1);
        (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect()
    }

    #[test]
    fn tree_levels_values() {
        assert_eq!(tree_levels(2), 1);
        assert_eq!(tree_levels(3), 2);
        assert_eq!(tree_levels(4), 2);
        assert_eq!(tree_levels(5), 3);
        assert_eq!(tree_levels(8), 3);
    }

    #[test]
    fn tree_sum_matches_reference_all_sizes() {
        for m in 2..=9 {
            let d = 33;
            let mut data = payloads(m, d, 7);
            let mut expected = vec![0.0f32; d];
            for w in &data {
                for (e, &x) in expected.iter_mut().zip(w) {
                    *e += x;
                }
            }
            let trace = tree_allreduce_sum(&mut data);
            for (w, payload) in data.iter().enumerate() {
                for (j, (&got, &want)) in payload.iter().zip(&expected).enumerate() {
                    assert!((got - want).abs() < 1e-4, "m={m} worker {w} coord {j}");
                }
            }
            assert_eq!(trace.num_steps(), 2 * tree_levels(m));
        }
    }

    #[test]
    fn tree_has_fewer_steps_than_ring_for_large_m() {
        let m = 16;
        let d = 64;
        let mut tree_data = payloads(m, d, 1);
        let tree_trace = tree_allreduce_sum(&mut tree_data);
        let mut ring_data = payloads(m, d, 1);
        let ring_trace = crate::ring::ring_allreduce_sum(&mut ring_data);
        assert!(tree_trace.num_steps() < ring_trace.num_steps()); // 8 vs 30
                                                                  // But the tree moves the full payload every level: worse bandwidth.
        assert!(tree_trace.critical_path_bytes() > ring_trace.critical_path_bytes());
    }

    #[test]
    fn tree_signsum_totals() {
        for m in [2usize, 3, 5, 8] {
            let d = 40;
            let sv = signs(m, d, 3);
            let (total, trace) = tree_allreduce_signsum(&sv);
            assert_eq!(total.count(), m as u32);
            for j in 0..d {
                let sum: i32 = sv.iter().map(|v| if v.get(j) { 1 } else { -1 }).sum();
                assert_eq!(total.sums()[j], sum, "m={m} coord {j}");
            }
            assert_eq!(trace.num_steps(), 2 * tree_levels(m));
        }
    }

    #[test]
    fn tree_onebit_counts_cover_all_workers() {
        for m in [2usize, 3, 6, 8, 11] {
            let sv = signs(m, 24, 9);
            let mut max_total = 0;
            let (_, trace) = tree_allreduce_onebit(&sv, |r, l, ctx| {
                max_total = max_total.max(ctx.received_count + ctx.local_count);
                l.copy_from(r);
            });
            assert_eq!(max_total, m, "m={m}");
            // Every transfer is 1 bit/coordinate.
            for step in trace.steps() {
                for &b in step {
                    assert_eq!(b, 3); // 24 bits -> 3 bytes
                }
            }
        }
    }

    #[test]
    fn tree_onebit_is_unbiased_with_weighted_combine() {
        // The weighted ⊙ keeps unbiasedness on tree merges of unequal
        // subtree sizes (m = 5 has a 4-subtree merged with a 1-subtree).
        let m = 5;
        let d = 30;
        let sv = signs(m, d, 11);
        let trials = 30_000;
        let mut ones = vec![0u32; d];
        for trial in 0..trials {
            let mut rng = FastRng::new(trial, 5);
            let (out, _) = tree_allreduce_onebit(&sv, |r, l, ctx| {
                // combine_weighted lives in marsit-core; emulate it here to
                // keep the dependency direction (core depends on this crate).
                let p = ctx.received_count as f64 / (ctx.received_count + ctx.local_count) as f64;
                let keep = SignVec::bernoulli_uniform(r.len(), p, &mut rng);
                let merged = keep.and(r).or(&keep.not().and(l));
                l.copy_from(&merged);
            });
            for (j, o) in ones.iter_mut().enumerate() {
                *o += u32::from(out.get(j));
            }
        }
        for (j, &o) in ones.iter().enumerate() {
            let measured = f64::from(o) / f64::from(trials as u32);
            let expected = sv.iter().filter(|v| v.get(j)).count() as f64 / m as f64;
            assert!(
                (measured - expected).abs() < 0.02,
                "coord {j}: {measured} vs {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs >= 2 workers")]
    fn single_worker_panics() {
        let mut data = vec![vec![1.0f32; 4]];
        let _ = tree_allreduce_sum(&mut data);
    }

    #[test]
    fn faulty_tree_drops_exclude_whole_subtrees() {
        use marsit_simnet::FaultPlan;
        let m = 8;
        let sv = signs(m, 32, 43);
        let plan = FaultPlan::seeded(2)
            .with_link_drop(0.5)
            .with_retry_policy(0, 1e-4);
        let mut inj = plan.injector(0);
        let mut root_total = 0;
        let (_, _) = allreduce_onebit(PlanTopology::Tree, &sv, &mut inj, |r, l, ctx| {
            root_total = root_total.max(ctx.received_count + ctx.local_count);
            l.copy_from(r);
        })
        .expect("valid inputs");
        assert!(root_total <= m);
        assert!(inj.stats().dropped_transfers > 0);
    }
}
