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

use crate::reconfigure::SyncError;
use crate::ring::{split_pair, CombineCtx};
use crate::trace::Trace;

/// Number of reduce levels of a binary tree over `m` workers.
#[must_use]
pub fn tree_levels(m: usize) -> usize {
    assert!(m >= 1, "tree needs at least 1 worker");
    (usize::BITS - (m - 1).leading_zeros()) as usize
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
    let m = data.len();
    assert!(m >= 2, "tree all-reduce needs at least 2 workers");
    let d = data[0].len();
    assert!(data.iter().all(|v| v.len() == d), "payload lengths differ");
    let bytes = d * 4;
    let mut trace = Trace::new();

    // Reduce: at level l (stride s = 2^l), worker w+s sends to w for every
    // w divisible by 2s.
    let mut stride = 1;
    while stride < m {
        let mut step = Vec::new();
        let mut w = 0;
        while w + stride < m {
            step.push(bytes);
            let (src, dst) = split_pair(data, w + stride, w);
            for (x, &y) in dst.iter_mut().zip(src.iter()) {
                *x += y;
            }
            w += 2 * stride;
        }
        trace.push_step(step);
        stride *= 2;
    }

    // Broadcast: mirror the reduce levels top-down.
    stride /= 2;
    while stride >= 1 {
        let mut step = Vec::new();
        let mut w = 0;
        while w + stride < m {
            step.push(bytes);
            let (src, dst) = split_pair(data, w, w + stride);
            dst.copy_from_slice(src);
            w += 2 * stride;
        }
        trace.push_step(step);
        if stride == 1 {
            break;
        }
        stride /= 2;
    }
    trace
}

/// Binary-tree all-reduce of sign vectors into global sign sums (integer
/// payload widths grow toward the root, as under any linear MAR scheme).
///
/// # Panics
///
/// Panics if fewer than 2 workers or sign lengths differ.
#[must_use]
pub fn tree_allreduce_signsum(signs: &[SignVec]) -> (SignSumVec, Trace) {
    let m = signs.len();
    assert!(m >= 2, "tree all-reduce needs at least 2 workers");
    let d = signs[0].len();
    assert!(signs.iter().all(|v| v.len() == d), "sign lengths differ");
    let mut state: Vec<Option<SignSumVec>> = signs
        .iter()
        .map(|v| Some(SignSumVec::from_signs(v)))
        .collect();
    let mut trace = Trace::new();
    let mut stride = 1;
    while stride < m {
        let mut step = Vec::new();
        let mut w = 0;
        while w + stride < m {
            let sent = state[w + stride]
                .take()
                .expect("child still holds its aggregate");
            step.push(sent.elias_bits().div_ceil(8));
            state[w]
                .as_mut()
                .expect("parent still holds its aggregate")
                .merge(&sent);
            w += 2 * stride;
        }
        trace.push_step(step);
        stride *= 2;
    }
    let total = state[0].take().expect("root aggregate");
    // Broadcast the final sums back down.
    let down_bytes = total.elias_bits().div_ceil(8);
    let mut levels = tree_levels(m);
    while levels > 0 {
        let transfers = broadcast_transfers(m, levels - 1);
        trace.push_step(vec![down_bytes; transfers]);
        levels -= 1;
    }
    (total, trace)
}

/// Binary-tree all-reduce of one-bit payloads with a caller-supplied
/// combine (Marsit over a reduction tree).
///
/// Every transfer is one bit per coordinate. Combine contexts carry the
/// subtree sizes: at stride `s`, the received aggregate covers up to `s`
/// workers and the local aggregate up to `s` workers (exact counts are
/// tracked per node, handling non-power-of-two `m`).
/// `combine(received, local, ctx)` merges the child's aggregate *into* the
/// parent's in place — no clone per merge.
///
/// # Panics
///
/// Panics if fewer than 2 workers, sign lengths differ, or the combine
/// changes the local vector's length.
pub fn tree_allreduce_onebit<F>(signs: &[SignVec], mut combine: F) -> (SignVec, Trace)
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    let m = signs.len();
    assert!(m >= 2, "tree all-reduce needs at least 2 workers");
    let d = signs[0].len();
    assert!(signs.iter().all(|v| v.len() == d), "sign lengths differ");
    let bytes = d.div_ceil(8).max(1);
    let mut state: Vec<SignVec> = signs.to_vec();
    let mut counts: Vec<usize> = vec![1; m];
    let mut trace = Trace::new();
    let mut stride = 1;
    let mut level = 0;
    while stride < m {
        let mut step = Vec::new();
        let mut w = 0;
        while w + stride < m {
            step.push(bytes);
            let ctx = CombineCtx {
                step: level,
                receiver: w,
                segment: 0,
                received_count: counts[w + stride],
                local_count: counts[w],
            };
            let (src, dst) = split_pair(&mut state, w + stride, w);
            combine(src, dst, ctx);
            assert_eq!(dst.len(), d, "combine changed length");
            counts[w] += counts[w + stride];
            w += 2 * stride;
        }
        trace.push_step(step);
        stride *= 2;
        level += 1;
    }
    assert_eq!(counts[0], m, "root must aggregate all workers");
    // Broadcast the consensus bits down the tree.
    let mut levels = tree_levels(m);
    while levels > 0 {
        let transfers = broadcast_transfers(m, levels - 1);
        trace.push_step(vec![bytes; transfers]);
        levels -= 1;
    }
    (state.swap_remove(0), trace)
}

/// [`tree_allreduce_onebit`] under fault injection.
///
/// An upward (reduce) transfer that exhausts its retry budget is omitted:
/// the parent keeps its aggregate, the child's whole subtree is excluded
/// from the consensus, and per-node counts stay exact, so every
/// [`CombineCtx`] still reports true subtree sizes. Downward (broadcast)
/// transfers are reliable — all workers end with the root's consensus.
///
/// With an inert injector this reproduces [`tree_allreduce_onebit`].
///
/// # Errors
///
/// Returns a [`SyncError`] if fewer than 2 workers or sign lengths differ.
///
/// # Panics
///
/// Panics if the combine changes the local vector's length (a programmer
/// error in the closure, not a runtime condition).
pub fn tree_allreduce_onebit_faulty<F>(
    signs: &[SignVec],
    inj: &mut FaultInjector,
    mut combine: F,
) -> Result<(SignVec, Trace), SyncError>
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    let m = signs.len();
    if m < 2 {
        return Err(SyncError::TooFewWorkers { needed: 2, got: m });
    }
    let d = signs[0].len();
    if let Some(bad) = signs.iter().find(|v| v.len() != d) {
        return Err(SyncError::LengthMismatch {
            expected: d,
            got: bad.len(),
        });
    }
    let bytes = d.div_ceil(8).max(1);
    let mut state: Vec<SignVec> = signs.to_vec();
    let mut counts: Vec<usize> = vec![1; m];
    let mut trace = Trace::new();
    let mut stride = 1;
    let mut level = 0;
    while stride < m {
        let step_base = trace.num_steps();
        let mut w = 0;
        while w + stride < m {
            let fate = inj.transfer();
            trace.record_attempts(step_base, bytes, fate.attempts);
            if fate.delivered {
                let ctx = CombineCtx {
                    step: level,
                    receiver: w,
                    segment: 0,
                    received_count: counts[w + stride],
                    local_count: counts[w],
                };
                let (src, dst) = split_pair(&mut state, w + stride, w);
                combine(src, dst, ctx);
                assert_eq!(dst.len(), d, "combine changed length");
                counts[w] += counts[w + stride];
            }
            w += 2 * stride;
        }
        stride *= 2;
        level += 1;
    }
    debug_assert!(
        counts[0] <= m,
        "root cannot aggregate more than all workers"
    );
    // Broadcast the root consensus down the tree, reliably.
    let mut levels = tree_levels(m);
    while levels > 0 {
        let transfers = broadcast_transfers(m, levels - 1);
        let step_base = trace.num_steps();
        for _ in 0..transfers {
            let fate = inj.transfer_reliable();
            trace.record_attempts(step_base, bytes, fate.attempts);
        }
        levels -= 1;
    }
    Ok((state.swap_remove(0), trace))
}

/// Number of transfers at broadcast level `level` (stride `2^level`).
fn broadcast_transfers(m: usize, level: usize) -> usize {
    let stride = 1usize << level;
    let mut transfers = 0;
    let mut w = 0;
    while w + stride < m {
        transfers += 1;
        w += 2 * stride;
    }
    transfers
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
    #[should_panic(expected = "at least 2 workers")]
    fn single_worker_panics() {
        let mut data = vec![vec![1.0f32; 4]];
        let _ = tree_allreduce_sum(&mut data);
    }

    #[test]
    fn faulty_tree_with_inert_injector_matches_clean() {
        for m in [2usize, 5, 8] {
            let sv = signs(m, 40, 41);
            let combine = |r: &SignVec, l: &mut SignVec, _ctx: CombineCtx| l.and_assign(r);
            let (clean, clean_trace) = tree_allreduce_onebit(&sv, combine);
            let mut inj = FaultInjector::inert();
            let (faulty, faulty_trace) =
                tree_allreduce_onebit_faulty(&sv, &mut inj, combine).expect("valid inputs");
            assert_eq!(clean, faulty, "m={m}");
            assert_eq!(clean_trace, faulty_trace, "m={m}");
        }
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
        let (_, _) = tree_allreduce_onebit_faulty(&sv, &mut inj, |r, l, ctx| {
            root_total = root_total.max(ctx.received_count + ctx.local_count);
            l.copy_from(r);
        })
        .expect("valid inputs");
        assert!(root_total <= m);
        assert!(inj.stats().dropped_transfers > 0);
    }
}
