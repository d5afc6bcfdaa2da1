//! Segmented-ring all-reduce: the second extension paradigm the paper names
//! (Jia et al., "Highly scalable deep learning training system with
//! mixed-precision", arXiv:1807.11205).
//!
//! The payload is cut into `S` *macro-segments* that are each all-reduced by
//! an independent ring pass, pipelined one step apart: while macro-segment 0
//! runs its step `k`, macro-segment 1 runs its step `k−1`, and so on. All
//! pipelines share the same physical ring, so within one wall-clock step a
//! link carries one transfer per active pipeline — the trace records them in
//! the same step (they are serialized on the link by the α–β pricing via
//! transfer size, while the per-step α is paid once, which is exactly the
//! latency-hiding the scheme exists for).
//!
//! With `S = 1` this degenerates to plain ring all-reduce.

use std::ops::Range;

use marsit_simnet::FaultInjector;
use marsit_tensor::SignVec;

use crate::engine::{allreduce_onebit, allreduce_sum, PlanTopology};
use crate::payload::Payload;
use crate::reconfigure::SyncError;
use crate::ring::{clean, ring_exec, segment_ranges, Book, CombineCtx, Frame, RingNames, Wire};
use crate::trace::Trace;

/// In-place segmented-ring all-reduce summing `f32` payloads.
///
/// `macro_segments` is the pipeline depth `S`. Returns the pipelined trace:
/// `2(M−1) + S − 1` wall-clock steps.
///
/// # Panics
///
/// Panics if fewer than 2 workers, `macro_segments == 0`, or payload
/// lengths differ.
pub fn segring_allreduce_sum(data: &mut [Vec<f32>], macro_segments: usize) -> Trace {
    let inj = &mut FaultInjector::inert();
    clean(allreduce_sum(
        PlanTopology::SegRing { macro_segments },
        data,
        inj,
    ))
}

/// The pipelines of a segmented ring: `(s, range)` for every non-empty
/// macro-segment (with `S > d` the tail is empty). Pipeline `s` starts `s`
/// wall-clock steps in; the non-empty ones are a prefix, so each overlays
/// onto steps the previous one already opened.
fn pipelines(macros: &[Range<usize>]) -> impl Iterator<Item = (usize, &Range<usize>)> {
    macros
        .iter()
        .enumerate()
        .filter(|(_, range)| !range.is_empty())
}

/// Segmented-ring all-reduce of one-bit payloads with a caller-supplied
/// combine (Marsit over a segmented ring).
///
/// The combine context's `segment` field carries the macro-segment index so
/// deterministic RNG streams stay distinct across pipelines. Under faults
/// ([`allreduce_onebit`] with an injector) the pipelines consume the fault
/// stream in macro-segment order, and retransmissions appear as extra steps
/// inside each pipeline's trace before the pipelining shift is applied.
///
/// # Panics
///
/// Panics if fewer than 2 workers, `macro_segments == 0`, or sign lengths
/// differ.
pub fn segring_allreduce_onebit<F>(
    signs: &[SignVec],
    macro_segments: usize,
    combine: F,
) -> (SignVec, Trace)
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    let inj = &mut FaultInjector::inert();
    let topology = PlanTopology::SegRing { macro_segments };
    clean(allreduce_onebit(topology, signs, inj, combine))
}

/// The one function that enumerates a segmented ring's hops, whatever they
/// carry: `m` workers all-reducing `d` elements of `payload` in
/// `macro_segments` pipelined ring passes over `wire`. Pipeline `s` is the
/// ring walk over macro-segment `s`, its context segments shifted by `s·m`,
/// its trace and hop telemetry overlaid from step `s` on.
pub(crate) fn segring_exec<P: Payload>(
    m: usize,
    d: usize,
    macro_segments: usize,
    wire: &mut Wire<'_>,
    payload: &mut P,
) -> Result<(), SyncError> {
    if m < 2 {
        return Err(SyncError::TooFewWorkers { needed: 2, got: m });
    }
    if macro_segments == 0 {
        return Err(SyncError::ZeroSegments);
    }
    let macros = segment_ranges(d, macro_segments);
    payload.load(wire.frame, m, d, &macros)?;
    let (ring, sub) = (&mut Book::default(), &mut Trace::new());
    for (s, range) in pipelines(&macros) {
        let frame = Frame {
            base: 0,
            stride: 1,
            start: range.start,
            cell: Some(s),
        };
        let ring_wire = &mut wire.sub(sub, s, frame);
        let names = RingNames::Shifted(s * m);
        ring_exec(m, range.len(), |_| 1, names, ring_wire, ring, payload)?;
        wire.trace.overlay(s, sub);
    }
    wire.rec.reserve_steps(wire.trace.num_steps());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_simnet::LinkModel;
    use marsit_tensor::rng::FastRng;

    fn payloads(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = FastRng::new(seed, 0);
        (0..m)
            .map(|_| (0..d).map(|_| rng.next_f64() as f32 - 0.5).collect())
            .collect()
    }

    #[test]
    fn segring_sum_matches_plain_ring() {
        for s in [1usize, 2, 4, 7] {
            let m = 4;
            let d = 52;
            let mut seg_data = payloads(m, d, 3);
            let mut ring_data = seg_data.clone();
            let _ = segring_allreduce_sum(&mut seg_data, s);
            let _ = crate::ring::ring_allreduce_sum(&mut ring_data);
            for (a, b) in seg_data[0].iter().zip(&ring_data[0]) {
                assert!((a - b).abs() < 1e-4, "S={s}");
            }
        }
    }

    #[test]
    fn segring_pipelines_steps() {
        let m = 4;
        let d = 400;
        let s = 4;
        let mut data = payloads(m, d, 1);
        let trace = segring_allreduce_sum(&mut data, s);
        // 2(M−1) + S − 1 wall-clock steps.
        assert_eq!(trace.num_steps(), 2 * (m - 1) + s - 1);
        // Same total bytes as an unsegmented ring.
        let mut plain = payloads(m, d, 1);
        let plain_trace = crate::ring::ring_allreduce_sum(&mut plain);
        assert_eq!(trace.total_bytes(), plain_trace.total_bytes());
    }

    #[test]
    fn segring_reduces_latency_bound_time() {
        // On a latency-dominated link, pipelining hides per-hop α…
        // it does NOT: each wall-clock step still pays α once, and there are
        // MORE steps; the win is that each step's transfers are S× smaller,
        // letting bandwidth-bound pipelines overlap. Verify the bandwidth
        // shape: per-step critical bytes shrink by ~S in steady state.
        let m = 4;
        let d = 4000;
        let mut seg_data = payloads(m, d, 2);
        let seg_trace = segring_allreduce_sum(&mut seg_data, 4);
        let mut plain = payloads(m, d, 2);
        let plain_trace = crate::ring::ring_allreduce_sum(&mut plain);
        let link = LinkModel::new(0.0, 1.0); // pure bandwidth
                                             // Critical-path bytes differ by at most the pipeline fill/drain.
        let seg_time = seg_trace.time(link);
        let plain_time = plain_trace.time(link);
        assert!(
            seg_time <= plain_time * 1.4,
            "seg {seg_time} vs plain {plain_time}"
        );
    }

    #[test]
    fn segring_onebit_matches_unsegmented_consensus_shape() {
        let m = 3;
        let d = 48;
        let mut rng = FastRng::new(4, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        // "Keep local" combine: deterministic, so we can check ownership.
        let (out, trace) = segring_allreduce_onebit(&signs, 2, |_r, _l, _ctx| {});
        assert_eq!(out.len(), d);
        // Every hop is one bit per coordinate of its macro-chunk.
        for step in trace.steps() {
            for &b in step {
                assert!(b <= d.div_ceil(2).div_ceil(8).max(1));
            }
        }
    }

    #[test]
    fn segring_onebit_segment_indices_are_distinct() {
        let m = 3;
        let d = 30;
        let mut rng = FastRng::new(5, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        let mut seen = std::collections::HashSet::new();
        let _ = segring_allreduce_onebit(&signs, 2, |r, l, ctx| {
            seen.insert((ctx.segment, ctx.step, ctx.receiver));
            l.copy_from(r);
        });
        // 2 macro-segments × (m−1) steps × m combines, all distinct.
        assert_eq!(seen.len(), 2 * (m - 1) * m);
    }

    #[test]
    fn s1_equals_plain_ring_trace() {
        let m = 5;
        let d = 100;
        let mut a = payloads(m, d, 6);
        let ta = segring_allreduce_sum(&mut a, 1);
        let mut b = payloads(m, d, 6);
        let tb = crate::ring::ring_allreduce_sum(&mut b);
        assert_eq!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "needs >= 1 macro-segment")]
    fn zero_segments_panics() {
        let mut data = payloads(2, 8, 0);
        let _ = segring_allreduce_sum(&mut data, 0);
    }

    #[test]
    fn faulty_segring_is_deterministic_under_drops() {
        use marsit_simnet::FaultPlan;
        let m = 3;
        let d = 60;
        let mut rng = FastRng::new(53, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        let plan = FaultPlan::seeded(4).with_link_drop(0.25);
        let run = || {
            let mut inj = plan.injector(2);
            let (out, trace) = allreduce_onebit(
                PlanTopology::SegRing { macro_segments: 2 },
                &signs,
                &mut inj,
                |r, l, _| l.copy_from(r),
            )
            .expect("valid inputs");
            (out, trace, inj.stats())
        };
        assert_eq!(run(), run());
        assert!(run().2.retransmits > 0);
    }
}
