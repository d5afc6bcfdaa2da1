//! Wire-traffic conservation laws: every one-bit collective's `Trace` must
//! account for exactly the elements its schedule moves — no phantom bytes,
//! no missing transfers — across all four paradigms (ring, torus, tree,
//! segmented ring).
//!
//! One-bit payloads are packed, so a transfer of a `k`-element range costs
//! `max(1, ⌈k/8⌉)` bytes — between `k` and `k + 7` bits for `k ≥ 1`, and
//! one padding byte for an empty range (degenerate segmentations with
//! `D < M` produce them). Summing over a schedule that moves `E` elements
//! across `T` transfers therefore bounds the trace total:
//!
//! ```text
//! max(E, 8·T) ≤ 8 · total_bytes ≤ E + 8·T
//! ```
//!
//! The per-paradigm element counts `E` are closed forms of the schedule:
//! `2(M−1)·D` for ring / tree / segmented ring, and
//! `2(C−1)·R·D + 2(R−1)·D` for an `R×C` torus (the same formula
//! `trainsim::elements_per_round` prices wire width with).

use marsit::collectives::ring::{ring_allreduce_onebit, SumWire};
use marsit::collectives::segring::segring_allreduce_onebit;
use marsit::collectives::torus::{
    torus_allreduce_majority, torus_allreduce_onebit, torus_allreduce_signsum, torus_allreduce_sum,
};
use marsit::collectives::tree::tree_allreduce_onebit;
use marsit::collectives::{CombineCtx, Trace};
use marsit::prelude::*;
use proptest::prelude::*;

fn random_signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
    let mut rng = FastRng::new(seed, 0);
    (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
        .collect()
}

/// Elements moved and transfer count implied by a trace of one-bit packed
/// ranges: every step lists its per-transfer byte counts.
fn transfer_count(trace: &Trace) -> usize {
    trace.steps().iter().map(Vec::len).sum()
}

fn assert_bit_conservation(trace: &Trace, elements_moved: usize, label: &str) {
    let bits = 8 * trace.total_bytes();
    let transfers = transfer_count(trace);
    assert!(
        bits >= elements_moved.max(8 * transfers),
        "{label}: {bits} wire bits cannot carry {elements_moved} elements \
         over {transfers} transfers"
    );
    assert!(
        bits <= elements_moved + 8 * transfers,
        "{label}: {bits} wire bits exceed packing bound for \
         {elements_moved} elements over {transfers} transfers"
    );
    assert!(
        trace.critical_path_bytes() <= trace.total_bytes(),
        "{label}: critical path exceeds total traffic"
    );
}

#[test]
fn ring_onebit_wire_bytes_match_closed_form() {
    // d divisible by 8·m: every segment packs exactly, so the bound is an
    // equality: total = 2(M−1) · D/8 bytes.
    for (m, d) in [(4usize, 64usize), (5, 240), (8, 1024)] {
        let signs = random_signs(m, d, 7);
        let (_, trace) = ring_allreduce_onebit(&signs, |r, l, _ctx: CombineCtx| l.and_assign(r));
        assert_eq!(trace.num_steps(), 2 * (m - 1), "ring({m}) steps");
        assert_eq!(
            trace.total_bytes(),
            2 * (m - 1) * d / 8,
            "ring({m}, d={d}) exact packed total"
        );
        assert_bit_conservation(&trace, 2 * (m - 1) * d, &format!("ring({m}, d={d})"));
    }
}

#[test]
fn torus_onebit_wire_bytes_within_bounds() {
    for (rows, cols, d) in [(2usize, 3usize, 48usize), (2, 4, 64), (3, 3, 90)] {
        let signs = random_signs(rows * cols, d, 11);
        let (_, trace) =
            torus_allreduce_onebit(&signs, rows, cols, |r, l, _ctx: CombineCtx| l.or_assign(r));
        let elements = 2 * (cols - 1) * rows * d + 2 * (rows - 1) * d;
        assert_bit_conservation(&trace, elements, &format!("torus({rows}x{cols}, d={d})"));
    }
}

#[test]
fn tree_onebit_wire_bytes_match_closed_form() {
    // Every non-root sends its full payload up exactly once and receives
    // the result exactly once: 2(M−1) transfers of ⌈D/8⌉ bytes.
    for (m, d) in [(2usize, 32usize), (5, 80), (8, 128)] {
        let signs = random_signs(m, d, 13);
        let mut combine = |r: &SignVec, l: &mut SignVec, _ctx: CombineCtx| l.and_assign(r);
        let (_, trace) = tree_allreduce_onebit(&signs, &mut combine);
        assert_eq!(transfer_count(&trace), 2 * (m - 1), "tree({m}) transfers");
        assert_eq!(
            trace.total_bytes(),
            2 * (m - 1) * d.div_ceil(8),
            "tree({m}, d={d}) exact total"
        );
        assert_bit_conservation(&trace, 2 * (m - 1) * d, &format!("tree({m}, d={d})"));
    }
}

#[test]
fn segring_onebit_wire_bytes_within_bounds() {
    // S parallel macro-segment rings each move 2(M−1)·(segment length)
    // elements; the union moves 2(M−1)·D.
    for (m, s, d) in [(4usize, 2usize, 64usize), (6, 3, 90), (5, 4, 77)] {
        let signs = random_signs(m, d, 17);
        let mut combine = |r: &SignVec, l: &mut SignVec, _ctx: CombineCtx| {
            l.xor_assign(r);
            l.not_assign();
        };
        let (_, trace) = segring_allreduce_onebit(&signs, s, &mut combine);
        assert_bit_conservation(
            &trace,
            2 * (m - 1) * d,
            &format!("segring({m}, S={s}, d={d})"),
        );
    }
}

/// One TAR schedule, four payloads: `f32` sums, one-bit signs, growing
/// sign-sums and majority votes all trace the torus's `2(C−1) + 2(R−1)`
/// steps of `R·C` transfers — none traces a step nobody sends — and a
/// majority vote gathers its one-bit votes, never the sums they were taken
/// from: past the reduce phases its byte lists are the one-bit walk's.
#[test]
fn torus_payloads_share_one_schedule() {
    for (rows, cols) in [(2usize, 4usize), (4, 4), (3, 3)] {
        let (m, d) = (rows * cols, 1031);
        let signs = random_signs(m, d, 11);
        let mut data: Vec<Vec<f32>> = signs
            .iter()
            .map(|v| v.iter().map(|b| if b { 0.5 } else { -0.25 }).collect())
            .collect();
        let (_, onebit) =
            torus_allreduce_onebit(&signs, rows, cols, |r, l, _ctx: CombineCtx| l.or_assign(r));
        let (_, majority) = torus_allreduce_majority(&signs, rows, cols, SumWire::Elias);
        let traces = [
            ("f32", &torus_allreduce_sum(&mut data, rows, cols)),
            ("one-bit", &onebit),
            (
                "sign-sum",
                &torus_allreduce_signsum(&signs, rows, cols, SumWire::Elias).1,
            ),
            ("majority", &majority),
        ];
        for (payload, trace) in traces {
            let label = format!("torus({rows},{cols}) {payload}");
            assert_eq!(
                trace.num_steps(),
                2 * (cols - 1) + 2 * (rows - 1),
                "{label}: steps"
            );
            for (k, step) in trace.steps().iter().enumerate() {
                assert_eq!(step.len(), m, "{label}: transfers of step {k}");
            }
        }
        let reduce = (cols - 1) + (rows - 1);
        assert_eq!(
            majority.steps()[reduce..],
            onebit.steps()[reduce..],
            "torus({rows},{cols}): a majority vote gathers one-bit votes"
        );
    }
}

proptest! {
    /// The packing bound and the critical-path inequality hold for *every*
    /// paradigm at arbitrary worker counts and payload sizes, including
    /// sizes that do not divide evenly.
    #[test]
    fn conservation_holds_for_arbitrary_shapes(
        m in 2usize..10,
        d in 1usize..400,
        seed in any::<u64>(),
    ) {
        let signs = random_signs(m, d, seed);

        let (_, ring) = ring_allreduce_onebit(&signs, |r, l, _ctx: CombineCtx| l.and_assign(r));
        assert_bit_conservation(&ring, 2 * (m - 1) * d, "ring");

        let mut combine = |r: &SignVec, l: &mut SignVec, _ctx: CombineCtx| l.or_assign(r);
        let (_, tree) = tree_allreduce_onebit(&signs, &mut combine);
        assert_bit_conservation(&tree, 2 * (m - 1) * d, "tree");

        let macro_segments = 1 + m % 3;
        let mut combine = |r: &SignVec, l: &mut SignVec, _ctx: CombineCtx| l.and_assign(r);
        let (_, seg) = segring_allreduce_onebit(&signs, macro_segments, &mut combine);
        assert_bit_conservation(&seg, 2 * (m - 1) * d, "segring");
    }

    /// Torus shapes, separately (they need a factored worker count).
    #[test]
    fn torus_conservation_holds_for_arbitrary_shapes(
        rows in 2usize..5,
        cols in 2usize..5,
        d in 1usize..300,
        seed in any::<u64>(),
    ) {
        let signs = random_signs(rows * cols, d, seed);
        let (_, trace) =
            torus_allreduce_onebit(&signs, rows, cols, |r, l, _ctx: CombineCtx| l.or_assign(r));
        let elements = 2 * (cols - 1) * rows * d + 2 * (rows - 1) * d;
        assert_bit_conservation(&trace, elements, "torus");
    }
}
