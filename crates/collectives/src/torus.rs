//! 2D-torus all-reduce (TAR) schedules.
//!
//! The hierarchical collective of Mikami et al. that the paper evaluates
//! alongside RAR: (1) reduce-scatter along each *row* ring, (2) all-reduce
//! along each *column* ring on the chunk each worker now owns, (3)
//! all-gather along the rows. With `M = rows × cols` workers the critical
//! path shrinks from `2(M−1)` hops to `2(cols−1) + 2(rows−1)`, which is why
//! every method communicates faster under TAR in Figure 5.
//!
//! Workers are indexed row-major: `w = row·cols + col`.

use marsit_compress::SignSumVec;
use marsit_simnet::FaultInjector;
use marsit_telemetry::scope::FrameGuard;
use marsit_telemetry::{Hop, HopRecorder};
use marsit_tensor::SignVec;

use crate::engine::{allreduce_onebit, PlanTopology};
use crate::reconfigure::SyncError;
use crate::ring::{
    ring_allreduce_signsum_parts, ring_onebit_exec, segment_ranges, shape_of, CombineCtx, Fold,
    Frame, RingOnebitScratch, StepCombine, SumWire, Wire,
};
use crate::trace::Trace;

/// Opens the telemetry frame of column `c`'s vertical sub-ring, whose steps
/// overlay the torus's from `offset` on. The relabeling map — sub-ring worker
/// `row` reports as global worker `row·cols + c`, row-major — is built only
/// when something records.
fn column_frame(
    rec: &HopRecorder,
    offset: usize,
    rows: usize,
    cols: usize,
    c: usize,
) -> FrameGuard {
    let workers = if rec.is_active() {
        (0..rows).map(|row| row * cols + c).collect()
    } else {
        Vec::new()
    };
    rec.column_frame(offset, workers)
}

/// Validates torus shape against the payload count.
fn check_shape<T>(items: &[T], rows: usize, cols: usize) {
    assert!(rows >= 2 && cols >= 2, "torus needs both dimensions >= 2");
    assert_eq!(
        items.len(),
        rows * cols,
        "worker count must equal rows*cols"
    );
}

/// In-place 2D-torus all-reduce summing `f32` payloads.
///
/// On return every `data[w]` holds the elementwise sum over all workers.
///
/// # Panics
///
/// Panics if the shape is invalid or payload lengths differ.
pub fn torus_allreduce_sum(data: &mut [Vec<f32>], rows: usize, cols: usize) -> Trace {
    check_shape(data, rows, cols);
    let d = data[0].len();
    assert!(data.iter().all(|v| v.len() == d), "payload lengths differ");
    let chunks = segment_ranges(d, cols);
    let mut trace = Trace::new();
    let mut rec = HopRecorder::begin();

    // Phase 1: horizontal reduce-scatter within each row.
    for rr in 0..cols - 1 {
        let expanded = trace.num_steps();
        let mut step = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for c in 0..cols {
                let w = row * cols + c;
                let n = row * cols + (c + 1) % cols;
                let s = (c + cols - (rr % cols)) % cols;
                let range = chunks[s].clone();
                step.push(range.len() * 4);
                rec.hop(&Hop {
                    expanded_step: expanded,
                    step: rr,
                    phase: "reduce",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: range.len(),
                    bytes: range.len() * 4,
                    attempt: 1,
                    delivered: true,
                });
                let sent: Vec<f32> = data[w][range.clone()].to_vec();
                for (x, y) in data[n][range].iter_mut().zip(sent) {
                    *x += y;
                }
            }
        }
        trace.push_step(step);
    }

    // Phase 2: vertical ring all-reduce per column on the owned chunk.
    let offset = trace.num_steps();
    for c in 0..cols {
        let own = (c + 1) % cols;
        let range = chunks[own].clone();
        let mut column: Vec<Vec<f32>> = (0..rows)
            .map(|row| data[row * cols + c][range.clone()].to_vec())
            .collect();
        let sub = {
            let _frame = column_frame(&rec, offset, rows, cols, c);
            crate::ring::ring_allreduce_sum(&mut column)
        };
        for (row, chunk) in column.into_iter().enumerate() {
            data[row * cols + c][range.clone()].copy_from_slice(&chunk);
        }
        trace.overlay(offset, &sub);
    }

    // Phase 3: horizontal all-gather.
    for g in 0..cols - 1 {
        let expanded = trace.num_steps();
        let mut step = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for c in 0..cols {
                let n_col = (c + 1) % cols;
                let w = row * cols + c;
                let n = row * cols + n_col;
                let s = (c + 1 + cols - (g % cols)) % cols;
                let range = chunks[s].clone();
                step.push(range.len() * 4);
                rec.hop(&Hop {
                    expanded_step: expanded,
                    step: g,
                    phase: "gather",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: range.len(),
                    bytes: range.len() * 4,
                    attempt: 1,
                    delivered: true,
                });
                let sent: Vec<f32> = data[w][range.clone()].to_vec();
                data[n][range].copy_from_slice(&sent);
            }
        }
        trace.push_step(step);
    }

    trace
}

/// 2D-torus all-reduce of one-bit payloads with a caller-supplied combine
/// (Marsit under TAR).
///
/// Combine contexts carry the correct aggregate counts: horizontal hops fold
/// single workers, vertical hops fold whole row-aggregates of `cols` workers.
/// Every hop is one bit per coordinate; `combine(received, local, ctx)`
/// merges the incoming aggregate *into* the local chunk in place, so the hot
/// loop performs no clone of the received data. Returns the consensus sign
/// vector and the trace.
///
/// # Panics
///
/// Panics if the shape is invalid, sign lengths differ, or the combine
/// changes the local chunk's length.
pub fn torus_allreduce_onebit<F>(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    combine: F,
) -> (SignVec, Trace)
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    check_shape(signs, rows, cols);
    torus_allreduce_onebit_faulty(signs, rows, cols, &mut FaultInjector::inert(), combine)
        .expect("sign lengths differ")
}

/// [`torus_allreduce_onebit`] under fault injection: the closure form of
/// [`torus_allreduce_onebit_planned`], which documents the fault semantics.
///
/// # Errors
///
/// Returns [`SyncError::BadShape`] for an invalid torus shape and
/// [`SyncError::LengthMismatch`] if sign lengths differ.
///
/// # Panics
///
/// Panics if the combine changes a chunk's length (a programmer error in
/// the closure, not a runtime condition).
pub fn torus_allreduce_onebit_faulty<F>(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    inj: &mut FaultInjector,
    combine: F,
) -> Result<(SignVec, Trace), SyncError>
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    allreduce_onebit(PlanTopology::Torus { rows, cols }, signs, inj, combine)
}

/// Reusable buffers for [`torus_allreduce_onebit_planned`]; holding one
/// across rounds makes the collective allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct TorusOnebitScratch {
    /// The `(worker, chunk)` grid of the horizontal phases.
    grid: RingOnebitScratch,
    /// The vertical sub-ring of the column in flight: its grid, its inputs
    /// (each row's aggregate of the chunk the column owns), its consensus
    /// and its trace.
    column: RingOnebitScratch,
    inputs: Vec<SignVec>,
    reduced: SignVec,
    sub: Trace,
}

/// The one-bit 2D-torus all-reduce: fault-aware and allocation-free in
/// steady state (bar the per-column telemetry frames).
///
/// **Schedule.** (1) reduce-scatter of the `cols` chunks along each row ring
/// — all rows' hops of one step share a trace step and one
/// [`StepCombine::step_begin`] plan; (2) per column, a one-bit ring
/// all-reduce ([`ring_allreduce_onebit_planned`]'s schedule, sub-ring-local
/// receiver ids in its contexts) of the chunk the column owns, fed the rows'
/// aggregates with their counts; the columns ride disjoint links, so their
/// traces overlay; (3) all-gather along the rows (traced, not executed: each
/// column's consensus is spliced into `out` directly).
///
/// **Faults.** Aggregation counts are tracked per `(worker, chunk)` cell: a
/// reduce transfer that exhausts its retry budget is omitted (the receiver's
/// aggregate and count are unchanged), so every [`CombineCtx`] reports the
/// exact worker counts on both sides and `⊙` stays unbiased over what
/// arrived; the vertical phase starts from the counts the horizontal phase
/// actually reached. All-gather transfers are reliable, so every worker
/// still agrees on the result. Retransmissions appear as extra trace steps.
/// With an inert injector the contexts are the clean schedule's: horizontal
/// hops fold single workers, vertical hops whole rows of `cols`.
///
/// **Buffers.** As [`ring_allreduce_onebit_planned`]: state from `scratch`,
/// consensus into `out`, trace into `trace`, nothing stale is read.
///
/// [`ring_allreduce_onebit_planned`]: crate::ring::ring_allreduce_onebit_planned
///
/// # Errors
///
/// Returns [`SyncError::BadShape`] for an invalid torus shape and
/// [`SyncError::LengthMismatch`] if sign lengths differ.
///
/// # Panics
///
/// Panics if a combine changes a chunk's length (a programmer error in the
/// operator, not a runtime condition).
#[allow(clippy::too_many_arguments)]
pub fn torus_allreduce_onebit_planned<O: StepCombine>(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    inj: &mut FaultInjector,
    scratch: &mut TorusOnebitScratch,
    out: &mut SignVec,
    trace: &mut Trace,
    op: &mut O,
) -> Result<(), SyncError> {
    let (m, d) = shape_of(signs);
    let wire = &mut Wire::begin(inj, trace, None);
    let fold = Fold { signs, op, out };
    torus_onebit_exec(rows, cols, m, d, wire, scratch, Some(fold))
}

/// The one function that enumerates a one-bit torus's hops: `m` workers in
/// `rows × cols` all-reducing `d` bits over `wire`, with or without the data
/// half (see [`Fold`]).
pub(crate) fn torus_onebit_exec<O: StepCombine>(
    rows: usize,
    cols: usize,
    m: usize,
    d: usize,
    wire: &mut Wire<'_>,
    scratch: &mut TorusOnebitScratch,
    mut fold: Option<Fold<'_, O>>,
) -> Result<(), SyncError> {
    if rows < 2 || cols < 2 || m != rows * cols {
        return Err(SyncError::BadShape {
            rows,
            cols,
            workers: m,
        });
    }
    Fold::begin(&mut fold, d)?;
    let TorusOnebitScratch {
        grid,
        column,
        inputs,
        reduced,
        sub,
    } = scratch;
    grid.load(m, d, cols, |_| 1, &fold);
    let row_hops = || (0..rows).flat_map(|row| (0..cols).map(move |c| (row * cols, c)));

    // Phase 1: horizontal reduce-scatter, single-worker units.
    for rr in 0..cols - 1 {
        let hops = row_hops().map(|(r0, c)| (r0 + c, r0 + (c + 1) % cols, (c + cols - rr) % cols));
        grid.reduce_step(rr, hops, 0, wire, &mut fold);
    }

    // Phase 2: vertical one-bit all-reduce per column on the chunk it owns,
    // columns sequential in injector order; sub-ring worker `row` is global
    // worker `row·cols + c`, row-major.
    let offset = wire.trace.num_steps();
    for c in 0..cols {
        let own = (c + 1) % cols;
        let chunk = grid.segs[own].clone();
        let column_fold = match &mut fold {
            Some(f) => {
                inputs.resize_with(rows, || SignVec::zeros(0));
                for (row, input) in inputs.iter_mut().enumerate() {
                    let cell = &grid.state[row * cols + c][own];
                    input.assign_slice_of(cell, 0, cell.len());
                }
                Some(Fold {
                    signs: &inputs[..],
                    op: &mut *f.op,
                    out: &mut *reduced,
                })
            }
            None => None,
        };
        let frame = Frame {
            base: c,
            stride: cols,
            start: chunk.start,
        };
        let counts = &grid.counts;
        let count_of = |row: usize| counts[row * cols + c][own];
        let column_wire = &mut wire.sub(sub, offset, rows, frame);
        ring_onebit_exec(
            rows,
            chunk.len(),
            count_of,
            0,
            column_wire,
            column,
            column_fold,
        )?;
        if let Some(f) = &mut fold {
            f.out.splice(chunk.start, reduced);
        }
        wire.trace.overlay(offset, sub);
    }

    // Phase 3: horizontal all-gather of the final one-bit chunks, reliable.
    for g in 0..cols - 1 {
        wire.open_step();
        for (r0, c) in row_hops() {
            let s = (c + 1 + cols - g) % cols;
            wire.onebit(g, r0 + c, r0 + (c + 1) % cols, s, &grid.segs[s], None);
        }
    }
    Ok(())
}

/// 2D-torus all-reduce of sign vectors into a global majority vote
/// (signSGD-MV under TAR): integer sums on the reduce paths, one-bit votes
/// on the gather paths.
///
/// # Panics
///
/// Panics if the shape is invalid or sign lengths differ.
pub fn torus_allreduce_majority(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    wire: SumWire,
) -> (SignVec, Trace) {
    let (total, mut trace) = torus_reduce_sums(signs, rows, cols, wire);
    let d = signs[0].len();
    let vote = total.majority_sign();
    // Gather: vertical then horizontal, all one-bit chunks.
    let chunks = segment_ranges(d, cols);
    let sub_bits = |len: usize| len.div_ceil(8).max(1);
    for _ in 0..rows - 1 {
        let step: Vec<usize> = (0..rows * cols)
            .map(|w| sub_bits(chunks[(w % cols + 1) % cols].len().div_ceil(rows)))
            .collect();
        trace.push_step(step);
    }
    for _ in 0..cols - 1 {
        let step: Vec<usize> = (0..rows * cols)
            .map(|w| sub_bits(chunks[w % cols].len()))
            .collect();
        trace.push_step(step);
    }
    (vote, trace)
}

/// 2D-torus all-reduce of sign vectors into global sign sums (SSDM /
/// EF-signSGD under TAR).
///
/// # Panics
///
/// Panics if the shape is invalid or sign lengths differ.
pub fn torus_allreduce_signsum(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    wire: SumWire,
) -> (SignSumVec, Trace) {
    let (total, mut trace) = torus_reduce_sums(signs, rows, cols, wire);
    // Gather phases re-transmit final sums (vertical then horizontal).
    let per_worker = wire.wire_bytes(&total);
    for _ in 0..rows - 1 {
        trace.push_step(vec![per_worker.div_ceil(cols * rows); rows * cols]);
    }
    for _ in 0..cols - 1 {
        trace.push_step(vec![per_worker.div_ceil(cols); rows * cols]);
    }
    (total, trace)
}

/// Shared reduce path: horizontal reduce-scatter of sums, vertical
/// sum all-reduce. Returns the full-dimension total and the reduce trace.
fn torus_reduce_sums(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    wire: SumWire,
) -> (SignSumVec, Trace) {
    check_shape(signs, rows, cols);
    let d = signs[0].len();
    assert!(signs.iter().all(|v| v.len() == d), "sign lengths differ");
    let chunks = segment_ranges(d, cols);
    let mut trace = Trace::new();
    let mut state: Vec<Vec<SignSumVec>> = signs
        .iter()
        .map(|v| {
            chunks
                .iter()
                .map(|r| SignSumVec::from_signs(&v.slice(r.start, r.len())))
                .collect()
        })
        .collect();

    // Phase 1: horizontal reduce-scatter of growing sums.
    for rr in 0..cols - 1 {
        let mut step = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for c in 0..cols {
                let w = row * cols + c;
                let n = row * cols + (c + 1) % cols;
                let s = (c + cols - (rr % cols)) % cols;
                step.push(wire.wire_bytes(&state[w][s]));
                let sent = state[w][s].clone();
                state[n][s].merge(&sent);
            }
        }
        trace.push_step(step);
    }

    // Phase 2: vertical sign-sum all-reduce per column on the owned chunk.
    let offset = trace.num_steps();
    // Assemble the full-dimension total (identical across workers).
    let mut flat = vec![0i32; d];
    for c in 0..cols {
        let own = (c + 1) % cols;
        let column: Vec<SignSumVec> = (0..rows)
            .map(|row| state[row * cols + c][own].clone())
            .collect();
        let (reduced, sub) = ring_allreduce_signsum_parts(&column, wire);
        trace.overlay(offset, &sub);
        flat[chunks[own].clone()].copy_from_slice(reduced.sums());
    }
    let total = SignSumVec::from_parts(flat, (rows * cols) as u32);
    (total, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_tensor::rng::FastRng;

    fn random_payloads(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        (0..m)
            .map(|w| {
                let mut rng = FastRng::new(seed, w as u64);
                (0..d).map(|_| rng.next_f64() as f32 * 2.0 - 1.0).collect()
            })
            .collect()
    }

    fn random_signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
        let mut rng = FastRng::new(seed, 0);
        (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect()
    }

    #[test]
    fn torus_sum_matches_reference() {
        for (rows, cols, d) in [(2, 2, 16), (2, 3, 40), (3, 3, 27), (4, 4, 128), (2, 4, 33)] {
            let m = rows * cols;
            let mut data = random_payloads(m, d, 11);
            let mut expected = vec![0.0f32; d];
            for w in &data {
                for (e, &x) in expected.iter_mut().zip(w) {
                    *e += x;
                }
            }
            let _ = torus_allreduce_sum(&mut data, rows, cols);
            for (w, payload) in data.iter().enumerate() {
                for (j, (&got, &want)) in payload.iter().zip(&expected).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-3,
                        "{rows}x{cols} d={d} worker {w} coord {j}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_sum_fewer_critical_steps_than_ring() {
        let m = 16;
        let d = 1600;
        let mut ring_data = random_payloads(m, d, 3);
        let ring_trace = crate::ring::ring_allreduce_sum(&mut ring_data);
        let mut torus_data = random_payloads(m, d, 3);
        let torus_trace = torus_allreduce_sum(&mut torus_data, 4, 4);
        // Both schedules are bandwidth-optimal (~2·D·(M−1)/M bytes on the
        // critical path); the torus advantage is latency: far fewer steps.
        assert!(torus_trace.num_steps() < ring_trace.num_steps());
        assert!(torus_trace.critical_path_bytes() <= ring_trace.critical_path_bytes());
        use marsit_simnet::LinkModel;
        let latency_bound = LinkModel::new(1e-3, 1e12);
        assert!(torus_trace.time(latency_bound) < ring_trace.time(latency_bound));
    }

    #[test]
    fn torus_majority_matches_scalar_recount() {
        let (rows, cols, d) = (2, 3, 60);
        let signs = random_signs(rows * cols, d, 21);
        let (vote, _) = torus_allreduce_majority(&signs, rows, cols, SumWire::Elias);
        for j in 0..d {
            let sum: i32 = signs.iter().map(|v| if v.get(j) { 1 } else { -1 }).sum();
            assert_eq!(vote.get(j), sum >= 0, "coord {j}");
        }
    }

    #[test]
    fn torus_signsum_totals() {
        let (rows, cols, d) = (3, 2, 31);
        let signs = random_signs(rows * cols, d, 5);
        let (total, _) = torus_allreduce_signsum(&signs, rows, cols, SumWire::Elias);
        assert_eq!(total.count(), (rows * cols) as u32);
        for j in 0..d {
            let sum: i32 = signs.iter().map(|v| if v.get(j) { 1 } else { -1 }).sum();
            assert_eq!(total.sums()[j], sum, "coord {j}");
        }
    }

    #[test]
    fn torus_onebit_counts_cover_all_workers() {
        // With a "keep received" or any combine, the ctx counts must sum the
        // full worker set by the last vertical step.
        let (rows, cols, d) = (3, 3, 90);
        let signs = random_signs(rows * cols, d, 7);
        let mut max_total = 0;
        let _ = torus_allreduce_onebit(&signs, rows, cols, |recv, local, ctx| {
            max_total = max_total.max(ctx.received_count + ctx.local_count);
            local.copy_from(recv);
        });
        assert_eq!(max_total, rows * cols);
    }

    #[test]
    fn torus_onebit_hops_are_one_bit() {
        let (rows, cols, d) = (2, 2, 64);
        let signs = random_signs(rows * cols, d, 9);
        let (_, trace) = torus_allreduce_onebit(&signs, rows, cols, |r, l, _| l.copy_from(r));
        // Horizontal chunks: d/cols = 32 coords = 4 bytes; vertical
        // subchunks: 16 coords = 2 bytes.
        for step in trace.steps() {
            for &bytes in step {
                assert!(bytes == 4 || bytes == 2, "unexpected transfer size {bytes}");
            }
        }
    }

    #[test]
    fn torus_onebit_consensus_is_deterministic_given_combine() {
        let (rows, cols, d) = (2, 2, 16);
        let signs = random_signs(4, d, 13);
        let (a, _) = torus_allreduce_onebit(&signs, rows, cols, |r, l, _| l.copy_from(r));
        let (b, _) = torus_allreduce_onebit(&signs, rows, cols, |r, l, _| l.copy_from(r));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn wrong_worker_count_panics() {
        let mut data = random_payloads(5, 8, 0);
        let _ = torus_allreduce_sum(&mut data, 2, 3);
    }

    #[test]
    fn faulty_torus_with_inert_injector_matches_clean() {
        let (rows, cols, d) = (2, 4, 64);
        let signs = random_signs(rows * cols, d, 31);
        let combine = |recv: &SignVec, local: &mut SignVec, _ctx: CombineCtx| local.or_assign(recv);
        let (clean, clean_trace) = torus_allreduce_onebit(&signs, rows, cols, combine);
        let mut inj = FaultInjector::inert();
        let (faulty, faulty_trace) =
            torus_allreduce_onebit_faulty(&signs, rows, cols, &mut inj, combine)
                .expect("valid inputs");
        assert_eq!(clean, faulty);
        assert_eq!(clean_trace, faulty_trace);
    }

    /// One scratch, consensus buffer and trace carried across shapes, rounds
    /// and fault plans read exactly like fresh ones: consensus, trace and the
    /// injector's statistics and RNG position.
    #[test]
    fn planned_on_reused_buffers_matches_fresh_ones() {
        use marsit_simnet::FaultPlan;
        let plans = [
            FaultPlan::none(),
            FaultPlan::seeded(5)
                .with_link_drop(0.3)
                .with_link_corruption(0.1)
                .with_retry_policy(1, 1e-4),
        ];
        // Depends on both counts, so a stale count cell would show.
        let combine = |recv: &SignVec, local: &mut SignVec, ctx: CombineCtx| {
            if (ctx.received_count + 2 * ctx.local_count + ctx.step).is_multiple_of(3) {
                local.and_assign(recv);
            } else {
                local.or_assign(recv);
            }
        };
        let mut scratch = TorusOnebitScratch::default();
        let mut out = SignVec::ones(3);
        let mut trace = Trace::new();
        for (round, (rows, cols, d)) in [(3, 3, 90), (2, 4, 257), (2, 2, 64), (2, 4, 1031)]
            .into_iter()
            .enumerate()
        {
            let signs = random_signs(rows * cols, d, 41 + round as u64);
            for plan in &plans {
                let mut fresh_inj = plan.injector(round as u64);
                let (want, want_trace) =
                    torus_allreduce_onebit_faulty(&signs, rows, cols, &mut fresh_inj, combine)
                        .expect("valid inputs");
                let mut inj = plan.injector(round as u64);
                let op = &mut crate::ring::ClosureOp(combine);
                torus_allreduce_onebit_planned(
                    &signs,
                    rows,
                    cols,
                    &mut inj,
                    &mut scratch,
                    &mut out,
                    &mut trace,
                    op,
                )
                .expect("valid inputs");
                assert_eq!(out, want, "{rows}x{cols} d={d}: consensus");
                assert_eq!(trace, want_trace, "{rows}x{cols} d={d}: trace");
                assert_eq!(format!("{inj:?}"), format!("{fresh_inj:?}"), "injector");
            }
        }
    }

    #[test]
    fn faulty_torus_counts_stay_exact_under_drops() {
        use marsit_simnet::FaultPlan;
        let (rows, cols, d) = (3, 3, 90);
        let m = rows * cols;
        let signs = random_signs(m, d, 37);
        let plan = FaultPlan::seeded(5)
            .with_link_drop(0.3)
            .with_retry_policy(0, 1e-4);
        let mut inj = plan.injector(0);
        let mut max_total = 0;
        let (out, _) = torus_allreduce_onebit_faulty(&signs, rows, cols, &mut inj, |r, l, ctx| {
            assert!(ctx.received_count >= 1 && ctx.local_count >= 1);
            assert!(ctx.received_count + ctx.local_count <= m);
            max_total = max_total.max(ctx.received_count + ctx.local_count);
            l.copy_from(r);
        })
        .expect("valid inputs");
        assert_eq!(out.len(), d);
        assert!(inj.stats().dropped_transfers > 0);
        assert!(max_total <= m);
        // Determinism under the same seed.
        let mut inj2 = plan.injector(0);
        let (out2, _) =
            torus_allreduce_onebit_faulty(&signs, rows, cols, &mut inj2, |r, l, _| l.copy_from(r))
                .expect("valid inputs");
        assert_eq!(out, out2);
    }
}
