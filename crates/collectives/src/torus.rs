//! 2D-torus all-reduce (TAR) schedules.
//!
//! The hierarchical collective of Mikami et al. that the paper evaluates
//! alongside RAR: (1) reduce-scatter along each *row* ring, (2) all-reduce
//! along each *column* ring on the chunk each worker now owns, (3)
//! all-gather along the rows. With `M = rows × cols` workers the critical
//! path shrinks from `2(M−1)` hops to `2(cols−1) + 2(rows−1)`, which is why
//! every method communicates faster under TAR in Figure 5. One function
//! enumerates those hops for every payload (see the
//! [crate docs](crate#schedules-and-payloads)).
//!
//! Workers are indexed row-major: `w = row·cols + col`.

use marsit_compress::SignSumVec;
use marsit_simnet::FaultInjector;
use marsit_tensor::SignVec;

use crate::engine::{
    allreduce_majority, allreduce_onebit, allreduce_signsum, allreduce_sum, PlanTopology,
};
use crate::payload::{Payload, SignCells, Signs};
use crate::reconfigure::SyncError;
use crate::ring::{
    clean, ring_exec, shape_of, Book, Chains, CombineCtx, Frame, RingNames, StepCombine, SumWire,
    Wire,
};
use crate::trace::Trace;

/// In-place 2D-torus all-reduce summing `f32` payloads.
///
/// On return every `data[w]` holds the elementwise sum over all workers.
///
/// # Panics
///
/// Panics if the shape is invalid or payload lengths differ.
pub fn torus_allreduce_sum(data: &mut [Vec<f32>], rows: usize, cols: usize) -> Trace {
    let inj = &mut FaultInjector::inert();
    clean(allreduce_sum(PlanTopology::Torus { rows, cols }, data, inj))
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
    let inj = &mut FaultInjector::inert();
    let topology = PlanTopology::Torus { rows, cols };
    clean(allreduce_onebit(topology, signs, inj, combine))
}

/// The books of a torus walk: the `(worker, chunk)` grid of the horizontal
/// phases, and the grid and trace of the vertical sub-ring in flight.
#[derive(Debug, Clone, Default)]
pub(crate) struct TorusBooks {
    grid: Book,
    column: Book,
    sub: Trace,
}

/// Reusable buffers for [`torus_allreduce_onebit_planned`]; holding one
/// across rounds makes the collective allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct TorusOnebitScratch {
    cells: SignCells,
    books: TorusBooks,
}

/// The one-bit 2D-torus all-reduce on caller-owned buffers: fault-aware
/// (see the [crate docs](crate#faults)) and allocation-free in steady state
/// (bar the per-column telemetry frames).
///
/// **Schedule.** (1) reduce-scatter of the `cols` chunks along each row ring
/// — all rows' hops of one step share a trace step and one
/// [`StepCombine::step_begin`] plan; (2) per column, a one-bit ring
/// all-reduce ([`ring_allreduce_onebit_planned`]'s schedule, sub-ring-local
/// receiver ids in its contexts) of the chunk the column owns, fed the rows'
/// aggregates with the counts the horizontal phase actually reached; the
/// columns ride disjoint links, so their traces overlay; (3) all-gather
/// along the rows (traced, not executed: each column's consensus is spliced
/// into `out` directly). With an inert injector the contexts are the clean
/// schedule's: horizontal hops fold single workers, vertical hops whole rows
/// of `cols`.
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
    let TorusOnebitScratch { cells, books } = scratch;
    let payload = &mut Signs {
        signs,
        op,
        out,
        cells,
    };
    let (m, d) = shape_of(signs, SignVec::len);
    let wire = &mut Wire::begin(inj, trace, None);
    torus_exec(rows, cols, m, d, wire, books, payload)
}

/// The one function that enumerates a torus's hops, whatever they carry: `m`
/// workers in `rows × cols` all-reducing `d` elements of `payload` over
/// `wire` — horizontal reduce-scatter, vertical reduce-scatter and gather
/// per column, horizontal gather; `2(cols−1) + 2(rows−1)` steps on a clean
/// fabric.
pub(crate) fn torus_exec<P: Payload>(
    rows: usize,
    cols: usize,
    m: usize,
    d: usize,
    wire: &mut Wire<'_>,
    books: &mut TorusBooks,
    payload: &mut P,
) -> Result<(), SyncError> {
    if rows < 2 || cols < 2 || m != rows * cols {
        return Err(SyncError::BadShape {
            rows,
            cols,
            workers: m,
        });
    }
    let TorusBooks { grid, column, sub } = books;
    grid.load(m, d, cols, |_| 1);
    payload.load(wire.frame, m, d, &grid.segs)?;
    let row_hops = || (0..rows).flat_map(|row| (0..cols).map(move |c| (row * cols, c)));

    // Phase 1: horizontal reduce-scatter, single-worker units; row `r`'s
    // chain for chunk `s` is chain `r·cols + s`.
    let row_chains = Some(Chains { base: 0, len: cols });
    for rr in 0..cols - 1 {
        let hops = row_hops().map(|(r0, c)| (r0 + c, r0 + (c + 1) % cols, (c + cols - rr) % cols));
        grid.reduce_step(rr, hops, 0, row_chains, wire, payload);
    }

    // Phase 2: vertical all-reduce per column on the chunk it owns, columns
    // sequential in injector order; sub-ring worker `row` is global worker
    // `row·cols + c`, row-major, and column `c`'s chains follow the rows' at
    // `m + c·rows`.
    let offset = wire.trace.num_steps();
    for c in 0..cols {
        let own = (c + 1) % cols;
        let chunk = grid.segs[own].clone();
        let frame = Frame {
            base: c,
            stride: cols,
            start: chunk.start,
            cell: Some(own),
        };
        let counts = &grid.counts;
        let count_of = |row: usize| counts[row * cols + c][own];
        let column_wire = &mut wire.sub(sub, offset, frame);
        let names = RingNames::Chains(m + c * rows);
        ring_exec(
            rows,
            chunk.len(),
            count_of,
            names,
            column_wire,
            column,
            payload,
        )?;
        wire.trace.overlay(offset, sub);
        // Every row now holds the column's reduced chunk, over the most
        // workers any of its segments folded.
        let folded = column.counts[0].iter().copied().max().unwrap_or(0);
        for row in 0..rows {
            grid.counts[row * cols + c][own] = folded;
        }
    }

    // Phase 3: horizontal all-gather of the reduced chunks, reliable.
    for g in 0..cols - 1 {
        wire.open_step();
        for (r0, c) in row_hops() {
            let hop = (r0 + c, r0 + (c + 1) % cols, (c + 1 + cols - g) % cols);
            grid.copy_hop(g, hop, wire, payload);
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
    let inj = &mut FaultInjector::inert();
    let topology = PlanTopology::Torus { rows, cols };
    clean(allreduce_majority(topology, signs, wire, inj))
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
    let inj = &mut FaultInjector::inert();
    let topology = PlanTopology::Torus { rows, cols };
    clean(allreduce_signsum(topology, signs, wire, inj))
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
    #[should_panic(expected = "cannot host 5 workers")]
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
        let (faulty, faulty_trace) = allreduce_onebit(
            PlanTopology::Torus { rows, cols },
            &signs,
            &mut inj,
            combine,
        )
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
                let (want, want_trace) = allreduce_onebit(
                    PlanTopology::Torus { rows, cols },
                    &signs,
                    &mut fresh_inj,
                    combine,
                )
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
        let (out, _) = allreduce_onebit(
            PlanTopology::Torus { rows, cols },
            &signs,
            &mut inj,
            |r, l, ctx| {
                assert!(ctx.received_count >= 1 && ctx.local_count >= 1);
                assert!(ctx.received_count + ctx.local_count <= m);
                max_total = max_total.max(ctx.received_count + ctx.local_count);
                l.copy_from(r);
            },
        )
        .expect("valid inputs");
        assert_eq!(out.len(), d);
        assert!(inj.stats().dropped_transfers > 0);
        assert!(max_total <= m);
        // Determinism under the same seed.
        let mut inj2 = plan.injector(0);
        let (out2, _) = allreduce_onebit(
            PlanTopology::Torus { rows, cols },
            &signs,
            &mut inj2,
            |r, l, _| l.copy_from(r),
        )
        .expect("valid inputs");
        assert_eq!(out, out2);
    }
}
