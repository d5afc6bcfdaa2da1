//! Ring all-reduce (RAR) schedules.
//!
//! The classic bandwidth-optimal collective (Baidu RAR, Horovod): each
//! worker splits its payload into `M` segments; `M−1` *reduce* steps
//! pipeline partial aggregates around the ring so that worker `w` ends up
//! owning the fully reduced segment `(w+1) mod M`, then `M−1` *gather* steps
//! circulate the reduced segments to everyone. This module implements the
//! schedule for the three payload types the paper needs:
//!
//! - [`ring_allreduce_sum`] — `f32` sums (PSGD and Marsit's periodic
//!   full-precision synchronization);
//! - [`ring_allreduce_majority`] / [`ring_allreduce_signsum`] — integer
//!   sign-sum payloads with per-hop bit growth (the MAR extensions of
//!   signSGD / SSDM / EF-signSGD);
//! - [`ring_allreduce_onebit`] — a one-bit payload with a caller-supplied
//!   combine operator (Marsit's `⊙` plugs in here), where every hop is
//!   exactly one bit per coordinate.
//!
//! Every function returns a [`Trace`] of the bytes actually transferred.

use std::ops::Range;

use marsit_compress::SignSumVec;
use marsit_simnet::FaultInjector;
use marsit_telemetry::{Hop, HopRecorder};
use marsit_tensor::SignVec;

use crate::reconfigure::SyncError;
use crate::trace::{FaultyStep, Trace};

/// Emits one telemetry `hop` event per wire attempt of a (possibly retried)
/// transfer. `proto.expanded_step` is the slot of the *first* attempt;
/// attempt `a` rides `a − 1` slots later, mirroring how
/// [`FaultyStep::record`] lays retries out behind the main step. Only the
/// final attempt of a delivered transfer is marked delivered.
pub(crate) fn emit_attempts(rec: &mut HopRecorder, proto: &Hop, attempts: u32, delivered: bool) {
    if !rec.is_active() {
        return;
    }
    for a in 1..=attempts {
        let mut hop = proto.clone();
        hop.expanded_step = proto.expanded_step + (a as usize - 1);
        hop.attempt = a;
        hop.delivered = delivered && a == attempts;
        rec.hop(&hop);
    }
}

/// Splits `d` coordinates into `m` contiguous segments whose sizes differ by
/// at most one (the first `d mod m` segments get the extra element).
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn segment_ranges(d: usize, m: usize) -> Vec<Range<usize>> {
    assert!(m > 0, "segment count must be positive");
    let base = d / m;
    let extra = d % m;
    let mut out = Vec::with_capacity(m);
    let mut start = 0;
    for i in 0..m {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Context handed to a one-bit combine operator at each hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombineCtx {
    /// Reduce step index (0-based).
    pub step: usize,
    /// Worker performing the combine (the receiver).
    pub receiver: usize,
    /// Which segment is being combined.
    pub segment: usize,
    /// Number of workers aggregated in the *received* vector.
    pub received_count: usize,
    /// Number of workers aggregated in the *local* vector.
    pub local_count: usize,
}

/// One upcoming combine of a reduce step, announced to a step-begin hook
/// before any of the step's combines run (see
/// [`ring_allreduce_onebit_weighted_hooked`]).
///
/// The hook sees exactly the [`CombineCtx`] values the combine closure will
/// receive, in call order, plus each segment's bit length — enough to
/// pre-draw per-hop randomness for the whole step (the hops of one step
/// touch disjoint state and carry independent RNG streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedHop {
    /// The context the combine closure will be called with.
    pub ctx: CombineCtx,
    /// Length of the combined segment in bits (coordinates).
    pub elems: usize,
}

/// Wire encoding for integer sign-sum payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SumWire {
    /// Elias-γ coded sums (the paper's compaction choice).
    #[default]
    Elias,
    /// Fixed `⌈log₂(2·count+1)⌉` bits per coordinate.
    FixedWidth,
}

impl SumWire {
    /// Wire bytes of a sign-sum payload under this encoding.
    #[must_use]
    pub fn wire_bytes(self, sums: &SignSumVec) -> usize {
        let bits = match self {
            Self::Elias => sums.elias_bits(),
            Self::FixedWidth => sums.fixed_width_bits(),
        };
        bits.div_ceil(8)
    }
}

/// In-place ring all-reduce summing `f32` payloads.
///
/// On return every `data[w]` holds the elementwise *sum* over workers
/// (divide by `M` for the mean). Returns the transfer trace:
/// `2(M−1)` steps of `M` parallel segment transfers.
///
/// # Panics
///
/// Panics if fewer than 2 workers or payload lengths differ.
pub fn ring_allreduce_sum(data: &mut [Vec<f32>]) -> Trace {
    let m = data.len();
    assert!(m >= 2, "ring all-reduce needs at least 2 workers");
    let d = data[0].len();
    assert!(data.iter().all(|v| v.len() == d), "payload lengths differ");
    let segs = segment_ranges(d, m);
    let mut trace = Trace::new();
    let mut rec = HopRecorder::begin();

    // Reduce phase: after step r, segment (n−1−r) at worker n aggregates
    // r+2 workers.
    for r in 0..m - 1 {
        let mut step_bytes = Vec::with_capacity(m);
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + m - (r % m)) % m;
            let range = segs[s].clone();
            step_bytes.push(range.len() * 4);
            rec.hop(&Hop {
                expanded_step: r,
                step: r,
                phase: "reduce",
                sender: w,
                receiver: n,
                segment: s,
                elems: range.len(),
                bytes: range.len() * 4,
                attempt: 1,
                delivered: true,
            });
            // Sender w's segment s is never the one w updates this step
            // ((w−r) ≠ (w−1−r) mod m), so in-place accumulation is safe.
            let (src, dst) = two_workers(data, w, n);
            for (x, &y) in dst[range.clone()].iter_mut().zip(&src[range]) {
                *x += y;
            }
        }
        trace.push_step(step_bytes);
    }

    // Gather phase: worker w owns fully reduced segment (w+1) mod m.
    for g in 0..m - 1 {
        let mut step_bytes = Vec::with_capacity(m);
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + 1 + m - (g % m)) % m;
            let range = segs[s].clone();
            step_bytes.push(range.len() * 4);
            rec.hop(&Hop {
                expanded_step: (m - 1) + g,
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
            let (src, dst) = two_workers(data, w, n);
            dst[range.clone()].copy_from_slice(&src[range]);
        }
        trace.push_step(step_bytes);
    }
    trace
}

/// Ring all-reduce of sign vectors into a global **majority vote**.
///
/// Reduce hops carry growing integer sign sums (`wire` selects the
/// encoding); gather hops carry the voted one-bit segments. Returns the
/// majority-vote sign vector (identical at all workers) and the trace —
/// this is the MAR extension of signSGD with majority vote.
///
/// # Panics
///
/// Panics if fewer than 2 workers or sign lengths differ.
pub fn ring_allreduce_majority(signs: &[SignVec], wire: SumWire) -> (SignVec, Trace) {
    let parts: Vec<SignSumVec> = signs.iter().map(SignSumVec::from_signs).collect();
    let (sums, mut trace) = ring_reduce_scatter_sums(&parts, wire);
    // Vote per owned segment, then gather the 1-bit votes.
    let m = signs.len();
    let d = signs[0].len();
    let segs = segment_ranges(d, m);
    let mut result = SignVec::zeros(d);
    for (owner_seg, sum) in sums.iter().enumerate() {
        result.splice(segs[owner_seg].start, &sum.majority_sign());
    }
    for _ in 0..m - 1 {
        let step: Vec<usize> = (0..m).map(|w| segs[w].len().div_ceil(8).max(1)).collect();
        trace.push_step(step);
    }
    (result, trace)
}

/// Ring all-reduce of sign vectors into the global **sign sums**.
///
/// Both reduce and gather hops carry the integer payload, so the result
/// supports mean-of-signs reconstruction (the MAR extension of SSDM and
/// EF-signSGD). Returns the total [`SignSumVec`] and the trace.
///
/// # Panics
///
/// Panics if fewer than 2 workers or sign lengths differ.
pub fn ring_allreduce_signsum(signs: &[SignVec], wire: SumWire) -> (SignSumVec, Trace) {
    let parts: Vec<SignSumVec> = signs.iter().map(SignSumVec::from_signs).collect();
    ring_allreduce_signsum_parts(&parts, wire)
}

/// [`ring_allreduce_signsum`] over *partial* sums (inputs may already
/// aggregate several workers each, as in the vertical phase of a 2D torus).
///
/// # Panics
///
/// Panics if fewer than 2 workers or payload lengths differ.
pub fn ring_allreduce_signsum_parts(parts: &[SignSumVec], wire: SumWire) -> (SignSumVec, Trace) {
    let (sums, mut trace) = ring_reduce_scatter_sums(parts, wire);
    let m = parts.len();
    let d = parts[0].len();
    let segs = segment_ranges(d, m);
    // Assemble the full sum vector from the per-segment owners.
    let mut flat = vec![0i32; d];
    for (owner_seg, sum) in sums.iter().enumerate() {
        let range = segs[owner_seg].clone();
        flat[range.clone()].copy_from_slice(sum.sums());
    }
    let total_count: u32 = parts.iter().map(SignSumVec::count).sum();
    let total = SignSumVec::from_parts(flat, total_count);
    // Gather: each hop re-transmits the final per-segment sums.
    for _ in 0..m - 1 {
        let step: Vec<usize> = sums.iter().map(|s| wire.wire_bytes(s)).collect();
        trace.push_step(step);
    }
    (total, trace)
}

/// Reduce-scatter of sign sums: returns, per segment index, the full sum of
/// that segment across workers (held by its owner), plus the reduce trace.
fn ring_reduce_scatter_sums(parts: &[SignSumVec], wire: SumWire) -> (Vec<SignSumVec>, Trace) {
    let m = parts.len();
    assert!(m >= 2, "ring all-reduce needs at least 2 workers");
    let d = parts[0].len();
    assert!(parts.iter().all(|v| v.len() == d), "payload lengths differ");
    let segs = segment_ranges(d, m);
    // state[w][s]: worker w's partial sum of segment s.
    let mut state: Vec<Vec<SignSumVec>> = parts
        .iter()
        .map(|v| {
            segs.iter()
                .map(|r| SignSumVec::from_parts(v.sums()[r.clone()].to_vec(), v.count()))
                .collect()
        })
        .collect();
    let mut trace = Trace::new();
    for r in 0..m - 1 {
        let mut step_bytes = Vec::with_capacity(m);
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + m - (r % m)) % m;
            step_bytes.push(wire.wire_bytes(&state[w][s]));
            let sent = state[w][s].clone();
            state[n][s].merge(&sent);
        }
        trace.push_step(step_bytes);
    }
    // Owner of segment s is worker (s + m − 1) mod m (so that worker w owns
    // segment (w+1) mod m).
    let owned: Vec<SignSumVec> = (0..m)
        .map(|s| {
            let owner = (s + m - 1) % m;
            state[owner][s].clone()
        })
        .collect();
    (owned, trace)
}

/// Ring all-reduce of one-bit payloads with a caller-supplied combine.
///
/// This is Marsit's communication schedule: every reduce hop transmits
/// exactly one bit per coordinate; `combine(received, local, ctx)` merges the
/// incoming aggregate (over `ctx.received_count` workers) *into* the local
/// vector in place — the hot loop performs no clone of the received segment
/// and no allocation per hop. The gather phase circulates the final one-bit
/// segments. Returns the consensus sign vector and the trace.
///
/// # Panics
///
/// Panics if fewer than 2 workers, sign lengths differ, or the combine
/// changes the local vector's length.
pub fn ring_allreduce_onebit<F>(signs: &[SignVec], combine: F) -> (SignVec, Trace)
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    ring_allreduce_onebit_weighted(signs, 1, combine)
}

/// [`ring_allreduce_onebit`] where each input vector already represents an
/// aggregate over `unit` workers (the vertical phase of a 2D torus feeds
/// row aggregates here). Combine contexts report
/// `received_count = (step+1)·unit` and `local_count = unit`.
///
/// # Panics
///
/// Panics if fewer than 2 workers, `unit == 0`, sign lengths differ, or the
/// combine changes the local vector's length.
pub fn ring_allreduce_onebit_weighted<F>(
    signs: &[SignVec],
    unit: usize,
    combine: F,
) -> (SignVec, Trace)
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    ring_allreduce_onebit_weighted_hooked(signs, unit, |_| {}, combine)
}

/// [`ring_allreduce_onebit_weighted`] with a *step-begin hook*: before each
/// reduce step's combines run, `step_begin` receives the step's full hop
/// plan ([`PlannedHop`] per combine, in call order).
///
/// The `m` combines of one reduce step write disjoint segments and consume
/// independent per-hop RNG streams, so a caller that derives its randomness
/// from the [`CombineCtx`] can pre-sample all of a step's transient masks in
/// one interleaved batch (several xorshift chains in flight instead of one)
/// and have the combines apply them — bit-identical outputs, much less
/// latency-bound sampling. The plain entry points pass a no-op hook.
///
/// # Panics
///
/// Panics if fewer than 2 workers, `unit == 0`, sign lengths differ, or the
/// combine changes the local vector's length.
pub fn ring_allreduce_onebit_weighted_hooked<G, F>(
    signs: &[SignVec],
    unit: usize,
    mut step_begin: G,
    mut combine: F,
) -> (SignVec, Trace)
where
    G: FnMut(&[PlannedHop]),
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    assert!(unit > 0, "unit must be positive");
    let m = signs.len();
    assert!(m >= 2, "ring all-reduce needs at least 2 workers");
    let d = signs[0].len();
    assert!(signs.iter().all(|v| v.len() == d), "sign lengths differ");
    let segs = segment_ranges(d, m);
    let mut state: Vec<Vec<SignVec>> = signs
        .iter()
        .map(|v| segs.iter().map(|r| v.slice(r.start, r.len())).collect())
        .collect();
    let mut trace = Trace::new();
    let mut rec = HopRecorder::begin();
    let mut plan: Vec<PlannedHop> = Vec::with_capacity(m);
    for r in 0..m - 1 {
        plan.clear();
        plan.extend((0..m).map(|w| {
            let s = (w + m - (r % m)) % m;
            PlannedHop {
                ctx: CombineCtx {
                    step: r,
                    receiver: (w + 1) % m,
                    segment: s,
                    received_count: (r + 1) * unit,
                    local_count: unit,
                },
                elems: segs[s].len(),
            }
        }));
        step_begin(&plan);
        let mut step_bytes = Vec::with_capacity(m);
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + m - (r % m)) % m;
            let bytes = segs[s].len().div_ceil(8).max(1);
            step_bytes.push(bytes);
            rec.hop(&Hop {
                expanded_step: r,
                step: r,
                phase: "reduce",
                sender: w,
                receiver: n,
                segment: s,
                elems: segs[s].len(),
                bytes,
                attempt: 1,
                delivered: true,
            });
            let ctx = CombineCtx {
                step: r,
                receiver: n,
                segment: s,
                received_count: (r + 1) * unit,
                local_count: unit,
            };
            // Split borrow: sender w's segment is read in place while
            // receiver n's is combined into — no clone per hop.
            let (src, dst) = split_pair(&mut state, w, n);
            combine(&src[s], &mut dst[s], ctx);
            assert_eq!(
                dst[s].len(),
                segs[s].len(),
                "combine changed segment length"
            );
        }
        trace.push_step(step_bytes);
    }
    // Assemble the result from each segment's owner and trace the gather.
    let mut result = SignVec::zeros(d);
    for s in 0..m {
        let owner = (s + m - 1) % m;
        result.splice(segs[s].start, &state[owner][s]);
    }
    // Gather step g circulates segment s from sender (s+g+m−1) mod m — the
    // inverse of the sum-gather's s = (w+1−g) mod m — so the traced byte list
    // (indexed by segment) and the emitted endpoints agree.
    for g in 0..m - 1 {
        let mut step = Vec::with_capacity(m);
        for (s, seg) in segs.iter().enumerate() {
            let bytes = seg.len().div_ceil(8).max(1);
            step.push(bytes);
            let w = (s + g + m - 1) % m;
            rec.hop(&Hop {
                expanded_step: (m - 1) + g,
                step: g,
                phase: "gather",
                sender: w,
                receiver: (w + 1) % m,
                segment: s,
                elems: seg.len(),
                bytes,
                attempt: 1,
                delivered: true,
            });
        }
        trace.push_step(step);
    }
    (result, trace)
}

/// A step-planned one-bit combine operator for
/// [`ring_allreduce_onebit_planned`].
///
/// Splitting the closure-based hook/combine pair into a trait lets the
/// collective apply one step's combines *concurrently*: `step_begin`
/// (exclusive) plans and pre-draws a step, then `combine` (shared) applies
/// individual hops, possibly from several threads at once with distinct
/// `idx` values.
///
/// # Contract
///
/// `combine` must touch only the two segment vectors it is handed — the
/// collective guarantees those are disjoint across the hops of one step, and
/// concurrent callers rely on `combine` not reaching into shared mutable
/// state (interior mutability must be thread-safe, e.g. atomics).
pub trait StepCombine: Sync {
    /// Called once per reduce step with the step's full hop plan, before any
    /// of its combines run.
    fn step_begin(&mut self, plan: &[PlannedHop]);

    /// Applies hop `idx` of the current step's plan (same `ctx` as
    /// `plan[idx].ctx`). Called exactly once per hop; calls for different
    /// `idx` may run concurrently.
    fn combine(&self, idx: usize, received: &SignVec, local: &mut SignVec, ctx: CombineCtx);
}

/// Reusable buffers for [`ring_allreduce_onebit_planned`]: the per-worker
/// segment grid, the step plan, and the hop work list. Holding one of these
/// across rounds makes the clean one-bit ring collective allocation-free in
/// steady state — only the returned [`Trace`]'s step vectors are freshly
/// allocated (they escape to the caller).
#[derive(Debug, Clone, Default)]
pub struct RingOnebitScratch {
    /// `state[w][s]`: worker `w`'s working copy of segment `s`.
    state: Vec<Vec<SignVec>>,
    /// Segment bit ranges for the current `(d, m)`.
    segs: Vec<Range<usize>>,
    /// Plan handed to [`StepCombine::step_begin`] each step.
    plan: Vec<PlannedHop>,
    /// Per-step combine work list (raw segment cell pairs).
    cells: Vec<HopCell>,
}

impl RingOnebitScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// One hop's source/destination segment cells, captured as raw pointers so
/// a step's (provably disjoint) combines can be dispatched across threads.
#[derive(Debug, Clone, Copy)]
struct HopCell {
    src: *const SignVec,
    dst: *mut SignVec,
    ctx: CombineCtx,
}

/// SAFETY: a `HopCell` is only dereferenced inside the step dispatch below,
/// where the cells of one step are pairwise-disjoint `SignVec` objects (see
/// the disjointness argument at the dispatch site) and each cell is handed
/// to exactly one thread.
unsafe impl Send for HopCell {}
unsafe impl Sync for HopCell {}

/// [`ring_allreduce_onebit_weighted_hooked`] in allocation-free, optionally
/// multi-threaded form: state buffers come from `scratch`, the consensus is
/// written into `out` (reusing its buffer), and each reduce step's combines
/// are spread over up to `intra_threads` OS threads (`<= 1` runs them on the
/// caller thread in hop order).
///
/// Parallelism never changes a bit: within one reduce step, hop `w` reads
/// cell `(w, s_w)` and writes cell `(w+1 mod m, s_w)` with all `s_w`
/// distinct, so every source and destination is a distinct `SignVec` and
/// combines commute. Operators whose randomness is a pure function of the
/// hop (the frozen per-hop stream contract) therefore produce the same
/// consensus regardless of thread count — pinned by the differential tests.
/// Hop telemetry and the trace are recorded on the caller thread before the
/// step's combines run, so their byte streams are identical to the serial
/// path's.
///
/// The trace is written into `trace` (reset first, slot allocations
/// recycled — see [`Trace::reset`]), which keeps the steady state of this
/// collective allocation-free end to end.
///
/// # Panics
///
/// Panics if fewer than 2 workers, `unit == 0`, or sign lengths differ.
pub fn ring_allreduce_onebit_planned<O: StepCombine>(
    signs: &[SignVec],
    unit: usize,
    scratch: &mut RingOnebitScratch,
    out: &mut SignVec,
    trace: &mut Trace,
    intra_threads: usize,
    op: &mut O,
) {
    assert!(unit > 0, "unit must be positive");
    let m = signs.len();
    assert!(m >= 2, "ring all-reduce needs at least 2 workers");
    let d = signs[0].len();
    assert!(signs.iter().all(|v| v.len() == d), "sign lengths differ");
    if scratch.segs.len() != m
        || scratch.segs.last().is_none_or(|r| r.end != d)
        || scratch.state.len() != m
    {
        scratch.segs.clear();
        scratch.segs.extend(segment_ranges(d, m));
        scratch.state.resize_with(m, Vec::new);
        for row in &mut scratch.state {
            row.resize_with(m, || SignVec::zeros(0));
        }
    }
    let segs = &scratch.segs;
    for (row, v) in scratch.state.iter_mut().zip(signs) {
        for (cell, r) in row.iter_mut().zip(segs.iter()) {
            cell.assign_slice_of(v, r.start, r.len());
        }
    }
    trace.reset();
    let mut rec = HopRecorder::begin();
    for r in 0..m - 1 {
        scratch.plan.clear();
        scratch.plan.extend((0..m).map(|w| {
            let s = (w + m - (r % m)) % m;
            PlannedHop {
                ctx: CombineCtx {
                    step: r,
                    receiver: (w + 1) % m,
                    segment: s,
                    received_count: (r + 1) * unit,
                    local_count: unit,
                },
                elems: segs[s].len(),
            }
        }));
        op.step_begin(&scratch.plan);
        // Record the step's wire activity (trace + hop telemetry) on the
        // caller thread, in hop order, before any combine runs — the byte
        // streams cannot depend on how the combines are scheduled.
        let step_bytes = trace.begin_step();
        for hop in &scratch.plan {
            let s = hop.ctx.segment;
            let bytes = segs[s].len().div_ceil(8).max(1);
            step_bytes.push(bytes);
            rec.hop(&Hop {
                expanded_step: r,
                step: r,
                phase: "reduce",
                sender: (hop.ctx.receiver + m - 1) % m,
                receiver: hop.ctx.receiver,
                segment: s,
                elems: segs[s].len(),
                bytes,
                attempt: 1,
                delivered: true,
            });
        }
        scratch.cells.clear();
        for (w, hop) in scratch.plan.iter().enumerate() {
            let s = hop.ctx.segment;
            let n = hop.ctx.receiver;
            // Cells captured raw; disjointness argument below.
            let src: *const SignVec = &raw const scratch.state[w][s];
            let dst: *mut SignVec = &raw mut scratch.state[n][s];
            scratch.cells.push(HopCell {
                src,
                dst,
                ctx: hop.ctx,
            });
        }
        // Disjointness: destinations `(w+1, s_w)` are pairwise distinct
        // (receivers distinct, one segment each); sources `(w, s_w)`
        // likewise; and a source equals a destination only if
        // `w = w'+1 ∧ s_w = s_{w'}`, impossible since consecutive hops use
        // consecutive (distinct) segments. Every cell is therefore a
        // distinct `SignVec`, and each is dereferenced by exactly one hop.
        let threads = intra_threads.clamp(1, m);
        if threads <= 1 {
            for (i, cell) in scratch.cells.iter().enumerate() {
                // SAFETY: disjointness above; serial loop, unique access.
                unsafe { op.combine(i, &*cell.src, &mut *cell.dst, cell.ctx) };
            }
        } else {
            let cells = &scratch.cells;
            let chunk = m.div_ceil(threads);
            let shared: &O = op;
            std::thread::scope(|scope| {
                for (t, part) in cells.chunks(chunk).enumerate().skip(1) {
                    let base = t * chunk;
                    scope.spawn(move || {
                        for (i, cell) in part.iter().enumerate() {
                            // SAFETY: disjoint cells; this thread owns them.
                            unsafe {
                                shared.combine(base + i, &*cell.src, &mut *cell.dst, cell.ctx);
                            }
                        }
                    });
                }
                for (i, cell) in cells.iter().take(chunk).enumerate() {
                    // SAFETY: disjoint cells; the caller thread owns chunk 0.
                    unsafe { shared.combine(i, &*cell.src, &mut *cell.dst, cell.ctx) };
                }
            });
        }
        for hop in &scratch.plan {
            let s = hop.ctx.segment;
            assert_eq!(
                scratch.state[hop.ctx.receiver][s].len(),
                segs[s].len(),
                "combine changed segment length"
            );
        }
    }
    // Assemble the consensus into `out` (every bit of [0, d) is overwritten
    // by some segment, so stale contents never leak).
    if out.len() != d {
        *out = SignVec::zeros(d);
    }
    for (s, seg) in segs.iter().enumerate() {
        let owner = (s + m - 1) % m;
        out.splice(seg.start, &scratch.state[owner][s]);
    }
    for g in 0..m - 1 {
        let step = trace.begin_step();
        for (s, seg) in segs.iter().enumerate() {
            let bytes = seg.len().div_ceil(8).max(1);
            step.push(bytes);
            let w = (s + g + m - 1) % m;
            rec.hop(&Hop {
                expanded_step: (m - 1) + g,
                step: g,
                phase: "gather",
                sender: w,
                receiver: (w + 1) % m,
                segment: s,
                elems: seg.len(),
                bytes,
                attempt: 1,
                delivered: true,
            });
        }
    }
}

/// [`ring_allreduce_sum`] under fault injection.
///
/// Reduce-phase transfers are best-effort: a transfer whose retry budget is
/// exhausted is omitted (its partial aggregate is simply not folded in, so
/// the result degrades toward a partial sum). Gather-phase transfers are
/// reliable — every worker still ends with identical payloads. Retransmitted
/// attempts appear as extra sub-steps in the trace.
///
/// With an inert injector this produces exactly the [`ring_allreduce_sum`]
/// result and trace.
///
/// # Errors
///
/// Returns [`SyncError::TooFewWorkers`] for fewer than 2 workers and
/// [`SyncError::LengthMismatch`] if payload lengths differ.
pub fn ring_allreduce_sum_faulty(
    data: &mut [Vec<f32>],
    inj: &mut FaultInjector,
) -> Result<Trace, SyncError> {
    let m = data.len();
    if m < 2 {
        return Err(SyncError::TooFewWorkers { needed: 2, got: m });
    }
    let d = data[0].len();
    if let Some(bad) = data.iter().find(|v| v.len() != d) {
        return Err(SyncError::LengthMismatch {
            expected: d,
            got: bad.len(),
        });
    }
    let segs = segment_ranges(d, m);
    let mut trace = Trace::new();
    let mut rec = HopRecorder::begin();

    for r in 0..m - 1 {
        let step_base = trace.num_steps();
        let mut fs = FaultyStep::new();
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + m - (r % m)) % m;
            let range = segs[s].clone();
            let fate = inj.transfer();
            fs.record(range.len() * 4, fate.attempts);
            emit_attempts(
                &mut rec,
                &Hop {
                    expanded_step: step_base,
                    step: r,
                    phase: "reduce",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: range.len(),
                    bytes: range.len() * 4,
                    attempt: 1,
                    delivered: true,
                },
                fate.attempts,
                fate.delivered,
            );
            if fate.delivered {
                let (src, dst) = two_workers(data, w, n);
                for (x, &y) in dst[range.clone()].iter_mut().zip(&src[range]) {
                    *x += y;
                }
            }
        }
        for step in fs.into_steps() {
            trace.push_step(step);
        }
    }

    for g in 0..m - 1 {
        let step_base = trace.num_steps();
        let mut fs = FaultyStep::new();
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + 1 + m - (g % m)) % m;
            let range = segs[s].clone();
            let fate = inj.transfer_reliable();
            fs.record(range.len() * 4, fate.attempts);
            emit_attempts(
                &mut rec,
                &Hop {
                    expanded_step: step_base,
                    step: g,
                    phase: "gather",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: range.len(),
                    bytes: range.len() * 4,
                    attempt: 1,
                    delivered: true,
                },
                fate.attempts,
                fate.delivered,
            );
            let (src, dst) = two_workers(data, w, n);
            dst[range.clone()].copy_from_slice(&src[range]);
        }
        for step in fs.into_steps() {
            trace.push_step(step);
        }
    }
    Ok(trace)
}

/// [`ring_allreduce_onebit`] under fault injection.
///
/// See [`ring_allreduce_onebit_counted_faulty`]; every input counts as one
/// worker.
///
/// # Errors
///
/// Fails under the same conditions as
/// [`ring_allreduce_onebit_counted_faulty`].
pub fn ring_allreduce_onebit_faulty<F>(
    signs: &[SignVec],
    inj: &mut FaultInjector,
    combine: F,
) -> Result<(SignVec, Trace), SyncError>
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    let counts = vec![1; signs.len()];
    ring_allreduce_onebit_counted_faulty(signs, &counts, inj, combine)
}

/// One-bit ring all-reduce under fault injection, with explicit per-input
/// aggregation counts (`init_counts[w]` = how many workers `signs[w]`
/// already aggregates; the vertical phase of a faulty torus feeds row
/// aggregates here).
///
/// Unlike the clean schedule, aggregation counts are tracked per
/// `(worker, segment)` cell rather than derived from the step index: when a
/// reduce transfer exhausts its retry budget the contribution is *omitted* —
/// the receiver keeps its current aggregate and its count is unchanged — so
/// every [`CombineCtx`] still reports the exact number of workers on each
/// side and the `⊙` combine stays unbiased over what actually arrived.
/// Gather transfers are reliable, so all workers agree on the result.
///
/// With an inert injector this reproduces [`ring_allreduce_onebit_weighted`]
/// (contexts and all) for uniform `init_counts`.
///
/// # Errors
///
/// Returns a [`SyncError`] if fewer than 2 workers, a count is zero, the
/// count slice is the wrong length, or input lengths differ.
///
/// # Panics
///
/// Panics if the combine changes the local vector's length (a programmer
/// error in the closure, not a runtime condition).
pub fn ring_allreduce_onebit_counted_faulty<F>(
    signs: &[SignVec],
    init_counts: &[usize],
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
    if init_counts.len() != m {
        return Err(SyncError::CountMismatch {
            expected: m,
            got: init_counts.len(),
        });
    }
    if let Some(worker) = init_counts.iter().position(|&c| c == 0) {
        return Err(SyncError::ZeroCount { worker });
    }
    let d = signs[0].len();
    if let Some(bad) = signs.iter().find(|v| v.len() != d) {
        return Err(SyncError::LengthMismatch {
            expected: d,
            got: bad.len(),
        });
    }
    let segs = segment_ranges(d, m);
    let mut state: Vec<Vec<SignVec>> = signs
        .iter()
        .map(|v| segs.iter().map(|r| v.slice(r.start, r.len())).collect())
        .collect();
    // counts[w][s]: workers aggregated in worker w's copy of segment s.
    let mut counts: Vec<Vec<usize>> = init_counts.iter().map(|&c| vec![c; m]).collect();
    let mut trace = Trace::new();
    let mut rec = HopRecorder::begin();
    for r in 0..m - 1 {
        let step_base = trace.num_steps();
        let mut fs = FaultyStep::new();
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + m - (r % m)) % m;
            let fate = inj.transfer();
            fs.record(segs[s].len().div_ceil(8).max(1), fate.attempts);
            emit_attempts(
                &mut rec,
                &Hop {
                    expanded_step: step_base,
                    step: r,
                    phase: "reduce",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: segs[s].len(),
                    bytes: segs[s].len().div_ceil(8).max(1),
                    attempt: 1,
                    delivered: true,
                },
                fate.attempts,
                fate.delivered,
            );
            if fate.delivered {
                let ctx = CombineCtx {
                    step: r,
                    receiver: n,
                    segment: s,
                    received_count: counts[w][s],
                    local_count: counts[n][s],
                };
                let (src, dst) = split_pair(&mut state, w, n);
                combine(&src[s], &mut dst[s], ctx);
                assert_eq!(
                    dst[s].len(),
                    segs[s].len(),
                    "combine changed segment length"
                );
                counts[n][s] += counts[w][s];
            }
        }
        for step in fs.into_steps() {
            trace.push_step(step);
        }
    }
    // Assemble from each segment's owner, then trace the (reliable) gather.
    let mut result = SignVec::zeros(d);
    for s in 0..m {
        let owner = (s + m - 1) % m;
        result.splice(segs[s].start, &state[owner][s]);
    }
    for g in 0..m - 1 {
        let step_base = trace.num_steps();
        let mut fs = FaultyStep::new();
        for (s, seg) in segs.iter().enumerate() {
            let fate = inj.transfer_reliable();
            fs.record(seg.len().div_ceil(8).max(1), fate.attempts);
            let w = (s + g + m - 1) % m;
            emit_attempts(
                &mut rec,
                &Hop {
                    expanded_step: step_base,
                    step: g,
                    phase: "gather",
                    sender: w,
                    receiver: (w + 1) % m,
                    segment: s,
                    elems: seg.len(),
                    bytes: seg.len().div_ceil(8).max(1),
                    attempt: 1,
                    delivered: true,
                },
                fate.attempts,
                fate.delivered,
            );
        }
        for step in fs.into_steps() {
            trace.push_step(step);
        }
    }
    Ok((result, trace))
}

/// Borrows `items[src]` immutably and `items[dst]` mutably — the split
/// borrow that lets a hop combine a received payload into the receiver's
/// state in place, with no clone of the sent data.
pub(crate) fn split_pair<T>(items: &mut [T], src: usize, dst: usize) -> (&T, &mut T) {
    assert_ne!(src, dst, "src and dst must differ");
    if src < dst {
        let (a, b) = items.split_at_mut(dst);
        (&a[src], &mut b[0])
    } else {
        let (a, b) = items.split_at_mut(src);
        (&b[0], &mut a[dst])
    }
}

/// Borrows worker `src` immutably and worker `dst` mutably from `data`.
fn two_workers(data: &mut [Vec<f32>], src: usize, dst: usize) -> (&[f32], &mut [f32]) {
    let (src, dst) = split_pair(data, src, dst);
    (src.as_slice(), dst.as_mut_slice())
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

    #[test]
    fn segment_ranges_cover_exactly() {
        for (d, m) in [(10, 3), (64, 8), (7, 7), (5, 8), (0, 2)] {
            let segs = segment_ranges(d, m);
            assert_eq!(segs.len(), m);
            let mut pos = 0;
            for s in &segs {
                assert_eq!(s.start, pos);
                pos = s.end;
            }
            assert_eq!(pos, d);
            let max = segs.iter().map(Range::len).max().unwrap();
            let min = segs.iter().map(Range::len).min().unwrap();
            assert!(max - min <= 1, "d={d} m={m}");
        }
    }

    #[test]
    fn sum_allreduce_matches_reference() {
        for (m, d) in [(2, 8), (3, 10), (4, 64), (5, 7), (8, 100)] {
            let mut data = random_payloads(m, d, 42);
            let mut expected = vec![0.0f32; d];
            for w in &data {
                for (e, &x) in expected.iter_mut().zip(w) {
                    *e += x;
                }
            }
            let trace = ring_allreduce_sum(&mut data);
            for (w, payload) in data.iter().enumerate() {
                for (j, (&got, &want)) in payload.iter().zip(&expected).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-4,
                        "m={m} d={d} worker {w} coord {j}: {got} vs {want}"
                    );
                }
            }
            assert_eq!(trace.num_steps(), 2 * (m - 1));
        }
    }

    #[test]
    fn sum_allreduce_trace_bytes_match_formula() {
        let m = 4;
        let d = 64;
        let mut data = random_payloads(m, d, 1);
        let trace = ring_allreduce_sum(&mut data);
        // 2(M−1) steps × M transfers × (D/M)·4 bytes.
        assert_eq!(trace.total_bytes(), 2 * (m - 1) * m * (d / m) * 4);
    }

    #[test]
    fn majority_vote_matches_scalar_recount() {
        let m = 5;
        let d = 33;
        let mut rng = FastRng::new(7, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        let (vote, trace) = ring_allreduce_majority(&signs, SumWire::Elias);
        for j in 0..d {
            let sum: i32 = signs.iter().map(|v| if v.get(j) { 1 } else { -1 }).sum();
            assert_eq!(vote.get(j), sum >= 0, "coord {j}");
        }
        assert_eq!(trace.num_steps(), 2 * (m - 1));
    }

    #[test]
    fn signsum_allreduce_totals() {
        let m = 4;
        let d = 50;
        let mut rng = FastRng::new(9, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.3, &mut rng))
            .collect();
        let (total, _) = ring_allreduce_signsum(&signs, SumWire::Elias);
        assert_eq!(total.count(), m as u32);
        for j in 0..d {
            let sum: i32 = signs.iter().map(|v| if v.get(j) { 1 } else { -1 }).sum();
            assert_eq!(total.sums()[j], sum, "coord {j}");
        }
    }

    #[test]
    fn signsum_reduce_hops_grow() {
        // With fixed-width encoding, later reduce hops carry more bits.
        let m = 8;
        let d = 800;
        let mut rng = FastRng::new(3, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        let (_, trace) = ring_allreduce_signsum(&signs, SumWire::FixedWidth);
        let steps = trace.steps();
        let first_hop = steps[0][0];
        let last_reduce_hop = steps[m - 2][0];
        assert!(
            last_reduce_hop > 2 * first_hop,
            "bit growth missing: first {first_hop}, last {last_reduce_hop}"
        );
    }

    #[test]
    fn onebit_hops_are_one_bit_per_coordinate() {
        let m = 4;
        let d = 64;
        let mut rng = FastRng::new(5, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        // "Keep received" combine: result is well-defined; we check the trace.
        let (_, trace) = ring_allreduce_onebit(&signs, |recv, local, _ctx| local.copy_from(recv));
        // Every transfer must be exactly seg_len/8 bytes.
        for step in trace.steps() {
            for &bytes in step {
                assert_eq!(bytes, (d / m) / 8);
            }
        }
        assert_eq!(trace.num_steps(), 2 * (m - 1));
    }

    #[test]
    fn onebit_keep_local_last_writer_wins() {
        // Combine that always keeps the local vector: the owner's own signs
        // survive, so the result equals, per segment s, worker (s+m−1)'s
        // original bits.
        let m = 3;
        let d = 30;
        let mut rng = FastRng::new(8, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        let (result, _) = ring_allreduce_onebit(&signs, |_recv, _local, _ctx| {});
        let segs = segment_ranges(d, m);
        for (s, seg) in segs.iter().enumerate() {
            let owner = (s + m - 1) % m;
            for j in seg.clone() {
                assert_eq!(result.get(j), signs[owner].get(j), "segment {s} coord {j}");
            }
        }
    }

    /// A [`StepCombine`] whose randomness is a pure function of the hop,
    /// mirroring the frozen per-hop stream contract of the core crate.
    struct StreamedWeighted {
        seed: u64,
    }

    impl StepCombine for StreamedWeighted {
        fn step_begin(&mut self, _plan: &[PlannedHop]) {}
        fn combine(&self, _idx: usize, recv: &SignVec, local: &mut SignVec, ctx: CombineCtx) {
            let stream =
                ((ctx.receiver as u64) << 40) | ((ctx.segment as u64) << 20) | ctx.step as u64;
            let mut rng = FastRng::new(self.seed, stream);
            let p = ctx.received_count as f64 / (ctx.received_count + ctx.local_count) as f64;
            SignVec::transient_combine_assign(recv, local, p, &mut rng);
        }
    }

    /// The planned collective — serial, threaded, and with a reused
    /// scratch — is bit-identical (consensus and trace) to the closure
    /// path when both derive their masks from the per-hop stream id.
    #[test]
    fn planned_matches_hooked_across_threads_and_reuse() {
        for (m, d) in [(8usize, 1024usize), (7, 300), (3, 130)] {
            let mut rng = FastRng::new(2024, m as u64);
            let signs: Vec<SignVec> = (0..m)
                .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
                .collect();
            let (expected, expected_trace) = ring_allreduce_onebit_weighted_hooked(
                &signs,
                1,
                |_| {},
                |recv, local, ctx| {
                    let stream = ((ctx.receiver as u64) << 40)
                        | ((ctx.segment as u64) << 20)
                        | ctx.step as u64;
                    let mut hop_rng = FastRng::new(99, stream);
                    let p =
                        ctx.received_count as f64 / (ctx.received_count + ctx.local_count) as f64;
                    SignVec::transient_combine_assign(recv, local, p, &mut hop_rng);
                },
            );
            let mut scratch = RingOnebitScratch::new();
            let mut op = StreamedWeighted { seed: 99 };
            let mut trace = Trace::new();
            for threads in [1usize, 2, 4, 16] {
                let mut out = SignVec::zeros(1);
                ring_allreduce_onebit_planned(
                    &signs,
                    1,
                    &mut scratch,
                    &mut out,
                    &mut trace,
                    threads,
                    &mut op,
                );
                assert_eq!(out, expected, "m={m} d={d} threads={threads}: consensus");
                assert_eq!(
                    trace, expected_trace,
                    "m={m} d={d} threads={threads}: trace"
                );
            }
        }
    }

    #[test]
    fn onebit_ctx_counts_are_consistent() {
        let m = 5;
        let d = 25;
        let signs: Vec<SignVec> = (0..m).map(|_| SignVec::ones(d)).collect();
        let mut seen = Vec::new();
        let _ = ring_allreduce_onebit(&signs, |recv, local, ctx| {
            seen.push((ctx.step, ctx.received_count, ctx.local_count));
            local.copy_from(recv);
        });
        // m−1 steps × m combines; at step r received_count = r+1.
        assert_eq!(seen.len(), (m - 1) * m);
        for &(step, rc, lc) in &seen {
            assert_eq!(rc, step + 1);
            assert_eq!(lc, 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 workers")]
    fn single_worker_panics() {
        let mut data = vec![vec![1.0f32]];
        let _ = ring_allreduce_sum(&mut data);
    }

    #[test]
    fn faulty_sum_with_inert_injector_matches_clean() {
        let m = 5;
        let d = 47;
        let mut clean = random_payloads(m, d, 17);
        let mut faulty = clean.clone();
        let clean_trace = ring_allreduce_sum(&mut clean);
        let mut inj = FaultInjector::inert();
        let faulty_trace = ring_allreduce_sum_faulty(&mut faulty, &mut inj).expect("valid inputs");
        assert_eq!(clean, faulty);
        assert_eq!(clean_trace, faulty_trace);
        assert!(inj.stats().is_clean());
    }

    #[test]
    fn faulty_onebit_with_inert_injector_matches_clean() {
        let m = 4;
        let d = 36;
        let mut rng = FastRng::new(19, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        // Deterministic combine so both runs take identical decisions.
        let combine =
            |recv: &SignVec, local: &mut SignVec, _ctx: CombineCtx| local.and_assign(recv);
        let (clean, clean_trace) = ring_allreduce_onebit(&signs, combine);
        let mut inj = FaultInjector::inert();
        let (faulty, faulty_trace) =
            ring_allreduce_onebit_faulty(&signs, &mut inj, combine).expect("valid inputs");
        assert_eq!(clean, faulty);
        assert_eq!(clean_trace, faulty_trace);
    }

    #[test]
    fn faulty_onebit_counts_match_clean_contexts_when_inert() {
        let m = 5;
        let d = 25;
        let signs: Vec<SignVec> = (0..m).map(|_| SignVec::ones(d)).collect();
        let mut seen = Vec::new();
        let mut inj = FaultInjector::inert();
        let _ = ring_allreduce_onebit_faulty(&signs, &mut inj, |recv, local, ctx| {
            seen.push((ctx.step, ctx.received_count, ctx.local_count));
            local.copy_from(recv);
        });
        assert_eq!(seen.len(), (m - 1) * m);
        for &(step, rc, lc) in &seen {
            assert_eq!(rc, step + 1);
            assert_eq!(lc, 1);
        }
    }

    #[test]
    fn faulty_onebit_counts_stay_exact_under_drops() {
        use marsit_simnet::FaultPlan;
        // Heavy loss with no retries: many omissions. Every combine context
        // must still report the true aggregation counts (each side ≥ 1, sum
        // ≤ m), and the schedule must stay deterministic per seed.
        let m = 6;
        let d = 48;
        let mut rng = FastRng::new(23, 0);
        let signs: Vec<SignVec> = (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect();
        let plan = FaultPlan::seeded(3)
            .with_link_drop(0.4)
            .with_retry_policy(0, 1e-4);
        let run = |plan: &FaultPlan| {
            let mut inj = plan.injector(0);
            let mut ctxs = Vec::new();
            let (out, trace) =
                ring_allreduce_onebit_faulty(&signs, &mut inj, |recv, local, ctx| {
                    ctxs.push(ctx);
                    local.copy_from(recv);
                })
                .expect("valid inputs");
            (out, trace, ctxs, inj.stats())
        };
        let (out, trace, ctxs, stats) = run(&plan);
        assert!(stats.dropped_transfers > 0, "0.4 loss over 30 transfers");
        for ctx in &ctxs {
            assert!(ctx.received_count >= 1 && ctx.local_count >= 1);
            assert!(ctx.received_count + ctx.local_count <= m);
        }
        // Fewer combines than the fault-free schedule's (m−1)·m.
        assert!(ctxs.len() < (m - 1) * m);
        let again = run(&plan);
        assert_eq!(out, again.0, "deterministic under fixed seed");
        assert_eq!(trace, again.1);
        assert_eq!(ctxs, again.2);
    }

    #[test]
    fn faulty_retries_appear_as_extra_trace_steps() {
        use marsit_simnet::FaultPlan;
        let m = 4;
        let d = 64;
        let mut data = random_payloads(m, d, 29);
        let baseline_steps = 2 * (m - 1);
        let plan = FaultPlan::seeded(7)
            .with_link_drop(0.3)
            .with_retry_policy(4, 1e-4);
        let mut inj = plan.injector(0);
        let trace = ring_allreduce_sum_faulty(&mut data, &mut inj).expect("valid inputs");
        let stats = inj.stats();
        assert!(stats.retransmits > 0);
        assert!(trace.num_steps() > baseline_steps, "retries add sub-steps");
        // Wire bytes grow by exactly the retransmitted segments.
        let clean_bytes = 2 * (m - 1) * m * (d / m) * 4;
        assert_eq!(
            trace.total_bytes(),
            clean_bytes + stats.retransmits as usize * (d / m) * 4
        );
    }
}
