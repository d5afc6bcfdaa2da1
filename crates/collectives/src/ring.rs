//! Ring all-reduce (RAR) schedules.
//!
//! The classic bandwidth-optimal collective (Baidu RAR, Horovod): each
//! worker splits its payload into `M` segments; `M−1` *reduce* steps
//! pipeline partial aggregates around the ring so that worker `w` ends up
//! owning the fully reduced segment `(w+1) mod M`, then `M−1` *gather* steps
//! circulate the reduced segments to everyone. One function enumerates those
//! hops for whatever they carry (see the [crate docs](crate#schedules-and-payloads));
//! the entry points here are that walk with a payload filled in:
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
//! This module also holds what every topology's walk is made of: the wire
//! transfers go out on and the per-cell bookkeeping of a reduce or gather
//! step.

use std::ops::Range;

use marsit_compress::SignSumVec;
use marsit_simnet::FaultInjector;
use marsit_telemetry::{Hop, HopRecorder};
use marsit_tensor::SignVec;

use crate::engine::{
    allreduce_majority, allreduce_onebit, allreduce_signsum, allreduce_sum, onebit_walk,
    signsum_walk, EnginePlan, PlanTopology, PlannedTransfer,
};
use crate::payload::{At, Payload, SignCells, Signs};
use crate::reconfigure::SyncError;
use crate::trace::Trace;

/// Splits `d` coordinates into `m` contiguous segments whose sizes differ by
/// at most one (the first `d mod m` segments get the extra element).
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn segment_ranges(d: usize, m: usize) -> Vec<Range<usize>> {
    segment_iter(d, m).collect()
}

/// The ranges of [`segment_ranges`], in order, without collecting them.
fn segment_iter(d: usize, m: usize) -> impl Iterator<Item = Range<usize>> {
    assert!(m > 0, "segment count must be positive");
    let (base, extra) = (d / m, d % m);
    (0..m).scan(0, move |start, i| {
        let range = *start..*start + base + usize::from(i < extra);
        *start = range.end;
        Some(range)
    })
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
    /// The hop's place in its reduce chain, when the chain's shared winner
    /// draw may resolve it (see [`ChainSlot`]); `None` for every other hop,
    /// which is to be resolved from the two counts alone.
    pub chain: Option<ChainSlot>,
}

/// A hop's place in a *reduce chain*: the `len` equal-weight contributors
/// one segment is folded through, in hop order — a ring's workers from the
/// segment's first sender on, a torus row's for one chunk, then a torus
/// column's rows for one sub-segment of the chunk it owns.
///
/// A context carries a slot only while the chain is still the fault-free
/// plan's: every contributor entered with the same aggregation count and the
/// received aggregate has folded all `pos` contributors before this one
/// (`received_count == pos · local_count`). Then, for a winner index `W`
/// drawn uniformly on `0..len` once per coordinate and shared by the whole
/// chain, "take the local bit iff `W == pos`" at every hop leaves
/// contributor `W`'s bit in the last aggregate — the distribution of the
/// Eq. 2 chain from `⌈log₂ len⌉` random bits per coordinate. The slotted
/// hops of a chain are a prefix of it: an omitted transfer leaves every
/// later hop of its chain with a smaller received count and no slot, the
/// aggregate it interrupted is discarded with it, and the later hops fall
/// back to independent Bernoulli(`a/(a+b)`) draws over what they fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSlot {
    /// Chain id, unique within one collective: keys the chain's winner
    /// stream.
    pub chain: usize,
    /// The receiver's position in the chain, `1..len` (contributor 0 sends
    /// first and never combines).
    pub pos: usize,
    /// Contributors in the chain.
    pub len: usize,
}

/// One upcoming combine of a reduce step, announced to a step-begin hook
/// before any of the step's combines run (see [`StepCombine`]).
///
/// The hook sees exactly the [`CombineCtx`] values the combines will
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
        self.bytes_of(sums.sums(), sums.count() as usize)
    }

    /// Wire bytes of raw `sums` over `count` workers: what
    /// [`SignSumVec::elias_bits`] / [`SignSumVec::fixed_width_bits`] count,
    /// on a borrowed cell.
    pub(crate) fn bytes_of(self, sums: &[i32], count: usize) -> usize {
        let bits = match self {
            Self::Elias => SignSumVec::elias_bits_of(sums),
            Self::FixedWidth => sums.len() * SignSumVec::bits_per_coord(count as u32),
        };
        bits.div_ceil(8)
    }
}

/// Unwraps the result of a walk on a fabric that never faults, where the
/// only errors left are the caller's: a shape the schedule cannot run on, or
/// inputs of differing lengths.
pub(crate) fn clean<T>(result: Result<T, SyncError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// In-place ring all-reduce summing `f32` payloads.
///
/// On return every `data[w]` holds the elementwise *sum* over workers
/// (divide by `M` for the mean). Returns the transfer trace:
/// `2(M−1)` steps of `M` parallel segment transfers. This is
/// [`allreduce_sum`] of [`PlanTopology::Ring`] on a fabric that never
/// faults; pass that an injector for the faulty form.
///
/// # Panics
///
/// Panics if fewer than 2 workers or payload lengths differ.
pub fn ring_allreduce_sum(data: &mut [Vec<f32>]) -> Trace {
    clean(allreduce_sum(
        PlanTopology::Ring,
        data,
        &mut FaultInjector::inert(),
    ))
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
    let inj = &mut FaultInjector::inert();
    clean(allreduce_majority(PlanTopology::Ring, signs, wire, inj))
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
    let inj = &mut FaultInjector::inert();
    clean(allreduce_signsum(PlanTopology::Ring, signs, wire, inj))
}

/// [`ring_allreduce_signsum`] over *partial* sums: input `w` already
/// aggregates `parts[w].count()` workers, and the byte widths of every hop
/// grow from there.
///
/// # Panics
///
/// Panics if fewer than 2 workers or payload lengths differ.
pub fn ring_allreduce_signsum_parts(parts: &[SignSumVec], wire: SumWire) -> (SignSumVec, Trace) {
    let count_of = |w: usize| parts[w].count() as usize;
    let inj = &mut FaultInjector::inert();
    clean(signsum_walk(parts, wire, false, inj, |m, d, wire, sums| {
        ring_exec(
            m,
            d,
            count_of,
            RingNames::Shifted(0),
            wire,
            &mut Book::default(),
            sums,
        )
    }))
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
    let inj = &mut FaultInjector::inert();
    clean(allreduce_onebit(PlanTopology::Ring, signs, inj, combine))
}

/// [`ring_allreduce_onebit`] where each input vector already represents an
/// aggregate over `unit` workers. Combine contexts report
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
    assert!(unit > 0, "unit must be positive");
    let inj = &mut FaultInjector::inert();
    clean(onebit_walk(signs, inj, combine, |m, d, wire, payload| {
        let book = &mut Book::default();
        ring_exec(m, d, |_| unit, RingNames::Chains(0), wire, book, payload)
    }))
}

/// A step-planned one-bit combine operator for the one-bit schedules.
///
/// `step_begin` sees a whole step's delivered hops before any of them runs,
/// so an operator can prepare the step in one batch (the hops of one step
/// touch disjoint cells and carry independent RNG streams); `combine` then
/// applies them one at a time, in plan order.
pub trait StepCombine {
    /// Called once per reduce step with the plan of the step's *delivered*
    /// hops — exact aggregation counts included — before any of its combines
    /// run.
    fn step_begin(&mut self, plan: &[PlannedHop]);

    /// Applies hop `idx` of the current step's plan (same `ctx` as
    /// `plan[idx].ctx`). Called exactly once per hop, in plan order, and must
    /// leave `local`'s length as it was.
    fn combine(&mut self, idx: usize, received: &SignVec, local: &mut SignVec, ctx: CombineCtx);
}

/// A combine closure as a plan-blind [`StepCombine`].
pub(crate) struct ClosureOp<F>(pub(crate) F);

impl<F: FnMut(&SignVec, &mut SignVec, CombineCtx)> StepCombine for ClosureOp<F> {
    fn step_begin(&mut self, _plan: &[PlannedHop]) {}

    fn combine(&mut self, _idx: usize, received: &SignVec, local: &mut SignVec, ctx: CombineCtx) {
        (self.0)(received, local, ctx);
    }
}

/// `(workers, elements)` of a set of inputs: the shape a walk over them has.
pub(crate) fn shape_of<T>(inputs: &[T], len: fn(&T) -> usize) -> (usize, usize) {
    (inputs.len(), inputs.first().map_or(0, len))
}

/// Reusable buffers for [`ring_allreduce_onebit_planned`]: the working cells
/// and the walk's books. Holding one of these across rounds makes the
/// collective allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct RingOnebitScratch {
    cells: SignCells,
    book: Book,
}

impl RingOnebitScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The reduce chains of a grid whose workers form consecutive rings of `len`
/// (one ring, or a torus's rows) with every contributor entering at the same
/// aggregation count: ring `w / len`'s chain for segment `s` has id
/// `base + (w / len)·len + s`, and the receiver of reduce step `r` sits at
/// position `r + 1` in it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chains {
    pub(crate) base: usize,
    pub(crate) len: usize,
}

/// How a ring's combine contexts name its hops.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RingNames {
    /// Segment ids as they are; segment `s`'s reduce chain is announced under
    /// id `base + s`.
    Chains(usize),
    /// Segment ids offset by this much, no chains announced.
    Shifted(usize),
}

/// The books of one grid of `(worker, segment)` cells — the half of a walk
/// that never reads a payload element: the cells' aggregation counts, the
/// segment ranges and the step plan.
#[derive(Debug, Clone, Default)]
pub(crate) struct Book {
    /// `counts[w][s]`: workers aggregated in worker `w`'s cell of segment `s`.
    pub(crate) counts: Vec<Vec<usize>>,
    /// Segment ranges for the current `(d, segments)`.
    pub(crate) segs: Vec<Range<usize>>,
    /// Plan handed to [`Payload::step_begin`] each step.
    plan: Vec<PlannedHop>,
    /// `(sender, receiver, segment)` grid coordinates of `plan`'s hops.
    hops: Vec<(usize, usize, usize)>,
}

impl Book {
    /// Shapes the grid for `workers` inputs of `d` elements in `segments`
    /// cells each, worker `w`'s counts starting at `count_of(w)`.
    pub(crate) fn load(
        &mut self,
        workers: usize,
        d: usize,
        segments: usize,
        count_of: impl Fn(usize) -> usize,
    ) {
        if self.segs.len() != segments || self.segs.last().is_none_or(|r| r.end != d) {
            self.segs.clear();
            self.segs.extend(segment_iter(d, segments));
        }
        self.counts.resize_with(workers, Vec::new);
        for (w, counts) in self.counts.iter_mut().enumerate() {
            counts.clear();
            counts.resize(segments, count_of(w));
        }
    }

    fn at(&self, frame: Frame, (w, n, s): (usize, usize, usize)) -> At<'_> {
        let range = &self.segs[s];
        At {
            frame,
            w,
            n,
            s,
            range,
        }
    }

    /// One reduce step over `hops` = `(sender, receiver, segment)`, in
    /// schedule order. Every hop's fate is drawn first (folds never touch
    /// the injector, so its call order is the sequential one) at the wire
    /// size of the sender's cell before any merge; its attempts are traced,
    /// emitted and recorded, and the delivered hops form the step's plan.
    /// Their counts are exact up front: within one step no cell is both a
    /// source and a destination, and none is touched twice. Each
    /// destination's count then absorbs its source's — an omitted hop leaves
    /// the receiver's aggregate and count as they were, which keeps `⊙`
    /// unbiased over what actually arrived — and the payload folds the
    /// plan's hops in order. Contexts name segment `seg_shift + s`, and a hop
    /// of one of `chains` whose counts are still the fault-free plan's
    /// carries its [`ChainSlot`].
    pub(crate) fn reduce_step<P: Payload>(
        &mut self,
        step: usize,
        hops: impl Iterator<Item = (usize, usize, usize)>,
        seg_shift: usize,
        chains: Option<Chains>,
        wire: &mut Wire<'_>,
        payload: &mut P,
    ) {
        wire.open_step();
        self.plan.clear();
        self.hops.clear();
        for (w, n, s) in hops {
            let (received_count, local_count) = (self.counts[w][s], self.counts[n][s]);
            let pos = step + 1;
            let chain = chains
                .filter(|_| received_count == pos * local_count)
                .map(|c| ChainSlot {
                    chain: c.base + w / c.len * c.len + s,
                    pos,
                    len: c.len,
                });
            let ctx = CombineCtx {
                step,
                receiver: n,
                segment: seg_shift + s,
                received_count,
                local_count,
                chain,
            };
            let at = self.at(wire.frame, (w, n, s));
            let bytes = payload.wire_bytes(at, ctx.received_count, true);
            if wire.put(step, at, bytes, Some(ctx)) {
                let elems = at.range.len();
                self.plan.push(PlannedHop { ctx, elems });
                self.hops.push((w, n, s));
            }
        }
        for (hop, &(_, n, s)) in self.plan.iter().zip(&self.hops) {
            self.counts[n][s] += hop.ctx.received_count;
        }
        payload.step_begin(&self.plan);
        for (idx, (hop, &cells)) in self.plan.iter().zip(&self.hops).enumerate() {
            payload.fold(idx, self.at(wire.frame, cells), hop.ctx);
        }
    }

    /// Segment `s` is fully reduced at `owner`.
    pub(crate) fn reduced<P: Payload>(
        &self,
        owner: usize,
        s: usize,
        wire: &Wire<'_>,
        payload: &mut P,
    ) {
        let at = self.at(wire.frame, (owner, owner, s));
        payload.reduced(at, self.counts[owner][s]);
    }

    /// One gather or broadcast transfer of the open step: reliable, at the
    /// wire size of the sender's cell, after which the receiver's cell is
    /// the sender's, count included.
    pub(crate) fn copy_hop<P: Payload>(
        &mut self,
        step: usize,
        (w, n, s): (usize, usize, usize),
        wire: &mut Wire<'_>,
        payload: &mut P,
    ) {
        let at = self.at(wire.frame, (w, n, s));
        let bytes = payload.wire_bytes(at, self.counts[w][s], false);
        wire.put(step, at, bytes, None);
        payload.copy(at);
        self.counts[n][s] = self.counts[w][s];
    }
}

/// Where a sub-walk's workers and coordinates sit in the whole collective:
/// its worker `i` is global worker `base + stride·i`, its element `x` is
/// element `start + x` of the full payload, and what it reduces is cell
/// `cell` of the top-level walk's grid (`None`: it is the top-level walk).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) base: usize,
    pub(crate) stride: usize,
    pub(crate) start: usize,
    pub(crate) cell: Option<usize>,
}

impl Frame {
    /// A top-level walk's frame: every id and offset is already global.
    const WHOLE: Self = Self {
        base: 0,
        stride: 1,
        start: 0,
        cell: None,
    };

    pub(crate) fn global(self, worker: usize) -> usize {
        self.base + self.stride * worker
    }
}

/// The wire side of a fault-aware schedule walk: the injector deciding each
/// transfer's fate, the trace its attempts land in, the hop recorder, and —
/// when the walk is being compiled — the plan its transfers are recorded in.
pub(crate) struct Wire<'a> {
    inj: &'a mut FaultInjector,
    pub(crate) trace: &'a mut Trace,
    pub(crate) rec: HopRecorder,
    plan: Option<&'a mut EnginePlan>,
    pub(crate) frame: Frame,
    /// Trace slot the first attempts of the open logical step ride.
    base: usize,
}

impl<'a> Wire<'a> {
    /// Starts a walk on an empty `trace`, recording its transfers into
    /// `plan` if one is given.
    pub(crate) fn begin(
        inj: &'a mut FaultInjector,
        trace: &'a mut Trace,
        plan: Option<&'a mut EnginePlan>,
    ) -> Self {
        trace.reset();
        Self {
            inj,
            trace,
            rec: HopRecorder::begin(),
            plan,
            frame: Frame::WHOLE,
            base: 0,
        }
    }

    /// The wire of a sub-walk of this walk's workers: same injector and
    /// plan, its own (emptied) `trace` — which the caller overlays onto this
    /// walk's from step `offset` on — and `frame` turning its local ids and
    /// offsets into this walk's, in hop telemetry and recorded transfers
    /// alike.
    pub(crate) fn sub<'b>(
        &'b mut self,
        trace: &'b mut Trace,
        offset: usize,
        frame: Frame,
    ) -> Wire<'b> {
        trace.reset();
        Wire {
            inj: self.inj,
            trace,
            rec: self.rec.column(offset, frame.base, frame.stride),
            plan: self.plan.as_deref_mut(),
            frame,
            base: 0,
        }
    }

    /// Opens the next logical step of a schedule: its transfers' first
    /// attempts ride the next free trace slot, and a recorded plan gets its
    /// next engine step.
    pub(crate) fn open_step(&mut self) {
        self.base = self.trace.num_steps();
        if let Some(plan) = &mut self.plan {
            plan.num_steps += 1;
        }
    }

    /// The one function that puts a transfer on the wire: the `bytes` of
    /// `at`'s cell from its sender to its receiver, in the open step, and
    /// whether it arrived. A reduce hop carries the context its fold would
    /// run with and is best-effort — one that exhausts its retry budget is
    /// an omission; a copy (`combine == None`, the gather and broadcast
    /// phases) is reliable and forced through. The first attempt rides the
    /// slot the logical step opened at and attempt `a` rides `a − 1` slots
    /// later, in the trace ([`Trace::record_attempts`]) and in the emitted
    /// `hop` events alike; only the final attempt of a delivered transfer is
    /// marked delivered.
    pub(crate) fn put(
        &mut self,
        step: usize,
        at: At<'_>,
        bytes: usize,
        combine: Option<CombineCtx>,
    ) -> bool {
        let fate = if combine.is_some() {
            self.inj.transfer()
        } else {
            self.inj.transfer_reliable()
        };
        self.trace.record_attempts(self.base, bytes, fate.attempts);
        let elems = at.range.len();
        if self.rec.is_active() {
            let mut hop = Hop {
                expanded_step: self.base,
                step,
                phase: if combine.is_some() {
                    "reduce"
                } else {
                    "gather"
                },
                sender: at.w,
                receiver: at.n,
                segment: at.s,
                elems,
                bytes,
                attempt: 1,
                delivered: true,
            };
            for a in 1..=fate.attempts {
                hop.attempt = a;
                hop.delivered = fate.delivered && a == fate.attempts;
                self.rec.hop(&hop);
                hop.expanded_step += 1;
            }
        }
        if let Some(plan) = &mut self.plan {
            plan.transfers.push(PlannedTransfer {
                step: plan.num_steps - 1,
                sender: self.frame.global(at.w),
                receiver: self.frame.global(at.n),
                start: self.frame.start + at.range.start,
                len: elems,
                combine,
                delivered: fate.delivered,
            });
        }
        fate.delivered
    }
}

/// The one-bit ring all-reduce on caller-owned buffers: fault-aware (see the
/// [crate docs](crate#faults)) and allocation-free in steady state. Every
/// input counts as one worker.
///
/// **Schedule.** Worker `w` holds `m` segment cells; in reduce step `r` it
/// sends segment `(w − r) mod m` to worker `w + 1`, whose
/// [`StepCombine::combine`] folds it into its own cell; after `m − 1` steps
/// worker `w` owns the fully reduced segment `w + 1`, and `m − 1` gather steps
/// circulate the reduced segments (traced, not executed: the consensus is
/// assembled into `out` directly). With an inert injector every transfer is
/// delivered first try and the contexts are the clean schedule's
/// `received_count = step + 1`, `local_count = 1`.
///
/// **Buffers.** State comes from `scratch`, the consensus is written into
/// `out` and the trace into `trace` (reset first, slots recycled — see
/// [`Trace::reset`]); nothing of what they held before is read.
///
/// # Errors
///
/// Returns a [`SyncError`] if fewer than 2 workers or sign lengths differ.
///
/// # Panics
///
/// Panics if a combine changes its local vector's length (a programmer error
/// in the operator, not a runtime condition).
pub fn ring_allreduce_onebit_planned<O: StepCombine>(
    signs: &[SignVec],
    inj: &mut FaultInjector,
    scratch: &mut RingOnebitScratch,
    out: &mut SignVec,
    trace: &mut Trace,
    op: &mut O,
) -> Result<(), SyncError> {
    let RingOnebitScratch { cells, book } = scratch;
    let payload = &mut Signs {
        signs,
        op,
        out,
        cells,
    };
    let (m, d) = shape_of(signs, SignVec::len);
    let wire = &mut Wire::begin(inj, trace, None);
    ring_exec(m, d, |_| 1, RingNames::Chains(0), wire, book, payload)
}

/// The one function that enumerates a ring's hops, whatever they carry: `m`
/// workers all-reducing `d` elements of `payload` over `wire`. `count_of(w)`
/// is how many workers input `w` already aggregates (the vertical phase of a
/// torus feeds row aggregates here) and `names` is how combine contexts name
/// its hops (a segmented ring namespaces its pipelines' RNG
/// streams this way). Contexts use ring positions as receiver ids.
pub(crate) fn ring_exec<P: Payload>(
    m: usize,
    d: usize,
    count_of: impl Fn(usize) -> usize,
    names: RingNames,
    wire: &mut Wire<'_>,
    book: &mut Book,
    payload: &mut P,
) -> Result<(), SyncError> {
    if m < 2 {
        return Err(SyncError::TooFewWorkers { needed: 2, got: m });
    }
    // Equal inputs only make chains: a column fed rows of differing counts
    // folds by the counts alone.
    let (seg_shift, chains) = match names {
        RingNames::Chains(base) if (1..m).all(|w| count_of(w) == count_of(0)) => {
            (0, Some(Chains { base, len: m }))
        }
        RingNames::Chains(_) => (0, None),
        RingNames::Shifted(seg_shift) => (seg_shift, None),
    };
    book.load(m, d, m, count_of);
    payload.load(wire.frame, m, d, &book.segs)?;
    // Reduce step r: worker w sends segment w − r, never the one it receives
    // (w − 1 − r), so a step's folds touch disjoint cells.
    for r in 0..m - 1 {
        let hops = (0..m).map(|w| (w, (w + 1) % m, (w + m - r) % m));
        book.reduce_step(r, hops, seg_shift, chains, wire, payload);
    }
    // Worker w now owns the fully reduced segment w + 1.
    for s in 0..m {
        book.reduced((s + m - 1) % m, s, wire, payload);
    }
    // Gather step g: worker w sends segment w + 1 − g. The hops of a step
    // are listed by sender, or rotated by g − 1 so that they come by segment
    // — see `Payload::GATHER_BY_SENDER`, a frozen contract.
    for g in 0..m - 1 {
        wire.open_step();
        let rotation = if P::GATHER_BY_SENDER { 0 } else { g + m - 1 };
        for i in 0..m {
            let w = (i + rotation) % m;
            book.copy_hop(g, (w, (w + 1) % m, (w + 1 + m - g) % m), wire, payload);
        }
    }
    Ok(())
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

    /// The per-hop (fallback) stream id of the core crate's stream contract.
    fn streamed_weighted(seed: u64, recv: &SignVec, local: &mut SignVec, ctx: CombineCtx) {
        let stream = ((ctx.receiver as u64) << 40) | ((ctx.segment as u64) << 20) | ctx.step as u64;
        let mut rng = FastRng::new(seed, stream);
        let p = ctx.received_count as f64 / (ctx.received_count + ctx.local_count) as f64;
        SignVec::transient_combine_assign(recv, local, p, &mut rng);
    }

    /// A [`StepCombine`] whose randomness is a pure function of the hop; it
    /// records every plan it is shown.
    struct StreamedWeighted {
        seed: u64,
        planned: Vec<CombineCtx>,
    }

    impl StepCombine for StreamedWeighted {
        fn step_begin(&mut self, plan: &[PlannedHop]) {
            self.planned.extend(plan.iter().map(|hop| hop.ctx));
        }
        fn combine(&mut self, idx: usize, recv: &SignVec, local: &mut SignVec, ctx: CombineCtx) {
            assert_eq!(self.planned[self.planned.len() - 1].step, ctx.step);
            assert!(idx < self.planned.len());
            streamed_weighted(self.seed, recv, local, ctx);
        }
    }

    /// The schedule one hop at a time, as it was written before the step
    /// plan: fate, combine, count update, in hop order. Returns the consensus,
    /// the contexts the combines saw and the trace steps.
    fn hop_by_hop_reference(
        signs: &[SignVec],
        unit: usize,
        inj: &mut FaultInjector,
        seed: u64,
    ) -> (SignVec, Vec<CombineCtx>, Vec<Vec<usize>>) {
        let m = signs.len();
        let d = signs[0].len();
        let segs = segment_ranges(d, m);
        let mut state: Vec<Vec<SignVec>> = signs
            .iter()
            .map(|v| segs.iter().map(|r| v.slice(r.start, r.len())).collect())
            .collect();
        let mut counts = vec![vec![unit; m]; m];
        let (mut ctxs, mut steps) = (Vec::new(), Vec::new());
        let record = |steps: &mut Vec<Vec<usize>>, base: usize, bytes: usize, attempts: u32| {
            for k in base..base + attempts as usize {
                if k == steps.len() {
                    steps.push(Vec::new());
                }
                steps[k].push(bytes);
            }
        };
        // Segment s's chain is canonical until one of its hops is omitted.
        let mut intact = vec![true; m];
        for r in 0..m - 1 {
            let base = steps.len();
            for w in 0..m {
                let (n, s) = ((w + 1) % m, (w + m - r) % m);
                let fate = inj.transfer();
                record(
                    &mut steps,
                    base,
                    segs[s].len().div_ceil(8).max(1),
                    fate.attempts,
                );
                if fate.delivered {
                    let ctx = CombineCtx {
                        step: r,
                        receiver: n,
                        segment: s,
                        received_count: counts[w][s],
                        local_count: counts[n][s],
                        chain: intact[s].then_some(ChainSlot {
                            chain: s,
                            pos: r + 1,
                            len: m,
                        }),
                    };
                    ctxs.push(ctx);
                    let (src, dst) = split_pair(&mut state, w, n);
                    streamed_weighted(seed, &src[s], &mut dst[s], ctx);
                    counts[n][s] += counts[w][s];
                } else {
                    intact[s] = false;
                }
            }
        }
        let mut result = SignVec::zeros(d);
        for s in 0..m {
            result.splice(segs[s].start, &state[(s + m - 1) % m][s]);
        }
        for _ in 0..m - 1 {
            let base = steps.len();
            for seg in &segs {
                let fate = inj.transfer_reliable();
                record(
                    &mut steps,
                    base,
                    seg.len().div_ceil(8).max(1),
                    fate.attempts,
                );
            }
        }
        (result, ctxs, steps)
    }

    /// The planned collective — under drops and corruption, with one
    /// scratch, output buffer and trace reused across shapes and plans —
    /// against the hop-by-hop schedule: consensus, every planned context, the
    /// trace, and the injector's statistics and RNG position all agree.
    #[test]
    fn planned_matches_hop_by_hop_across_faults_and_reuse() {
        use marsit_simnet::FaultPlan;
        let plans = [
            FaultPlan::none(),
            FaultPlan::seeded(3)
                .with_link_drop(0.25)
                .with_link_corruption(0.1)
                .with_retry_policy(1, 1e-4),
        ];
        let mut scratch = RingOnebitScratch::new();
        let mut trace = Trace::new();
        let mut out = SignVec::zeros(1);
        for (m, d) in [(8usize, 1024usize), (7, 300), (3, 130)] {
            let mut rng = FastRng::new(2024, m as u64);
            let signs: Vec<SignVec> = (0..m)
                .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
                .collect();
            for (plan, unit) in plans.iter().zip([1usize, 3]) {
                let mut ref_inj = plan.injector(5);
                let (expected, ctxs, steps) = hop_by_hop_reference(&signs, unit, &mut ref_inj, 99);
                assert_eq!(plan.is_none(), ctxs.len() == m * (m - 1), "omissions");
                let mut inj = plan.injector(5);
                let mut op = StreamedWeighted {
                    seed: 99,
                    planned: Vec::new(),
                };
                let RingOnebitScratch { cells, book } = &mut scratch;
                let payload = &mut Signs {
                    signs: &signs,
                    op: &mut op,
                    out: &mut out,
                    cells,
                };
                let wire = &mut Wire::begin(&mut inj, &mut trace, None);
                ring_exec(m, d, |_| unit, RingNames::Chains(0), wire, book, payload)
                    .expect("valid inputs");
                let label = format!("m={m} d={d} unit={unit}");
                assert_eq!(out, expected, "{label}: consensus");
                assert_eq!(op.planned, ctxs, "{label}: planned contexts");
                assert_eq!(trace.steps(), steps, "{label}: trace");
                assert_eq!(
                    format!("{inj:?}"),
                    format!("{ref_inj:?}"),
                    "{label}: injector"
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
    #[should_panic(expected = "needs >= 2 workers")]
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
        let faulty_trace =
            allreduce_sum(PlanTopology::Ring, &mut faulty, &mut inj).expect("valid inputs");
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
            allreduce_onebit(PlanTopology::Ring, &signs, &mut inj, combine).expect("valid inputs");
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
        let _ = allreduce_onebit(PlanTopology::Ring, &signs, &mut inj, |recv, local, ctx| {
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
                allreduce_onebit(PlanTopology::Ring, &signs, &mut inj, |recv, local, ctx| {
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
        let trace = allreduce_sum(PlanTopology::Ring, &mut data, &mut inj).expect("valid inputs");
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
