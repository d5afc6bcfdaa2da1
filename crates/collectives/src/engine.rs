//! The topology dispatch, and the transport-driven collective engine.
//!
//! The collectives in [`crate::ring`] / [`crate::torus`] / [`crate::tree`] /
//! [`crate::segring`] walk their schedules on a slice of worker states — one
//! process, one thread, no wire. A walk has two halves: the bookkeeping (hop
//! order, fault fates, per-cell aggregation counts, [`CombineCtx`] values,
//! trace, hop telemetry), which never reads a payload element, and the data
//! it is generic over. [`allreduce_sum`], [`allreduce_signsum`],
//! [`allreduce_majority`] and [`allreduce_onebit`] are the one dispatch from
//! a [`PlanTopology`] to its walk, one per payload. For one-bit payloads this
//! module also lets the *same* schedule run on any [`Transport`] backend:
//!
//! 1. **Compile**: [`compile_plan`] runs a topology's walk with the
//!    bookkeeping half alone and records every transfer it puts on the wire
//!    into a flat list of [`PlannedTransfer`]s — so a plan cannot disagree
//!    with the walker it came from. Fault fates are drawn by the walk itself,
//!    consuming the [`FaultInjector`] exactly as an in-process run does.
//! 2. **Execute**: [`run_rank`] walks one rank's slice of the plan against
//!    a [`Transport`] endpoint — sends first, then combines what arrives;
//!    worker *processes* run it over a `ProcessTransport`. [`run_lockstep`]
//!    executes the whole plan in one thread, every rank at once.
//!
//! Determinism across backends is the RNG stream contract (`DESIGN.md` §9,
//! v2): every combine's randomness is addressed by its [`CombineCtx`] — the
//! [`ChainSlot`](crate::ChainSlot) of a hop on a still-canonical reduce
//! chain names the chain's shared winner stream and the hop's place in it,
//! any other hop draws the stream of its `(receiver, segment, step)` — and
//! the context is fixed at compile time by the walk that owns the counts, so
//! arrival timing cannot perturb the consensus and a rank needs no view of
//! the rest of its chain. Simulated-clock telemetry and the [`Trace`] are
//! produced by the compiling walk, not by the executors (the plan carries
//! its trace). The one exception is *wall-clock tracing*: when an ambient
//! telemetry scope is active, [`run_rank`] records each payload it receives
//! as a `hop` event carrying the propagated trace context (round, absolute
//! seq, sender send-time) plus its own arrival time, so real-transport runs
//! can be merged into one causally-ordered cross-rank trace.

use std::ops::Range;

use marsit_compress::SignSumVec;
use marsit_simnet::transport::{Transport, TransportError};
use marsit_simnet::{FaultInjector, LinkModel};
use marsit_telemetry::{wall_now_ns, Hop, HopRecorder, HopTiming};
use marsit_tensor::SignVec;

use crate::payload::{Payload, PlanOnly, SignCells, SignSums, Signs, SumFolds, Sums};
use crate::reconfigure::SyncError;
use crate::ring::{
    ring_exec, shape_of, split_pair, Book, ClosureOp, CombineCtx, RingNames, SumWire, Wire,
};
use crate::segring::segring_exec;
use crate::torus::{torus_exec, TorusBooks};
use crate::trace::Trace;
use crate::tree::tree_exec;

/// Which all-reduce schedule to walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanTopology {
    /// Ring all-reduce over all ranks ([`crate::ring`]).
    Ring,
    /// 2D-torus all-reduce ([`crate::torus`]).
    Torus {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
    /// Binary-tree all-reduce ([`crate::tree`]).
    Tree,
    /// Segmented-ring all-reduce ([`crate::segring`]).
    SegRing {
        /// Number of macro-segments.
        macro_segments: usize,
    },
}

impl PlanTopology {
    /// Stable text form (`ring`, `torus:2x4`, `tree`, `segring:3`), also
    /// the value of a transport worker process's `--topo` argument.
    #[must_use]
    pub fn encode(self) -> String {
        match self {
            Self::Ring => "ring".into(),
            Self::Torus { rows, cols } => format!("torus:{rows}x{cols}"),
            Self::Tree => "tree".into(),
            Self::SegRing { macro_segments } => format!("segring:{macro_segments}"),
        }
    }

    /// Parses [`Self::encode`]'s output.
    #[must_use]
    pub fn decode(s: &str) -> Option<Self> {
        if let Some(shape) = s.strip_prefix("torus:") {
            let (rows, cols) = shape.split_once('x')?;
            return Some(Self::Torus {
                rows: rows.parse().ok()?,
                cols: cols.parse().ok()?,
            });
        }
        if let Some(macro_segments) = s.strip_prefix("segring:") {
            return Some(Self::SegRing {
                macro_segments: macro_segments.parse().ok()?,
            });
        }
        match s {
            "ring" => Some(Self::Ring),
            "tree" => Some(Self::Tree),
            _ => None,
        }
    }
}

/// One scheduled point-to-point transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedTransfer {
    /// Engine step: all of a rank's step-`k` sends precede its step-`k`
    /// receives, and steps run in order at every rank.
    pub step: usize,
    /// Sending rank (global).
    pub sender: usize,
    /// Receiving rank (global).
    pub receiver: usize,
    /// First coordinate of the payload within the full `d`-length vector.
    pub start: usize,
    /// Payload length in coordinates.
    pub len: usize,
    /// `Some(ctx)` → the receiver combines the payload into its local
    /// range with exactly this context; `None` → the receiver overwrites
    /// the range (gather / broadcast copy).
    pub combine: Option<CombineCtx>,
    /// Fault fate drawn at compile time. An undelivered transfer is skipped
    /// by both endpoints — the payload never existed on the wire.
    pub delivered: bool,
}

/// A compiled schedule: every transfer of one collective, in canonical
/// (injector-consumption) order, plus the wire trace of the walk that
/// recorded them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnginePlan {
    /// Number of ranks.
    pub world: usize,
    /// Full payload length in coordinates.
    pub d: usize,
    /// Exclusive upper bound on [`PlannedTransfer::step`].
    pub num_steps: usize,
    /// All transfers, canonical order.
    pub transfers: Vec<PlannedTransfer>,
    /// What the in-process collective traces for the same schedule and
    /// fates: retry sub-steps expanded, parallel sub-rings overlaid.
    pub trace: Trace,
}

/// The one topology dispatch: walks `topology`'s schedule for `world`
/// workers and `d` elements of `payload` over `wire`, keeping its books in
/// `books`. Every entry point that is not handed caller-owned scratch ends
/// up here, whatever it carries.
pub(crate) fn walk<P: Payload>(
    topology: PlanTopology,
    world: usize,
    d: usize,
    wire: &mut Wire<'_>,
    (book, torus): &mut (Book, TorusBooks),
    payload: &mut P,
) -> Result<(), SyncError> {
    match topology {
        PlanTopology::Ring => ring_exec(world, d, |_| 1, RingNames::Chains(0), wire, book, payload),
        PlanTopology::Torus { rows, cols } => {
            torus_exec(rows, cols, world, d, wire, torus, payload)
        }
        PlanTopology::Tree => tree_exec(world, d, wire, book, payload),
        PlanTopology::SegRing { macro_segments } => {
            segring_exec(world, d, macro_segments, wire, payload)
        }
    }
}

/// A one-bit walk of `signs` on fresh buffers, a closure for the operator:
/// `run` is handed the shape, the wire and the payload and walks them.
pub(crate) fn onebit_walk<F: FnMut(&SignVec, &mut SignVec, CombineCtx)>(
    signs: &[SignVec],
    inj: &mut FaultInjector,
    combine: F,
    run: impl FnOnce(usize, usize, &mut Wire<'_>, &mut Signs<'_, ClosureOp<F>>) -> Result<(), SyncError>,
) -> Result<(SignVec, Trace), SyncError> {
    let (mut out, mut trace) = (SignVec::zeros(0), Trace::new());
    let payload = &mut Signs {
        signs,
        op: &mut ClosureOp(combine),
        out: &mut out,
        cells: &mut SignCells::default(),
    };
    let (world, d) = shape_of(signs, SignVec::len);
    run(world, d, &mut Wire::begin(inj, &mut trace, None), payload)?;
    Ok((out, trace))
}

/// `topology`'s one-bit all-reduce of `signs` in process, on fresh buffers,
/// with a closure for the operator: `combine(received, local, ctx)` merges the
/// incoming aggregate *into* the local one in place. Reduce transfers are
/// best-effort under `inj`, gather and broadcast transfers reliable (see the
/// [crate docs](crate#faults)); [`FaultInjector::inert`] gives the clean
/// schedule. Returns the consensus and the trace. The per-topology closure
/// entry points are this with the topology filled in.
///
/// # Errors
///
/// Returns the topology's typed [`SyncError`] for an impossible shape or
/// differing sign lengths.
///
/// # Panics
///
/// Panics if the combine changes the local vector's length (a programmer
/// error in the closure, not a runtime condition).
pub fn allreduce_onebit<F>(
    topology: PlanTopology,
    signs: &[SignVec],
    inj: &mut FaultInjector,
    combine: F,
) -> Result<(SignVec, Trace), SyncError>
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    onebit_walk(signs, inj, combine, |world, d, wire, payload| {
        walk(topology, world, d, wire, &mut Default::default(), payload)
    })
}

/// `topology`'s all-reduce summing `f32` payloads in place: on return every
/// `data[w]` holds the elementwise sum, folded `dst[x] += src[x]` per
/// delivered reduce hop in schedule order. Under `inj` an omitted reduce
/// transfer degrades the result toward a partial sum; every worker still
/// ends identical (see the [crate docs](crate#faults)).
///
/// # Errors
///
/// Returns the topology's typed [`SyncError`] for an impossible shape or
/// differing payload lengths.
pub fn allreduce_sum(
    topology: PlanTopology,
    data: &mut [Vec<f32>],
    inj: &mut FaultInjector,
) -> Result<Trace, SyncError> {
    let mut trace = Trace::new();
    let (world, d) = shape_of(data, Vec::len);
    let wire = &mut Wire::begin(inj, &mut trace, None);
    let books = &mut Default::default();
    walk(topology, world, d, wire, books, &mut Sums(data))?;
    Ok(trace)
}

/// [`allreduce_sum`] as data: one walk records each delivered reduce fold
/// `(dst, src, range)` in walk order and each finest segment's owner (global
/// ranks and elements). Folding `dst += src` in that order on the inputs
/// leaves at each owner the bits `allreduce_sum` leaves at every worker, as
/// its gathers only copy the owners' cells. The walk draws the injector,
/// traces and emits hops as `allreduce_sum` does; warm, it allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SumReplay {
    folds: Vec<Fold>,
    owners: Vec<Owner>,
    books: (Book, TorusBooks),
}

/// A fold `(dst, src, range)` and a sum's owner `(rank, range)`.
pub(crate) type Fold = (usize, usize, Range<usize>);
pub(crate) type Owner = (usize, Range<usize>);

/// `r ∩ block`, if not empty.
fn cut(r: &Range<usize>, block: &Range<usize>) -> Option<Range<usize>> {
    let r = r.start.max(block.start)..r.end.min(block.end);
    (r.start < r.end).then_some(r)
}

impl SumReplay {
    /// Walks `topology`'s sum of `world` inputs of `d` elements on `inj`
    /// into `trace` (reset first, slots recycled), reading no data.
    ///
    /// # Errors
    ///
    /// The topology's [`SyncError`] for an impossible shape.
    pub fn record(
        &mut self,
        topology: PlanTopology,
        world: usize,
        d: usize,
        inj: &mut FaultInjector,
        trace: &mut Trace,
    ) -> Result<(), SyncError> {
        self.folds.clear();
        self.owners.clear();
        let (folds, owners) = (&mut self.folds, &mut self.owners);
        let payload = &mut SumFolds { folds, owners };
        let wire = &mut Wire::begin(inj, trace, None);
        walk(topology, world, d, wire, &mut self.books, payload)?;
        self.owners.sort_unstable_by_key(|(_, r)| r.start);
        Ok(())
    }

    /// The folds `(dst, src, range)` cut to `block`, in walk order.
    pub fn folds_in(&self, block: Range<usize>) -> impl Iterator<Item = Fold> + '_ {
        let folds = self.folds.iter();
        folds.filter_map(move |(dst, src, r)| cut(r, &block).map(|r| (*dst, *src, r)))
    }

    /// The owners `(rank, range)` of the sums cut to `block`, ascending.
    pub fn owners_in(&self, block: Range<usize>) -> impl Iterator<Item = Owner> + '_ {
        let owners = self.owners.iter();
        owners.filter_map(move |(w, r)| cut(r, &block).map(|r| (*w, r)))
    }

    /// `topology`'s sum of `inputs`, replayed on a copy of one block at a
    /// time: `map` of [`allreduce_sum`]'s, bit for bit, and the trace. Its
    /// errors are `allreduce_sum`'s, a length mismatch found before a shape.
    pub fn sum(
        &mut self,
        topology: PlanTopology,
        inputs: &[Vec<f32>],
        inj: &mut FaultInjector,
        map: impl Fn(f32) -> f32,
    ) -> Result<(Vec<f32>, Trace), SyncError> {
        const BLOCK: usize = 4096;
        let (world, d) = shape_of(inputs, Vec::len);
        if let Some(got) = inputs.iter().map(Vec::len).find(|&len| len != d) {
            return Err(SyncError::LengthMismatch { expected: d, got });
        }
        let mut trace = Trace::new();
        self.record(topology, world, d, inj, &mut trace)?;
        let (mut rows, mut out) = (
            vec![Vec::with_capacity(BLOCK); world],
            Vec::with_capacity(d),
        );
        for lo in (0..d).step_by(BLOCK) {
            let block = lo..(lo + BLOCK).min(d);
            for (row, input) in rows.iter_mut().zip(inputs) {
                row.clear();
                row.extend_from_slice(&input[block.clone()]);
            }
            for (dst, src, r) in self.folds_in(block.clone()) {
                let (src, dst) = split_pair(&mut rows, src, dst);
                let r = r.start - lo..r.end - lo;
                for (x, &y) in dst[r.clone()].iter_mut().zip(&src[r]) {
                    *x += y;
                }
            }
            for (w, r) in self.owners_in(block) {
                out.extend(rows[w][r.start - lo..r.end - lo].iter().map(|&x| map(x)));
            }
        }
        Ok((out, trace))
    }
}

/// An integer sign-sum walk over `parts`: `run` is handed the shape, the
/// wire and the payload and walks them; the reduced sums come back with the
/// most workers any segment folded as their count.
pub(crate) fn signsum_walk(
    parts: &[SignSumVec],
    rule: SumWire,
    vote: bool,
    inj: &mut FaultInjector,
    run: impl FnOnce(usize, usize, &mut Wire<'_>, &mut SignSums) -> Result<(), SyncError>,
) -> Result<(SignSumVec, Trace), SyncError> {
    let mut trace = Trace::new();
    let mut sums = SignSums::new(parts, rule, vote);
    let (world, d) = shape_of(parts, SignSumVec::len);
    run(world, d, &mut Wire::begin(inj, &mut trace, None), &mut sums)?;
    let total = SignSumVec::from_parts(sums.total, sums.count as u32);
    Ok((total, trace))
}

/// [`signsum_walk`] of `topology` over one-worker inputs.
fn signs_walk(
    topology: PlanTopology,
    signs: &[SignVec],
    rule: SumWire,
    vote: bool,
    inj: &mut FaultInjector,
) -> Result<(SignSumVec, Trace), SyncError> {
    let parts: Vec<SignSumVec> = signs.iter().map(SignSumVec::from_signs).collect();
    signsum_walk(&parts, rule, vote, inj, |world, d, wire, sums| {
        walk(topology, world, d, wire, &mut Default::default(), sums)
    })
}

/// `topology`'s all-reduce of sign vectors into the global **sign sums**:
/// reduce and gather hops both carry the growing integer payload under
/// `wire` (the MAR extension of SSDM and EF-signSGD). Under `inj` (see the
/// [crate docs](crate#faults)) the total's count is the most workers any
/// segment actually folded — all of them on a clean fabric.
///
/// # Errors
///
/// Returns the topology's typed [`SyncError`] for an impossible shape or
/// differing sign lengths.
pub fn allreduce_signsum(
    topology: PlanTopology,
    signs: &[SignVec],
    wire: SumWire,
    inj: &mut FaultInjector,
) -> Result<(SignSumVec, Trace), SyncError> {
    signs_walk(topology, signs, wire, false, inj)
}

/// `topology`'s all-reduce of sign vectors into a global **majority vote**:
/// reduce hops carry growing integer sign sums under `wire`, each segment's
/// owner votes, and every gather hop carries one bit per coordinate (the MAR
/// extension of signSGD with majority vote).
///
/// # Errors
///
/// Returns the topology's typed [`SyncError`] for an impossible shape or
/// differing sign lengths.
pub fn allreduce_majority(
    topology: PlanTopology,
    signs: &[SignVec],
    wire: SumWire,
    inj: &mut FaultInjector,
) -> Result<(SignVec, Trace), SyncError> {
    let (total, trace) = signs_walk(topology, signs, wire, true, inj)?;
    Ok((total.majority_sign(), trace))
}

/// Compiles a topology's full schedule over `world` ranks and a `d`-length
/// payload: the bookkeeping half of the in-process walk, with every transfer
/// recorded. Passing an injector draws faulty fates (consuming it exactly as
/// the in-process collective does); `None` compiles the clean schedule. No
/// payload is touched — a plan for a million coordinates allocates a few
/// kilobytes.
///
/// # Errors
///
/// Returns the same [`SyncError`]s the in-process collectives return for
/// impossible shapes.
pub fn compile_plan(
    topology: PlanTopology,
    world: usize,
    d: usize,
    inj: Option<&mut FaultInjector>,
) -> Result<EnginePlan, SyncError> {
    let mut plan = EnginePlan {
        world,
        d,
        num_steps: 0,
        transfers: Vec::new(),
        trace: Trace::new(),
    };
    let mut trace = Trace::new();
    let mut inert = FaultInjector::inert();
    let wire = &mut Wire::begin(inj.unwrap_or(&mut inert), &mut trace, Some(&mut plan));
    let books = &mut Default::default();
    walk(topology, world, d, wire, books, &mut PlanOnly)?;
    plan.trace = trace;
    Ok(plan)
}

fn disconnected(e: TransportError) -> SyncError {
    match e {
        TransportError::PeerDisconnected { peer } => SyncError::PeerDisconnected { peer },
        // Wire corruption / socket errors mean the hub connection itself is
        // unusable; degrade the same way a vanished peer would.
        TransportError::Wire(_) | TransportError::Io(_) | TransportError::RankTaken { .. } => {
            SyncError::PeerDisconnected { peer: usize::MAX }
        }
    }
}

/// Executes one rank's slice of `plan` over its transport endpoint.
///
/// Per step: this rank's sends go out first (current state of each payload
/// range), then each arriving payload is combined (or copied) into the
/// local vector with the compile-time [`CombineCtx`]. Returns the rank's
/// final full-length vector — at every rank this equals the legacy
/// collective's consensus once the gather/broadcast copies have run.
///
/// # Errors
///
/// Returns [`SyncError::PeerDisconnected`] when a hop's peer is gone —
/// never panics on a dead peer.
///
/// # Panics
///
/// Panics if `init.len() != plan.d` or the transport's rank/world disagree
/// with the plan (programmer errors, not runtime conditions).
pub fn run_rank<T, F>(
    plan: &EnginePlan,
    init: &SignVec,
    transport: &mut T,
    mut combine: F,
) -> Result<SignVec, SyncError>
where
    T: Transport,
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    let rank = transport.rank();
    assert_eq!(init.len(), plan.d, "payload length disagrees with plan");
    assert_eq!(transport.world(), plan.world, "world disagrees with plan");
    let mut rec = HopRecorder::begin();
    let mut state = init.clone();
    let mut received = SignVec::zeros(0);
    // Outgoing payload and local segment, reused by every transfer.
    let mut payload = SignVec::zeros(0);
    let mut local = SignVec::zeros(0);
    let mut mine: Vec<Vec<&PlannedTransfer>> = vec![Vec::new(); plan.num_steps];
    for t in &plan.transfers {
        if t.delivered && (t.sender == rank || t.receiver == rank) {
            mine[t.step].push(t);
        }
    }
    for step in &mine {
        for t in step.iter().filter(|t| t.sender == rank) {
            payload.assign_slice_of(&state, t.start, t.len);
            let seq = rec.seq_of(t.step).unwrap_or(t.step as u64);
            transport
                .send_words_traced(t.receiver, payload.as_words(), seq)
                .map_err(disconnected)?;
        }
        for t in step.iter().filter(|t| t.receiver == rank) {
            let (words, ctx) = transport
                .recv_words_traced(t.sender)
                .map_err(disconnected)?;
            if words.len() != t.len.div_ceil(64) {
                return Err(SyncError::LengthMismatch {
                    expected: t.len,
                    got: words.len() * 64,
                });
            }
            received.assign_from_words(t.len, &words);
            match t.combine {
                Some(cctx) => {
                    local.assign_slice_of(&state, t.start, t.len);
                    combine(&received, &mut local, cctx);
                    assert_eq!(local.len(), t.len, "combine changed segment length");
                    state.splice(t.start, &local);
                }
                None => state.splice(t.start, &received),
            }
            if rec.is_active() {
                // One hop event per delivered transfer, recorded at the
                // receiving end where both clocks (sender's send_ns from the
                // propagated context, our own arrival time) are known.
                rec.hop_timed(
                    &Hop {
                        expanded_step: t.step,
                        step: t.step,
                        phase: if t.combine.is_some() {
                            "reduce"
                        } else {
                            "gather"
                        },
                        sender: t.sender,
                        receiver: rank,
                        segment: t.combine.map_or(0, |c| c.segment),
                        elems: t.len,
                        bytes: t.len.div_ceil(8).max(1),
                        attempt: 1,
                        delivered: true,
                    },
                    HopTiming {
                        round: ctx.map(|c| c.round),
                        send_ns: ctx.map(|c| c.send_ns),
                        recv_ns: ctx.map(|_| wall_now_ns()),
                    },
                );
            }
        }
    }
    // Ranks receive on different step subsets; claim the full plan width so
    // every rank's next collective starts at the same absolute seq.
    rec.reserve_steps(plan.num_steps);
    Ok(state)
}

/// Executes every rank of `plan` from one thread in deterministic
/// lockstep. Per step, every delivered transfer's payload is staged from its
/// sender's state before the step, then the transfers are applied in plan
/// order: the barrier that lets a step's sends never see its receives.
///
/// Returns each rank's final vector (index = rank). The `link` argument is
/// unused; it and the `Result` stay in the signature until the benchmark's
/// `engine_lockstep` probe, the one caller outside the tests, is retired.
///
/// # Errors
///
/// Never: no transfer can fail inside one process.
///
/// # Panics
///
/// Panics if `inputs.len() != plan.world` or a payload length disagrees
/// with the plan.
pub fn run_lockstep<F>(
    plan: &EnginePlan,
    inputs: &[SignVec],
    _link: LinkModel,
    mut combine: F,
) -> Result<Vec<SignVec>, SyncError>
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    assert_eq!(inputs.len(), plan.world, "one input per rank");
    let mut steps: Vec<Vec<&PlannedTransfer>> = vec![Vec::new(); plan.num_steps];
    for t in plan.transfers.iter().filter(|t| t.delivered) {
        steps[t.step].push(t);
    }
    let mut states: Vec<SignVec> = inputs.to_vec();
    // Staged payloads and the local segment, reused by every step.
    let mut staged: Vec<SignVec> = Vec::new();
    let mut local = SignVec::zeros(0);
    for step in &steps {
        staged.resize_with(staged.len().max(step.len()), || SignVec::zeros(0));
        for (t, payload) in step.iter().zip(&mut staged) {
            payload.assign_slice_of(&states[t.sender], t.start, t.len);
        }
        for (t, payload) in step.iter().zip(&staged) {
            match t.combine {
                Some(ctx) => {
                    local.assign_slice_of(&states[t.receiver], t.start, t.len);
                    combine(payload, &mut local, ctx);
                    assert_eq!(local.len(), t.len, "combine changed segment length");
                    states[t.receiver].splice(t.start, &local);
                }
                None => states[t.receiver].splice(t.start, payload),
            }
        }
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_simnet::FaultPlan;
    use marsit_tensor::rng::FastRng;

    use crate::ring::ring_allreduce_onebit;
    use crate::segring::segring_allreduce_onebit;
    use crate::torus::torus_allreduce_onebit;
    use crate::tree::tree_allreduce_onebit;

    fn link() -> LinkModel {
        LinkModel::new(25e-6, 1.25e9)
    }

    fn signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
        (0..m)
            .map(|w| {
                let mut rng = FastRng::new(seed, w as u64);
                SignVec::bernoulli_uniform(d, 0.5, &mut rng)
            })
            .collect()
    }

    /// The ctx-addressed majority-with-random-tiebreak combine used across
    /// the differential tests: deterministic given (seed, ctx), payload- and
    /// order-independent, like the production combine operators.
    fn ctx_combine(seed: u64) -> impl FnMut(&SignVec, &mut SignVec, CombineCtx) {
        move |recv: &SignVec, local: &mut SignVec, ctx: CombineCtx| {
            let key =
                ((ctx.receiver as u64) << 40) | ((ctx.segment as u64) << 20) | ctx.step as u64;
            let mut rng = FastRng::new(seed, key);
            let mask = SignVec::bernoulli_uniform(local.len(), 0.5, &mut rng);
            for i in 0..local.len() {
                let pick = if mask.get(i) {
                    recv.get(i)
                } else {
                    local.get(i)
                };
                local.set(i, pick);
            }
        }
    }

    #[test]
    fn topology_text_form_round_trips() {
        for topo in [
            PlanTopology::Ring,
            PlanTopology::Torus { rows: 2, cols: 4 },
            PlanTopology::Tree,
            PlanTopology::SegRing { macro_segments: 3 },
        ] {
            assert_eq!(PlanTopology::decode(&topo.encode()), Some(topo));
        }
        assert_eq!(PlanTopology::decode("hypercube"), None);
        assert_eq!(PlanTopology::decode("torus:2"), None);
    }

    proptest::proptest! {
        /// `decode` never panics — on arbitrary bytes, or on near misses of
        /// the text form with any numbers and a stray tail — and whatever it
        /// accepts round-trips through `encode`.
        #[test]
        fn topology_decode_never_panics_and_round_trips(
            raw in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..24),
            form in 0usize..6,
            a in proptest::arbitrary::any::<u64>(),
            b in 0u64..10,
            tail in proptest::collection::vec(32u8..127, 0..3),
        ) {
            let tail = String::from_utf8(tail).expect("ASCII");
            let near = match form {
                0 => format!("torus:{a}x{b}{tail}"),
                1 => format!("segring:{a}{tail}"),
                2 => format!("torus:{b}{tail}"),
                3 => format!("ring{tail}"),
                4 => format!("tree{tail}"),
                _ => format!("{tail}torus:{b}x{b}"),
            };
            for s in [String::from_utf8_lossy(&raw).into_owned(), near] {
                if let Some(topology) = PlanTopology::decode(&s) {
                    proptest::prop_assert_eq!(PlanTopology::decode(&topology.encode()), Some(topology));
                }
            }
        }
    }

    #[test]
    fn ring_lockstep_matches_legacy() {
        let (m, d, seed) = (8, 257, 11);
        let inputs = signs(m, d, seed);
        let (legacy, _) = ring_allreduce_onebit(&inputs, ctx_combine(seed));
        let plan = compile_plan(PlanTopology::Ring, m, d, None).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
    }

    #[test]
    fn torus_lockstep_matches_legacy() {
        let (rows, cols, d, seed) = (2, 4, 301, 23);
        let inputs = signs(rows * cols, d, seed);
        let (legacy, _) = torus_allreduce_onebit(&inputs, rows, cols, ctx_combine(seed));
        let plan = compile_plan(PlanTopology::Torus { rows, cols }, rows * cols, d, None).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        assert_eq!(out[0].as_words(), legacy.as_words());
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
    }

    #[test]
    fn tree_lockstep_matches_legacy() {
        let (m, d, seed) = (6, 130, 5);
        let inputs = signs(m, d, seed);
        let (legacy, _) = tree_allreduce_onebit(&inputs, ctx_combine(seed));
        let plan = compile_plan(PlanTopology::Tree, m, d, None).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
    }

    #[test]
    fn segring_lockstep_matches_legacy() {
        let (m, s, d, seed) = (4, 3, 200, 17);
        let inputs = signs(m, d, seed);
        let (legacy, _) = segring_allreduce_onebit(&inputs, s, ctx_combine(seed));
        let plan = compile_plan(PlanTopology::SegRing { macro_segments: s }, m, d, None).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
    }

    #[test]
    fn faulty_ring_matches_legacy_and_consumes_injector_identically() {
        let (m, d, seed) = (8, 193, 42);
        let inputs = signs(m, d, seed);
        let fault_plan = FaultPlan::seeded(seed).with_link_drop(0.2);
        let mut legacy_inj = fault_plan.injector(3);
        let (legacy, _) = allreduce_onebit(
            PlanTopology::Ring,
            &inputs,
            &mut legacy_inj,
            ctx_combine(seed),
        )
        .unwrap();
        let mut engine_inj = fault_plan.injector(3);
        let plan = compile_plan(PlanTopology::Ring, m, d, Some(&mut engine_inj)).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
        assert_eq!(legacy_inj.take_stats(), engine_inj.take_stats());
    }
}
