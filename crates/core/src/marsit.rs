//! Marsit's synchronization step (Algorithm 1).
//!
//! One [`Marsit`] instance owns the per-worker compensation vectors and the
//! round counter; each call to [`Marsit::synchronize`] performs one global
//! model synchronization over the chosen multi-hop topology:
//!
//! 1. every worker folds its compensation into the local update
//!    (line 1: `g ← g + c`);
//! 2. on a one-bit round, workers exchange sign bits through the ring or
//!    torus all-reduce using the `⊙` operator, and the global update is
//!    `g_t = η_s · σ` (lines 4–9); the residual is absorbed into the
//!    compensation (line 10);
//! 3. on a full-precision round (`mod(t, K) = 0`), the compensated updates
//!    are averaged exactly and the compensation resets (lines 11–13).
//!
//! All workers deterministically agree on `g_t` — the consensus invariant of
//! multi-hop all-reduce — which the simulator asserts after every round.

use marsit_collectives::ring::{ring_allreduce_onebit_planned, RingOnebitScratch, StepCombine};
use marsit_collectives::torus::{torus_allreduce_onebit_planned, TorusOnebitScratch};
use marsit_collectives::{
    ChainSlot, CombineCtx, DegradedMode, EffectiveTopology, PlanTopology, PlannedHop, SumReplay,
    TopologyReconfigurer, Trace,
};
use std::ops::Range;

use marsit_simnet::{FaultPlan, FaultStats, Topology};
use marsit_telemetry::Telemetry;
use marsit_tensor::lanes::{self, Disjoint};
use marsit_tensor::rng::{split_seed, FastRng};
use marsit_tensor::{
    advance_striped_norms, compensate_block_words, fill_bernoulli_masks_indexed,
    fill_winner_planes_indexed, fold_striped_norm, winner_plane_count, NormLanes, Residual,
    ScaledSignLut, SignVec, PROLOGUE_BLOCK,
};

use crate::compensation::{absorb, Compensation};
use crate::ominus::{combine_unweighted_assign, combine_weighted_assign};
use crate::schedule::SyncSchedule;

/// Which one-bit combine operator to use (ablation hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineKind {
    /// The paper's Eq. (2): keep the received bit w.p. `a/(a+b)` (unbiased).
    #[default]
    Weighted,
    /// Ablation: a plain coin flip per disagreeing bit — biased toward
    /// late-chain workers; kept to quantify the value of Eq. (2).
    UnweightedAblation,
}

/// Configuration for a [`Marsit`] synchronizer.
#[derive(Debug, Clone, PartialEq)]
pub struct MarsitConfig {
    /// Full-precision schedule (the paper's `K`).
    pub schedule: SyncSchedule,
    /// Global step size `η_s` applied to the sign vector (Algorithm 1,
    /// line 9).
    pub global_lr: f32,
    /// Master seed for the `⊙` draws; every round derives one independent
    /// stream per reduce chain and, off the canonical chains, per
    /// `(receiver, segment, step)` hop.
    pub seed: u64,
    /// Combine operator (ablation hook; defaults to the paper's weighted
    /// Eq. 2).
    pub combine: CombineKind,
    /// Faults to inject into the collectives ([`FaultPlan::none`] by
    /// default: every worker live, every transfer delivered first try).
    pub fault_plan: FaultPlan,
    /// The lane budget: how many lanes a round's per-coordinate sweeps are
    /// cut into, each a contiguous run of whole [`PROLOGUE_BLOCK`]s, run on
    /// up to [`lanes::width`] threads of the process-wide lane executor.
    /// Defaults to [`lanes::width`]; `1` keeps every sweep on the calling
    /// thread. No output bit depends on it.
    pub lanes: usize,
}

impl MarsitConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `global_lr` is not finite and positive.
    #[must_use]
    pub fn new(schedule: SyncSchedule, global_lr: f32, seed: u64) -> Self {
        assert!(
            global_lr.is_finite() && global_lr > 0.0,
            "global learning rate must be finite and positive"
        );
        Self {
            schedule,
            global_lr,
            seed,
            combine: CombineKind::Weighted,
            fault_plan: FaultPlan::none(),
            lanes: lanes::width(),
        }
    }

    /// Sets the lane budget (see [`MarsitConfig::lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "the lane budget must be positive");
        self.lanes = lanes;
        self
    }

    /// Switches to the biased coin-flip combine (ablation).
    #[must_use]
    pub fn with_unweighted_combine(mut self) -> Self {
        self.combine = CombineKind::UnweightedAblation;
        self
    }

    /// Injects the given faults into every synchronization.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

/// Result of one synchronization round.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncOutcome {
    /// The consensus global update `g_t` (identical at every worker).
    pub global_update: Vec<f32>,
    /// Exact mean of the compensated updates `g_t^{(m)} = η_l·g + c` — the
    /// quantity the one-bit aggregation estimates; reference for the
    /// matching-rate metric of Fig 1b.
    pub compensated_mean: Vec<f32>,
    /// Whether this round ran in full precision.
    pub full_precision: bool,
    /// Transfers performed.
    pub trace: Trace,
    /// The round index `t` this outcome belongs to.
    pub round: u64,
    /// What the fault layer did this round (all-zero without a fault plan).
    pub faults: FaultStats,
    /// How (and whether) the round deviated from the configured topology
    /// ([`DegradedMode::None`] on every clean/full-membership round).
    pub degraded: DegradedMode,
}

impl Default for SyncOutcome {
    /// An empty outcome, the canonical argument to
    /// [`Marsit::synchronize_into`]: reusing one `SyncOutcome` across rounds
    /// recycles its buffers (`global_update`, `compensated_mean`, `trace`)
    /// and takes the one-bit round to zero steady-state allocations when no
    /// fault plan is set.
    fn default() -> Self {
        Self {
            global_update: Vec::new(),
            compensated_mean: Vec::new(),
            full_precision: false,
            trace: Trace::new(),
            round: 0,
            faults: FaultStats::default(),
            degraded: DegradedMode::None,
        }
    }
}

/// Reusable per-round scratch (DESIGN.md §9 workspace ownership rules):
/// owned by the [`Marsit`] instance and recycled across rounds, so the
/// steady-state synchronize path re-fills existing buffers instead of
/// allocating `Vec<Vec<f32>>` + `Vec<SignVec>` every call. Only buffers that
/// never escape live here; outcome vectors (`global_update`,
/// `compensated_mean`) move into [`SyncOutcome`] and are freshly allocated.
#[derive(Debug, Clone, Default)]
struct RoundWorkspace {
    /// The round's live workers, ascending.
    live: Vec<usize>,
    /// Per-worker compensated updates `η_l·g + c` (Algorithm 1, line 1).
    compensated: Vec<Vec<f32>>,
    /// The walk of a full-precision round's sum, replayed on `compensated`.
    sum: SumReplay,
    /// Packed sign vectors for one-bit rounds, one per live worker.
    signs: Vec<SignVec>,
    /// Per-worker state and schedule scratch for the ring collective.
    ring: RingOnebitScratch,
    /// The same for the torus collective.
    torus: TorusOnebitScratch,
    /// Transient-mask planner, persistent so its buffers amortize to zero
    /// allocations per round.
    planner: MaskPlanner,
    /// Consensus output buffer of the one-bit collectives. Ping-pongs
    /// with [`PendingResidual::consensus`]: the prologue that consumes a
    /// pending residual (or a flush) returns its (right-sized) sign buffer
    /// here, and the round's collective fills it before it moves into the
    /// next pending.
    consensus: SignVec,
    /// Views of the per-worker rows a laned sweep writes, refilled by every
    /// sweep before it starts and never read outside one.
    rows: LaneRows,
    /// Each worker's norm lanes, handed from one lane to the next by the
    /// recorded norm sweep.
    norm_lanes: Vec<NormLanes>,
}

/// Raw views of per-worker rows: the lanes of one sweep each write their
/// own columns of every row (see [`Cut`]).
#[derive(Debug, Clone, Default)]
struct LaneRows {
    /// The compensated updates `h`, one per worker.
    h: Vec<Disjoint<f32>>,
    /// The sign words of `signs`, one per live worker.
    signs: Vec<Disjoint<u64>>,
    /// The compensation vectors `c`, one per worker.
    c: Vec<Disjoint<f32>>,
}

/// A round's cut of the model into lanes: lane `l` owns the elements
/// `range(l)`, a contiguous run of whole [`PROLOGUE_BLOCK`]s, in every
/// per-worker buffer. Blocks are whole sign words, so lanes share no float
/// and no word, and each element is computed by the same arithmetic in the
/// same order whatever the cut.
#[derive(Debug, Clone, Copy)]
struct Cut {
    d: usize,
    blocks: usize,
    lanes: usize,
}

impl Cut {
    fn new(d: usize, budget: usize) -> Self {
        let blocks = d.div_ceil(PROLOGUE_BLOCK);
        Self {
            d,
            blocks,
            lanes: budget.clamp(1, blocks.max(1)),
        }
    }

    /// Lane `lane`'s elements.
    fn range(self, lane: usize) -> Range<usize> {
        let block = |l: usize| (l * self.blocks / self.lanes * PROLOGUE_BLOCK).min(self.d);
        block(lane)..block(lane + 1)
    }
}

/// The sign words that hold the elements `range` (whole words, or a
/// vector's tail).
fn words(range: &Range<usize>) -> Range<usize> {
    range.start / 64..range.end.div_ceil(64)
}

/// Models below this many elements write `g_t` on the caller when the
/// epilogue has nothing else to sweep (see `Marsit::synchronize_into`).
const LANED_WRITE_MIN: usize = 8 * PROLOGUE_BLOCK;

/// Workers per group of the laned norm pipeline. Lane `l` runs group `g`
/// in phase `g + l`, so fewer workers per group fill the pipeline sooner;
/// one lane walks the workers in the kernel's widest groups.
const NORM_GROUP_LANED: usize = 2;
const NORM_GROUP_MAX: usize = 8;

/// The recorded compensation-norm sweep of one round, laned: lane `l`
/// continues each worker's eight norm lanes over its own columns after lane
/// `l − 1` has left them, so every chain adds its elements in ascending
/// order, as the one-pass kernel does.
struct NormSweep<'a> {
    /// The deferred residual's `h` rows and sign bits, or the materialized
    /// compensation rows.
    source: NormSource<'a>,
    acc: Disjoint<NormLanes>,
    m: usize,
    group: usize,
}

enum NormSource<'a> {
    Deferred {
        hs: &'a [Vec<f32>],
        consensus: &'a SignVec,
        lut: &'a ScaledSignLut,
    },
    Materialized(&'a [Disjoint<f32>]),
}

impl NormSweep<'_> {
    fn phases(&self, lanes: usize) -> usize {
        self.m.div_ceil(self.group) + lanes - 1
    }

    /// Lane `lane`'s work in `phase`: its columns of worker group
    /// `phase − lane`, if there is one.
    fn run(&self, lane: usize, phase: usize, range: &Range<usize>) {
        let Some(group) = phase.checked_sub(lane) else {
            return;
        };
        let w0 = group * self.group;
        if w0 >= self.m {
            return;
        }
        let w1 = (w0 + self.group).min(self.m);
        // SAFETY: in this phase no other lane holds workers `w0..w1`; the
        // previous holder finished in an earlier phase.
        let acc = unsafe { self.acc.slice_mut(w0..w1) };
        if lane == 0 {
            acc.fill([0.0; 8]);
        }
        let mut hs: [&[f32]; NORM_GROUP_MAX] = [&[]; NORM_GROUP_MAX];
        for (slot, w) in hs.iter_mut().zip(w0..w1) {
            *slot = match &self.source {
                NormSource::Deferred { hs, .. } => &hs[w][range.clone()],
                // SAFETY: this lane's columns, which only this lane writes
                // and which it finished writing before its first phase.
                NormSource::Materialized(rows) => unsafe { rows[w].slice(range.clone()) },
            };
        }
        let signs = match &self.source {
            NormSource::Deferred { consensus, lut, .. } => Some((*consensus, *lut)),
            NormSource::Materialized(_) => None,
        };
        advance_striped_norms(acc, &hs[..w1 - w0], range.start, signs);
    }
}

/// Fills `rows` with views of every worker's compensation for a laned sweep,
/// each flagged as the sweep leaves it: under `settle`, a live worker's is
/// reset or written, and every other keeps its flag. (Filled on every round,
/// so that a later flush finds the table grown.)
fn c_rows(rows: &mut Vec<Disjoint<f32>>, comps: &mut [Compensation], live: &[usize], s: Settle) {
    rows.clear();
    let mut live_iter = live.iter().peekable();
    for (w, c) in comps.iter_mut().enumerate() {
        let swept = live_iter.next_if_eq(&&w).is_some() && s != Settle::Defer;
        let reset = (swept && s == Settle::Reset) || (!swept && c.is_reset());
        rows.push(Disjoint::new(c.values_for_sweep(reset)));
    }
}

/// What a round does to its live workers' compensation after the
/// collective (Algorithm 1, lines 10 and 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settle {
    /// Keep the residual deferred: `h` and the consensus bits are it.
    Defer,
    /// `c ← h − g_t`.
    Absorb,
    /// `c ← 0` after a full-precision round.
    Reset,
}

/// A [`Marsit`] round workspace detached from its owner for pooling.
///
/// The job server keeps per-shard pools of these keyed by
/// `(d, m, topology class)`: a job admitted to a shard adopts a warm
/// workspace released by an earlier job of the same shape instead of
/// growing a cold one, which extends the single-job zero-allocation
/// discipline across job generations.
///
/// # Why adoption can never change an output bit
///
/// [`Marsit::release_workspace`] flushes any deferred residual first, and
/// after the flush the workspace carries **no live state**: every
/// round sizes each buffer and fully overwrites it before reading it. The
/// prologue only *sizes* the compensated updates and the sign vectors
/// (`Vec::resize`, [`SignVec::resize_for_overwrite`] — no clearing pass) and
/// its block sweep then writes every float and packs every sign word in
/// place, the last word with zero tail bits, for every live worker — a
/// crashed worker's buffers are left alone and never read; the live list is
/// rebuilt, the ring and torus scratch reassign every segment cell and count,
/// the planner is reseeded per round and forgets its chains, each chain's
/// winner planes are drawn at its first hop before any later hop replays
/// them, the consensus buffer has every bit spliced in, the lane views are
/// rebuilt by every sweep before it starts, and lane 0 zeroes each worker's
/// norm lanes before any lane reads them. What survives
/// the handoff is buffer *capacity*
/// and stale bytes that are overwritten before any read, and neither
/// participates in a computation — so a job running on an adopted workspace,
/// of any provenance or shape, is bit-identical to the same job on a fresh
/// one. The `workspace_reuse` and service determinism tests pin this.
#[derive(Debug, Default)]
pub struct WorkspaceHandle {
    ws: RoundWorkspace,
}

impl WorkspaceHandle {
    /// A cold (empty) workspace handle; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The residual a full-membership one-bit round leaves behind, absorbed
/// lazily.
///
/// Eagerly materializing `c_{t+1} = g_t^{(m)} − g_t` costs a full
/// read-modify-write pass over `M·D` floats every round; but the very next
/// thing that happens to `c` is being added back to the next update. So the
/// hot path stores only the consensus bits plus the scale — `g_t` is
/// reconstructed per element in registers — and the next round's apply pass
/// computes `h ← u + (h − g_t)` directly, producing bit-identical floats
/// (the intermediate `h − g` rounds exactly like the stored `c` did).
///
/// While a residual is pending, `self.compensations` is stale; every
/// observer goes through [`Marsit::compensation`] (which flushes) or
/// [`Marsit::mean_compensation_norm_sq`] (which evaluates the deferred form
/// directly). A round defers iff every worker was live and its collective
/// succeeded, fault plan or not; a round with a crashed worker flushes before
/// it starts and absorbs eagerly, since a crash freezes per-worker
/// compensation state that must then exist materially.
#[derive(Debug, Clone)]
struct PendingResidual {
    /// Consensus sign bits of the round that produced the residual.
    consensus: SignVec,
    /// The global learning rate that scaled them into `g_t`.
    scale: f32,
}

/// The per-hop RNG stream id of the Bernoulli fallback (stream contract v2,
/// DESIGN.md §9): every `(receiver, segment, step)` tuple of a round derives
/// an independent transient-vector stream. Unchanged since v1, where every
/// hop drew from it.
#[inline]
pub(crate) fn stream_for(ctx: &CombineCtx) -> u64 {
    ((ctx.receiver as u64) << 40) | ((ctx.segment as u64) << 20) | ctx.step as u64
}

/// The winner stream of a reduce chain (stream contract v2): one per chain
/// of a round, shared by all its hops, apart from every [`stream_for`] id.
#[inline]
pub(crate) fn chain_stream(slot: &ChainSlot) -> u64 {
    (1 << 63) | slot.chain as u64
}

/// The chain slot `ctx`'s hop resolves by under `kind` — the weighted `⊙`
/// on a hop of a still-canonical chain — or `None` for a hop that draws its
/// own Bernoulli keep mask.
#[inline]
pub(crate) fn winner_slot(kind: CombineKind, ctx: &CombineCtx) -> Option<ChainSlot> {
    match kind {
        CombineKind::Weighted => ctx.chain,
        CombineKind::UnweightedAblation => None,
    }
}

/// The keep-received probability the combine kernel will use for `ctx`.
#[inline]
fn keep_probability(kind: CombineKind, ctx: &CombineCtx) -> f64 {
    match kind {
        CombineKind::Weighted => {
            ctx.received_count as f64 / (ctx.received_count + ctx.local_count) as f64
        }
        CombineKind::UnweightedAblation => 0.5,
    }
}

/// One planned hop of the current step.
#[derive(Debug, Clone)]
struct MaskSpan {
    /// Where the hop's words start: in `masks` for a keep mask, in `planes`
    /// for a chain hop.
    start: usize,
    words: usize,
    /// RNG draws attributed to the hop.
    draws: u64,
    ctx: CombineCtx,
}

/// What a planned hop needs drawn at its step; hops with equal keys share
/// one interleaved fill.
#[derive(Clone, Copy, PartialEq)]
enum DrawKey {
    /// A Bernoulli keep mask at this probability.
    Keep(f64),
    /// The winner planes of a chain of this many contributors.
    Winner(usize),
}

/// Pre-sampled randomness for the one-bit collectives.
///
/// The combines of one reduce step touch disjoint segments and consume
/// independent RNG streams, but sampling them one hop at a time leaves a
/// single serial xorshift chain on the critical path. The planner receives
/// each step's plan of delivered hops via the collective's step-begin hook
/// and draws everything the step needs with up to 8 streams in flight:
///
/// - a hop that carries a [`ChainSlot`] resolves from its chain's winner
///   planes. The planes are drawn once, with
///   [`fill_winner_planes_indexed`] at the chain's first hop, kept for the
///   round, and replayed by [`SignVec::winner_combine_assign`] at every later
///   position; the chain's draws are attributed to that first hop;
/// - every other hop gets a Bernoulli keep mask of its own
///   ([`fill_bernoulli_masks_indexed`], replayed by
///   [`SignVec::transient_combine_assign_masked`]).
///
/// Per stream the words, draw counts, and final RNG states are bit-identical
/// to the hop-at-a-time derivation of `transport::engine_combine`, so
/// consensus outputs and telemetry are backend-independent.
///
/// Persistent across rounds (it lives in [`RoundWorkspace`]); [`reset`]
/// re-arms it for a new round seed while every buffer keeps its capacity, so
/// the steady-state planner performs zero heap allocations per round.
///
/// [`reset`]: MaskPlanner::reset
#[derive(Debug, Clone, Default)]
struct MaskPlanner {
    round_seed: u64,
    kind: CombineKind,
    /// Flattened keep-mask words of the current step, windowed by `spans`.
    masks: Vec<u64>,
    /// Winner planes of the round's chains so far: `planes[..planes_len]`.
    /// A chain's window is written at its first hop before anything reads it,
    /// so what an earlier round (or another job) left here is never seen.
    planes: Vec<u64>,
    planes_len: usize,
    /// `chain_start[id]`: where chain `id`'s planes start, once drawn.
    chain_start: Vec<usize>,
    spans: Vec<MaskSpan>,
    /// Per-group lane generators, windows and span indices (reused
    /// allocations).
    rngs: Vec<FastRng>,
    windows: Vec<(usize, usize)>,
    members: Vec<usize>,
    /// Per-hop "already drawn by an earlier group" flags.
    grouped: Vec<bool>,
}

impl MaskPlanner {
    /// Re-arms the planner for a new round, keeping every buffer's capacity.
    fn reset(&mut self, round_seed: u64, kind: CombineKind) {
        self.round_seed = round_seed;
        self.kind = kind;
        self.planes_len = 0;
        self.chain_start.clear();
    }

    /// What planned hop `idx` needs drawn now, and from which stream.
    fn draw_of(&self, idx: usize) -> Option<(DrawKey, u64)> {
        let ctx = &self.spans[idx].ctx;
        match winner_slot(self.kind, ctx) {
            Some(slot) if slot.pos == 1 => Some((DrawKey::Winner(slot.len), chain_stream(&slot))),
            Some(_) => None,
            None if self.spans[idx].words == 0 => None,
            None => Some((
                DrawKey::Keep(keep_probability(self.kind, ctx)),
                stream_for(ctx),
            )),
        }
    }

    /// Draws everything the upcoming step's combines will consume.
    fn plan_step(&mut self, plan: &[PlannedHop]) {
        self.spans.clear();
        let mut total = 0usize;
        for hop in plan {
            let mut words = hop.elems.div_ceil(64);
            let start = if let Some(slot) = winner_slot(self.kind, &hop.ctx) {
                if slot.pos == 1 {
                    if self.chain_start.len() <= slot.chain {
                        self.chain_start.resize(slot.chain + 1, usize::MAX);
                    }
                    self.chain_start[slot.chain] = self.planes_len;
                    self.planes_len += words * winner_plane_count(slot.len);
                }
                self.chain_start[slot.chain]
            } else {
                // Degenerate probabilities draw nothing; their combines fall
                // back to the drawing kernel (which is a copy either way).
                let p = keep_probability(self.kind, &hop.ctx);
                if SignVec::bernoulli_word_draws(p) == 0 {
                    words = 0;
                }
                let start = total;
                total += words;
                start
            };
            self.spans.push(MaskSpan {
                start,
                words,
                draws: 0,
                ctx: hop.ctx,
            });
        }
        self.masks.clear();
        self.masks.resize(total, 0);
        if self.planes.len() < self.planes_len {
            self.planes.resize(self.planes_len, 0);
        }
        // Batch hops that need the same kind of draw (all of them, within one
        // reduce step that lost no transfer) into one interleaved multi-lane
        // fill. Windows are plain `(offset, len)` pairs into the flat
        // buffers, so grouping materializes no per-hop borrows.
        self.grouped.clear();
        self.grouped.resize(plan.len(), false);
        for i in 0..plan.len() {
            let Some((key, _)) = self.draw_of(i) else {
                continue;
            };
            if self.grouped[i] {
                continue;
            }
            self.rngs.clear();
            self.windows.clear();
            self.members.clear();
            for j in i..plan.len() {
                if self.grouped[j] {
                    continue;
                }
                if let Some((_, stream)) = self.draw_of(j).filter(|&(k, _)| k == key) {
                    self.grouped[j] = true;
                    self.members.push(j);
                    self.windows
                        .push((self.spans[j].start, self.spans[j].words));
                    self.rngs.push(FastRng::new(self.round_seed, stream));
                }
            }
            match key {
                DrawKey::Keep(p) => {
                    fill_bernoulli_masks_indexed(p, &mut self.rngs, &mut self.masks, &self.windows);
                }
                DrawKey::Winner(g) => {
                    fill_winner_planes_indexed(g, &mut self.rngs, &mut self.planes, &self.windows);
                }
            }
            for (&j, rng) in self.members.iter().zip(&self.rngs) {
                self.spans[j].draws = rng.draws();
            }
        }
    }

    /// Applies the `idx`-th planned combine of the current step; returns the
    /// RNG draws attributed to it.
    fn apply_at(&self, idx: usize, recv: &SignVec, local: &mut SignVec, ctx: CombineCtx) -> u64 {
        let sp = &self.spans[idx];
        debug_assert_eq!(sp.ctx, ctx, "combine order diverged from the plan");
        if let Some(slot) = winner_slot(self.kind, &ctx) {
            let planes = &self.planes[sp.start..][..sp.words * winner_plane_count(slot.len)];
            SignVec::winner_combine_assign(recv, local, planes, slot.len, slot.pos);
        } else if sp.words == 0 {
            // Degenerate keep probability: the drawing kernel consumes no
            // randomness; run it directly for exact parity.
            let mut rng = FastRng::new(self.round_seed, stream_for(&ctx));
            match self.kind {
                CombineKind::Weighted => combine_weighted_assign(
                    recv,
                    ctx.received_count,
                    local,
                    ctx.local_count,
                    &mut rng,
                ),
                CombineKind::UnweightedAblation => combine_unweighted_assign(recv, local, &mut rng),
            }
        } else {
            SignVec::transient_combine_assign_masked(
                recv,
                local,
                &self.masks[sp.start..sp.start + sp.words],
            );
        }
        sp.draws
    }
}

/// Adapts the workspace's persistent [`MaskPlanner`] to the planned
/// collectives' [`StepCombine`] hooks: `step_begin` pre-samples the step's
/// mask streams, and `combine` replays them by plan index, counting `⊙`
/// applications and RNG draws for the round's telemetry.
struct PlannerOp<'a> {
    planner: &'a mut MaskPlanner,
    combines: u64,
    rng_draws: u64,
}

impl StepCombine for PlannerOp<'_> {
    fn step_begin(&mut self, plan: &[PlannedHop]) {
        self.planner.plan_step(plan);
    }

    fn combine(&mut self, idx: usize, received: &SignVec, local: &mut SignVec, ctx: CombineCtx) {
        self.rng_draws += self.planner.apply_at(idx, received, local, ctx);
        self.combines += 1;
    }
}

/// The Marsit synchronizer: compensation state for `M` workers plus the
/// round counter.
///
/// # Examples
///
/// ```
/// use marsit_core::{Marsit, MarsitConfig, SyncSchedule};
/// use marsit_simnet::Topology;
///
/// let cfg = MarsitConfig::new(SyncSchedule::never(), 0.01, 42);
/// let mut marsit = Marsit::new(cfg, 3, 8);
/// let updates = vec![vec![0.1f32; 8], vec![-0.1f32; 8], vec![0.2f32; 8]];
/// let out = marsit.synchronize(&updates, Topology::ring(3));
/// assert_eq!(out.global_update.len(), 8);
/// assert!(!out.full_precision);
/// ```
#[derive(Debug, Clone)]
pub struct Marsit {
    cfg: MarsitConfig,
    compensations: Vec<Compensation>,
    round: u64,
    workspace: RoundWorkspace,
    /// Residual of the last one-bit round, not yet folded into
    /// `compensations` (see [`PendingResidual`]). `None` after construction,
    /// a full-precision round, a round that was not full-membership or whose
    /// collective failed, or a flush.
    pending: Option<PendingResidual>,
}

impl Marsit {
    /// Creates a synchronizer for `m` workers and `d` parameters with zero
    /// compensation (Algorithm 2, line 1).
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` or `d == 0`.
    #[must_use]
    pub fn new(cfg: MarsitConfig, m: usize, d: usize) -> Self {
        assert!(m >= 2, "Marsit needs at least 2 workers");
        assert!(d > 0, "model dimension must be positive");
        Self {
            cfg,
            compensations: vec![Compensation::new(d); m],
            round: 0,
            workspace: RoundWorkspace::default(),
            pending: None,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MarsitConfig {
        &self.cfg
    }

    /// Current round index `t`.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Worker `w`'s compensation state.
    ///
    /// Takes `&mut self` because a one-bit round defers the residual
    /// absorb (see `PendingResidual`); reading the state materializes any
    /// pending residual first. The values observed are bit-identical to the
    /// eager bookkeeping's.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[must_use]
    pub fn compensation(&mut self, w: usize) -> &Compensation {
        self.flush_pending();
        &self.compensations[w]
    }

    /// Folds any deferred residual into `compensations`, exactly as the
    /// eager absorb would have: `c_w = h_w − g`, with `g` expanded from the
    /// consensus bits block by block, on the round's lanes. Nothing is
    /// allocated, and the consensus buffer goes back to the workspace.
    fn flush_pending(&mut self) {
        let Some(p) = self.pending.take() else {
            return;
        };
        let lut = ScaledSignLut::new(p.scale);
        let cut = Cut::new(p.consensus.len(), self.cfg.lanes);
        let ws = &mut self.workspace;
        ws.rows.c.clear();
        ws.rows.c.extend(
            self.compensations
                .iter_mut()
                .map(|c| Disjoint::new(c.values_for_sweep(false))),
        );
        let (rows, hs, consensus) = (&ws.rows.c, &ws.compensated, &p.consensus);
        lanes::run(cut.lanes, &|lane| {
            let range = cut.range(lane);
            for (row, h) in rows.iter().zip(hs) {
                // SAFETY: every lane writes its own columns of each row,
                // which stays borrowed for the run.
                let c = unsafe { row.slice_mut(range.clone()) };
                consensus.write_residual_lut_at(&lut, range.start, &h[range.clone()], c);
            }
        });
        ws.consensus = p.consensus;
    }

    /// Replaces the fault plan (see [`MarsitConfig::with_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cfg.fault_plan = plan;
    }

    /// Replaces the lane budget (see [`MarsitConfig::lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn set_lanes(&mut self, lanes: usize) {
        assert!(lanes > 0, "the lane budget must be positive");
        self.cfg.lanes = lanes;
    }

    /// Detaches the round workspace for pooling, leaving this synchronizer
    /// with a cold one.
    ///
    /// Any deferred residual is flushed first (bit-identical to the eager
    /// bookkeeping), so the released buffers hold no live state — see
    /// [`WorkspaceHandle`] for the full determinism argument.
    #[must_use]
    pub fn release_workspace(&mut self) -> WorkspaceHandle {
        self.flush_pending();
        WorkspaceHandle {
            ws: std::mem::take(&mut self.workspace),
        }
    }

    /// Installs a pooled workspace, replacing (and dropping) the current
    /// one. Any deferred residual is flushed first, since its deferred form
    /// reads the outgoing workspace's buffers. Outputs are bit-identical
    /// whatever the handle previously served — see [`WorkspaceHandle`].
    pub fn adopt_workspace(&mut self, handle: WorkspaceHandle) {
        self.flush_pending();
        self.workspace = handle.ws;
    }

    /// Mean squared compensation norm across workers (the error-accumulation
    /// diagnostic of Theorem 1's proof).
    ///
    /// One pass of the striped norm kernel over every worker at once, in
    /// the deferred form while a residual is pending (`‖h_w − g‖²`, `g`
    /// rebuilt from the consensus bits) and in the materialized form
    /// otherwise — bit-identical to summing [`Compensation::norm_sq`] over
    /// the workers in order. Right after a full-precision round every
    /// residual is known to be zero and nothing is swept: the sweep's value
    /// would be exactly `+0.0`.
    #[must_use]
    pub fn mean_compensation_norm_sq(&self) -> f64 {
        let m = self.compensations.len() as f64;
        if let Some(p) = &self.pending {
            let lut = ScaledSignLut::new(p.scale);
            let total = p
                .consensus
                .sum_residual_norms_sq_striped(&self.workspace.compensated, &lut);
            return total / m;
        }
        if self.compensations.iter().all(Compensation::is_reset) {
            return 0.0;
        }
        marsit_tensor::stats::sum_norms_l2_sq_striped(&self.compensations) / m
    }

    /// Performs one synchronization (Algorithm 1) over `topology`.
    ///
    /// `local_updates[w]` is worker `w`'s scaled local gradient
    /// `η_l·g_t^{(w)}` (Algorithm 2, line 5 hands this in). Advances the
    /// round counter.
    ///
    /// # Panics
    ///
    /// Panics if the number of updates does not match the worker count, if
    /// dimensions mismatch, or if `topology` is a star (Marsit is defined
    /// for multi-hop all-reduce only) or disagrees with the worker count.
    pub fn synchronize(&mut self, local_updates: &[Vec<f32>], topology: Topology) -> SyncOutcome {
        let mut out = SyncOutcome::default();
        self.synchronize_into(local_updates, topology, &mut out);
        out
    }

    /// [`Marsit::synchronize`] writing into a caller-owned outcome.
    ///
    /// `out`'s buffers are recycled: `global_update` and `compensated_mean`
    /// are resized and overwritten in place, and the trace's step slots are
    /// reused ([`Trace::reset`] semantics). Reusing one outcome across
    /// rounds makes the one-bit round allocation-free in the steady state
    /// without a fault plan — `tests/train_allocations.rs` pins this with a
    /// counting allocator. Results are bit-identical to [`Marsit::synchronize`]
    /// regardless of what `out` previously held.
    ///
    /// # One round body
    ///
    /// Clean and fault-injected rounds run the same code, parameterised by
    /// the round's live set and its [`FaultInjector`] (every worker and an
    /// injector that never fires without a plan):
    ///
    /// - The membership schedule decides who is live: crashed workers are
    ///   excluded (their compensation frozen — it died with them), rejoined
    ///   workers re-enter with reset compensation, and the collective
    ///   re-forms over the live set via [`TopologyReconfigurer`] (a partial
    ///   torus degrades to a survivor ring; a shrunken ring re-expands when
    ///   workers rejoin). `compensated_mean` — the quantity the one-bit
    ///   consensus estimates — is taken over live workers only.
    /// - One-bit transfers are best-effort with bounded retries; a transfer
    ///   that exhausts its budget is an omission, and the counted collectives
    ///   keep `⊙` unbiased over what actually arrived.
    /// - Terminal live sets are defined, not panics: one live worker runs a
    ///   degenerate local-only round; zero live workers is a no-op round. A
    ///   typed [`SyncError`] from a collective likewise falls back to a
    ///   degenerate local round, reported as [`DegradedMode::Error`].
    /// - The residual of a one-bit round is deferred (see `PendingResidual`)
    ///   iff every worker was live and the collective succeeded; any other
    ///   round materializes what is pending before it starts and absorbs its
    ///   own residual eagerly, for its live workers only.
    ///
    /// [`FaultInjector`]: marsit_simnet::FaultInjector
    /// [`SyncError`]: marsit_collectives::SyncError
    ///
    /// # Panics
    ///
    /// As [`Marsit::synchronize`].
    pub fn synchronize_into(
        &mut self,
        local_updates: &[Vec<f32>],
        topology: Topology,
        out: &mut SyncOutcome,
    ) {
        let m = self.compensations.len();
        assert_eq!(local_updates.len(), m, "update count must match workers");
        assert_eq!(topology.workers(), m, "topology size must match workers");
        assert!(
            !matches!(topology, Topology::Star { .. }),
            "Marsit is a multi-hop all-reduce framework; star/PS is unsupported"
        );
        let d = self.compensations[0].len();
        assert!(
            local_updates.iter().all(|u| u.len() == d),
            "update dimensions must match the model"
        );

        let t = self.round;
        let plan = &self.cfg.fault_plan;
        let live = &mut self.workspace.live;
        live.clear();
        live.extend((0..m).filter(|&w| plan.live_at(w, t)));
        let lm = live.len();
        let rejoined = plan.rejoined_at(m, t);
        let mut stats = FaultStats {
            rejoins: rejoined.len() as u64,
            crashed_workers: (m - lm) as u64,
            // Each membership change (a crash or rejoin taking effect)
            // re-forms the topology exactly once.
            repairs: u64::from(plan.membership_changed_at(m, t)),
            ..FaultStats::default()
        };
        let mut inj = plan.injector(t);
        let (effective, mut degraded) = TopologyReconfigurer::new(topology, m).effective(live);
        // A crash freezes per-worker compensation, which must then exist
        // materially: only a full-membership round consumes (and leaves) a
        // deferred residual.
        if lm < m {
            self.flush_pending();
        }
        // A rejoining worker restarts from the last full-precision barrier:
        // its compensation state died with the crash, so it re-enters with a
        // zero residual before the prologue folds compensation into its
        // local update. (A rejoin implies the previous round was not
        // full-membership, so nothing is pending here.)
        for &w in &rejoined {
            self.compensations[w].reset();
        }

        // Detach the workspace so its buffers can be borrowed alongside
        // `self`; it is stored back before returning.
        let mut ws = std::mem::take(&mut self.workspace);
        let full_precision = self.cfg.schedule.is_full_precision(t);
        let RoundWorkspace {
            live,
            compensated,
            sum,
            signs,
            ring,
            torus,
            planner,
            consensus: consensus_buf,
            rows,
            norm_lanes,
        } = &mut ws;
        // Every M·d sweep of the round runs on the lanes of one cut.
        let cut = Cut::new(d, self.cfg.lanes);
        // Lines 11–13 on the wire (also the post-crash resync) walk the sum's
        // schedule first, on the round's injector, touching no data.
        let walked = match effective {
            EffectiveTopology::Empty | EffectiveTopology::Lone { .. } => None,
            _ if !full_precision => None,
            EffectiveTopology::Torus { rows, cols } => Some(PlanTopology::Torus { rows, cols }),
            _ => Some(PlanTopology::Ring),
        }
        .map(|schedule| sum.record(schedule, lm, d, &mut inj, &mut out.trace));
        let replay = matches!(walked, Some(Ok(()))).then_some(&*sum);

        // Line 1 (fused prologue): fold compensation into the local update,
        // accumulate the compensated-mean numerator, and — on one-bit rounds
        // — pack each worker's sign words, all in one sweep over the live
        // workers. A walked full-precision round also replays the sum's folds
        // on the block in place (`h` is scratch once the mean has it: nothing
        // stays pending), writes `g_t` from the owners and resets `c`. Each
        // lane walks its blocks block-major: every worker visits a block
        // before any worker moves on, so the block of the mean accumulator
        // stays in cache from its zero-fill to its `1/|live|` scaling, and
        // each worker's sign words go straight into its vector. Per element
        // the live workers still arrive in ascending order, so the mean's
        // float sums are the worker-major ones.
        //
        // Every buffer below is overwritten in full and only sized here, so
        // what an adopted workspace or a recycled outcome held is invisible.
        // A fresh (empty) accumulator comes back from the resize already
        // zeroed; a recycled one is zeroed block by block instead.
        let compensated_mean = &mut out.compensated_mean;
        let recycled = !compensated_mean.is_empty();
        compensated_mean.resize(d, 0.0);
        if !full_precision {
            // `signs[i]` belongs to worker `live[i]`.
            signs.resize_with(lm, || SignVec::zeros(0));
            for sv in signs.iter_mut() {
                sv.resize_for_overwrite(d);
            }
        }
        // Deferred residual: `h ← u + (h − g_prev)` with `g_prev` rebuilt
        // from the consensus bits, the ±scale expansion table built once for
        // all workers. Otherwise (round 0, after a full-precision round, a
        // partial-membership round or a flush) the compensation vectors are
        // material: `h ← u + c`.
        let deferred = self
            .pending
            .take()
            .map(|p| (p.consensus, ScaledSignLut::new(p.scale)));
        if deferred.is_some() {
            debug_assert_eq!(compensated.len(), m);
        } else {
            compensated.resize_with(m, Vec::new);
            for h in compensated.iter_mut() {
                h.resize(d, 0.0);
            }
        }
        rows.h.clear();
        rows.h
            .extend(compensated.iter_mut().map(|h| Disjoint::new(h)));
        rows.signs.clear();
        if !full_precision {
            rows.signs
                .extend(signs.iter_mut().map(|sv| Disjoint::new(sv.words_mut())));
        }
        // (Flags are set in the epilogue, once the round's settle is known.)
        c_rows(&mut rows.c, &mut self.compensations, live, Settle::Defer);
        out.global_update.resize(d, 0.0);
        let g = Disjoint::new(&mut out.global_update);
        let mean = Disjoint::new(compensated_mean);
        let inv_lm = 1.0 / lm.max(1) as f32;
        let (live_ro, rows_ro) = (&*live, &*rows);
        lanes::run(cut.lanes, &|lane| {
            let range = cut.range(lane);
            for lo in range.clone().step_by(PROLOGUE_BLOCK) {
                let block = lo..(lo + PROLOGUE_BLOCK).min(range.end);
                // SAFETY: each lane reads and writes only its own columns of
                // the mean, of every `h`, `c` and `g_t` and of every sign
                // vector's words (blocks are whole words), and every buffer
                // stays borrowed for the run.
                let mean = unsafe { mean.slice_mut(block.clone()) };
                if recycled {
                    mean.fill(0.0);
                }
                for (i, &w) in live_ro.iter().enumerate() {
                    let residual = match &deferred {
                        Some((consensus, lut)) => Residual::Deferred { consensus, lut },
                        // SAFETY: as above.
                        None => {
                            Residual::Materialized(unsafe { rows_ro.c[w].slice(block.clone()) })
                        }
                    };
                    // SAFETY: as above.
                    let (h, sign_words) = unsafe {
                        (
                            rows_ro.h[w].slice_mut(block.clone()),
                            rows_ro.signs.get(i).map(|sv| sv.slice_mut(words(&block))),
                        )
                    };
                    let u = &local_updates[w][block.clone()];
                    compensate_block_words(lo, u, h, residual, mean, sign_words);
                }
                for a in mean {
                    *a *= inv_lm;
                }
                let Some(replay) = replay else { continue };
                // SAFETY: as above; a fold's two rows differ.
                let h = |i: usize, r: Range<usize>| unsafe { rows_ro.h[live_ro[i]].slice_mut(r) };
                for (dst, src, r) in replay.folds_in(block.clone()) {
                    for (x, &y) in h(dst, r.clone()).iter_mut().zip(&*h(src, r)) {
                        *x += y;
                    }
                }
                for (owner, r) in replay.owners_in(block.clone()) {
                    // SAFETY: as above.
                    let g = unsafe { g.slice_mut(r.clone()) };
                    for (g, &x) in g.iter_mut().zip(&*h(owner, r)) {
                        *g = x * inv_lm;
                    }
                }
                for &w in live_ro {
                    // SAFETY: as above.
                    unsafe { rows_ro.c[w].slice_mut(block.clone()) }.fill(0.0);
                }
            }
        });
        if let Some((consensus, _)) = deferred {
            // The consumed residual's sign buffer is exactly consensus-sized;
            // recycle it as this round's collective output buffer.
            *consensus_buf = consensus;
        }

        let (mut combines, mut rng_draws) = (0, 0);
        // Line 9: g_t = η_s · σ, rebuilt through the byte LUT (written once
        // per element, no zero-fill pass, no per-lane bit tests).
        let lut = ScaledSignLut::new(self.cfg.global_lr);
        let write_scaled = |sigma: &SignVec, g: &mut Vec<f32>| {
            g.resize(d, 0.0);
            sigma.write_scaled_signs_lut(&lut, g);
        };
        // The collective proper. `Ok(false)`: a terminal live set put
        // nothing on the wire.
        let ran = match (walked, effective) {
            (Some(walked), _) => walked.map(|()| true),
            (None, EffectiveTopology::Empty | EffectiveTopology::Lone { .. }) => Ok(false),
            _ => {
                // Lines 4–9: one-bit synchronization via ⊙. Sign buffers were
                // packed by the fused prologue; the planner pre-draws each
                // step's transient masks with interleaved RNG chains and the
                // combines replay them bit-identically. State comes from the
                // workspace, the consensus lands in the recycled buffer and
                // the trace reuses the outcome's step slots. The epilogue
                // below writes `g_t` from it.
                planner.reset(split_seed(self.cfg.seed, t), self.cfg.combine);
                let mut op = PlannerOp {
                    planner,
                    combines: 0,
                    rng_draws: 0,
                };
                let reduced = if let EffectiveTopology::Torus { rows, cols } = effective {
                    // A full-membership torus keeps its hierarchical
                    // schedule; any partial live set re-forms as a ring over
                    // the live workers.
                    torus_allreduce_onebit_planned(
                        signs,
                        rows,
                        cols,
                        &mut inj,
                        torus,
                        consensus_buf,
                        &mut out.trace,
                        &mut op,
                    )
                } else {
                    ring_allreduce_onebit_planned(
                        signs,
                        &mut inj,
                        ring,
                        consensus_buf,
                        &mut out.trace,
                        &mut op,
                    )
                };
                (combines, rng_draws) = (op.combines, op.rng_draws);
                reduced.map(|()| true)
            }
        };
        let on_wire = ran.unwrap_or_else(|e| {
            degraded = DegradedMode::Error(e);
            false
        });
        if !on_wire {
            // Terminal and error modes: no wire traffic. Nobody live is a
            // no-op round; otherwise the first live worker's own compensated
            // update stands in for the consensus.
            out.trace.reset();
            match (live.first(), full_precision) {
                (None, _) => {
                    out.global_update.clear();
                    out.global_update.resize(d, 0.0);
                }
                (Some(&w), true) => out.global_update.clone_from(&compensated[w]),
                (Some(_), false) => write_scaled(&signs[0], &mut out.global_update),
            }
        }

        // The epilogue, on the lanes of the same cut: `g_t` from the
        // consensus bits (a one-bit round that went over the wire), lines 10
        // and 13 for live workers only — a crashed worker's compensation is
        // frozen (its state died with it) — and, when a telemetry scope
        // records, the compensation-norm sweep. A full-membership one-bit
        // round that went over the wire defers its absorb: the consensus
        // bits and scale fully determine `g_t`, and the next round's
        // prologue folds `h − g_t` in without a dedicated M·D pass.
        let write_g = on_wire && !full_precision;
        let settle = if full_precision {
            Settle::Reset
        } else if on_wire && lm == m {
            Settle::Defer
        } else {
            Settle::Absorb
        };
        c_rows(&mut rows.c, &mut self.compensations, live, settle);
        let tel = marsit_telemetry::active();
        // Over a freshly reset set the norm is `+0.0`, the swept value, and
        // nothing is swept.
        let all_reset =
            settle != Settle::Defer && self.compensations.iter().all(Compensation::is_reset);
        let norm = (tel.is_some() && !all_reset).then(|| {
            norm_lanes.resize(m, [0.0; 8]);
            NormSweep {
                source: match settle {
                    Settle::Defer => NormSource::Deferred {
                        hs: compensated,
                        consensus: consensus_buf,
                        lut: &lut,
                    },
                    Settle::Absorb | Settle::Reset => NormSource::Materialized(&rows.c),
                },
                acc: Disjoint::new(norm_lanes),
                m,
                group: if cut.lanes == 1 {
                    NORM_GROUP_MAX
                } else {
                    NORM_GROUP_LANED
                },
            }
        });
        // A `g_t` write alone, on a model of a few blocks, is shorter than
        // waking a helper costs: it stays on the caller.
        let cut = if norm.is_none() && settle == Settle::Defer && d < LANED_WRITE_MIN {
            Cut::new(d, 1)
        } else {
            cut
        };
        let g = Disjoint::new(&mut out.global_update);
        // A replayed round settled in its prologue sweep; a norm may be left.
        let idle = usize::from(replay.is_none());
        let phases = norm.as_ref().map_or(idle, |n| n.phases(cut.lanes));
        let (live_ro, rows_ro, hs, consensus) = (&*live, &rows.c, &*compensated, &*consensus_buf);
        // Lane `l > 0` has no norm work in phase 0 and lane 0 none in the
        // last phase: a deferred round's `g_t`, which nothing here reads,
        // fills those. An absorb reads it, so it comes first.
        let g_phase = |lane: usize| {
            if settle == Settle::Defer && lane == 0 {
                phases - 1
            } else {
                0
            }
        };
        lanes::run_phased(cut.lanes, phases, &|lane, phase| {
            let range = cut.range(lane);
            if write_g && phase == g_phase(lane) {
                // SAFETY: each lane writes only its own columns of `g_t` and
                // of the live workers' compensation, and every buffer stays
                // borrowed for the run.
                let g = unsafe { g.slice_mut(range.clone()) };
                consensus.write_scaled_signs_lut_at(&lut, range.start, g);
            }
            if phase == 0 {
                // SAFETY: as above.
                let c = |w: usize| unsafe { rows_ro[w].slice_mut(range.clone()) };
                match settle {
                    Settle::Defer => {}
                    // The prologue sweep reset these columns.
                    Settle::Reset if replay.is_some() => {}
                    Settle::Reset => {
                        for &w in live_ro {
                            c(w).fill(0.0);
                        }
                    }
                    Settle::Absorb => {
                        // SAFETY: as above; this lane wrote these columns of
                        // `g_t`, if anyone did, just before.
                        let g = unsafe { g.slice(range.clone()) };
                        for &w in live_ro {
                            absorb(c(w), &hs[w][range.clone()], g);
                        }
                    }
                }
            }
            if let Some(norm) = &norm {
                norm.run(lane, phase, &range);
            }
        });
        let comp_norm_sq = tel.map(|tel| {
            let norm_sq = if norm.is_some() {
                // Per-worker norms summed in worker order, from where
                // `Iterator::sum` starts: the one-pass kernel's bits.
                let mut total = -0.0;
                for acc in &norm_lanes[..m] {
                    total += fold_striped_norm(acc);
                }
                total / m as f64
            } else {
                0.0
            };
            (tel, norm_sq)
        });
        let new_pending = (settle == Settle::Defer).then(|| PendingResidual {
            consensus: std::mem::take(consensus_buf),
            scale: self.cfg.global_lr,
        });
        stats.merge(&inj.take_stats());
        out.full_precision = full_precision;
        out.round = t;
        out.faults = stats;
        out.degraded = degraded;
        self.workspace = ws;
        self.pending = new_pending;
        if let Some((tel, norm_sq)) = comp_norm_sq {
            debug_assert_eq!(
                norm_sq.to_bits(),
                self.mean_compensation_norm_sq().to_bits(),
                "the laned norm sweep left the one-pass kernel's bits"
            );
            Self::emit_sync_event(&tel, out, combines, rng_draws, norm_sq);
        }
        self.round += 1;
    }

    /// Reports one completed round to the ambient telemetry scope `tel`,
    /// with the round's mean squared compensation norm (see
    /// [`Marsit::mean_compensation_norm_sq`]), which the round sweeps only
    /// when a scope is active.
    fn emit_sync_event(
        tel: &Telemetry,
        outcome: &SyncOutcome,
        combines: u64,
        rng_draws: u64,
        comp_norm_sq: f64,
    ) {
        tel.counter_add("marsit.rounds", 1);
        if outcome.full_precision {
            tel.counter_add("marsit.full_precision_rounds", 1);
        }
        tel.counter_add("marsit.combines", combines);
        tel.counter_add("marsit.rng_draws", rng_draws);
        if outcome.faults.forced_deliveries > 0 {
            tel.counter_add("marsit.forced_deliveries", outcome.faults.forced_deliveries);
        }
        if outcome.faults.rejoins > 0 {
            tel.counter_add("marsit.rejoins", outcome.faults.rejoins);
        }
        tel.observe("marsit.comp_norm_sq", comp_norm_sq);
        tel.emit(
            "marsit_sync",
            [
                ("round", outcome.round.into()),
                ("full_precision", outcome.full_precision.into()),
                ("combines", combines.into()),
                ("rng_draws", rng_draws.into()),
                ("bytes", outcome.trace.total_bytes().into()),
                ("steps", outcome.trace.num_steps().into()),
                ("comp_norm_sq", comp_norm_sq.into()),
                ("retransmits", outcome.faults.retransmits.into()),
                ("dropped", outcome.faults.dropped_transfers.into()),
                ("corrupted", outcome.faults.corrupted_transfers.into()),
                ("repairs", outcome.faults.repairs.into()),
                ("crashed", outcome.faults.crashed_workers.into()),
                ("forced", outcome.faults.forced_deliveries.into()),
                ("rejoins", outcome.faults.rejoins.into()),
                ("retry_extra_s", outcome.faults.retry_extra_s.into()),
            ],
        );
    }
    /// Captures a deterministic checkpoint of the synchronizer: the round
    /// counter plus every worker's materialized compensation vector.
    ///
    /// Takes `&mut self` because any deferred residual is flushed first —
    /// bit-identical to the eager bookkeeping, so snapshotting mid-run does
    /// not perturb the trajectory (the workspace-reuse invariant).
    #[must_use]
    pub fn snapshot(&mut self) -> MarsitSnapshot {
        self.flush_pending();
        MarsitSnapshot {
            round: self.round,
            compensations: self
                .compensations
                .iter()
                .map(|c| c.vector().to_vec())
                .collect(),
        }
    }

    /// Restores the synchronizer to a [`MarsitSnapshot`]: a restored
    /// instance continues the run bit-identically to one that never stopped.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's worker count or dimensions disagree with
    /// this instance.
    pub fn restore(&mut self, snapshot: &MarsitSnapshot) {
        assert_eq!(
            snapshot.compensations.len(),
            self.compensations.len(),
            "snapshot worker count must match"
        );
        self.pending = None;
        for (c, v) in self.compensations.iter_mut().zip(&snapshot.compensations) {
            c.restore(v);
        }
        self.round = snapshot.round;
    }
}

/// A deterministic checkpoint of a [`Marsit`] synchronizer (see
/// [`Marsit::snapshot`] / [`Marsit::restore`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MarsitSnapshot {
    /// The round counter `t` at capture time.
    pub round: u64,
    /// Per-worker materialized compensation vectors.
    pub compensations: Vec<Vec<f32>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn updates(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        (0..m)
            .map(|w| {
                let mut rng = FastRng::new(seed, w as u64);
                (0..d).map(|_| (rng.next_f64() as f32) - 0.5).collect()
            })
            .collect()
    }

    #[test]
    fn round0_with_finite_k_is_full_precision() {
        let cfg = MarsitConfig::new(SyncSchedule::every(4), 0.01, 1);
        let mut marsit = Marsit::new(cfg, 3, 10);
        let u = updates(3, 10, 0);
        let out = marsit.synchronize(&u, Topology::ring(3));
        assert!(out.full_precision);
        // Exact mean of the updates (compensation is zero initially).
        for j in 0..10 {
            let mean: f32 = u.iter().map(|v| v[j]).sum::<f32>() / 3.0;
            assert!((out.global_update[j] - mean).abs() < 1e-5);
        }
        // Next three rounds are one-bit, then full precision again.
        assert!(!marsit.synchronize(&u, Topology::ring(3)).full_precision);
        assert!(!marsit.synchronize(&u, Topology::ring(3)).full_precision);
        assert!(!marsit.synchronize(&u, Topology::ring(3)).full_precision);
        assert!(marsit.synchronize(&u, Topology::ring(3)).full_precision);
    }

    #[test]
    fn onebit_update_is_scaled_signs() {
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 2);
        let mut marsit = Marsit::new(cfg, 4, 16);
        let out = marsit.synchronize(&updates(4, 16, 1), Topology::ring(4));
        assert!(!out.full_precision);
        for &g in &out.global_update {
            assert!((g.abs() - 0.05).abs() < 1e-7, "entry {g} is not ±η_s");
        }
    }

    #[test]
    fn compensation_tracks_residual() {
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 3);
        let mut marsit = Marsit::new(cfg, 2, 8);
        let u = updates(2, 8, 2);
        let out = marsit.synchronize(&u, Topology::ring(2));
        for (w, u_w) in u.iter().enumerate() {
            let c = marsit.compensation(w).vector();
            for j in 0..8 {
                let expected = u_w[j] - out.global_update[j];
                assert!((c[j] - expected).abs() < 1e-6, "worker {w} coord {j}");
            }
        }
    }

    #[test]
    fn full_precision_resets_compensation() {
        let cfg = MarsitConfig::new(SyncSchedule::every(2), 0.05, 4);
        let mut marsit = Marsit::new(cfg, 2, 8);
        let u = updates(2, 8, 3);
        let _ = marsit.synchronize(&u, Topology::ring(2)); // t=0 full
        let _ = marsit.synchronize(&u, Topology::ring(2)); // t=1 one-bit
        assert!(marsit.mean_compensation_norm_sq() > 0.0);
        let _ = marsit.synchronize(&u, Topology::ring(2)); // t=2 full
        assert_eq!(marsit.mean_compensation_norm_sq(), 0.0);
    }

    /// On a freshly reset set — at construction and after every
    /// full-precision round — the norm is answered without a sweep, and the
    /// answer is the swept value bit for bit.
    #[test]
    fn zero_shortcut_matches_the_swept_norm() {
        let cfg = MarsitConfig::new(SyncSchedule::every(2), 0.05, 4);
        let mut marsit = Marsit::new(cfg, 3, 70);
        let u = updates(3, 70, 3);
        let swept = |marsit: &Marsit| {
            marsit_tensor::stats::sum_norms_l2_sq_striped(&marsit.compensations) / 3.0
        };
        for t in 0..6 {
            if t == 0 || t % 2 == 1 {
                assert!(marsit.pending.is_none(), "round {t}");
                assert!(marsit.compensations.iter().all(Compensation::is_reset));
                let shortcut = marsit.mean_compensation_norm_sq();
                assert_eq!(shortcut.to_bits(), swept(&marsit).to_bits(), "round {t}");
            }
            let _ = marsit.synchronize(&u, Topology::ring(3));
        }
        assert!(marsit.mean_compensation_norm_sq() > 0.0);
    }

    #[test]
    fn synchronize_is_deterministic() {
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 7);
        let u = updates(4, 32, 4);
        let mut m1 = Marsit::new(cfg.clone(), 4, 32);
        let mut m2 = Marsit::new(cfg, 4, 32);
        for _ in 0..5 {
            let a = m1.synchronize(&u, Topology::ring(4));
            let b = m2.synchronize(&u, Topology::ring(4));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn torus_topology_works() {
        let cfg = MarsitConfig::new(SyncSchedule::every(3), 0.05, 9);
        let mut marsit = Marsit::new(cfg, 4, 20);
        let u = updates(4, 20, 5);
        let full = marsit.synchronize(&u, Topology::torus(2, 2));
        assert!(full.full_precision);
        let onebit = marsit.synchronize(&u, Topology::torus(2, 2));
        assert!(!onebit.full_precision);
        assert_eq!(onebit.global_update.len(), 20);
    }

    /// The one-bit consensus is unbiased: averaged over rounds with fresh
    /// seeds, E[g_t/η_s] per coordinate approaches the mean sign.
    #[test]
    fn onebit_consensus_is_unbiased_estimate_of_mean_sign() {
        let m = 4;
        let d = 32;
        let u = updates(m, d, 6);
        let mean_sign: Vec<f64> = (0..d)
            .map(|j| {
                u.iter()
                    .map(|v| if v[j] >= 0.0 { 1.0 } else { -1.0 })
                    .sum::<f64>()
                    / m as f64
            })
            .collect();
        let trials = 4000;
        let mut acc = vec![0.0f64; d];
        for trial in 0..trials {
            let cfg = MarsitConfig::new(SyncSchedule::never(), 1.0, trial);
            let mut marsit = Marsit::new(cfg, m, d);
            let out = marsit.synchronize(&u, Topology::ring(m));
            for (a, &g) in acc.iter_mut().zip(&out.global_update) {
                *a += f64::from(g);
            }
        }
        for (j, &a) in acc.iter().enumerate() {
            let est = a / f64::from(trials as u32);
            assert!(
                (est - mean_sign[j]).abs() < 0.1,
                "coord {j}: estimate {est} vs mean sign {}",
                mean_sign[j]
            );
        }
    }

    #[test]
    #[should_panic(expected = "star/PS is unsupported")]
    fn star_topology_panics() {
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 0);
        let mut marsit = Marsit::new(cfg, 3, 4);
        let _ = marsit.synchronize(&updates(3, 4, 0), Topology::star(3));
    }

    #[test]
    fn none_fault_plan_outcome_is_identical_to_default() {
        // A none plan injects nothing: the outcomes are the default's.
        let cfg = MarsitConfig::new(SyncSchedule::every(3), 0.05, 7);
        let faulted_cfg = cfg.clone().with_fault_plan(FaultPlan::none());
        let u = updates(4, 32, 4);
        let mut base = Marsit::new(cfg, 4, 32);
        let mut with_plan = Marsit::new(faulted_cfg, 4, 32);
        for _ in 0..6 {
            let a = base.synchronize(&u, Topology::ring(4));
            let b = with_plan.synchronize(&u, Topology::ring(4));
            assert_eq!(a, b);
            assert!(b.faults.is_clean());
        }
    }

    #[test]
    fn faulty_sync_is_deterministic() {
        let plan = FaultPlan::seeded(99)
            .with_link_drop(0.05)
            .with_straggler(1, 3.0)
            .with_crash(2, 3);
        let cfg = MarsitConfig::new(SyncSchedule::every(5), 0.05, 7).with_fault_plan(plan);
        let u = updates(4, 64, 8);
        let run = || {
            let mut sync = Marsit::new(cfg.clone(), 4, 64);
            (0..8)
                .map(|_| sync.synchronize(&u, Topology::ring(4)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_excludes_worker_and_counts_one_repair() {
        let plan = FaultPlan::seeded(5).with_crash(3, 2);
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 11).with_fault_plan(plan);
        let m = 4;
        let d = 24;
        let mut sync = Marsit::new(cfg, m, d);
        let u = updates(m, d, 9);
        let mut total_repairs = 0;
        for t in 0..5u64 {
            let out = sync.synchronize(&u, Topology::ring(m));
            total_repairs += out.faults.repairs;
            assert_eq!(out.faults.crashed_workers, u64::from(t >= 2));
            if t >= 2 {
                assert!(out.compensated_mean.iter().all(|x| x.is_finite()));
            }
        }
        assert_eq!(total_repairs, 1, "exactly one repair at the crash round");
        // The crashed worker's compensation froze at its round-1 value.
        let frozen = sync.compensation(3).vector().to_vec();
        let _ = sync.synchronize(&u, Topology::ring(m));
        assert_eq!(sync.compensation(3).vector(), &frozen[..]);
    }

    #[test]
    fn crashed_torus_repairs_to_survivor_ring() {
        let plan = FaultPlan::seeded(21).with_crash(5, 1);
        let cfg = MarsitConfig::new(SyncSchedule::every(4), 0.05, 13).with_fault_plan(plan);
        let m = 8;
        let d = 40;
        let mut sync = Marsit::new(cfg, m, d);
        let u = updates(m, d, 10);
        let t0 = sync.synchronize(&u, Topology::torus(2, 4)); // full, intact
        assert!(t0.full_precision && t0.faults.crashed_workers == 0);
        let t1 = sync.synchronize(&u, Topology::torus(2, 4)); // one-bit, crashed
        assert!(!t1.full_precision);
        assert_eq!(t1.faults.crashed_workers, 1);
        assert_eq!(t1.faults.repairs, 1);
        // A 7-worker survivor ring: 2·(7−1) wall-clock steps (no retries).
        assert_eq!(t1.trace.num_steps(), 2 * 6);
        for &g in &t1.global_update {
            assert!((g.abs() - 0.05).abs() < 1e-7, "±η_s consensus expected");
        }
    }

    #[test]
    fn two_workers_crash_to_lone_survivor() {
        let plan = FaultPlan::seeded(1).with_crash(1, 1);
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 3).with_fault_plan(plan);
        let mut sync = Marsit::new(cfg, 2, 8);
        let u = updates(2, 8, 11);
        let _ = sync.synchronize(&u, Topology::ring(2));
        let out = sync.synchronize(&u, Topology::ring(2));
        assert_eq!(out.trace.num_steps(), 0, "lone survivor sends nothing");
        for (j, &g) in out.global_update.iter().enumerate() {
            assert!((g.abs() - 0.05).abs() < 1e-7, "coord {j}");
        }
    }

    #[test]
    fn rejoin_resets_compensation_and_reexpands_ring() {
        // Worker 2 crashes at round 1 and rejoins at round 3: the ring
        // shrinks to 4 survivors, then re-expands to all 5.
        let plan = FaultPlan::seeded(7)
            .with_crash_event(2, 1)
            .with_rejoin(2, 3);
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 19).with_fault_plan(plan);
        let m = 5;
        let d = 32;
        let mut sync = Marsit::new(cfg, m, d);
        let u = updates(m, d, 14);
        let r0 = sync.synchronize(&u, Topology::ring(m));
        assert!(r0.degraded.is_none());
        assert_eq!(r0.trace.num_steps(), 2 * (m - 1));
        let r1 = sync.synchronize(&u, Topology::ring(m));
        assert_eq!(r1.faults.crashed_workers, 1);
        assert_eq!(r1.faults.repairs, 1, "crash re-forms the ring once");
        assert_eq!(r1.degraded, DegradedMode::PartialRing { live: 4 });
        assert_eq!(r1.trace.num_steps(), 2 * 3, "4-survivor ring");
        let frozen = sync.compensation(2).vector().to_vec();
        let r2 = sync.synchronize(&u, Topology::ring(m));
        assert_eq!(r2.faults.repairs, 0, "stable membership, no repair");
        assert_eq!(
            sync.compensation(2).vector(),
            &frozen[..],
            "frozen while dead"
        );
        let r3 = sync.synchronize(&u, Topology::ring(m));
        assert_eq!(r3.faults.crashed_workers, 0);
        assert_eq!(r3.faults.rejoins, 1);
        assert_eq!(r3.faults.repairs, 1, "rejoin re-forms the ring once");
        assert!(r3.degraded.is_none(), "full membership restored");
        assert_eq!(r3.trace.num_steps(), 2 * (m - 1), "ring re-expanded");
        // The rejoiner re-entered with zero compensation, then absorbed
        // this round's residual like everyone else.
        let h: Vec<f32> = u[2].clone();
        let c = sync.compensation(2).vector();
        for j in 0..d {
            let expected = h[j] - r3.global_update[j];
            assert!((c[j] - expected).abs() < 1e-6, "coord {j}");
        }
    }

    #[test]
    fn torus_degrades_to_ring_and_reforms_on_rejoin() {
        let plan = FaultPlan::seeded(3)
            .with_crash_event(6, 1)
            .with_rejoin(6, 2);
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 23).with_fault_plan(plan);
        let mut sync = Marsit::new(cfg, 8, 48);
        let u = updates(8, 48, 15);
        let r0 = sync.synchronize(&u, Topology::torus(2, 4));
        assert!(r0.degraded.is_none());
        let r1 = sync.synchronize(&u, Topology::torus(2, 4));
        assert_eq!(r1.degraded, DegradedMode::TorusToRing { live: 7 });
        assert_eq!(r1.trace.num_steps(), 2 * 6, "7-survivor ring");
        let r2 = sync.synchronize(&u, Topology::torus(2, 4));
        assert!(r2.degraded.is_none(), "torus re-forms at full membership");
        assert_eq!(r2.faults.rejoins, 1);
    }

    #[test]
    fn all_crashed_round_is_a_defined_noop() {
        let plan = FaultPlan::seeded(2)
            .with_crash_event(0, 1)
            .with_crash_event(1, 1);
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 29).with_fault_plan(plan);
        let mut sync = Marsit::new(cfg, 2, 8);
        let u = updates(2, 8, 16);
        let _ = sync.synchronize(&u, Topology::ring(2));
        let out = sync.synchronize(&u, Topology::ring(2));
        assert_eq!(out.degraded, DegradedMode::AllCrashed);
        assert_eq!(out.faults.crashed_workers, 2);
        assert_eq!(out.trace.num_steps(), 0);
        assert!(out.global_update.iter().all(|&g| g == 0.0));
        assert!(out.compensated_mean.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        for plan in [
            FaultPlan::none(),
            FaultPlan::seeded(99)
                .with_link_drop(0.05)
                .with_crash_event(2, 3)
                .with_rejoin(2, 5),
        ] {
            let cfg =
                MarsitConfig::new(SyncSchedule::every(4), 0.05, 31).with_fault_plan(plan.clone());
            let u = updates(4, 40, 17);
            // Straight run: 8 rounds.
            let mut straight = Marsit::new(cfg.clone(), 4, 40);
            let all: Vec<SyncOutcome> = (0..8)
                .map(|_| straight.synchronize(&u, Topology::ring(4)))
                .collect();
            // Interrupted run: 4 rounds, snapshot, restore into a fresh
            // instance, 4 more rounds.
            let mut first = Marsit::new(cfg.clone(), 4, 40);
            for _ in 0..4 {
                let _ = first.synchronize(&u, Topology::ring(4));
            }
            let snap = first.snapshot();
            assert_eq!(snap.round, 4);
            drop(first);
            let mut resumed = Marsit::new(cfg, 4, 40);
            resumed.restore(&snap);
            for expected in &all[4..] {
                let out = resumed.synchronize(&u, Topology::ring(4));
                assert_eq!(&out, expected, "resumed round diverged");
            }
        }
    }

    #[test]
    fn drops_generate_retransmit_stats_and_extra_steps() {
        let plan = FaultPlan::seeded(17)
            .with_link_drop(0.2)
            .with_retry_policy(3, 1e-4);
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.05, 5).with_fault_plan(plan);
        let m = 8;
        let mut sync = Marsit::new(cfg, m, 64);
        let u = updates(m, 64, 12);
        let mut retransmits = 0;
        let mut max_steps = 0;
        for _ in 0..4 {
            let out = sync.synchronize(&u, Topology::ring(m));
            retransmits += out.faults.retransmits;
            max_steps = max_steps.max(out.trace.num_steps());
        }
        assert!(retransmits > 0);
        assert!(max_steps > 2 * (m - 1), "retries add trace steps");
    }
}
