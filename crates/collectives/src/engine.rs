//! Transport-driven collective engine.
//!
//! The legacy collectives in [`crate::ring`] / [`crate::torus`] /
//! [`crate::tree`] / [`crate::segring`] execute their schedules directly on
//! a slice of worker states — one process, one thread, no wire. This module
//! splits that into two halves so the *same* schedule runs on any
//! [`Transport`] backend:
//!
//! 1. **Compile**: [`compile_plan`] replays a topology's exact legacy
//!    schedule — hop order, segment geometry, [`CombineCtx`] values, and
//!    (for faulty runs) per-`(worker, segment)` aggregation counts — into a
//!    flat list of [`PlannedTransfer`]s. Fault fates are drawn here, by
//!    consuming the [`FaultInjector`] in the legacy collective's canonical
//!    transfer order, so the injector's RNG stream and statistics advance
//!    exactly as they would have in-process.
//! 2. **Execute**: [`run_rank`] walks one rank's slice of the plan against
//!    a [`Transport`] endpoint — sends first, then combines what arrives.
//!    [`run_lockstep`] drives every rank from one thread over a simulated
//!    fabric (the refactored simulator backend); [`run_threaded`] gives
//!    each rank an OS thread. Worker *processes* run [`run_rank`] directly
//!    over a `ProcessTransport`.
//!
//! Determinism across backends is the frozen RNG stream contract
//! (`DESIGN.md` §9): every combine's randomness is addressed by its
//! [`CombineCtx`], which is fixed at compile time, so arrival timing cannot
//! perturb the consensus. Simulated-clock telemetry and traces are *not*
//! produced here — they depend only on the schedule and fault fates, so
//! callers obtain them byte-identically by replaying the legacy collective
//! on dummy payloads (see `marsit_core::transport`). The one exception is
//! *wall-clock tracing*: when an ambient telemetry scope is active,
//! [`run_rank`] records each payload it receives as a `hop` event carrying
//! the propagated trace context (round, absolute seq, sender send-time) plus
//! its own arrival time, so real-transport runs can be merged into one
//! causally-ordered cross-rank trace.

use std::ops::Range;

use marsit_simnet::transport::{Backend, ChannelFabric, Transport, TransportError};
use marsit_simnet::{FaultInjector, LinkModel};
use marsit_telemetry::{wall_now_ns, Hop, HopRecorder, HopTiming};
use marsit_tensor::SignVec;

use crate::reconfigure::SyncError;
use crate::ring::{segment_ranges, CombineCtx};

/// Which legacy schedule to compile.
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
/// (injector-consumption) order.
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
}

impl EnginePlan {
    /// Largest single-transfer payload in bytes at any step — what one
    /// lockstep tick moves on the busiest link (the α–β step price).
    #[must_use]
    pub fn max_step_bytes(&self, step: usize) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.step == step && t.delivered)
            .map(|t| t.len.div_ceil(8).max(1))
            .max()
            .unwrap_or(0)
    }
}

/// Draws a best-effort fate: `None` injector (clean run) always delivers.
fn fate(inj: &mut Option<&mut FaultInjector>) -> bool {
    match inj {
        Some(inj) => inj.transfer().delivered,
        None => true,
    }
}

/// Draws a reliable fate (always delivered, but the injector must still be
/// consumed so its RNG stream and retry statistics stay in legacy step).
fn fate_reliable(inj: &mut Option<&mut FaultInjector>) {
    if let Some(inj) = inj {
        let f = inj.transfer_reliable();
        debug_assert!(f.delivered, "reliable transfers always deliver");
    }
}

/// Compiles one counted ring pass (reduce + reliable gather) into `plan`.
///
/// `ranks[i]` is the global rank at ring position `i`; `ranges[s]` the
/// global coordinate range of ring segment `s`; `counts[i]` how many workers
/// position `i`'s input already aggregates. `seg_shift` offsets
/// `ctx.segment` (the segmented ring namespaces its pipelines this way).
/// Contexts use ring-*positions* as receiver ids, exactly as the legacy
/// nested collectives do.
fn compile_ring_into(
    plan: &mut Vec<PlannedTransfer>,
    next_step: &mut usize,
    ranks: &[usize],
    ranges: &[Range<usize>],
    init_counts: &[usize],
    seg_shift: usize,
    inj: &mut Option<&mut FaultInjector>,
) {
    let m = ranks.len();
    debug_assert!(m >= 2 && ranges.len() == m && init_counts.len() == m);
    // counts[i][s]: workers aggregated in position i's copy of segment s.
    let mut counts: Vec<Vec<usize>> = init_counts.iter().map(|&c| vec![c; m]).collect();
    for r in 0..m - 1 {
        let step = *next_step;
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + m - (r % m)) % m;
            let delivered = fate(inj);
            plan.push(PlannedTransfer {
                step,
                sender: ranks[w],
                receiver: ranks[n],
                start: ranges[s].start,
                len: ranges[s].len(),
                combine: Some(CombineCtx {
                    step: r,
                    receiver: n,
                    segment: seg_shift + s,
                    received_count: counts[w][s],
                    local_count: counts[n][s],
                }),
                delivered,
            });
            if delivered {
                counts[n][s] += counts[w][s];
            }
        }
        *next_step += 1;
    }
    for g in 0..m - 1 {
        let step = *next_step;
        for (s, range) in ranges.iter().enumerate() {
            fate_reliable(inj);
            let w = (s + g + m - 1) % m;
            plan.push(PlannedTransfer {
                step,
                sender: ranks[w],
                receiver: ranks[(w + 1) % m],
                start: range.start,
                len: range.len(),
                combine: None,
                delivered: true,
            });
        }
        *next_step += 1;
    }
}

/// Compiles a topology's full schedule over `world` ranks and a `d`-length
/// payload. Passing an injector draws faulty fates (consuming it in the
/// legacy collective's canonical order); `None` compiles the clean
/// schedule.
///
/// # Errors
///
/// Returns the same [`SyncError`]s the legacy faulty collectives return for
/// impossible shapes.
pub fn compile_plan(
    topology: PlanTopology,
    world: usize,
    d: usize,
    mut inj: Option<&mut FaultInjector>,
) -> Result<EnginePlan, SyncError> {
    let mut transfers = Vec::new();
    let mut next_step = 0usize;
    match topology {
        PlanTopology::Ring => {
            if world < 2 {
                return Err(SyncError::TooFewWorkers {
                    needed: 2,
                    got: world,
                });
            }
            let ranks: Vec<usize> = (0..world).collect();
            compile_ring_into(
                &mut transfers,
                &mut next_step,
                &ranks,
                &segment_ranges(d, world),
                &vec![1; world],
                0,
                &mut inj,
            );
        }
        PlanTopology::Torus { rows, cols } => {
            if rows < 2 || cols < 2 || world != rows * cols {
                return Err(SyncError::BadShape {
                    rows,
                    cols,
                    workers: world,
                });
            }
            let chunks = segment_ranges(d, cols);
            // counts[w][s]: workers aggregated in w's copy of chunk s.
            let mut counts: Vec<Vec<usize>> = vec![vec![1; cols]; world];
            // Phase 1: horizontal reduce-scatter, global receiver ids in ctx.
            for rr in 0..cols - 1 {
                let step = next_step;
                for row in 0..rows {
                    for c in 0..cols {
                        let w = row * cols + c;
                        let n = row * cols + (c + 1) % cols;
                        let s = (c + cols - (rr % cols)) % cols;
                        let delivered = fate(&mut inj);
                        transfers.push(PlannedTransfer {
                            step,
                            sender: w,
                            receiver: n,
                            start: chunks[s].start,
                            len: chunks[s].len(),
                            combine: Some(CombineCtx {
                                step: rr,
                                receiver: n,
                                segment: s,
                                received_count: counts[w][s],
                                local_count: counts[n][s],
                            }),
                            delivered,
                        });
                        if delivered {
                            counts[n][s] += counts[w][s];
                        }
                    }
                }
                next_step += 1;
            }
            // Phase 2: vertical ring per column over its own chunk, with
            // column-local receiver ids in ctx — columns sequential in
            // injector order, exactly as the legacy torus runs them.
            for c in 0..cols {
                let own = (c + 1) % cols;
                let ranks: Vec<usize> = (0..rows).map(|row| row * cols + c).collect();
                let column_counts: Vec<usize> =
                    (0..rows).map(|row| counts[row * cols + c][own]).collect();
                let sub: Vec<Range<usize>> = segment_ranges(chunks[own].len(), rows)
                    .into_iter()
                    .map(|r| chunks[own].start + r.start..chunks[own].start + r.end)
                    .collect();
                compile_ring_into(
                    &mut transfers,
                    &mut next_step,
                    &ranks,
                    &sub,
                    &column_counts,
                    0,
                    &mut inj,
                );
            }
            // Phase 3: horizontal all-gather, reliable copies.
            for g in 0..cols - 1 {
                let step = next_step;
                for row in 0..rows {
                    for c in 0..cols {
                        let s = (c + 1 + cols - (g % cols)) % cols;
                        fate_reliable(&mut inj);
                        transfers.push(PlannedTransfer {
                            step,
                            sender: row * cols + c,
                            receiver: row * cols + (c + 1) % cols,
                            start: chunks[s].start,
                            len: chunks[s].len(),
                            combine: None,
                            delivered: true,
                        });
                    }
                }
                next_step += 1;
            }
        }
        PlanTopology::Tree => {
            if world < 2 {
                return Err(SyncError::TooFewWorkers {
                    needed: 2,
                    got: world,
                });
            }
            let mut counts = vec![1usize; world];
            let mut stride = 1;
            let mut level = 0;
            let mut levels = 0;
            while stride < world {
                let step = next_step;
                let mut w = 0;
                while w + stride < world {
                    let delivered = fate(&mut inj);
                    transfers.push(PlannedTransfer {
                        step,
                        sender: w + stride,
                        receiver: w,
                        start: 0,
                        len: d,
                        combine: Some(CombineCtx {
                            step: level,
                            receiver: w,
                            segment: 0,
                            received_count: counts[w + stride],
                            local_count: counts[w],
                        }),
                        delivered,
                    });
                    if delivered {
                        counts[w] += counts[w + stride];
                    }
                    w += 2 * stride;
                }
                next_step += 1;
                stride *= 2;
                level += 1;
                levels += 1;
            }
            // Broadcast the consensus back down, top level first. The
            // legacy collectives only *trace* this phase; the engine
            // executes the copies so every rank ends with the consensus.
            for lv in (0..levels).rev() {
                let stride = 1usize << lv;
                let step = next_step;
                let mut w = 0;
                while w + stride < world {
                    fate_reliable(&mut inj);
                    transfers.push(PlannedTransfer {
                        step,
                        sender: w,
                        receiver: w + stride,
                        start: 0,
                        len: d,
                        combine: None,
                        delivered: true,
                    });
                    w += 2 * stride;
                }
                next_step += 1;
            }
        }
        PlanTopology::SegRing { macro_segments } => {
            if world < 2 {
                return Err(SyncError::TooFewWorkers {
                    needed: 2,
                    got: world,
                });
            }
            if macro_segments == 0 {
                return Err(SyncError::ZeroSegments);
            }
            let ranks: Vec<usize> = (0..world).collect();
            for (s, range) in segment_ranges(d, macro_segments).iter().enumerate() {
                if range.is_empty() {
                    continue;
                }
                let sub: Vec<Range<usize>> = segment_ranges(range.len(), world)
                    .into_iter()
                    .map(|r| range.start + r.start..range.start + r.end)
                    .collect();
                compile_ring_into(
                    &mut transfers,
                    &mut next_step,
                    &ranks,
                    &sub,
                    &vec![1; world],
                    s * world,
                    &mut inj,
                );
            }
        }
    }
    Ok(EnginePlan {
        world,
        d,
        num_steps: next_step,
        transfers,
    })
}

fn disconnected(e: TransportError) -> SyncError {
    match e {
        TransportError::PeerDisconnected { peer } => SyncError::PeerDisconnected { peer },
        // Wire corruption / socket errors mean the hub connection itself is
        // unusable; degrade the same way a vanished peer would.
        TransportError::Wire(_) | TransportError::Io(_) => {
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

/// Drives every rank of `plan` from one thread in deterministic lockstep
/// over a simulated [`ChannelFabric`] — the legacy simulator, refactored
/// behind the [`Transport`] trait. The fabric's simulated clock advances by
/// the α–β price of each step's largest payload.
///
/// Returns each rank's final vector (index = rank).
///
/// # Errors
///
/// Propagates [`SyncError::PeerDisconnected`] from any rank.
///
/// # Panics
///
/// Panics if `inputs.len() != plan.world` or a payload length disagrees
/// with the plan.
pub fn run_lockstep<F>(
    plan: &EnginePlan,
    inputs: &[SignVec],
    link: LinkModel,
    mut combine: F,
) -> Result<Vec<SignVec>, SyncError>
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    assert_eq!(inputs.len(), plan.world, "one input per rank");
    let fabric = ChannelFabric::new(plan.world, link);
    let mut endpoints: Vec<_> = (0..plan.world)
        .map(|r| fabric.endpoint(r, Backend::Simulator))
        .collect();
    let mut states: Vec<SignVec> = inputs.to_vec();
    let mut received = SignVec::zeros(0);
    // Outgoing payload and local segment, reused by every transfer.
    let mut payload = SignVec::zeros(0);
    let mut local = SignVec::zeros(0);
    for step in 0..plan.num_steps {
        let in_step: Vec<&PlannedTransfer> = plan
            .transfers
            .iter()
            .filter(|t| t.step == step && t.delivered)
            .collect();
        // All sends land in the fabric before any rank receives — the
        // lockstep barrier a single-threaded simulator gets for free.
        for t in &in_step {
            payload.assign_slice_of(&states[t.sender], t.start, t.len);
            endpoints[t.sender]
                .send_words(t.receiver, payload.as_words())
                .map_err(disconnected)?;
        }
        for t in &in_step {
            let words = endpoints[t.receiver]
                .recv_words(t.sender)
                .map_err(disconnected)?;
            received.assign_from_words(t.len, &words);
            match t.combine {
                Some(ctx) => {
                    local.assign_slice_of(&states[t.receiver], t.start, t.len);
                    combine(&received, &mut local, ctx);
                    assert_eq!(local.len(), t.len, "combine changed segment length");
                    states[t.receiver].splice(t.start, &local);
                }
                None => states[t.receiver].splice(t.start, &received),
            }
        }
        fabric.advance_sim_clock(plan.max_step_bytes(step));
    }
    Ok(states)
}

/// Drives every rank of `plan` on its own OS thread over a shared
/// [`ChannelFabric`] — real concurrency, deterministic results via the
/// ctx-addressed RNG contract. `make_combine(rank)` builds each thread's
/// combine closure.
///
/// Returns each rank's final vector (index = rank).
///
/// # Errors
///
/// Propagates the first rank's [`SyncError`] (by rank order).
///
/// # Panics
///
/// Panics if `inputs.len() != plan.world`, a payload length disagrees with
/// the plan, or a worker thread itself panics.
pub fn run_threaded<C, F>(
    plan: &EnginePlan,
    inputs: &[SignVec],
    link: LinkModel,
    make_combine: C,
) -> Result<Vec<SignVec>, SyncError>
where
    C: Fn(usize) -> F + Sync,
    F: FnMut(&SignVec, &mut SignVec, CombineCtx) + Send,
{
    assert_eq!(inputs.len(), plan.world, "one input per rank");
    let fabric = ChannelFabric::new(plan.world, link);
    let results: Vec<Result<SignVec, SyncError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.world)
            .map(|rank| {
                let mut transport = fabric.endpoint(rank, Backend::Threaded);
                let init = &inputs[rank];
                let combine = make_combine(rank);
                scope.spawn(move || run_rank(plan, init, &mut transport, combine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_simnet::FaultPlan;
    use marsit_tensor::rng::FastRng;

    use crate::ring::{ring_allreduce_onebit, ring_allreduce_onebit_faulty};
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
        let (legacy, _) =
            ring_allreduce_onebit_faulty(&inputs, &mut legacy_inj, ctx_combine(seed)).unwrap();
        let mut engine_inj = fault_plan.injector(3);
        let plan = compile_plan(PlanTopology::Ring, m, d, Some(&mut engine_inj)).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
        assert_eq!(legacy_inj.take_stats(), engine_inj.take_stats());
    }

    #[test]
    fn threaded_matches_lockstep_bit_for_bit() {
        let (m, d, seed) = (8, 511, 77);
        let inputs = signs(m, d, seed);
        let plan = compile_plan(PlanTopology::Ring, m, d, None).unwrap();
        let lock = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for _ in 0..5 {
            let thr = run_threaded(&plan, &inputs, link(), |_| ctx_combine(seed)).unwrap();
            for (a, b) in lock.iter().zip(&thr) {
                assert_eq!(a.as_words(), b.as_words());
            }
        }
    }
}
