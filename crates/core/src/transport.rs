//! Cross-backend conformance scenarios and the multi-process round driver.
//!
//! One [`Scenario`] pins a collective run completely: topology, world size,
//! dimension, seeds, fault probability, combine kind. Running it on any
//! backend must produce **bit-identical** consensus words and RNG draw
//! counts, because every source of nondeterminism is derived from the
//! scenario, never from execution order:
//!
//! - worker inputs are per-rank RNG streams (`FastRng::new(seed, rank)`);
//! - combine randomness is one winner stream per reduce chain and, off the
//!   canonical chains, per-hop streams keyed by `(receiver, segment, step)`
//!   (DESIGN.md §9, stream contract v2);
//! - transfer fates come from a seeded [`FaultInjector`] consumed in schedule
//!   order by the one walk per topology that both the in-process collective
//!   and [`compile_plan`] are.
//!
//! Two runners share that contract:
//!
//! - [`Scenario::run_simulator`] — the in-process collective
//!   ([`allreduce_onebit`], the deterministic-simulator backend);
//! - [`Scenario::run_process`] — one OS *process* per rank exchanging
//!   binary frames over localhost TCP through a [`WireHub`]. A worker is a
//!   binary started as `<exe> --transport-worker --addr <hub> --key value …`
//!   (the fabric's one child convention, [`marsit_simnet::fabric`]) that
//!   hands that argv to [`process_worker_main`].
//!
//! The process driver doubles as the crash/rejoin harness: killing a worker
//! process surfaces as [`SyncError::PeerDisconnected`] on its peers (never a
//! hang), and a fresh process reconnecting under the same rank rejoins the
//! next round.

use std::time::Duration;

use marsit_collectives::engine::{
    allreduce_onebit, compile_plan, run_rank, EnginePlan, PlanTopology,
};
use marsit_collectives::{CombineCtx, SyncError, Trace};
use marsit_simnet::{
    spawn_child, ArgError, Backend, ChildArgs, FaultInjector, FaultPlan, FaultStats, Frame,
    FrameKind, HubEvent, ProcessTransport, WireHub, DRIVER,
};
use marsit_telemetry::health::{self, HealthEvent};
use marsit_telemetry::report::{merge_logs, parse_jsonl};
use marsit_telemetry::{Event, Telemetry};
use marsit_tensor::rng::{split_seed, FastRng};
use marsit_tensor::{fill_winner_planes_indexed, winner_plane_count, SignVec};

use crate::marsit::{chain_stream, stream_for, winner_slot};
use crate::ominus::{combine_unweighted_assign, combine_weighted_assign};
use crate::CombineKind;

/// The mode flag that makes a binary one rank of the process backend.
pub const WORKER_MODE: &str = "--transport-worker";

/// How long the driver waits for worker results / the worker waits for its
/// next control frame before declaring the session wedged.
const SESSION_TIMEOUT: Duration = Duration::from_secs(120);

/// The ctx-derived combine closure every backend runs on every rank: one hop
/// at a time, bit-identical — the planner equivalence invariant — to the
/// synchronizer's batched replay. Every stream is a pure function of the
/// context — the chain's id for a hop that carries a
/// [`ChainSlot`](marsit_collectives::ChainSlot), `(receiver, segment, step)`
/// otherwise — so per-rank execution order cannot perturb the draws. A
/// receiver re-derives its chain's winner planes for the segment it holds;
/// the chain's draws are counted once, at its first hop, as the synchronizer
/// counts them.
fn engine_combine<'a>(
    round_seed: u64,
    kind: CombineKind,
    combines: &'a mut u64,
    rng_draws: &'a mut u64,
) -> impl FnMut(&SignVec, &mut SignVec, CombineCtx) + 'a {
    let mut planes = Vec::new();
    move |recv: &SignVec, local: &mut SignVec, ctx: CombineCtx| {
        let drawn = if let Some(slot) = winner_slot(kind, &ctx) {
            let words = local.len().div_ceil(64);
            let mut rng = [FastRng::new(round_seed, chain_stream(&slot))];
            planes.resize(words * winner_plane_count(slot.len), 0);
            fill_winner_planes_indexed(slot.len, &mut rng, &mut planes, &[(0, words)]);
            SignVec::winner_combine_assign(recv, local, &planes, slot.len, slot.pos);
            if slot.pos == 1 {
                rng[0].draws()
            } else {
                0
            }
        } else {
            let mut rng = FastRng::new(round_seed, stream_for(&ctx));
            match kind {
                CombineKind::Weighted => combine_weighted_assign(
                    recv,
                    ctx.received_count,
                    local,
                    ctx.local_count,
                    &mut rng,
                ),
                CombineKind::UnweightedAblation => combine_unweighted_assign(recv, local, &mut rng),
            }
            rng.draws()
        };
        *combines += 1;
        *rng_draws += drawn;
    }
}

/// One fully-pinned conformance run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Collective paradigm.
    pub topo: PlanTopology,
    /// Number of ranks.
    pub world: usize,
    /// Sign-vector dimension.
    pub d: usize,
    /// Master seed: derives worker inputs, combine masks, and fault fates.
    pub seed: u64,
    /// Round index (selects the per-round mask seed and injector stream).
    pub round: u64,
    /// Per-transfer drop probability; `None` runs the clean schedule.
    pub drop_p: Option<f64>,
    /// The `⊙` flavour.
    pub combine: CombineKind,
}

/// Extra knobs for a traced multi-round process run
/// ([`Scenario::run_process_traced`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRunConfig {
    /// Rounds to drive through the hub.
    pub rounds: usize,
    /// Real per-round compute sleep at each worker, nanos (0 = none).
    pub compute_ns: u64,
    /// `(rank, multiplier)`: that rank sleeps `multiplier × compute_ns` per
    /// round — the injected ground truth the detector must recover.
    pub straggler: Option<(usize, f64)>,
    /// Whether workers trace hops and stream telemetry batches. When false
    /// the run is wire-identical to [`Scenario::run_process`] rounds.
    pub collect: bool,
}

/// One round, nothing traced: what [`Scenario::run_process`] runs.
const UNTRACED: TraceRunConfig = TraceRunConfig {
    rounds: 1,
    compute_ns: 0,
    straggler: None,
    collect: false,
};

impl Default for TraceRunConfig {
    fn default() -> Self {
        Self {
            collect: true,
            ..UNTRACED
        }
    }
}

/// What a traced process run produced.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The causally-ordered cross-rank trace (wall-clock fields included;
    /// strip with [`marsit_telemetry::report::strip_wall_clock`] before
    /// byte comparisons).
    pub merged: Vec<Event>,
    /// Health events the online detector raised, in round order.
    pub health: Vec<HealthEvent>,
    /// Observational health counters (stragglers / links / silent ranks).
    pub fault_stats: FaultStats,
    /// Exact bytes the tracing side channel added on the wire: telemetry
    /// frames plus per-frame trace-context segments. Zero when
    /// `collect == false`.
    pub side_channel_bytes: u64,
}

/// What a backend produced for a scenario; the conformance contract is that
/// every field except `trace` timings is byte-identical across backends
/// (and `trace` is too, since it comes from the same schedule walk).
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The consensus sign vector (identical on every rank).
    pub consensus: SignVec,
    /// Total `⊙` applications across all ranks.
    pub combines: u64,
    /// Total transient-mask RNG draws across all ranks.
    pub rng_draws: u64,
    /// The wire trace of the schedule.
    pub trace: Trace,
}

impl RunArtifacts {
    /// The packed consensus words (the cross-backend identity the
    /// conformance suite compares).
    #[must_use]
    pub fn consensus_words(&self) -> &[u64] {
        self.consensus.as_words()
    }
}

/// Tags the ambient telemetry scope (if any) with the backend identity, so
/// per-hop events record which transport produced them and which clock its
/// endpoints report.
fn tag_telemetry(backend: Backend) {
    if let Some(tel) = marsit_telemetry::active() {
        tel.set_transport_tag(backend.name(), backend.clock_kind());
    }
}

impl Scenario {
    /// Every rank's input sign vector: an independent per-rank RNG stream of
    /// the master seed, so driver and worker processes regenerate identical
    /// inputs without shipping payloads.
    #[must_use]
    pub fn inputs(&self) -> Vec<SignVec> {
        (0..self.world)
            .map(|w| {
                let mut rng = FastRng::new(self.seed, w as u64);
                SignVec::bernoulli_uniform(self.d, 0.5, &mut rng)
            })
            .collect()
    }

    /// The per-round mask seed (the same `split_seed` derivation the Marsit
    /// synchronizer uses).
    #[must_use]
    pub fn round_seed(&self) -> u64 {
        split_seed(self.seed, self.round)
    }

    /// A fresh injector for this scenario's round, or `None` when clean.
    #[must_use]
    pub fn injector(&self) -> Option<FaultInjector> {
        self.drop_p.map(|p| {
            FaultPlan::seeded(self.seed)
                .with_link_drop(p)
                .injector(self.round)
        })
    }

    /// Reference run: the in-process collective (the simulator backend),
    /// with the ctx-derived unbatched combine.
    ///
    /// # Errors
    ///
    /// Returns the collective's typed error for impossible shapes.
    pub fn run_simulator(&self) -> Result<RunArtifacts, SyncError> {
        tag_telemetry(Backend::Simulator);
        let (mut combines, mut rng_draws) = (0, 0);
        let combine = engine_combine(
            self.round_seed(),
            self.combine,
            &mut combines,
            &mut rng_draws,
        );
        let mut inj = self.injector().unwrap_or_else(FaultInjector::inert);
        let (consensus, trace) = allreduce_onebit(self.topo, &self.inputs(), &mut inj, combine)?;
        Ok(RunArtifacts {
            consensus,
            combines,
            rng_draws,
            trace,
        })
    }

    /// This round's plan: one bookkeeping walk of the schedule on this
    /// round's injector, which also yields the [`Trace`] (in the plan) and
    /// the per-hop telemetry of an engine-backed run — byte-identical to the
    /// simulator's, since it is the same walk minus the payload.
    fn plan(&self) -> Result<EnginePlan, SyncError> {
        compile_plan(self.topo, self.world, self.d, self.injector().as_mut())
    }

    /// Process backend: spawns one OS process per rank running `worker_exe`
    /// (a binary that hands its argv to [`process_worker_main`] when it
    /// starts with [`WORKER_MODE`]),
    /// drives one round through a [`WireHub`], and validates that every rank
    /// reported the same consensus words.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::PeerDisconnected`] if any worker failed or died
    /// mid-round.
    ///
    /// # Panics
    ///
    /// Panics on harness-level failures: the hub cannot bind, a worker
    /// cannot be spawned, or the session times out.
    pub fn run_process(&self, worker_exe: &str) -> Result<RunArtifacts, SyncError> {
        tag_telemetry(Backend::Process);
        let result = self.session(worker_exe, UNTRACED, |hub| drive_round(hub, self));
        let (consensus_words, combines, rng_draws) = result?;
        let mut consensus = SignVec::zeros(self.d);
        consensus.assign_from_words(self.d, &consensus_words);
        Ok(RunArtifacts {
            consensus,
            combines,
            rng_draws,
            trace: self.plan()?.trace,
        })
    }

    /// Traced process backend: like [`Self::run_process`], but drives
    /// `cfg.rounds` rounds with the trace collector enabled, merges every
    /// rank's streamed telemetry batches into one causally-ordered trace,
    /// and runs the online straggler detector over it.
    ///
    /// `cfg.compute_ns` makes each worker sleep that long per round before
    /// the collective ("compute"); `cfg.straggler` multiplies one rank's
    /// sleep, injecting a ground-truth straggler the detector must find.
    /// With `cfg.collect == false` workers trace nothing and the side
    /// channel stays at exactly zero bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::PeerDisconnected`] if any worker failed or died
    /// mid-round.
    ///
    /// # Panics
    ///
    /// Panics on harness-level failures: the hub cannot bind, a worker
    /// cannot be spawned, the session times out, or a worker streams a
    /// malformed telemetry batch.
    pub fn run_process_traced(
        &self,
        worker_exe: &str,
        cfg: TraceRunConfig,
    ) -> Result<TracedRun, SyncError> {
        let (side_channel_bytes, batches) = self.session(worker_exe, cfg, |hub| {
            for completed in 1..=cfg.rounds {
                drive_round(hub, self)?;
                if cfg.collect {
                    assert!(
                        hub.collector()
                            .wait_batches(self.world, completed, SESSION_TIMEOUT),
                        "trace collector timed out waiting for round {completed} batches"
                    );
                }
            }
            let collector = hub.collector();
            Ok((collector.side_channel_bytes(), collector.take_batches()))
        })?;
        let logs: Vec<Vec<Event>> = batches
            .iter()
            .map(|batches| parse_jsonl(&batches.concat()).expect("worker telemetry parses"))
            .collect();
        let merged = merge_logs(&logs);
        let samples = health::hop_samples(&merged);
        let health = health::detect(&samples);
        let mut fault_stats = FaultStats::default();
        for ev in &health {
            match ev {
                HealthEvent::StragglerSuspected { .. } => fault_stats.stragglers_suspected += 1,
                HealthEvent::LinkDegraded { .. } => fault_stats.links_degraded += 1,
                HealthEvent::RankSilent { .. } => fault_stats.ranks_silent += 1,
            }
            // Surface detections into the caller's telemetry stream, where
            // the same typed record feeds dashboards and `marsit_top`.
            if let Some(tel) = marsit_telemetry::active() {
                tel.emit("health", ev.fields());
            }
        }
        Ok(TracedRun {
            merged,
            health,
            fault_stats,
            side_channel_bytes,
        })
    }

    /// One session on a fresh hub: one worker process per rank (spawned
    /// with `cfg`), `drive`, then `stop` to every worker and reap them all.
    fn session<T>(
        &self,
        worker_exe: &str,
        cfg: TraceRunConfig,
        drive: impl FnOnce(&WireHub) -> T,
    ) -> T {
        let hub = WireHub::bind(self.world).expect("bind the process hub");
        let addr = hub.addr().expect("hub addr").to_string();
        let mut children: Vec<std::process::Child> = (0..self.world)
            .map(|rank| self.spawn_worker_traced(worker_exe, &addr, rank, cfg))
            .collect();
        for _ in 0..self.world {
            hub.accept_worker().expect("worker hello");
        }
        let out = drive(&hub);
        hub.broadcast(&Frame::control(FrameKind::Stop, DRIVER, DRIVER));
        for child in &mut children {
            let _ = child.wait();
        }
        out
    }

    /// [`Self::spawn_worker`] plus the tracing knobs of `cfg`: `--collect`,
    /// and `--compute-ns` with the straggler's multiplier already applied.
    ///
    /// # Panics
    ///
    /// Panics if the process cannot be spawned.
    #[must_use]
    pub fn spawn_worker_traced(
        &self,
        worker_exe: &str,
        addr: &str,
        rank: usize,
        cfg: TraceRunConfig,
    ) -> std::process::Child {
        let mut args = vec![
            ("rank", rank.to_string()),
            ("world", self.world.to_string()),
            ("topo", self.topo.encode()),
            ("d", self.d.to_string()),
            ("seed", self.seed.to_string()),
            ("round", self.round.to_string()),
            ("combine", combine_name(self.combine).to_string()),
        ];
        // f64 → hex bit pattern: exact round-trip, locale-proof.
        if let Some(p) = self.drop_p {
            args.push(("drop", format!("{:016x}", p.to_bits())));
        }
        if cfg.collect {
            args.push(("collect", "true".to_string()));
        }
        let compute_ns = match cfg.straggler {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some((slow, mult)) if slow == rank => (cfg.compute_ns as f64 * mult) as u64,
            _ => cfg.compute_ns,
        };
        if compute_ns > 0 {
            args.push(("compute-ns", compute_ns.to_string()));
        }
        spawn_child(worker_exe, WORKER_MODE, addr, &args).expect("spawn transport worker")
    }

    /// Spawns one worker process for `rank`, pointed at the hub.
    ///
    /// # Panics
    ///
    /// Panics if the process cannot be spawned.
    #[must_use]
    pub fn spawn_worker(&self, worker_exe: &str, addr: &str, rank: usize) -> std::process::Child {
        self.spawn_worker_traced(worker_exe, addr, rank, UNTRACED)
    }
}

fn combine_name(kind: CombineKind) -> &'static str {
    match kind {
        CombineKind::Weighted => "weighted",
        CombineKind::UnweightedAblation => "unweighted",
    }
}

/// What [`Scenario::spawn_worker_traced`] hands a worker.
struct WorkerArgs {
    addr: String,
    sc: Scenario,
    rank: usize,
    collect: bool,
    compute_ns: u64,
}

impl WorkerArgs {
    fn parse(argv: &[String]) -> Result<Self, ArgError> {
        let args = ChildArgs::parse(argv)?;
        let sc = Scenario {
            topo: args.get_with("topo", PlanTopology::decode)?,
            world: args.get("world")?,
            d: args.get("d")?,
            seed: args.get("seed")?,
            round: args.get("round")?,
            drop_p: args.opt_with("drop", |hex| {
                u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
            })?,
            combine: args.get_with("combine", |v| {
                [CombineKind::Weighted, CombineKind::UnweightedAblation]
                    .into_iter()
                    .find(|&kind| combine_name(kind) == v)
            })?,
        };
        Ok(Self {
            addr: args.addr().to_string(),
            rank: args.get_with("rank", |v| v.parse().ok().filter(|&r| r < sc.world))?,
            sc,
            collect: args
                .opt_with("collect", |v| v.parse().ok())?
                .unwrap_or(false),
            compute_ns: args
                .opt_with("compute-ns", |v| v.parse().ok())?
                .unwrap_or(0),
        })
    }
}

/// Broadcasts one `round` and collects every rank's `result`/`failed`.
/// Returns rank 0's consensus words plus the summed `⊙`/RNG-draw counters.
///
/// Public so fault harnesses (the conformance suite's kill test) can drive the
/// kill → degrade → rejoin choreography round by round on a hub they manage
/// themselves; [`Scenario::run_process`] wraps it for the one-shot case.
///
/// # Errors
///
/// Returns [`SyncError::PeerDisconnected`] if any worker reported a failed
/// collective or died mid-round.
///
/// # Panics
///
/// Panics if the session times out, a result frame is malformed, or ranks
/// disagree on the consensus words (harness-level failures, not faults).
pub fn drive_round(hub: &WireHub, sc: &Scenario) -> Result<(Vec<u64>, u64, u64), SyncError> {
    hub.broadcast(&Frame::control(FrameKind::Round, DRIVER, DRIVER));
    let mut consensus: Vec<Option<Vec<u64>>> = vec![None; sc.world];
    let mut combines = 0u64;
    let mut rng_draws = 0u64;
    let mut failure: Option<SyncError> = None;
    let mut responded = vec![false; sc.world];
    while responded.iter().any(|r| !r) {
        match hub.next_event_timeout(SESSION_TIMEOUT) {
            Some(HubEvent::Frame(frame)) => {
                let rank = frame.from as usize;
                match frame.kind {
                    FrameKind::Result => {
                        let mut words = match frame.payload {
                            marsit_simnet::Payload::Words(w) => w,
                            _ => panic!("result frame without words"),
                        };
                        assert!(words.len() >= 2, "result payload too short");
                        combines += words[0];
                        rng_draws += words[1];
                        let body = words.split_off(2);
                        consensus[rank] = Some(body);
                        responded[rank] = true;
                    }
                    FrameKind::Failed => {
                        let peer = match &frame.payload {
                            marsit_simnet::Payload::Words(w) if !w.is_empty() => w[0] as usize,
                            _ => usize::MAX,
                        };
                        failure.get_or_insert(SyncError::PeerDisconnected { peer });
                        responded[rank] = true;
                    }
                    _ => {}
                }
            }
            Some(HubEvent::Disconnected(rank)) => {
                failure.get_or_insert(SyncError::PeerDisconnected { peer: rank });
                responded[rank] = true;
            }
            None => panic!("conformance session timed out waiting for results"),
        }
    }
    if let Some(err) = failure {
        return Err(err);
    }
    let first = consensus[0].clone().expect("rank 0 responded");
    for (rank, words) in consensus.iter().enumerate() {
        assert_eq!(
            words.as_ref().expect("rank responded"),
            &first,
            "rank {rank} disagrees with rank 0's consensus words"
        );
    }
    Ok((first, combines, rng_draws))
}

/// Worker entry point: `argv` is what follows [`WORKER_MODE`] on the
/// command line. Connects to the hub it names and serves `round` frames
/// until `stop`. The scenario is fixed for the session, so its inputs and
/// plan are built once, locally (deterministic, so all ranks agree on them
/// without any coordination); each round runs this rank's slice of the plan
/// over the TCP transport.
///
/// A vanished peer surfaces as a `failed` frame to the driver — the worker
/// stays up and serves the next round, where a rejoined peer (announced by
/// the hub's `hello`) is usable again.
///
/// Returns the process exit code: 0 after `stop`, 2 for arguments it
/// refuses (before any connect), 1 when the hub connection fails or drops
/// or the collective fails for a reason other than a vanished peer.
#[must_use]
pub fn process_worker_main(argv: &[String]) -> i32 {
    let (code, outcome) = match WorkerArgs::parse(argv) {
        Ok(worker) => (1, serve_rounds(worker)),
        Err(e) => (2, Err(e.into())),
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("transport worker: {e}");
            code
        }
    }
}

fn serve_rounds(worker: WorkerArgs) -> Result<(), Box<dyn std::error::Error>> {
    let WorkerArgs {
        addr,
        sc,
        rank,
        collect,
        compute_ns,
    } = worker;
    let mut transport = ProcessTransport::connect(&addr, rank, sc.world)?;
    // After the connect: a scenario without a plan ends this connection,
    // which the driver reads as this rank's death instead of waiting for it.
    let plan = sc.plan()?;
    let telemetry = collect.then(|| {
        let t = Telemetry::recording();
        t.set_wall_clock(true);
        t.set_transport_tag(Backend::Process.name(), Backend::Process.clock_kind());
        t.set_time(0.0);
        // Every rank emits the identical run_meta; the merge keeps one.
        t.emit(
            "run_meta",
            vec![
                ("schema", "marsit-telemetry/1".into()),
                ("seed", sc.seed.into()),
                ("strategy", "process_trace".into()),
                ("topology", sc.topo.encode().into()),
                ("workers", sc.world.into()),
                ("d", sc.d.into()),
            ],
        );
        transport.set_tracing(true);
        t
    });
    let input = sc.inputs().swap_remove(rank);
    let mut round_idx: u64 = 0;
    loop {
        let frame = transport.recv_control()?;
        match frame.kind {
            FrameKind::Stop => return Ok(()),
            FrameKind::Round => {
                transport.reset_round();
                transport.set_trace_round(round_idx);
                round_idx += 1;
                if compute_ns > 0 {
                    // Real compute: the wall-clock cost the trace observes.
                    std::thread::sleep(Duration::from_nanos(compute_ns));
                }
                let (mut combines, mut draws) = (0, 0);
                let combine =
                    engine_combine(sc.round_seed(), sc.combine, &mut combines, &mut draws);
                let outcome = match &telemetry {
                    Some(t) => marsit_telemetry::scoped(t, || {
                        run_rank(&plan, &input, &mut transport, combine)
                    }),
                    None => run_rank(&plan, &input, &mut transport, combine),
                };
                let reply = match outcome {
                    Ok(state) => {
                        let mut words = vec![combines, draws];
                        words.extend_from_slice(state.as_words());
                        Frame::words(FrameKind::Result, rank as u32, DRIVER, words)
                    }
                    Err(SyncError::PeerDisconnected { peer }) => {
                        Frame::words(FrameKind::Failed, rank as u32, DRIVER, vec![peer as u64])
                    }
                    Err(e) => return Err(format!("collective failed: {e}").into()),
                };
                transport.send_frame(&reply)?;
                if let Some(t) = &telemetry {
                    // One flush point per round, even when the round recorded
                    // nothing: the collector synchronizes on batch count.
                    transport.send_telemetry(&t.drain_events_jsonl())?;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that files its `result` under another rank's `from` — out of
    /// range or not — is dropped by the hub, and the driver gets the typed
    /// error naming the connection that lied instead of indexing its
    /// per-rank state with a number a worker chose.
    #[test]
    fn drive_round_survives_a_worker_lying_about_its_rank() {
        let sc = Scenario {
            topo: PlanTopology::Ring,
            world: 2,
            d: 64,
            seed: 1,
            round: 0,
            drop_p: None,
            combine: CombineKind::Weighted,
        };
        for claimed in [9, 1] {
            let hub = WireHub::bind(sc.world).unwrap();
            let addr = hub.addr().unwrap().to_string();
            let mut liar = ProcessTransport::connect(&addr, 0, 2).unwrap();
            let mut honest = ProcessTransport::connect(&addr, 1, 2).unwrap();
            hub.accept_worker().unwrap();
            hub.accept_worker().unwrap();
            let result = |from| Frame::words(FrameKind::Result, from, DRIVER, vec![0, 0, 5]);
            liar.send_frame(&result(claimed)).unwrap();
            honest.send_frame(&result(1)).unwrap();
            assert_eq!(
                drive_round(&hub, &sc),
                Err(SyncError::PeerDisconnected { peer: 0 }),
                "rank 0 claiming to be {claimed}"
            );
        }
    }

    /// The planner equivalence invariant: the synchronizer's batched replay
    /// (chain planes drawn once at the first hop, fallback masks per step)
    /// and this module's hop-at-a-time closure agree on the consensus, the
    /// `⊙` count and the attributed draws — clean, and under drops that take
    /// hops off their chains' canonical prefix.
    #[test]
    fn synchronizer_matches_the_hop_at_a_time_closure() {
        use marsit_simnet::Topology;

        use crate::{Marsit, MarsitConfig, SyncSchedule};

        let (seed, d) = (0xFEED, 1031);
        for (topology, topo) in [
            (Topology::ring(8), PlanTopology::Ring),
            (Topology::ring(7), PlanTopology::Ring),
            (
                Topology::torus(2, 4),
                PlanTopology::Torus { rows: 2, cols: 4 },
            ),
            (
                Topology::torus(3, 3),
                PlanTopology::Torus { rows: 3, cols: 3 },
            ),
        ] {
            for drop_p in [0.0, 0.25] {
                let label = format!("{topology:?} drop={drop_p}");
                let m = topology.workers();
                let plan = FaultPlan::seeded(seed)
                    .with_link_drop(drop_p)
                    .with_retry_policy(1, 1e-4);
                let updates: Vec<Vec<f32>> = (0..m)
                    .map(|w| {
                        let mut rng = FastRng::new(seed, w as u64);
                        (0..d).map(|_| rng.next_f64() as f32 - 0.5).collect()
                    })
                    .collect();
                let cfg = MarsitConfig::new(SyncSchedule::never(), 1.0, seed)
                    .with_fault_plan(plan.clone());
                let tel = Telemetry::recording();
                let mut sync = Marsit::new(cfg, m, d);
                let out = marsit_telemetry::scoped(&tel, || sync.synchronize(&updates, topology));

                let signs: Vec<SignVec> = updates.iter().map(|u| SignVec::from_signs(u)).collect();
                let (mut combines, mut draws) = (0, 0);
                let combine = engine_combine(
                    split_seed(seed, 0),
                    CombineKind::Weighted,
                    &mut combines,
                    &mut draws,
                );
                let (consensus, _) =
                    allreduce_onebit(topo, &signs, &mut plan.injector(0), combine).unwrap();
                assert_eq!(
                    SignVec::from_signs(&out.global_update),
                    consensus,
                    "{label}: consensus"
                );
                assert_eq!(
                    tel.counter("marsit.combines"),
                    combines,
                    "{label}: combines"
                );
                assert_eq!(tel.counter("marsit.rng_draws"), draws, "{label}: draws");
                assert_eq!(drop_p > 0.0, out.faults.dropped_transfers > 0, "{label}");
            }
        }
    }
}
