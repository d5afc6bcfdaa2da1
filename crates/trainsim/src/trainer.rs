//! The distributed-training simulator: cluster, training loop, and reports.
//!
//! [`train`] runs the full pipeline of the paper's experiments: an IID-
//! sharded synthetic dataset, `M` workers computing true stochastic
//! gradients on one consensus model, a local optimizer per worker, and one
//! of the six synchronization strategies. Per round it records loss, sign
//! matching rate, simulated phase times, and exact wire-bit accounting —
//! everything Figures 1, 3, 4, 5 and Tables 1–2 read out.

use marsit_datagen::synthetic::{cifar10_like, imagenet_like, imdb_like, mnist_like};
use marsit_datagen::Dataset;
use marsit_models::{Evaluation, Mlp, MlpWorkspace, Optimizer, OptimizerKind, Workload};
use marsit_simnet::{cost, FaultPlan, FaultStats, PhaseBreakdown, RateProfile, Topology};
use marsit_telemetry::{scoped, Telemetry};
use marsit_tensor::rng::{split_seed, FastRng};
use marsit_tensor::SignVec;

use crate::snapshot::TrainSnapshot;
use crate::strategy::{StrategyKind, SyncResult, Synchronizer};
use crate::timing::TimingModel;

/// Configuration of one training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Which paper workload (model/dataset pair) to train.
    pub workload: Workload,
    /// Cluster topology.
    pub topology: Topology,
    /// Synchronization strategy.
    pub strategy: StrategyKind,
    /// Number of synchronization rounds `T`.
    pub rounds: usize,
    /// Training-set size (split IID across workers).
    pub train_examples: usize,
    /// Held-out test-set size.
    pub test_examples: usize,
    /// Per-worker minibatch size.
    pub batch_per_worker: usize,
    /// Local learning rate `η_l`.
    pub local_lr: f32,
    /// Marsit's global learning rate `η_s`.
    pub marsit_global_lr: f32,
    /// Local optimizer (the paper uses Momentum for vision, Adam for NLP).
    pub optimizer: OptimizerKind,
    /// Master seed.
    pub seed: u64,
    /// Evaluate on the test set every this many rounds (0 = final only).
    pub eval_every: usize,
    /// Hardware rates for the simulated clock.
    pub rates: RateProfile,
    /// Marsit receive/compression overlap (disable for the ablation).
    pub overlap: bool,
    /// Multiply `η_l` by this factor at every full-precision round (the
    /// paper decays by 0.1 at full-precision synchronizations).
    pub lr_decay_on_full_precision: Option<f32>,
    /// Label-skewed (non-IID) sharding with this Dirichlet `alpha`;
    /// `None` keeps the paper's IID assumption. Used to probe the
    /// compensation mechanism's IID justification (Section 4.1.3).
    pub data_skew: Option<f64>,
    /// Deterministic fault plan (link drops/corruption, stragglers, a
    /// scheduled crash). [`FaultPlan::none`] — the default — leaves the
    /// run byte-identical to a build without the fault layer. Only the
    /// Marsit strategy supports an active plan.
    pub fault_plan: FaultPlan,
    /// Run the per-worker gradient-compute phase on one OS thread per
    /// worker. Bit-identical to the sequential path: the workers read the
    /// one consensus model, every worker owns its optimizer and
    /// `split_seed`-derived RNG stream, and the results are reduced in
    /// worker order on the main thread, so the resulting [`TrainReport`] is
    /// byte-for-byte the same either way.
    pub parallel_workers: bool,
    /// Telemetry handle. The default ([`Telemetry::disabled`]) records
    /// nothing and adds no per-round work; an enabled handle receives a
    /// `run_meta` event, per-round `round`/`worker`/`marsit_sync` events,
    /// per-hop wire events from the collectives, and phase/matching-rate
    /// histograms — all stamped with the simulated clock.
    pub telemetry: Telemetry,
}

impl TrainConfig {
    /// A sensible default configuration for `workload` on `topology` with
    /// `strategy`; tune fields directly afterwards.
    #[must_use]
    pub fn new(workload: Workload, topology: Topology, strategy: StrategyKind) -> Self {
        Self {
            workload,
            topology,
            strategy,
            rounds: 300,
            train_examples: 8192,
            test_examples: 1024,
            batch_per_worker: 32,
            local_lr: 0.01,
            marsit_global_lr: 0.002,
            optimizer: OptimizerKind::Momentum(0.9),
            seed: 42,
            eval_every: 25,
            rates: RateProfile::public_cloud(),
            overlap: true,
            lr_decay_on_full_precision: None,
            data_skew: None,
            fault_plan: FaultPlan::none(),
            parallel_workers: true,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Generates the `(train, test)` datasets for the workload.
    #[must_use]
    pub fn datasets(&self) -> (Dataset, Dataset) {
        let seed = split_seed(self.seed, 0xDA7A);
        match self.workload {
            Workload::AlexNetMnist => {
                mnist_like().generate_split(self.train_examples, self.test_examples, seed)
            }
            Workload::AlexNetCifar10 | Workload::ResNet20Cifar10 => {
                cifar10_like().generate_split(self.train_examples, self.test_examples, seed)
            }
            Workload::ResNet18ImageNet | Workload::ResNet50ImageNet => {
                imagenet_like().generate_split(self.train_examples, self.test_examples, seed)
            }
            Workload::DistilBertImdb => {
                imdb_like().generate_split(self.train_examples, self.test_examples, seed)
            }
        }
    }
}

/// Everything recorded about one synchronization round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index `t`.
    pub round: usize,
    /// Mean training loss across workers' minibatches.
    pub train_loss: f64,
    /// ‖mean of raw worker gradients‖² before the optimizer and learning
    /// rate — the quantity Theorem 1 bounds.
    pub mean_grad_norm_sq: f64,
    /// Fraction of coordinates where the applied update's sign matches the
    /// exact mean update's sign (Fig 1b's matching rate).
    pub matching_rate: f64,
    /// Whether the round synchronized in full precision.
    pub full_precision: bool,
    /// Simulated phase times for this round.
    pub time: PhaseBreakdown,
    /// Average wire width in bits per transmitted element this round
    /// (32 for fp32 payloads, 1 for strictly one-bit payloads).
    pub wire_bits_per_element: f64,
    /// Cumulative per-worker traffic in megabits since round 0.
    pub cumulative_megabits_per_worker: f64,
    /// Test evaluation, when scheduled.
    pub eval: Option<Evaluation>,
}

/// Result of a full training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Display label of the strategy.
    pub strategy_label: String,
    /// Per-round records.
    pub records: Vec<RoundRecord>,
    /// Final test evaluation.
    pub final_eval: Evaluation,
    /// Total simulated time.
    pub total_time: PhaseBreakdown,
    /// Total bytes moved by the collective (all links).
    pub total_bytes: usize,
    /// Traffic-weighted average wire bits per element over the run.
    pub avg_wire_bits_per_element: f64,
    /// Whether training diverged: a non-finite loss or raw gradient was
    /// observed. (The loss alone can stay finite over NaN parameters: the
    /// cross-entropy clamps the probability it takes the log of.)
    pub diverged: bool,
    /// Aggregate fault-layer activity over the run (all-zero when the
    /// fault plan is [`FaultPlan::none`]).
    pub faults: FaultStats,
}

impl TrainReport {
    /// Best test accuracy observed at any evaluation point.
    #[must_use]
    pub fn best_accuracy(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| r.eval.map(|e| e.accuracy))
            .fold(self.final_eval.accuracy, f64::max)
    }

    /// Simulated time elapsed at the *end* of each round — one cumulative
    /// pass over the records that both `*_to_accuracy` helpers derive from.
    #[must_use]
    pub fn cumulative_time(&self) -> Vec<f64> {
        self.records
            .iter()
            .scan(0.0, |elapsed, r| {
                *elapsed += r.time.total();
                Some(*elapsed)
            })
            .collect()
    }

    /// Index of the first record whose evaluation reached `target` accuracy.
    fn first_record_reaching(&self, target: f64) -> Option<usize> {
        self.records
            .iter()
            .position(|r| r.eval.is_some_and(|e| e.accuracy >= target))
    }

    /// First round whose evaluation reached `target` accuracy.
    #[must_use]
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        self.first_record_reaching(target)
            .map(|i| self.records[i].round)
    }

    /// Simulated time at which `target` accuracy was first reached.
    #[must_use]
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        let i = self.first_record_reaching(target)?;
        Some(self.cumulative_time()[i])
    }

    /// Minimum `‖∇F‖²` proxy observed over the run — the left-hand side of
    /// Theorem 1's bound.
    #[must_use]
    pub fn min_grad_norm_sq(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.mean_grad_norm_sq)
            .fold(f64::INFINITY, f64::min)
    }

    /// `(cumulative megabits/worker, accuracy)` series for the
    /// communication-budget plot (Fig 4b).
    #[must_use]
    pub fn accuracy_vs_megabits(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .filter_map(|r| {
                r.eval
                    .map(|e| (r.cumulative_megabits_per_worker, e.accuracy))
            })
            .collect()
    }
}

/// Elements transferred per synchronization round under `topology` on a
/// `d`-dimensional payload — the denominator of the wire-width metric.
#[must_use]
pub fn elements_per_round(topology: Topology, d: usize) -> usize {
    match topology {
        Topology::Ring { workers: m } => 2 * (m - 1) * d,
        Topology::Torus { rows, cols } => 2 * (cols - 1) * rows * d + 2 * (rows - 1) * d,
        Topology::Star { workers: m } => 2 * m * d,
    }
}

/// Runs one full training experiment.
///
/// Thin wrapper over [`TrainerState`]: builds the state, steps every round,
/// and finalizes the report. Interruptible runs drive [`TrainerState`]
/// directly and checkpoint with [`TrainerState::snapshot`].
///
/// # Panics
///
/// Panics on inconsistent configuration (topology vs worker counts,
/// zero-sized datasets).
#[must_use]
pub fn train(cfg: &TrainConfig) -> TrainReport {
    let mut state = TrainerState::new(cfg);
    while !state.is_done() {
        state.step();
    }
    state.finish()
}

/// A resumable training run: the full mutable state of [`train`], stepped
/// one synchronization round at a time.
///
/// Everything derivable from the [`TrainConfig`] (datasets, shards, the
/// timing model) is rebuilt on construction; everything that evolves
/// (the model, optimizer/synchronizer state, RNG streams, accumulators,
/// round records) lives here and is captured by [`TrainerState::snapshot`].
/// A run restored from a snapshot continues **bit-identically** to one that
/// never stopped — same outcome words, same records, same telemetry events
/// (the restored run emits no fresh `run_meta`, so an uninterrupted event
/// log equals the prefix + resumed concatenation).
///
/// Every worker receives the same aggregate from the all-reduce and applies
/// it (Algorithm 2, line 6: `x_{t+1} = x_t − g_t`), so the state holds
/// **one** model beside `M` optimizers and RNG streams, and applies the
/// consensus update to it once per round.
pub struct TrainerState {
    cfg: TrainConfig,
    shards: Vec<Dataset>,
    test_set: Dataset,
    d: usize,
    model: Mlp,
    optimizers: Vec<Box<dyn Optimizer>>,
    worker_rngs: Vec<FastRng>,
    sync: Synchronizer,
    timing: TimingModel,
    elements_round: usize,
    round: usize,
    lr: f32,
    records: Vec<RoundRecord>,
    total_time: PhaseBreakdown,
    total_bytes: usize,
    cumulative_bits_per_worker: f64,
    total_elements: usize,
    diverged: bool,
    run_faults: FaultStats,
    scratch: StepScratch,
}

/// Round-to-round scratch of [`TrainerState::step`]: every model-sized buffer
/// a round needs, owned here and overwritten each round, so a steady-state
/// round allocates none of them. Nothing in it is run state — a restored run
/// starts from an empty one.
#[derive(Default)]
struct StepScratch {
    /// Forward/backward scratch: one shared by all workers on the sequential
    /// path, one per worker thread with `parallel_workers`.
    workspaces: Vec<MlpWorkspace>,
    /// Sampled minibatches, laid out like `workspaces`.
    batches: Vec<Dataset>,
    /// Raw stochastic gradients (before the optimizer), laid out like
    /// `workspaces`.
    raw_grads: Vec<Vec<f32>>,
    /// Every worker's `η_l`-scaled update direction, the synchronizer's input.
    local_updates: Vec<Vec<f32>>,
    /// Per-worker minibatch losses.
    losses: Vec<f64>,
    raw_grad_mean: Vec<f64>,
    exact_mean: Vec<f32>,
    /// The synchronizer's recycled result.
    sync: SyncResult,
    /// Packed signs of the applied update and of its reference mean.
    applied_signs: SignVec,
    reference_signs: SignVec,
    /// Every worker's RNG draw count before the round (recorded runs only):
    /// the per-worker `rng_draws` telemetry field is the difference.
    draws_before: Vec<u64>,
}

impl TrainerState {
    /// Builds the run state for round 0 and emits the `run_meta` telemetry
    /// event.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (see [`train`]).
    #[must_use]
    pub fn new(cfg: &TrainConfig) -> Self {
        let state = Self::build(cfg, None);
        let tel = &state.cfg.telemetry;
        if tel.is_enabled() {
            tel.set_time(0.0);
            tel.emit(
                "run_meta",
                vec![
                    ("schema", "marsit-telemetry/1".into()),
                    ("seed", cfg.seed.into()),
                    ("strategy", cfg.strategy.label().into()),
                    ("topology", format!("{:?}", cfg.topology).into()),
                    ("workers", state.optimizers.len().into()),
                    ("d", state.d.into()),
                    ("rounds", cfg.rounds.into()),
                    ("alpha_s", cfg.rates.link.latency_s().into()),
                    (
                        "beta_bytes_per_s",
                        cfg.rates.link.bandwidth_bytes_per_s().into(),
                    ),
                ],
            );
        }
        state
    }

    /// Everything deterministically derivable from the configuration, with
    /// zeroed run-state accumulators. Shared by [`TrainerState::new`] and
    /// [`TrainerState::restore`]: the model starts from `params` when given,
    /// else from the He initialization (whose RNG stream feeds nothing else,
    /// so skipping it changes no other draw).
    fn build(cfg: &TrainConfig, params: Option<Vec<f32>>) -> Self {
        let m = cfg.topology.workers();
        assert!(m >= 2, "need at least 2 workers");
        let (train_set, test_set) = cfg.datasets();
        let shard_seed = split_seed(cfg.seed, 0x5A4D);
        let shards = match cfg.data_skew {
            Some(alpha) => train_set.shard_dirichlet(m, alpha, shard_seed),
            None => train_set.shard_iid(m, shard_seed),
        };
        let spec = cfg.workload.proxy_spec();
        let d = spec.num_params();

        let model = match params {
            Some(params) => Mlp::from_params(spec, params),
            None => Mlp::new(spec, split_seed(cfg.seed, 0x30DE)),
        };
        let optimizers: Vec<Box<dyn Optimizer>> = (0..m).map(|_| cfg.optimizer.build()).collect();
        let worker_rngs: Vec<FastRng> = (0..m)
            .map(|w| FastRng::new(split_seed(cfg.seed, a_seed(w)), 1))
            .collect();
        let mut sync = cfg.strategy.build(
            m,
            d,
            cfg.local_lr,
            cfg.marsit_global_lr,
            split_seed(cfg.seed, 0x57A7),
        );
        sync.set_fault_plan(cfg.fault_plan.clone());
        let timing = TimingModel {
            rates: cfg.rates,
            logical_d: cfg.workload.logical_params(),
            topology: cfg.topology,
            flops_per_sample: cfg.workload.flops_per_sample(),
            batch_per_worker: cfg.batch_per_worker,
            overlap: cfg.overlap,
        };

        Self {
            shards,
            test_set,
            d,
            model,
            optimizers,
            worker_rngs,
            sync,
            timing,
            elements_round: elements_per_round(cfg.topology, d),
            round: 0,
            lr: cfg.local_lr,
            records: Vec::with_capacity(cfg.rounds),
            total_time: PhaseBreakdown::zero(),
            total_bytes: 0,
            cumulative_bits_per_worker: 0.0,
            total_elements: 0,
            diverged: false,
            run_faults: FaultStats::default(),
            scratch: StepScratch::default(),
            cfg: cfg.clone(),
        }
    }

    /// The next round index to run (also: rounds completed so far).
    #[must_use]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether every configured round has run.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.round >= self.cfg.rounds
    }

    /// Per-round records completed so far.
    #[must_use]
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Model dimension `d` (the workspace-pool key component).
    #[must_use]
    pub fn model_dim(&self) -> usize {
        self.d
    }

    /// Detaches the synchronizer's round workspace for pooling; `None` for
    /// strategies without poolable scratch. Preemption-safe at any round
    /// boundary and never changes an output bit — see
    /// [`marsit_core::WorkspaceHandle`].
    #[must_use]
    pub fn release_workspace(&mut self) -> Option<marsit_core::WorkspaceHandle> {
        self.sync.release_workspace()
    }

    /// Installs a pooled round workspace (a no-op for strategies without
    /// poolable scratch). Bit-exactness is unaffected whatever the handle
    /// previously served.
    pub fn adopt_workspace(&mut self, handle: marsit_core::WorkspaceHandle) {
        self.sync.adopt_workspace(handle);
    }

    /// Always `true`: the state holds one consensus model, so there are no
    /// replicas to disagree. Kept only because `benchmark/src/train.rs`
    /// still calls it; delete it together with that call.
    #[must_use]
    pub fn replicas_consistent(&self) -> bool {
        true
    }

    /// Runs one synchronization round.
    ///
    /// # Panics
    ///
    /// Panics if the run is already done.
    pub fn step(&mut self) {
        assert!(!self.is_done(), "all configured rounds have run");
        let cfg = &self.cfg;
        let m = self.optimizers.len();
        let d = self.d;
        let t = self.round;
        let lr = self.lr;
        let tel = &cfg.telemetry;
        // Telemetry rides the simulated clock: every event this round is
        // stamped with the time elapsed before the round started.
        tel.set_time(self.total_time.total());
        let scratch = &mut self.scratch;
        if tel.is_enabled() {
            scratch.draws_before.clear();
            scratch
                .draws_before
                .extend(self.worker_rngs.iter().map(FastRng::draws));
        }
        // Local computation: every worker reads the shared model and touches
        // only its own optimizer and RNG stream, so the phase parallelizes
        // without any cross-worker synchronization. Reduction stays on the
        // main thread in worker order, keeping both paths bit-identical.
        let batch_per_worker = cfg.batch_per_worker;
        let parallel = cfg.parallel_workers && m > 1;
        let lanes = if parallel { m } else { 1 };
        scratch.workspaces.resize_with(lanes, MlpWorkspace::default);
        scratch
            .batches
            .resize_with(lanes, || self.shards[0].select(&[]));
        scratch.raw_grads.resize_with(lanes, || vec![0.0; d]);
        scratch.local_updates.resize_with(m, || vec![0.0; d]);
        scratch.losses.resize(m, 0.0);
        scratch.raw_grad_mean.clear();
        scratch.raw_grad_mean.resize(d, 0.0);
        let model = &self.model;
        if parallel {
            std::thread::scope(|scope| {
                for (((((((loss, opt), rng), shard), ws), batch), raw_grad), update) in scratch
                    .losses
                    .iter_mut()
                    .zip(&mut self.optimizers)
                    .zip(&mut self.worker_rngs)
                    .zip(&self.shards)
                    .zip(&mut scratch.workspaces)
                    .zip(&mut scratch.batches)
                    .zip(&mut scratch.raw_grads)
                    .zip(&mut scratch.local_updates)
                {
                    scope.spawn(move || {
                        *loss = worker_step(
                            model,
                            opt.as_mut(),
                            rng,
                            shard,
                            batch_per_worker,
                            lr,
                            ws,
                            batch,
                            raw_grad,
                            update,
                        );
                    });
                }
            });
            for raw_grad in &scratch.raw_grads {
                accumulate_mean(&mut scratch.raw_grad_mean, raw_grad, m);
            }
        } else {
            for w in 0..m {
                scratch.losses[w] = worker_step(
                    model,
                    self.optimizers[w].as_mut(),
                    &mut self.worker_rngs[w],
                    &self.shards[w],
                    batch_per_worker,
                    lr,
                    &mut scratch.workspaces[0],
                    &mut scratch.batches[0],
                    &mut scratch.raw_grads[0],
                    &mut scratch.local_updates[w],
                );
                accumulate_mean(&mut scratch.raw_grad_mean, &scratch.raw_grads[0], m);
            }
        }
        let loss_sum: f64 = scratch.losses.iter().fold(0.0, |sum, &loss| sum + loss);
        let mean_grad_norm_sq: f64 = scratch.raw_grad_mean.iter().map(|&g| g * g).sum();
        let train_loss = loss_sum / m as f64;
        if !train_loss.is_finite() || !mean_grad_norm_sq.is_finite() {
            self.diverged = true;
        }

        // Synchronize, with the telemetry scope installed so the collectives
        // and the Marsit core report per-hop and per-sync events.
        let out = &mut scratch.sync;
        let local_updates = &scratch.local_updates;
        scoped(tel, || {
            self.sync.synchronize_into(local_updates, cfg.topology, out);
        });
        // Matching rate against what the strategy actually aggregated
        // (compensated updates for Marsit, raw updates otherwise — their
        // exact mean is free in-process).
        let reference = match &out.reference_mean {
            Some(mean) => mean,
            None => {
                let exact_mean = &mut scratch.exact_mean;
                exact_mean.clear();
                exact_mean.resize(d, 0.0);
                for u in local_updates {
                    for (e, &x) in exact_mean.iter_mut().zip(u) {
                        *e += x / m as f32;
                    }
                }
                exact_mean
            }
        };
        scratch.applied_signs.assign_from_signs(&out.global_update);
        scratch.reference_signs.assign_from_signs(reference);
        let matching_rate = scratch
            .applied_signs
            .matching_rate(&scratch.reference_signs);

        self.model.apply_update(&out.global_update);
        if out.full_precision {
            if let Some(decay) = cfg.lr_decay_on_full_precision {
                if t > 0 {
                    self.lr *= decay;
                }
            }
        }

        // Accounting. An active fault plan stretches the simulated clock:
        // stragglers multiply this round's compute, every retransmit pays a
        // timeout plus one extra α–β transfer of its payload, and every
        // rejoining worker pays a full-precision catch-up state transfer.
        let mut time = self.timing.round_time(cfg.strategy, out.full_precision);
        let base_compute_s = time.compute_s;
        let mut round_faults = out.faults;
        if !cfg.fault_plan.is_none() {
            time.compute_s *= cfg.fault_plan.compute_multiplier(t as u64);
            if round_faults.retransmits > 0 {
                let payload = retry_payload_bytes(self.timing.logical_d, m, out.full_precision);
                round_faults.retry_extra_s = cost::retry_overhead_time(
                    cfg.rates.link,
                    payload,
                    round_faults.retransmits,
                    cfg.fault_plan.retry_timeout_s,
                );
                time.communication_s += round_faults.retry_extra_s;
            }
            if round_faults.rejoins > 0 {
                round_faults.catchup_extra_s = round_faults.rejoins as f64
                    * cfg.rates.link.transfer_time(self.timing.logical_d * 4);
                time.communication_s += round_faults.catchup_extra_s;
            }
            self.run_faults.merge(&round_faults);
        }
        self.total_time += time;
        let round_bytes = out.trace.total_bytes();
        self.total_bytes += round_bytes;
        self.total_elements += self.elements_round;
        self.cumulative_bits_per_worker += round_bytes as f64 * 8.0 / m as f64;
        let wire_bits_per_element = round_bytes as f64 * 8.0 / self.elements_round as f64;

        let eval = if (cfg.eval_every > 0 && (t + 1).is_multiple_of(cfg.eval_every))
            || t + 1 == cfg.rounds
        {
            Some(self.model.evaluate(&self.test_set))
        } else {
            None
        };
        self.records.push(RoundRecord {
            round: t,
            train_loss,
            mean_grad_norm_sq,
            matching_rate,
            full_precision: out.full_precision,
            time,
            wire_bits_per_element,
            cumulative_megabits_per_worker: self.cumulative_bits_per_worker / 1e6,
            eval,
        });

        if tel.is_enabled() {
            for (w, &before) in scratch.draws_before.iter().enumerate() {
                let straggler_mult = cfg
                    .fault_plan
                    .stragglers
                    .iter()
                    .filter(|&&(ww, _)| ww == w)
                    .map(|&(_, f)| f)
                    .fold(1.0, f64::max);
                let worker_compute_s = base_compute_s * straggler_mult;
                tel.observe("train.worker_compute_s", worker_compute_s);
                tel.emit(
                    "worker",
                    [
                        ("round", t.into()),
                        ("worker", w.into()),
                        ("compute_s", worker_compute_s.into()),
                        ("straggler_mult", straggler_mult.into()),
                        ("rng_draws", (self.worker_rngs[w].draws() - before).into()),
                        ("crashed", (!cfg.fault_plan.live_at(w, t as u64)).into()),
                    ],
                );
            }
            tel.emit(
                "round",
                [
                    ("round", t.into()),
                    ("full_precision", out.full_precision.into()),
                    ("loss", train_loss.into()),
                    ("matching_rate", matching_rate.into()),
                    ("compute_s", time.compute_s.into()),
                    ("compression_s", time.compression_s.into()),
                    ("communication_s", time.communication_s.into()),
                    ("bytes", round_bytes.into()),
                    ("wire_bits_per_elem", wire_bits_per_element.into()),
                ],
            );
            tel.counter_add("train.rounds", 1);
            tel.counter_add("train.bytes", round_bytes as u64);
            tel.observe("train.compute_s", time.compute_s);
            tel.observe("train.compression_s", time.compression_s);
            tel.observe("train.communication_s", time.communication_s);
            tel.observe("train.matching_rate", matching_rate);
            tel.observe("train.wire_bits_per_elem", wire_bits_per_element);
        }
        self.round += 1;
    }

    /// Consumes the state into the final [`TrainReport`].
    #[must_use]
    pub fn finish(self) -> TrainReport {
        let tel = &self.cfg.telemetry;
        tel.set_time(self.total_time.total());

        let final_eval = self.model.evaluate(&self.test_set);
        let diverged = self.diverged || !final_eval.loss.is_finite();
        TrainReport {
            strategy_label: self.cfg.strategy.label(),
            records: self.records,
            final_eval,
            total_time: self.total_time,
            total_bytes: self.total_bytes,
            avg_wire_bits_per_element: self.total_bytes as f64 * 8.0
                / self.total_elements.max(1) as f64,
            diverged,
            faults: self.run_faults,
        }
    }

    /// Captures every evolving quantity at the current round boundary: the
    /// consensus parameters alongside per-worker optimizer states and RNG
    /// streams, the synchronizer state, and the run accumulators.
    ///
    /// # Panics
    ///
    /// Panics if the strategy does not support checkpointing (see
    /// [`Synchronizer::snapshot`](crate::strategy::Synchronizer::snapshot)).
    #[must_use]
    pub fn snapshot(&mut self) -> TrainSnapshot {
        TrainSnapshot {
            round: self.round as u64,
            lr: self.lr,
            params: self.model.params_vec(),
            optimizers: self.optimizers.iter().map(|o| o.state()).collect(),
            worker_rngs: self.worker_rngs.iter().map(FastRng::snapshot).collect(),
            sync: self.sync.snapshot(),
            records: self.records.clone(),
            total_time: self.total_time,
            total_bytes: self.total_bytes as u64,
            cumulative_bits_per_worker: self.cumulative_bits_per_worker,
            total_elements: self.total_elements as u64,
            diverged: self.diverged,
            run_faults: self.run_faults,
        }
    }

    /// Rebuilds a run from `cfg` and a snapshot captured by
    /// [`TrainerState::snapshot`]; the resumed run continues bit-identically.
    ///
    /// Emits **no** fresh `run_meta` event: concatenating the original run's
    /// telemetry prefix with the resumed run's events reproduces the
    /// uninterrupted log byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's shapes disagree with the configuration
    /// (worker count, parameter dimension, synchronizer kind).
    #[must_use]
    pub fn restore(cfg: &TrainConfig, snapshot: &TrainSnapshot) -> Self {
        let mut state = Self::build(cfg, Some(snapshot.params.clone()));
        let m = state.optimizers.len();
        assert_eq!(snapshot.optimizers.len(), m, "worker count mismatch");
        assert_eq!(snapshot.worker_rngs.len(), m, "worker count mismatch");
        for (opt, s) in state.optimizers.iter_mut().zip(&snapshot.optimizers) {
            opt.load_state(s);
        }
        for (rng, &pair) in state.worker_rngs.iter_mut().zip(&snapshot.worker_rngs) {
            *rng = FastRng::from_snapshot(pair);
        }
        state.sync.restore(&snapshot.sync);
        state.round = snapshot.round as usize;
        state.lr = snapshot.lr;
        state.records.clone_from(&snapshot.records);
        state.total_time = snapshot.total_time;
        state.total_bytes = snapshot.total_bytes as usize;
        state.cumulative_bits_per_worker = snapshot.cumulative_bits_per_worker;
        state.total_elements = snapshot.total_elements as usize;
        state.diverged = snapshot.diverged;
        state.run_faults = snapshot.run_faults;
        state
    }
}

/// The per-worker gradient-compute phase, shared verbatim by the sequential
/// and the thread-per-worker paths so both produce identical bits: samples
/// the minibatch into `batch`, writes the raw stochastic gradient (before the
/// optimizer) to `raw_grad` and the `η_l`-scaled update direction handed to
/// the synchronization layer to `update`, and returns the minibatch loss.
#[allow(clippy::too_many_arguments)]
fn worker_step(
    model: &Mlp,
    optimizer: &mut dyn Optimizer,
    rng: &mut FastRng,
    shard: &Dataset,
    batch_per_worker: usize,
    lr: f32,
    ws: &mut MlpWorkspace,
    batch: &mut Dataset,
    raw_grad: &mut [f32],
    update: &mut [f32],
) -> f64 {
    shard.sample_batch_into(batch_per_worker, rng, batch);
    let loss = model.loss_and_grad_in(batch, raw_grad, ws);
    optimizer.direction_into(raw_grad, lr, update);
    loss
}

/// `mean[i] += raw_grad[i] / m` in f64: one worker's term of the raw
/// gradient mean. For a power-of-two `m = 2^p` the division is a
/// multiplication by the exact reciprocal `2^-p`, with the same bits: a
/// widened `f32` is `±s·2^e` with `s < 2^24` and `e ≥ −149`, so `x·2^-p` is
/// representable in f64 (no rounding, no underflow while `p < 874`), and
/// both `x / 2^p` and `x · 2^-p` return that exact value — or the same `±0`,
/// `±∞` or NaN. For any other `m`, `1/m` is inexact and the division stays.
fn accumulate_mean(mean: &mut [f64], raw_grad: &[f32], m: usize) {
    if m.is_power_of_two() {
        let inv_m = 1.0 / m as f64;
        for (acc, &g) in mean.iter_mut().zip(raw_grad) {
            *acc += f64::from(g) * inv_m;
        }
    } else {
        let m = m as f64;
        for (acc, &g) in mean.iter_mut().zip(raw_grad) {
            *acc += f64::from(g) / m;
        }
    }
}

/// Bytes of one retransmitted segment at logical model scale: a ring-style
/// `D/M` segment, one bit per element in compressed rounds and fp32 in
/// full-precision rounds.
fn retry_payload_bytes(logical_d: usize, m: usize, full_precision: bool) -> usize {
    let seg = logical_d.div_ceil(m);
    if full_precision {
        seg * 4
    } else {
        seg.div_ceil(8)
    }
}

/// Derives a per-worker seed stream id.
fn a_seed(w: usize) -> u64 {
    0xB000 + w as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(strategy: StrategyKind) -> TrainConfig {
        let mut cfg = TrainConfig::new(Workload::AlexNetMnist, Topology::ring(4), strategy);
        cfg.rounds = 60;
        cfg.train_examples = 2048;
        cfg.test_examples = 512;
        cfg.eval_every = 20;
        cfg.local_lr = 0.1;
        cfg.marsit_global_lr = 0.01;
        cfg.optimizer = OptimizerKind::Sgd;
        cfg
    }

    #[test]
    fn psgd_learns_mnist_proxy() {
        let report = train(&quick_cfg(StrategyKind::Psgd));
        assert!(!report.diverged);
        assert!(
            report.final_eval.accuracy > 0.85,
            "accuracy {}",
            report.final_eval.accuracy
        );
        assert_eq!(report.records.len(), 60);
    }

    #[test]
    fn marsit_learns_mnist_proxy() {
        let report = train(&quick_cfg(StrategyKind::Marsit { k: Some(50) }));
        assert!(!report.diverged);
        assert!(
            report.final_eval.accuracy > 0.8,
            "accuracy {}",
            report.final_eval.accuracy
        );
    }

    #[test]
    fn marsit_wire_bits_are_one() {
        let mut cfg = quick_cfg(StrategyKind::Marsit { k: None });
        cfg.rounds = 10;
        let report = train(&cfg);
        assert!(
            report.avg_wire_bits_per_element < 1.2,
            "bits {}",
            report.avg_wire_bits_per_element
        );
    }

    #[test]
    fn psgd_wire_bits_are_32() {
        let mut cfg = quick_cfg(StrategyKind::Psgd);
        cfg.rounds = 5;
        let report = train(&cfg);
        assert!(
            (report.avg_wire_bits_per_element - 32.0).abs() < 0.5,
            "bits {}",
            report.avg_wire_bits_per_element
        );
    }

    #[test]
    fn matching_rate_is_high_for_psgd_and_lower_for_cascading() {
        let mut psgd_cfg = quick_cfg(StrategyKind::Psgd);
        psgd_cfg.rounds = 20;
        let mut casc_cfg = quick_cfg(StrategyKind::Cascading);
        casc_cfg.rounds = 20;
        let psgd = train(&psgd_cfg);
        let casc = train(&casc_cfg);
        let avg = |r: &TrainReport| {
            r.records.iter().map(|x| x.matching_rate).sum::<f64>() / r.records.len() as f64
        };
        assert!(avg(&psgd) > 0.99, "PSGD matching {}", avg(&psgd));
        assert!(
            avg(&casc) < 0.8,
            "cascading matching should be poor: {}",
            avg(&casc)
        );
    }

    #[test]
    fn report_helpers_work() {
        let mut cfg = quick_cfg(StrategyKind::Psgd);
        cfg.rounds = 40;
        cfg.eval_every = 10;
        let report = train(&cfg);
        assert!(report.best_accuracy() >= report.final_eval.accuracy - 1e-9);
        if let Some(rounds) = report.rounds_to_accuracy(0.5) {
            assert!(rounds < 40);
            assert!(report.time_to_accuracy(0.5).is_some());
        }
        assert!(!report.accuracy_vs_megabits().is_empty());
    }

    #[test]
    fn torus_training_runs() {
        let mut cfg = quick_cfg(StrategyKind::Marsit { k: Some(25) });
        cfg.topology = Topology::torus(2, 2);
        cfg.rounds = 30;
        let report = train(&cfg);
        assert!(!report.diverged);
        assert!(report.final_eval.accuracy > 0.5);
    }

    #[test]
    fn explicit_none_fault_plan_report_is_identical() {
        let mut cfg = quick_cfg(StrategyKind::Marsit { k: Some(20) });
        cfg.rounds = 12;
        let baseline = train(&cfg);
        cfg.fault_plan = FaultPlan::none();
        let explicit = train(&cfg);
        assert_eq!(baseline, explicit);
        assert!(baseline.faults.is_clean());
    }

    #[test]
    fn faulty_run_records_retransmits_and_costs_time() {
        let mut cfg = quick_cfg(StrategyKind::Marsit { k: Some(20) });
        cfg.rounds = 12;
        let clean = train(&cfg);
        cfg.fault_plan = FaultPlan::seeded(7)
            .with_link_drop(0.05)
            .with_straggler(1, 4.0);
        let faulty = train(&cfg);
        assert!(faulty.faults.retransmits > 0, "{:?}", faulty.faults);
        assert!(faulty.faults.retry_extra_s > 0.0);
        assert!(
            faulty.total_time.total() > clean.total_time.total(),
            "faults must stretch the simulated clock"
        );
        // Deterministic replay under a fixed plan seed.
        let again = train(&cfg);
        assert_eq!(faulty, again);
    }

    #[test]
    fn crash_mid_run_repairs_and_converges() {
        let mut cfg = quick_cfg(StrategyKind::Marsit { k: Some(20) });
        cfg.rounds = 30;
        cfg.fault_plan = FaultPlan::seeded(11).with_crash(3, 10);
        let report = train(&cfg);
        assert_eq!(report.faults.repairs, 1);
        assert_eq!(report.faults.crashed_workers, 1);
        assert!(!report.diverged);
    }

    #[test]
    #[should_panic(expected = "only supported for the Marsit strategy")]
    fn non_marsit_strategy_rejects_fault_plan() {
        let mut cfg = quick_cfg(StrategyKind::Psgd);
        cfg.rounds = 2;
        cfg.fault_plan = FaultPlan::seeded(1).with_link_drop(0.1);
        let _ = train(&cfg);
    }

    /// Tentpole invariant: the thread-per-worker compute phase must be
    /// byte-for-byte identical to the sequential one — same
    /// `SyncOutcome`s, same losses, same wire accounting, same final model.
    #[test]
    fn parallel_workers_bit_identical_to_sequential() {
        for (strategy, topology) in [
            (StrategyKind::Marsit { k: Some(10) }, Topology::ring(4)),
            (StrategyKind::Marsit { k: None }, Topology::torus(2, 2)),
            (StrategyKind::Psgd, Topology::ring(4)),
            (StrategyKind::Ssdm, Topology::ring(4)),
        ] {
            let mut cfg = quick_cfg(strategy);
            cfg.topology = topology;
            cfg.rounds = 12;
            cfg.optimizer = OptimizerKind::Momentum(0.9);
            cfg.parallel_workers = false;
            let sequential = train(&cfg);
            cfg.parallel_workers = true;
            let parallel = train(&cfg);
            assert_eq!(
                sequential, parallel,
                "{strategy:?} on {topology:?}: parallel compute diverged"
            );
        }
    }

    #[test]
    fn parallel_workers_bit_identical_under_faults() {
        let mut cfg = quick_cfg(StrategyKind::Marsit { k: Some(20) });
        cfg.rounds = 12;
        cfg.fault_plan = FaultPlan::seeded(7)
            .with_link_drop(0.05)
            .with_straggler(1, 4.0);
        cfg.parallel_workers = false;
        let sequential = train(&cfg);
        cfg.parallel_workers = true;
        let parallel = train(&cfg);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = {
            let mut c = quick_cfg(StrategyKind::Ssdm);
            c.rounds = 15;
            c
        };
        let a = train(&cfg);
        let b = train(&cfg);
        assert_eq!(a.final_eval, b.final_eval);
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    /// For a power-of-two worker count the gradient mean multiplies by the
    /// exact reciprocal; every term and every accumulated sum equals the
    /// division's, for M ∈ {2, 4, 8, 16}, on f32 bit patterns
    /// drawn across every exponent (subnormals, `±∞` and NaN included) and on
    /// the named specials.
    #[test]
    fn power_of_two_mean_matches_division() {
        const D: usize = 4099;
        let specials = [
            0.0,
            -0.0,
            1e-45,
            -1e-45,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fa0_0001),
        ];
        for m in [2, 4, 8, 16] {
            let mut rng = FastRng::new(0x3ea7, m as u64);
            let mut got = vec![0.0f64; D];
            let mut want = vec![0.0f64; D];
            for _ in 0..m {
                let grad: Vec<f32> = (0..D)
                    .map(|i| match i % 8 {
                        0 => specials[rng.next_range(specials.len() as u64) as usize],
                        _ => f32::from_bits(rng.next_u64() as u32),
                    })
                    .collect();
                for &g in &grad {
                    let x = f64::from(g);
                    let (by_mul, by_div) = (x * (1.0 / m as f64), x / m as f64);
                    assert_eq!(by_mul.to_bits(), by_div.to_bits(), "{g:e} / {m}");
                }
                accumulate_mean(&mut got, &grad, m);
                for (acc, &g) in want.iter_mut().zip(&grad) {
                    *acc += f64::from(g) / m as f64;
                }
            }
            // The sums by `to_bits` too, except that any NaN equals any NaN:
            // which payload survives when two NaNs meet in one add is the
            // operand order the compiler picked for that loop (DESIGN §17).
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "M = {m}, element {i}: {g:e} against {w:e}"
                );
            }
        }
    }
}
