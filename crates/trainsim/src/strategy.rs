//! Synchronization strategies: the six approaches of the paper's evaluation.
//!
//! Every strategy consumes the workers' scaled local updates (`η_l` times the
//! optimizer direction) and produces the consensus global update applied to
//! the one model, plus the transfer trace. The six kinds match Figures 4–5
//! and Table 2:
//!
//! | Kind | Aggregation | Payload per hop |
//! |---|---|---|
//! | [`StrategyKind::Psgd`] | exact mean | 32-bit floats |
//! | [`StrategyKind::SignMajority`] | majority vote of signs | growing integer sums (Elias), 1-bit gather |
//! | [`StrategyKind::EfSign`] | mean of error-fed sign messages | growing integer sums + scales |
//! | [`StrategyKind::Ssdm`] | mean of stochastic signs | growing integer sums (Elias) |
//! | [`StrategyKind::Cascading`] | recompress at every hop | 1 bit, but serialized full-vector hops |
//! | [`StrategyKind::Marsit`] | `⊙` one-bit all-reduce + compensation | exactly 1 bit |
//!
//! The MAR extensions of signSGD/SSDM/EF-signSGD aggregate *unweighted* sign
//! sums (the linear quantity of Section 3.1). EF-signSGD additionally
//! carries per-worker scalar scales, folded into the final update as the
//! mean scale: with IID shards the per-worker scales are nearly equal, so
//! this preserves the method's PS semantics; the scalar side-channel is a
//! few bytes per hop and is ignored in the byte accounting.

use marsit_collectives::ps::{ps_allreduce_sum, ps_majority_vote, ps_sign_sums};
use marsit_collectives::{
    allreduce_majority, allreduce_signsum, PlanTopology, SumReplay, SumWire, SyncError, Trace,
};
use marsit_compress::cascading::cascade_reduce_practical;
use marsit_compress::compressor::{Compressor, EfSign, Ssdm};
use marsit_compress::powersgd::{orthonormalize_columns, PowerSgd as PowerSgdState};
use marsit_compress::SignSumVec;
use marsit_core::{
    Marsit, MarsitConfig, MarsitSnapshot, SyncOutcome, SyncSchedule, WorkspaceHandle,
};
use marsit_simnet::{FaultInjector, FaultPlan, FaultStats, Topology};
use marsit_tensor::rng::{split_seed, FastRng};
use marsit_tensor::SignVec;

/// Configuration-level strategy selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// Full-precision parallel SGD (no compression).
    Psgd,
    /// signSGD with majority vote (Bernstein et al.), extended to MAR.
    SignMajority,
    /// EF-signSGD (Karimireddy et al.), extended to MAR.
    EfSign,
    /// SSDM (Safaryan & Richtárik), extended to MAR.
    Ssdm,
    /// SSDM with cascading compression at every hop (Section 3.2).
    Cascading,
    /// Marsit with full-precision synchronization every `k` rounds
    /// (`None` = never, the paper's plain "Marsit").
    Marsit {
        /// Full-precision period `K`.
        k: Option<u32>,
    },
    /// PowerSGD low-rank compression (related work \[24\]): linear and
    /// MAR-compatible, but needs two sequential all-reduce passes per
    /// round.
    PowerSgd {
        /// Approximation rank.
        rank: u32,
    },
}

impl StrategyKind {
    /// All six strategies in the paper's Table 2 column order, with
    /// `Marsit { k: Some(100) }` as "Marsit-100".
    pub const TABLE2: [StrategyKind; 6] = [
        StrategyKind::Psgd,
        StrategyKind::SignMajority,
        StrategyKind::EfSign,
        StrategyKind::Ssdm,
        StrategyKind::Marsit { k: Some(100) },
        StrategyKind::Marsit { k: None },
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Self::Psgd => "PSGD".to_owned(),
            Self::SignMajority => "signSGD".to_owned(),
            Self::EfSign => "EF-signSGD".to_owned(),
            Self::Ssdm => "SSDM".to_owned(),
            Self::Cascading => "Cascading".to_owned(),
            Self::Marsit { k: Some(k) } => format!("Marsit-{k}"),
            Self::Marsit { k: None } => "Marsit".to_owned(),
            Self::PowerSgd { rank } => format!("PowerSGD-{rank}"),
        }
    }

    /// Builds the stateful synchronizer.
    ///
    /// `local_lr` is `η_l` (the scale of incoming updates; sign strategies
    /// re-apply it to their unit-sign votes), `global_lr` is Marsit's `η_s`,
    /// and `seed` drives all stochastic compression.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2`, `d == 0`, or a learning rate is not positive.
    #[must_use]
    pub fn build(
        self,
        m: usize,
        d: usize,
        local_lr: f32,
        global_lr: f32,
        seed: u64,
    ) -> Synchronizer {
        assert!(m >= 2, "need at least 2 workers");
        assert!(d > 0, "model dimension must be positive");
        assert!(
            local_lr > 0.0 && global_lr > 0.0,
            "learning rates must be positive"
        );
        let state = match self {
            Self::Psgd => State::Psgd,
            Self::SignMajority => State::SignMajority,
            Self::EfSign => State::EfSign {
                workers: vec![EfSign::new(); m],
            },
            Self::Ssdm => State::Ssdm {
                velocity: vec![0.0; d],
            },
            Self::Cascading => State::Cascading,
            Self::Marsit { k } => {
                let schedule = match k {
                    Some(k) => SyncSchedule::every(k),
                    None => SyncSchedule::never(),
                };
                State::Marsit(Box::new(Marsit::new(
                    MarsitConfig::new(schedule, global_lr, seed),
                    m,
                    d,
                )))
            }
            Self::PowerSgd { rank } => State::PowerSgd {
                workers: (0..m)
                    .map(|_| PowerSgdState::new(d, rank as usize, seed))
                    .collect(),
            },
        };
        Synchronizer {
            kind: self,
            state,
            local_lr,
            seed,
            round: 0,
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Result of one synchronization round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SyncResult {
    /// The consensus update applied by every worker (`x ← x − update`).
    pub global_update: Vec<f32>,
    /// Transfers performed.
    pub trace: Trace,
    /// Whether this round used full precision (Marsit reset rounds; always
    /// true for PSGD).
    pub full_precision: bool,
    /// Exact mean of what the strategy actually aggregated, when that
    /// differs from the raw local updates (Marsit aggregates *compensated*
    /// updates). The matching-rate metric compares signs against this.
    pub reference_mean: Option<Vec<f32>>,
    /// What the fault layer did this round. All-zero without a fault plan,
    /// and for every strategy but Marsit: the collectives take an injector
    /// for every payload, but the strategy-level plan is not threaded to the
    /// baselines yet.
    pub faults: FaultStats,
}

enum State {
    Psgd,
    SignMajority,
    EfSign { workers: Vec<EfSign> },
    Ssdm { velocity: Vec<f32> },
    Cascading,
    Marsit(Box<Marsit>),
    PowerSgd { workers: Vec<PowerSgdState> },
}

/// A stateful synchronizer for one training run.
pub struct Synchronizer {
    kind: StrategyKind,
    state: State,
    local_lr: f32,
    seed: u64,
    round: u64,
}

/// Serializable cross-round state of a [`Synchronizer`] (deterministic
/// checkpoint/restore; see [`Synchronizer::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SynchronizerState {
    /// PSGD, signSGD majority, and cascading carry no cross-round state.
    Stateless,
    /// SSDM's namesake momentum buffer.
    Ssdm {
        /// The smoothing velocity `v`.
        velocity: Vec<f32>,
    },
    /// Marsit's compensation state and round counter.
    Marsit(MarsitSnapshot),
}

/// A deterministic checkpoint of a [`Synchronizer`]: the round counter plus
/// the strategy's cross-round state.
#[derive(Debug, Clone, PartialEq)]
pub struct SynchronizerSnapshot {
    /// Rounds synchronized before the capture.
    pub round: u64,
    /// Strategy-specific state.
    pub state: SynchronizerState,
}

impl Synchronizer {
    /// The strategy kind this synchronizer implements.
    #[must_use]
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// Rounds synchronized so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Captures a deterministic checkpoint: the round counter plus the
    /// strategy's cross-round state. A restored synchronizer continues
    /// bit-identically to one that never stopped.
    ///
    /// Takes `&mut self` because Marsit materializes its deferred residual
    /// first (bit-identical to the eager bookkeeping).
    ///
    /// # Panics
    ///
    /// Panics for EF-signSGD and PowerSGD, whose per-worker error states are
    /// not checkpointable yet.
    #[must_use]
    pub fn snapshot(&mut self) -> SynchronizerSnapshot {
        let state = match &mut self.state {
            State::Psgd | State::SignMajority | State::Cascading => SynchronizerState::Stateless,
            State::Ssdm { velocity } => SynchronizerState::Ssdm {
                velocity: velocity.clone(),
            },
            State::Marsit(marsit) => SynchronizerState::Marsit(marsit.snapshot()),
            State::EfSign { .. } | State::PowerSgd { .. } => {
                panic!("checkpointing is not supported for {}", self.kind.label())
            }
        };
        SynchronizerSnapshot {
            round: self.round,
            state,
        }
    }

    /// Restores state captured by [`Synchronizer::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was captured from a different strategy kind
    /// or with mismatched dimensions.
    pub fn restore(&mut self, snapshot: &SynchronizerSnapshot) {
        match (&mut self.state, &snapshot.state) {
            (
                State::Psgd | State::SignMajority | State::Cascading,
                SynchronizerState::Stateless,
            ) => {}
            (State::Ssdm { velocity }, SynchronizerState::Ssdm { velocity: saved }) => {
                assert_eq!(velocity.len(), saved.len(), "dimension mismatch");
                velocity.copy_from_slice(saved);
            }
            (State::Marsit(marsit), SynchronizerState::Marsit(saved)) => marsit.restore(saved),
            _ => panic!(
                "snapshot kind mismatch: cannot restore {} from this state",
                self.kind.label()
            ),
        }
        self.round = snapshot.round;
    }

    /// Installs a fault plan on the underlying synchronizer.
    ///
    /// # Panics
    ///
    /// Panics if the plan injects faults and the strategy is not Marsit: the
    /// baselines' collectives degrade gracefully under an injector too
    /// (`marsit_collectives::allreduce_sum` and friends), but only Marsit
    /// owns the membership, repair and statistics a plan drives.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        match &mut self.state {
            State::Marsit(marsit) => marsit.set_fault_plan(plan),
            _ => assert!(
                plan.is_none(),
                "fault injection is only supported for the Marsit strategy"
            ),
        }
    }

    /// Sets the Marsit lane budget (see [`marsit_core::MarsitConfig::lanes`]);
    /// a no-op for every other strategy, whose sweeps run on the caller.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn set_lanes(&mut self, lanes: usize) {
        assert!(lanes > 0, "the lane budget must be positive");
        if let State::Marsit(marsit) = &mut self.state {
            marsit.set_lanes(lanes);
        }
    }

    /// The lane budget of one synchronization: the Marsit synchronizer's,
    /// and 1 for every other strategy.
    #[must_use]
    pub fn lane_budget(&self) -> usize {
        match &self.state {
            State::Marsit(marsit) => marsit.config().lanes,
            _ => 1,
        }
    }

    /// Detaches the Marsit round workspace for pooling (see
    /// [`marsit_core::WorkspaceHandle`]); `None` for every other strategy,
    /// which keeps no poolable scratch.
    #[must_use]
    pub fn release_workspace(&mut self) -> Option<WorkspaceHandle> {
        match &mut self.state {
            State::Marsit(marsit) => Some(marsit.release_workspace()),
            _ => None,
        }
    }

    /// Installs a pooled Marsit round workspace; a no-op (the handle is
    /// dropped) for every other strategy. Never changes an output bit —
    /// see [`marsit_core::WorkspaceHandle`].
    pub fn adopt_workspace(&mut self, handle: WorkspaceHandle) {
        if let State::Marsit(marsit) = &mut self.state {
            marsit.adopt_workspace(handle);
        }
    }

    /// Performs one global synchronization.
    ///
    /// `local_updates[w]` is worker `w`'s `η_l`-scaled update direction.
    ///
    /// # Panics
    ///
    /// Panics if worker count or dimensions are inconsistent with the
    /// topology.
    pub fn synchronize(&mut self, local_updates: &[Vec<f32>], topology: Topology) -> SyncResult {
        let mut out = SyncResult::default();
        self.synchronize_into(local_updates, topology, &mut out);
        out
    }

    /// [`Synchronizer::synchronize`] writing into a caller-owned result.
    ///
    /// Marsit recycles `out`'s buffers (`global_update`, `reference_mean`,
    /// the trace's step slots — see [`Marsit::synchronize_into`]), so reusing
    /// one result across rounds keeps its round free of model-sized
    /// allocations; the baselines build a fresh result and move it in. The
    /// result never depends on what `out` held.
    ///
    /// # Panics
    ///
    /// As [`Synchronizer::synchronize`].
    pub fn synchronize_into(
        &mut self,
        local_updates: &[Vec<f32>],
        topology: Topology,
        out: &mut SyncResult,
    ) {
        let m = local_updates.len();
        assert_eq!(topology.workers(), m, "topology size must match workers");
        let d = local_updates[0].len();
        assert!(
            local_updates.iter().all(|u| u.len() == d),
            "dimension mismatch"
        );
        let t = self.round;
        self.round += 1;
        let mut rng = FastRng::new(split_seed(self.seed, t), 0xA663);

        let (global_update, trace) = match &mut self.state {
            State::Psgd => {
                let inv = 1.0 / m as f32;
                allreduce_sum(local_updates, topology, |x| x * inv)
            }
            State::SignMajority => {
                let signs: Vec<SignVec> = local_updates
                    .iter()
                    .map(|u| SignVec::from_signs(u))
                    .collect();
                let (vote, trace) = on_schedule(
                    topology,
                    |plan, inj| allreduce_majority(plan, &signs, SumWire::Elias, inj),
                    || ps_majority_vote(&signs),
                );
                let mut update = vec![0.0f32; d];
                vote.write_scaled_signs(self.local_lr, &mut update);
                (update, trace)
            }
            State::EfSign { workers } => {
                let mut scales = Vec::with_capacity(m);
                let mut signs = Vec::with_capacity(m);
                for (w, u) in workers.iter_mut().zip(local_updates) {
                    let msg = w.compress(u, &mut rng);
                    scales.push(msg.scale());
                    signs.push(msg.signs().clone());
                }
                mean_scaled_signs(&signs, &scales, topology)
            }
            State::Ssdm { velocity } => {
                // SSDM transmits stochastic signs; aggregation is the linear
                // *mean* of the signs (unbiased in the normalized direction
                // g/‖g‖), smoothed by the method's namesake momentum before
                // being applied. The momentum is essential here: one
                // stochastic sign has a per-coordinate tilt of only
                // g_j/(2‖g‖), so without cross-round smoothing the update is
                // dominated by sign noise. (The ‖v‖-scaled decode of the
                // paper's appendix is an analysis device; applying it as the
                // step would scale every coordinate by the full vector
                // norm.)
                let signs: Vec<SignVec> = local_updates
                    .iter()
                    .map(|u| Ssdm::quantize(u, &mut rng).signs().clone())
                    .collect();
                let (sums, trace) = sign_sums(&signs, topology);
                let mut update = Vec::with_capacity(d);
                for (v, mean_sign) in velocity.iter_mut().zip(sums.mean_signs()) {
                    *v = 0.9 * *v + mean_sign;
                    update.push(self.local_lr * *v);
                }
                (update, trace)
            }
            State::Cascading => {
                // The practical relay (deterministic sign, RMS scale): the
                // applied step is the η-scaled sign of the final message.
                // The sign is exactly where the cascade's error lives
                // (Fig 1b's ~56% matching rate); the appendix's unbiased
                // ‖w‖·σ decode would overflow the model within a handful of
                // rounds (Theorem 3).
                let refs: Vec<&[f32]> = local_updates.iter().map(Vec::as_slice).collect();
                let out = cascade_reduce_practical(&refs, &mut rng);
                let mut update = vec![0.0f32; d];
                out.final_message
                    .signs()
                    .write_scaled_signs(self.local_lr, &mut update);
                // Serialized chain: 2(M−1) sequential hops, each one full
                // 1-bit vector plus a 4-byte norm.
                let mut trace = Trace::new();
                let hop = d.div_ceil(8) + 4;
                for _ in 0..2 * (m - 1) {
                    trace.push_step(vec![hop]);
                }
                (update, trace)
            }
            State::Marsit(marsit) => {
                let mut outcome = SyncOutcome {
                    global_update: std::mem::take(&mut out.global_update),
                    compensated_mean: out.reference_mean.take().unwrap_or_default(),
                    trace: std::mem::take(&mut out.trace),
                    ..SyncOutcome::default()
                };
                marsit.synchronize_into(local_updates, topology, &mut outcome);
                *out = SyncResult {
                    global_update: outcome.global_update,
                    trace: outcome.trace,
                    full_precision: outcome.full_precision,
                    reference_mean: Some(outcome.compensated_mean),
                    faults: outcome.faults,
                };
                return;
            }
            State::PowerSgd { workers } => {
                // Two sequential linear all-reduce passes: P̄ then Q̄ — the
                // "multiple sequential vectors" the paper's related work
                // flags as inefficient under RAR.
                let (rows, _cols) = workers[0].shape();
                let rank = workers[0].rank();
                let p_flat: Vec<Vec<f32>> = workers
                    .iter()
                    .zip(local_updates)
                    .map(|(w, g)| w.project_p(g).into_vec())
                    .collect();
                let (p_mean, trace_p) = allreduce_sum(&p_flat, topology, |x| x / m as f32);
                let mut p_mean = marsit_tensor::Tensor::from_vec(rows, rank, p_mean);
                orthonormalize_columns(&mut p_mean);
                let q_flat: Vec<Vec<f32>> = workers
                    .iter()
                    .zip(local_updates)
                    .map(|(w, g)| w.project_q(g, &p_mean).into_vec())
                    .collect();
                let (q_mean, trace_q) = allreduce_sum(&q_flat, topology, |x| x / m as f32);
                let q_mean = marsit_tensor::Tensor::from_vec(q_flat[0].len() / rank, rank, q_mean);
                let update = workers[0].reconstruct(&p_mean, &q_mean);
                for (w, g) in workers.iter_mut().zip(local_updates) {
                    w.absorb(g, &update, &q_mean);
                }
                let mut trace = trace_p;
                trace.extend(trace_q);
                (update, trace)
            }
        };
        // The baselines run on a clean fabric: the strategy-level fault plan
        // is Marsit's.
        *out = SyncResult {
            global_update,
            trace,
            full_precision: self.kind == StrategyKind::Psgd,
            reference_mean: None,
            faults: FaultStats::default(),
        };
    }
}

/// Runs `topology`'s aggregation: a multi-hop all-reduce walks its
/// schedule on a clean fabric (the strategy-level fault plan is Marsit's),
/// a star exchanges with its parameter server.
fn on_schedule<T>(
    topology: Topology,
    allreduce: impl FnOnce(PlanTopology, &mut FaultInjector) -> Result<T, SyncError>,
    ps: impl FnOnce() -> Result<T, SyncError>,
) -> T {
    let inj = &mut FaultInjector::inert();
    match topology {
        Topology::Ring { .. } => allreduce(PlanTopology::Ring, inj),
        Topology::Torus { rows, cols } => allreduce(PlanTopology::Torus { rows, cols }, inj),
        Topology::Star { .. } => ps(),
    }
    .expect("harness builds a valid membership")
}

/// Exact sum all-reduce over any topology, mapped by `f` per element; returns
/// (mapped sum, trace). A schedule is walked once and replayed block by block.
fn allreduce_sum(
    updates: &[Vec<f32>],
    topology: Topology,
    f: impl Fn(f32) -> f32,
) -> (Vec<f32>, Trace) {
    on_schedule(
        topology,
        |plan, inj| SumReplay::default().sum(plan, updates, inj, &f),
        || ps_allreduce_sum(updates).map(|(sum, t)| (sum.into_iter().map(&f).collect(), t)),
    )
}

/// Linear sign-sum aggregation (Elias-coded on the wire) over any topology.
fn sign_sums(signs: &[SignVec], topology: Topology) -> (SignSumVec, Trace) {
    on_schedule(
        topology,
        |plan, inj| allreduce_signsum(plan, signs, SumWire::Elias, inj),
        || ps_sign_sums(signs),
    )
}

/// Aggregates scaled-sign messages linearly: `(mean scale) · (mean sign)`,
/// the MAR extension shared by SSDM and EF-signSGD.
fn mean_scaled_signs(signs: &[SignVec], scales: &[f32], topology: Topology) -> (Vec<f32>, Trace) {
    let m = signs.len() as f32;
    let (sums, trace) = sign_sums(signs, topology);
    let mean_scale: f32 = scales.iter().sum::<f32>() / m;
    let update: Vec<f32> = sums
        .mean_signs()
        .into_iter()
        .map(|mean_sign| mean_scale * mean_sign)
        .collect();
    (update, trace)
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
    fn psgd_is_exact_mean() {
        let u = updates(4, 12, 1);
        let mut sync = StrategyKind::Psgd.build(4, 12, 0.1, 0.1, 0);
        let out = sync.synchronize(&u, Topology::ring(4));
        assert!(out.full_precision);
        for j in 0..12 {
            let mean: f32 = u.iter().map(|v| v[j]).sum::<f32>() / 4.0;
            assert!((out.global_update[j] - mean).abs() < 1e-5);
        }
    }

    #[test]
    fn sign_majority_update_is_lr_scaled() {
        let u = updates(3, 10, 2);
        let mut sync = StrategyKind::SignMajority.build(3, 10, 0.05, 0.1, 0);
        let out = sync.synchronize(&u, Topology::ring(3));
        for (j, &g) in out.global_update.iter().enumerate() {
            assert!((g.abs() - 0.05).abs() < 1e-7, "coord {j}");
            // Must match the majority of input signs.
            let sum: i32 = u.iter().map(|v| if v[j] >= 0.0 { 1 } else { -1 }).sum();
            assert_eq!(g > 0.0, sum >= 0, "coord {j}");
        }
    }

    #[test]
    fn ssdm_update_is_lr_scaled_mean_sign() {
        let u = updates(4, 8, 3);
        let mut sync = StrategyKind::Ssdm.build(4, 8, 0.1, 0.1, 7);
        let out = sync.synchronize(&u, Topology::ring(4));
        // Each coordinate is η·k/4 for k ∈ {−4, −2, 0, 2, 4}.
        for &g in &out.global_update {
            let k = g / 0.1 * 4.0;
            assert!(
                (k - k.round()).abs() < 1e-4,
                "entry {g} not on the mean-sign grid"
            );
            assert!(g.abs() <= 0.1 + 1e-7);
        }
        assert!(!out.full_precision);
    }

    #[test]
    fn cascading_update_is_lr_scaled_sign() {
        let u = updates(4, 8, 9);
        let mut sync = StrategyKind::Cascading.build(4, 8, 0.1, 0.1, 7);
        let out = sync.synchronize(&u, Topology::ring(4));
        for &g in &out.global_update {
            assert!((g.abs() - 0.1).abs() < 1e-7, "entry {g} is not ±η");
        }
    }

    #[test]
    fn strategies_agree_across_topologies_on_deterministic_paths() {
        // PSGD and majority vote are deterministic; ring and torus must give
        // identical results.
        let u = updates(4, 20, 4);
        for kind in [StrategyKind::Psgd, StrategyKind::SignMajority] {
            let mut ring = kind.build(4, 20, 0.1, 0.1, 5);
            let mut torus = kind.build(4, 20, 0.1, 0.1, 5);
            let a = ring.synchronize(&u, Topology::ring(4));
            let b = torus.synchronize(&u, Topology::torus(2, 2));
            for (x, y) in a.global_update.iter().zip(&b.global_update) {
                assert!((x - y).abs() < 1e-4, "{kind}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn cascading_trace_is_serialized() {
        let u = updates(4, 64, 5);
        let mut sync = StrategyKind::Cascading.build(4, 64, 0.1, 0.1, 6);
        let out = sync.synchronize(&u, Topology::ring(4));
        // One transfer per step: no parallelism.
        for step in out.trace.steps() {
            assert_eq!(step.len(), 1);
        }
        assert_eq!(out.trace.num_steps(), 6);
    }

    #[test]
    fn marsit_k_schedules_full_precision() {
        let u = updates(2, 16, 6);
        let mut sync = StrategyKind::Marsit { k: Some(2) }.build(2, 16, 0.1, 0.05, 8);
        assert!(sync.synchronize(&u, Topology::ring(2)).full_precision);
        assert!(!sync.synchronize(&u, Topology::ring(2)).full_precision);
        assert!(sync.synchronize(&u, Topology::ring(2)).full_precision);
    }

    #[test]
    fn ef_sign_state_accumulates_error() {
        let u = updates(2, 16, 7);
        let mut sync = StrategyKind::EfSign.build(2, 16, 0.1, 0.1, 9);
        let a = sync.synchronize(&u, Topology::ring(2));
        let b = sync.synchronize(&u, Topology::ring(2));
        // With error feedback, the second round's update differs even for
        // identical inputs.
        assert_ne!(a.global_update, b.global_update);
    }

    #[test]
    fn one_bit_strategies_move_fewer_bytes_than_psgd() {
        let u = updates(8, 1024, 8);
        let mut psgd = StrategyKind::Psgd.build(8, 1024, 0.1, 0.1, 1);
        let mut marsit = StrategyKind::Marsit { k: None }.build(8, 1024, 0.1, 0.1, 1);
        let p = psgd.synchronize(&u, Topology::ring(8));
        let m = marsit.synchronize(&u, Topology::ring(8));
        let ratio = p.trace.total_bytes() as f64 / m.trace.total_bytes() as f64;
        assert!(ratio > 25.0, "compression ratio only {ratio}");
    }

    #[test]
    fn powersgd_reaches_consensus_and_compresses() {
        let u = updates(4, 100, 11);
        let mut sync = StrategyKind::PowerSgd { rank: 2 }.build(4, 100, 0.1, 0.1, 3);
        let out = sync.synchronize(&u, Topology::ring(4));
        assert_eq!(out.global_update.len(), 100);
        // Factor traffic is far below a dense fp32 all-reduce.
        let mut psgd = StrategyKind::Psgd.build(4, 100, 0.1, 0.1, 3);
        let dense = psgd.synchronize(&u, Topology::ring(4));
        assert!(out.trace.total_bytes() < dense.trace.total_bytes() / 2);
    }

    #[test]
    fn powersgd_error_feedback_improves_over_rounds() {
        // Repeatedly synchronizing the same updates: with error feedback the
        // cumulative applied update converges to the cumulative mean.
        let d = 64;
        let u = updates(3, d, 12);
        let mut mean = vec![0.0f32; d];
        for w in &u {
            for (a, &x) in mean.iter_mut().zip(w) {
                *a += x / 3.0;
            }
        }
        let mut sync = StrategyKind::PowerSgd { rank: 2 }.build(3, d, 0.1, 0.1, 5);
        let rounds = 50;
        let mut applied = vec![0.0f64; d];
        for _ in 0..rounds {
            let out = sync.synchronize(&u, Topology::ring(3));
            for (a, &g) in applied.iter_mut().zip(&out.global_update) {
                *a += f64::from(g);
            }
        }
        let target: Vec<f64> = mean
            .iter()
            .map(|&x| f64::from(x) * f64::from(rounds as u32))
            .collect();
        let err: f64 = applied
            .iter()
            .zip(&target)
            .map(|(a, t)| (a - t).powi(2))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = target.iter().map(|t| t * t).sum::<f64>().sqrt();
        assert!(err / norm < 0.2, "relative error {}", err / norm);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(StrategyKind::Psgd.label(), "PSGD");
        assert_eq!(StrategyKind::Marsit { k: Some(100) }.label(), "Marsit-100");
        assert_eq!(StrategyKind::Marsit { k: None }.label(), "Marsit");
        assert_eq!(StrategyKind::PowerSgd { rank: 4 }.label(), "PowerSGD-4");
    }
}
