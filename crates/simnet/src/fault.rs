//! Deterministic fault injection for the simulated fabric.
//!
//! The paper's cluster results assume a fault-free network; this module adds
//! the failure modes a real multi-hop deployment sees — dropped transfers,
//! detected payload corruption, stragglers, and whole-worker crashes — while
//! keeping every run bit-reproducible under a fixed seed.
//!
//! The model:
//!
//! - **Drops** (`link_drop_prob`): a transfer vanishes; the sender times out
//!   after [`FaultPlan::retry_timeout_s`] and retransmits, up to
//!   [`FaultPlan::max_retries`] retries. A transfer whose retry budget is
//!   exhausted is a *permanent omission*: the receiver simply never folds that
//!   contribution in (the collectives keep explicit aggregation counts so the
//!   `⊙` combine stays unbiased over what actually arrived).
//! - **Corruption** (`link_corrupt_prob`): the payload arrives but fails its
//!   checksum, so the receiver discards it and the sender retransmits exactly
//!   as for a drop. Delivered payloads are therefore always correct — detected
//!   corruption costs time, never accuracy.
//! - **Stragglers** (`stragglers`): listed workers run their local compute
//!   phase at a `≥ 1×` delay multiplier; the synchronous round waits for the
//!   slowest worker, so [`FaultPlan::compute_multiplier`] scales the round's
//!   compute time.
//! - **Membership** (`membership`): a [`MembershipSchedule`] of
//!   `Crash { worker, round }` and `Rejoin { worker, round }` events —
//!   arbitrarily many of each. A worker's liveness at round `t` is decided by
//!   its latest event with `round ≤ t` (later-listed events win ties); workers
//!   with no applicable event are live. The collectives re-form over whatever
//!   live set results (torus degrades to a survivor ring, rings re-expand on
//!   rejoin, a lone survivor runs a degenerate local-only round).
//!
//! Determinism: a [`FaultInjector`] is constructed per round from
//! `(plan.seed, round)` and consumes randomness in transfer-issue order,
//! which the collective schedules fix. Same plan + same seed ⇒ byte-identical
//! traces, stats, and training reports. [`FaultPlan::none`] short-circuits
//! every draw, so a fault-free plan leaves the clean code paths untouched.

/// One membership-change event in a [`MembershipSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// `worker` is dead from the start of `round` (0-based) onward, until a
    /// later `Rejoin` revives it.
    Crash {
        /// Worker index.
        worker: usize,
        /// First round the worker is absent.
        round: u64,
    },
    /// `worker` is live again from the start of `round` onward. The sync
    /// layer treats this as a restore from the last full-precision barrier
    /// plus a reliable catch-up transfer (priced by the trainer).
    Rejoin {
        /// Worker index.
        worker: usize,
        /// First round the worker is back.
        round: u64,
    },
}

impl MembershipEvent {
    /// The worker this event concerns.
    #[must_use]
    pub fn worker(&self) -> usize {
        match *self {
            Self::Crash { worker, .. } | Self::Rejoin { worker, .. } => worker,
        }
    }

    /// The round this event takes effect (at the start of).
    #[must_use]
    pub fn round(&self) -> u64 {
        match *self {
            Self::Crash { round, .. } | Self::Rejoin { round, .. } => round,
        }
    }

    /// Whether the affected worker is live after this event.
    #[must_use]
    pub fn live(&self) -> bool {
        matches!(self, Self::Rejoin { .. })
    }
}

/// An ordered list of crash/rejoin events describing elastic membership.
///
/// Liveness of worker `w` at round `t` is decided by `w`'s latest applicable
/// event (`round ≤ t`); among events with the same round, the one listed
/// later wins. Workers with no applicable event are live — an empty schedule
/// means full membership forever.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MembershipSchedule {
    /// The events, in declaration order.
    pub events: Vec<MembershipEvent>,
}

impl MembershipSchedule {
    /// The empty schedule: every worker live in every round.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the schedule contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends a crash event.
    #[must_use]
    pub fn crash(mut self, worker: usize, round: u64) -> Self {
        self.events.push(MembershipEvent::Crash { worker, round });
        self
    }

    /// Appends a rejoin event.
    #[must_use]
    pub fn rejoin(mut self, worker: usize, round: u64) -> Self {
        self.events.push(MembershipEvent::Rejoin { worker, round });
        self
    }

    /// Whether `worker` is live during `round` under this schedule alone.
    #[must_use]
    pub fn is_live(&self, worker: usize, round: u64) -> bool {
        let mut live = true;
        let mut best: Option<u64> = None;
        for ev in &self.events {
            if ev.worker() == worker && ev.round() <= round && best.is_none_or(|b| ev.round() >= b)
            {
                best = Some(ev.round());
                live = ev.live();
            }
        }
        live
    }

    /// Generates a seeded random storm of `crashes + rejoins` events over
    /// `[1, rounds)`, guaranteed to keep at least two workers live at every
    /// round (so no storm ever empties the cluster, and consensus remains
    /// meaningful). Deterministic in `(seed, m, rounds, crashes, rejoins)`.
    ///
    /// # Panics
    ///
    /// Panics if `m < 3` (a storm needs room to crash somebody while keeping
    /// two live) or `rounds < 2`.
    #[must_use]
    pub fn storm(seed: u64, m: usize, rounds: u64, crashes: usize, rejoins: usize) -> Self {
        assert!(m >= 3, "storm needs at least 3 workers");
        assert!(rounds >= 2, "storm needs at least 2 rounds");
        // Self-contained SplitMix64 → xorshift64* chain, mirroring the
        // injector's derivation so the schedule is reproducible everywhere.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut state = (z ^ (z >> 31)) | 1;
        let mut next = move |n: u64| -> u64 {
            let mut x = state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            state = x;
            ((u128::from(x.wrapping_mul(0x2545_F491_4F6C_DD1D)) * u128::from(n)) >> 64) as u64
        };
        let mut live: Vec<bool> = vec![true; m];
        let mut schedule = Self::none();
        let (mut crashes_left, mut rejoins_left) = (crashes, rejoins);
        let total = (crashes + rejoins) as u64;
        // Monotone event rounds spread across the window, so the liveness
        // simulation below walks the storm in causal order.
        let stride = ((rounds - 1) / (total + 1)).max(1);
        let mut round = 0u64;
        while crashes_left + rejoins_left > 0 {
            round = (round + 1 + next(stride)).min(rounds - 1);
            let live_count = live.iter().filter(|&&l| l).count();
            let dead: Vec<usize> = (0..m).filter(|&w| !live[w]).collect();
            let want_rejoin = rejoins_left > 0 && !dead.is_empty() && next(2) == 0;
            let must_rejoin = crashes_left == 0 || live_count <= 2;
            if (want_rejoin || must_rejoin) && !dead.is_empty() && rejoins_left > 0 {
                let w = dead[next(dead.len() as u64) as usize];
                live[w] = true;
                schedule = schedule.rejoin(w, round);
                rejoins_left -= 1;
            } else if crashes_left > 0 && live_count > 2 {
                let alive: Vec<usize> = (0..m).filter(|&w| live[w]).collect();
                let w = alive[next(alive.len() as u64) as usize];
                live[w] = false;
                schedule = schedule.crash(w, round);
                crashes_left -= 1;
            } else {
                // Nothing legal to schedule (e.g. rejoins requested with no
                // dead workers and no crashes left): drop the remainder.
                break;
            }
        }
        schedule
    }
}

/// Declarative description of the faults to inject into a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG (independent of the training seed).
    pub seed: u64,
    /// Per-transfer probability that the payload is dropped in flight.
    pub link_drop_prob: f64,
    /// Per-transfer probability that the payload arrives corrupted (and is
    /// detected by checksum, triggering a retransmit).
    pub link_corrupt_prob: f64,
    /// `(worker, multiplier)` pairs: each worker's compute phase runs
    /// `multiplier ≥ 1` times slower.
    pub stragglers: Vec<(usize, f64)>,
    /// Elastic-membership schedule: any number of crash and rejoin events.
    pub membership: MembershipSchedule,
    /// Retransmissions attempted after the first failed try before the
    /// transfer is abandoned as a permanent omission.
    pub max_retries: u32,
    /// Simulated seconds the sender waits before each retransmission
    /// (the loss-detection timeout).
    pub retry_timeout_s: f64,
}

impl FaultPlan {
    /// The fault-free plan: no drops, no corruption, no stragglers, no crash.
    ///
    /// Runs configured with this plan are byte-identical to runs that predate
    /// the fault layer.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            link_drop_prob: 0.0,
            link_corrupt_prob: 0.0,
            stragglers: Vec::new(),
            membership: MembershipSchedule::none(),
            max_retries: 3,
            retry_timeout_s: 2e-4,
        }
    }

    /// Whether this plan injects any fault at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.link_drop_prob == 0.0
            && self.link_corrupt_prob == 0.0
            && self.stragglers.is_empty()
            && self.membership.is_empty()
    }

    /// Fault-free plan with a specific RNG seed (useful as a builder root).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::none()
        }
    }

    /// Sets the per-transfer drop probability. `p = 1.0` is allowed: every
    /// best-effort transfer is then a permanent omission and every reliable
    /// transfer a forced delivery.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn with_link_drop(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0, 1]"
        );
        self.link_drop_prob = p;
        self
    }

    /// Sets the per-transfer detected-corruption probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn with_link_corruption(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "corruption probability must be in [0, 1]"
        );
        self.link_corrupt_prob = p;
        self
    }

    /// Adds a straggler running its compute phase `multiplier` times slower.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier < 1`.
    #[must_use]
    pub fn with_straggler(mut self, worker: usize, multiplier: f64) -> Self {
        assert!(multiplier >= 1.0, "straggler multiplier must be >= 1");
        self.stragglers.push((worker, multiplier));
        self
    }

    /// Schedules `worker` to crash at the start of `round`, as a crash event
    /// *prepended* to the membership schedule: every event already listed or
    /// added later wins a same-round tie against it (so
    /// `with_rejoin(w, r).with_crash(w, r)` leaves `w` live at `r`), where
    /// [`FaultPlan::with_crash_event`] appends. Each call adds one more
    /// crash; it never replaces an earlier one.
    #[must_use]
    pub fn with_crash(mut self, worker: usize, round: u64) -> Self {
        let crash = MembershipEvent::Crash { worker, round };
        self.membership.events.insert(0, crash);
        self
    }

    /// Replaces the elastic-membership schedule.
    #[must_use]
    pub fn with_membership(mut self, schedule: MembershipSchedule) -> Self {
        self.membership = schedule;
        self
    }

    /// Appends a crash event to the membership schedule.
    #[must_use]
    pub fn with_crash_event(mut self, worker: usize, round: u64) -> Self {
        self.membership = self.membership.crash(worker, round);
        self
    }

    /// Appends a rejoin event to the membership schedule.
    #[must_use]
    pub fn with_rejoin(mut self, worker: usize, round: u64) -> Self {
        self.membership = self.membership.rejoin(worker, round);
        self
    }

    /// Sets the retry budget and loss-detection timeout.
    ///
    /// # Panics
    ///
    /// Panics if `timeout_s` is negative.
    #[must_use]
    pub fn with_retry_policy(mut self, max_retries: u32, timeout_s: f64) -> Self {
        assert!(timeout_s >= 0.0, "retry timeout must be non-negative");
        self.max_retries = max_retries;
        self.retry_timeout_s = timeout_s;
        self
    }

    /// Whether `worker` is live during `round` under the membership
    /// schedule ([`MembershipSchedule::is_live`]).
    #[must_use]
    pub fn live_at(&self, worker: usize, round: u64) -> bool {
        self.membership.is_live(worker, round)
    }

    /// The sorted live set among workers `0..m` during `round`.
    #[must_use]
    pub fn live_set(&self, m: usize, round: u64) -> Vec<usize> {
        (0..m).filter(|&w| self.live_at(w, round)).collect()
    }

    /// Workers that are live at `round` but were dead at `round − 1` (empty
    /// at round 0 — nobody can rejoin a run that has not started).
    #[must_use]
    pub fn rejoined_at(&self, m: usize, round: u64) -> Vec<usize> {
        if round == 0 {
            return Vec::new();
        }
        (0..m)
            .filter(|&w| self.live_at(w, round) && !self.live_at(w, round - 1))
            .collect()
    }

    /// Whether the live set at `round` differs from the previous round's
    /// (round 0 compares against full membership), i.e. whether the topology
    /// must be re-formed at the start of `round`.
    #[must_use]
    pub fn membership_changed_at(&self, m: usize, round: u64) -> bool {
        (0..m).any(|w| self.live_at(w, round) != (round == 0 || self.live_at(w, round - 1)))
    }

    /// Compute-time multiplier for `round`: the slowest live straggler (the
    /// synchronous round waits for it). Always `≥ 1`.
    #[must_use]
    pub fn compute_multiplier(&self, round: u64) -> f64 {
        self.stragglers
            .iter()
            .filter(|&&(w, _)| self.live_at(w, round))
            .map(|&(_, mult)| mult)
            .fold(1.0, f64::max)
    }

    /// Builds the deterministic per-round injector.
    #[must_use]
    pub fn injector(&self, round: u64) -> FaultInjector {
        FaultInjector::for_round(self, round)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Counters describing what the fault layer did during a round (or a whole
/// run — counters add with [`FaultStats::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Retransmissions performed (each adds wire traffic and timeout wait).
    pub retransmits: u64,
    /// Transfers abandoned after exhausting the retry budget (permanent
    /// omissions — the receiver never folded that contribution in).
    pub dropped_transfers: u64,
    /// Transfers that arrived corrupted and were detected by checksum.
    pub corrupted_transfers: u64,
    /// Topology repair events (e.g. torus → survivor ring after a crash).
    pub repairs: u64,
    /// Workers permanently crashed so far.
    pub crashed_workers: u64,
    /// Reliable transfers escalated past the retry budget and forced through
    /// (the fabric's last-resort delivery on gather/broadcast phases).
    pub forced_deliveries: u64,
    /// Workers that rejoined the live set (each one is a restore from the
    /// last full-precision barrier plus a catch-up transfer).
    pub rejoins: u64,
    /// Extra simulated seconds spent on retransmissions (timeout waits plus,
    /// when priced by the trainer, the repeated α–β transfer cost).
    pub retry_extra_s: f64,
    /// Extra simulated seconds spent on rejoin catch-up transfers (full
    /// model state over the α–β link, priced by the trainer).
    pub catchup_extra_s: f64,
    /// `StragglerSuspected` health events raised by the online detector
    /// (observational, like the two below; checkpointed with the rest).
    pub stragglers_suspected: u64,
    /// `LinkDegraded` health events raised by the online detector.
    pub links_degraded: u64,
    /// `RankSilent` health events raised by the online detector.
    pub ranks_silent: u64,
}

impl FaultStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.retransmits += other.retransmits;
        self.dropped_transfers += other.dropped_transfers;
        self.corrupted_transfers += other.corrupted_transfers;
        self.repairs += other.repairs;
        self.crashed_workers = self.crashed_workers.max(other.crashed_workers);
        self.forced_deliveries += other.forced_deliveries;
        self.rejoins += other.rejoins;
        self.retry_extra_s += other.retry_extra_s;
        self.catchup_extra_s += other.catchup_extra_s;
        self.stragglers_suspected += other.stragglers_suspected;
        self.links_degraded += other.links_degraded;
        self.ranks_silent += other.ranks_silent;
    }

    /// Whether nothing fault-related happened.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Outcome of one logical transfer under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferFate {
    /// Total wire attempts made (1 when fault-free).
    pub attempts: u32,
    /// Whether the payload ultimately arrived intact.
    pub delivered: bool,
}

impl TransferFate {
    /// The fault-free outcome: one attempt, delivered.
    #[must_use]
    pub fn clean() -> Self {
        Self {
            attempts: 1,
            delivered: true,
        }
    }
}

/// Per-round fault source. Construct with [`FaultPlan::injector`]; call
/// [`FaultInjector::transfer`] (or [`FaultInjector::transfer_reliable`]) once
/// per logical transfer, in schedule order.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
    drop_p: f64,
    corrupt_p: f64,
    max_attempts: u32,
    retry_timeout_s: f64,
    active: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// Injector for `round`, seeded from `(plan.seed, round)`.
    #[must_use]
    pub fn for_round(plan: &FaultPlan, round: u64) -> Self {
        // SplitMix64 finalizer over (seed, round) — independent streams per
        // round, so inserting a round never perturbs another round's faults.
        let mut z = plan
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self {
            state: (z ^ (z >> 31)) | 1,
            drop_p: plan.link_drop_prob,
            corrupt_p: plan.link_corrupt_prob,
            max_attempts: 1 + plan.max_retries,
            retry_timeout_s: plan.retry_timeout_s,
            active: plan.link_drop_prob > 0.0 || plan.link_corrupt_prob > 0.0,
            stats: FaultStats::default(),
        }
    }

    /// Injector that never faults (used for clean comparison paths).
    #[must_use]
    pub fn inert() -> Self {
        Self::for_round(&FaultPlan::none(), 0)
    }

    #[inline]
    fn next_f64(&mut self) -> f64 {
        // xorshift64* — cheap, deterministic, and self-contained.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One best-effort transfer: retried on drop/corruption up to the retry
    /// budget, then abandoned (`delivered == false`, a permanent omission).
    pub fn transfer(&mut self) -> TransferFate {
        if !self.active {
            return TransferFate::clean();
        }
        let mut attempts = 1u32;
        loop {
            let dropped = self.next_f64() < self.drop_p;
            let corrupted = !dropped && self.next_f64() < self.corrupt_p;
            if !dropped && !corrupted {
                return TransferFate {
                    attempts,
                    delivered: true,
                };
            }
            if corrupted {
                self.stats.corrupted_transfers += 1;
            }
            if attempts >= self.max_attempts {
                self.stats.dropped_transfers += 1;
                return TransferFate {
                    attempts,
                    delivered: false,
                };
            }
            attempts += 1;
            self.stats.retransmits += 1;
            self.stats.retry_extra_s += self.retry_timeout_s;
        }
    }

    /// One reliable (ACKed) transfer: retried like [`FaultInjector::transfer`]
    /// but never abandoned — after the retry budget the fabric escalates and
    /// the final attempt is forced through. Used for gather/broadcast phases,
    /// where an omission would leave replicas inconsistent.
    pub fn transfer_reliable(&mut self) -> TransferFate {
        if !self.active {
            return TransferFate::clean();
        }
        let mut attempts = 1u32;
        loop {
            if attempts >= self.max_attempts {
                // Retry budget exhausted: the fabric escalates and forces
                // this attempt through without consulting the link RNG (the
                // draw sequence matches the pre-escalation implementation).
                self.stats.forced_deliveries += 1;
                return TransferFate {
                    attempts,
                    delivered: true,
                };
            }
            let dropped = self.next_f64() < self.drop_p;
            let corrupted = !dropped && self.next_f64() < self.corrupt_p;
            if !dropped && !corrupted {
                return TransferFate {
                    attempts,
                    delivered: true,
                };
            }
            if corrupted {
                self.stats.corrupted_transfers += 1;
            }
            attempts += 1;
            self.stats.retransmits += 1;
            self.stats.retry_extra_s += self.retry_timeout_s;
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Takes the accumulated counters, resetting them to zero.
    pub fn take_stats(&mut self) -> FaultStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none_and_clean() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert_eq!(plan.compute_multiplier(0), 1.0);
        assert!(plan.live_at(0, 123));
        let mut inj = plan.injector(7);
        for _ in 0..100 {
            assert_eq!(inj.transfer(), TransferFate::clean());
            assert_eq!(inj.transfer_reliable(), TransferFate::clean());
        }
        assert!(inj.stats().is_clean());
    }

    #[test]
    fn injector_is_deterministic_per_round() {
        let plan = FaultPlan::seeded(42)
            .with_link_drop(0.3)
            .with_link_corruption(0.1);
        let run = |round| {
            let mut inj = plan.injector(round);
            let fates: Vec<_> = (0..200).map(|_| inj.transfer()).collect();
            (fates, inj.stats())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0, "rounds draw independent streams");
    }

    #[test]
    fn drop_rate_matches_probability() {
        let plan = FaultPlan::seeded(7)
            .with_link_drop(0.2)
            .with_retry_policy(0, 1e-4);
        let mut inj = plan.injector(0);
        let n = 50_000;
        let failures = (0..n).filter(|_| !inj.transfer().delivered).count();
        let rate = failures as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
        assert_eq!(inj.stats().dropped_transfers, u64::from(failures as u32));
        assert_eq!(inj.stats().retransmits, 0, "zero retries configured");
    }

    #[test]
    fn retries_mostly_recover_and_are_counted() {
        let plan = FaultPlan::seeded(9)
            .with_link_drop(0.3)
            .with_retry_policy(8, 1e-4);
        let mut inj = plan.injector(0);
        let n = 10_000;
        let delivered = (0..n).filter(|_| inj.transfer().delivered).count();
        // P(9 consecutive drops) = 0.3^9 ≈ 2e-5.
        assert!(delivered >= n - 5, "delivered {delivered}/{n}");
        let stats = inj.stats();
        assert!(stats.retransmits > 2_000, "expected ~30% retransmit rate");
        let expected_wait = stats.retransmits as f64 * 1e-4;
        assert!((stats.retry_extra_s - expected_wait).abs() < 1e-9);
    }

    #[test]
    fn reliable_transfer_always_delivers() {
        let plan = FaultPlan::seeded(11)
            .with_link_drop(0.5)
            .with_retry_policy(1, 1e-4);
        let mut inj = plan.injector(3);
        for _ in 0..2_000 {
            let fate = inj.transfer_reliable();
            assert!(fate.delivered);
            assert!(fate.attempts <= 2);
        }
        assert_eq!(inj.stats().dropped_transfers, 0);
    }

    #[test]
    fn corruption_is_detected_and_retried() {
        let plan = FaultPlan::seeded(13)
            .with_link_corruption(0.25)
            .with_retry_policy(6, 1e-4);
        let mut inj = plan.injector(0);
        let n = 5_000;
        let delivered = (0..n).filter(|_| inj.transfer().delivered).count();
        assert!(
            delivered >= n - 3,
            "corruption should almost always be repaired"
        );
        assert!(inj.stats().corrupted_transfers > 800);
    }

    #[test]
    fn crash_and_straggler_schedules() {
        let plan = FaultPlan::seeded(1)
            .with_straggler(2, 4.0)
            .with_straggler(5, 2.0)
            .with_crash(5, 10);
        assert!(plan.live_at(5, 9));
        assert!(!plan.live_at(5, 10));
        assert!(!plan.live_at(5, 11));
        assert!(plan.live_at(2, 11), "only the crashed worker is dead");
        assert_eq!(plan.compute_multiplier(0), 4.0);
        // Worker 5's slowdown stops mattering once it is dead.
        assert_eq!(plan.compute_multiplier(10), 4.0);
        let plan2 = FaultPlan::seeded(1).with_straggler(2, 4.0).with_crash(2, 3);
        assert_eq!(plan2.compute_multiplier(2), 4.0);
        assert_eq!(plan2.compute_multiplier(3), 1.0);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = FaultStats {
            retransmits: 2,
            dropped_transfers: 1,
            corrupted_transfers: 0,
            repairs: 1,
            crashed_workers: 1,
            forced_deliveries: 2,
            rejoins: 1,
            retry_extra_s: 0.5,
            catchup_extra_s: 0.125,
            stragglers_suspected: 1,
            links_degraded: 0,
            ranks_silent: 0,
        };
        let b = FaultStats {
            retransmits: 3,
            dropped_transfers: 0,
            corrupted_transfers: 4,
            repairs: 0,
            crashed_workers: 1,
            forced_deliveries: 1,
            rejoins: 2,
            retry_extra_s: 0.25,
            catchup_extra_s: 0.25,
            stragglers_suspected: 2,
            links_degraded: 1,
            ranks_silent: 1,
        };
        a.merge(&b);
        assert_eq!(a.retransmits, 5);
        assert_eq!(a.dropped_transfers, 1);
        assert_eq!(a.corrupted_transfers, 4);
        assert_eq!(a.repairs, 1);
        assert_eq!(a.crashed_workers, 1, "crashed workers are a max, not a sum");
        assert_eq!(a.forced_deliveries, 3);
        assert_eq!(a.rejoins, 3);
        assert!((a.retry_extra_s - 0.75).abs() < 1e-12);
        assert!((a.catchup_extra_s - 0.375).abs() < 1e-12);
        assert_eq!(a.stragglers_suspected, 3);
        assert_eq!(a.links_degraded, 1);
        assert_eq!(a.ranks_silent, 1);
    }

    #[test]
    fn membership_latest_event_wins() {
        let sched = MembershipSchedule::none()
            .crash(2, 3)
            .rejoin(2, 7)
            .crash(4, 5);
        assert!(sched.is_live(2, 0));
        assert!(!sched.is_live(2, 3));
        assert!(!sched.is_live(2, 6));
        assert!(sched.is_live(2, 7), "rejoin revives the worker");
        assert!(sched.is_live(2, 100));
        assert!(!sched.is_live(4, 5));
        assert!(sched.is_live(0, 50), "untouched workers stay live");
        // Same-round conflict: the later-listed event wins.
        let tie = MembershipSchedule::none().crash(1, 4).rejoin(1, 4);
        assert!(tie.is_live(1, 4));
        let tie2 = MembershipSchedule::none().rejoin(1, 4).crash(1, 4);
        assert!(!tie2.is_live(1, 4));
    }

    #[test]
    fn plan_live_set_merges_legacy_crash_with_membership() {
        let plan = FaultPlan::seeded(3)
            .with_crash(2, 3)
            .with_rejoin(2, 6)
            .with_crash_event(5, 4);
        assert_eq!(plan.live_set(8, 0), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(plan.live_set(8, 3), vec![0, 1, 3, 4, 5, 6, 7]);
        assert_eq!(plan.live_set(8, 4), vec![0, 1, 3, 4, 6, 7]);
        assert_eq!(plan.live_set(8, 6), vec![0, 1, 2, 3, 4, 6, 7]);
        assert_eq!(plan.rejoined_at(8, 6), vec![2]);
        assert!(plan.rejoined_at(8, 5).is_empty());
        assert!(plan.membership_changed_at(8, 3));
        assert!(plan.membership_changed_at(8, 4));
        assert!(!plan.membership_changed_at(8, 5));
        assert!(plan.membership_changed_at(8, 6));
        assert!(!plan.is_none());
    }

    #[test]
    fn legacy_crash_matches_equivalent_membership_event() {
        let legacy = FaultPlan::seeded(1).with_crash(3, 5);
        let elastic = FaultPlan::seeded(1).with_crash_event(3, 5);
        for t in 0..12 {
            for w in 0..6 {
                assert_eq!(legacy.live_at(w, t), elastic.live_at(w, t), "w={w} t={t}");
            }
            assert_eq!(legacy.live_set(6, t), elastic.live_set(6, t));
        }
        // Same-round tie: the prepended crash loses to any other event of
        // its round, whichever builder was called first.
        for plan in [
            FaultPlan::seeded(1).with_rejoin(1, 4).with_crash(1, 4),
            FaultPlan::seeded(1).with_crash(1, 4).with_rejoin(1, 4),
        ] {
            assert!(plan.live_at(1, 4), "{:?}", plan.membership);
        }
        let appended = FaultPlan::seeded(1)
            .with_rejoin(1, 4)
            .with_crash_event(1, 4);
        assert!(!appended.live_at(1, 4));
    }

    #[test]
    fn storm_is_deterministic_and_keeps_two_live() {
        let m = 8;
        let rounds = 200;
        let a = MembershipSchedule::storm(0xC405, m, rounds, 3, 2);
        let b = MembershipSchedule::storm(0xC405, m, rounds, 3, 2);
        assert_eq!(a, b, "storms must replay under the same seed");
        let crashes = a
            .events
            .iter()
            .filter(|e| matches!(e, MembershipEvent::Crash { .. }))
            .count();
        let rejoins = a.events.len() - crashes;
        assert!(crashes >= 2, "storm scheduled {crashes} crashes");
        assert!(rejoins >= 1, "storm scheduled {rejoins} rejoins");
        for t in 0..rounds {
            let live = (0..m).filter(|&w| a.is_live(w, t)).count();
            assert!(live >= 2, "round {t}: only {live} live workers");
        }
        // Event rounds are causally ordered.
        for pair in a.events.windows(2) {
            assert!(pair[0].round() <= pair[1].round());
        }
    }

    #[test]
    fn reliable_transfer_under_certain_drop_is_forced() {
        let plan = FaultPlan::seeded(21)
            .with_link_drop(1.0)
            .with_retry_policy(2, 1e-4);
        let mut inj = plan.injector(0);
        for _ in 0..50 {
            let fate = inj.transfer_reliable();
            assert!(fate.delivered, "reliable transfers always deliver");
            assert_eq!(fate.attempts, 3, "budget exhausted before escalation");
        }
        let stats = inj.stats();
        assert_eq!(stats.forced_deliveries, 50);
        assert_eq!(stats.retransmits, 100);
        assert_eq!(stats.dropped_transfers, 0);
        // Best-effort transfers under the same plan are permanent omissions.
        let mut inj2 = plan.injector(0);
        let fate = inj2.transfer();
        assert!(!fate.delivered);
        assert_eq!(inj2.stats().dropped_transfers, 1);
        assert_eq!(inj2.stats().forced_deliveries, 0);
    }

    #[test]
    fn reliable_draw_sequence_unchanged_by_escalation_counter() {
        // The forced-delivery restructure must not move any RNG draw: a
        // mixed best-effort/reliable interleave replays exactly.
        let plan = FaultPlan::seeded(31)
            .with_link_drop(0.4)
            .with_link_corruption(0.1)
            .with_retry_policy(2, 1e-4);
        let run = || {
            let mut inj = plan.injector(9);
            let fates: Vec<TransferFate> = (0..400)
                .map(|i| {
                    if i % 3 == 0 {
                        inj.transfer_reliable()
                    } else {
                        inj.transfer()
                    }
                })
                .collect();
            (fates, inj.stats())
        };
        assert_eq!(run(), run());
    }
}
