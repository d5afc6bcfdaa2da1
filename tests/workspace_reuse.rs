//! Regression tests for the reusable round workspace.
//!
//! `Marsit` keeps a private `RoundWorkspace` (compensated updates,
//! full-precision buffers, packed sign vectors) alive across rounds so the
//! steady-state synchronize path re-fills buffers instead of reallocating
//! them. That reuse must be invisible: a long-lived instance whose buffers
//! are warm with round `t−1` data must produce byte-identical
//! [`SyncOutcome`]s and telemetry streams to a fresh instance whose cold
//! workspace replays the same prefix of rounds. Shape changes are the
//! dangerous case, so the suite alternates topologies mid-run and crashes a
//! worker (which shrinks the workspace to the survivor count and regrows it
//! on the next clean round).

use marsit::core::SyncOutcome;
use marsit::prelude::*;
use marsit::telemetry::{scoped, Telemetry};

const ROUNDS: usize = 10;

/// Per-round, per-worker updates: distinct every round so stale buffer
/// contents from round `t−1` can never masquerade as round `t` inputs.
fn round_updates(m: usize, d: usize, seed: u64, t: u64) -> Vec<Vec<f32>> {
    (0..m)
        .map(|w| {
            let mut rng = FastRng::new(seed.wrapping_add(t), w as u64);
            (0..d).map(|_| (rng.next_f64() as f32) - 0.5).collect()
        })
        .collect()
}

fn cfg(seed: u64) -> MarsitConfig {
    MarsitConfig::new(SyncSchedule::every(3), 0.01, seed)
}

fn faulty_cfg(seed: u64) -> MarsitConfig {
    let plan = FaultPlan::seeded(0xBADC)
        .with_link_drop(0.05)
        .with_straggler(1, 2.0)
        .with_crash(2, 4);
    cfg(seed).with_fault_plan(plan)
}

/// Runs `rounds` on a single long-lived instance; for every `t`, a fresh
/// instance replays rounds `0..=t` and its round-`t` outcome must be
/// byte-identical to the long-lived one's. Telemetry is byte-compared too:
/// the replay's full JSONL must be a prefix of the long-lived run's log.
fn assert_reuse_invisible(
    cfg: MarsitConfig,
    m: usize,
    d: usize,
    seed: u64,
    topology_for: impl Fn(u64) -> Topology,
) {
    let long_tel = Telemetry::recording();
    let mut long_lived = Marsit::new(cfg.clone(), m, d);
    let long_outcomes: Vec<SyncOutcome> = scoped(&long_tel, || {
        (0..ROUNDS as u64)
            .map(|t| long_lived.synchronize(&round_updates(m, d, seed, t), topology_for(t)))
            .collect()
    });
    let long_jsonl = long_tel.events_jsonl();
    assert!(!long_jsonl.is_empty(), "the run must actually log events");

    for t in 0..ROUNDS as u64 {
        let fresh_tel = Telemetry::recording();
        let mut fresh = Marsit::new(cfg.clone(), m, d);
        let outcome = scoped(&fresh_tel, || {
            (0..=t)
                .map(|r| fresh.synchronize(&round_updates(m, d, seed, r), topology_for(r)))
                .last()
                .expect("at least one round")
        });
        assert_eq!(
            outcome, long_outcomes[t as usize],
            "round {t}: cold-workspace replay disagrees with warm long-lived instance"
        );
        let fresh_jsonl = fresh_tel.events_jsonl();
        assert!(
            long_jsonl.starts_with(&fresh_jsonl),
            "round {t}: replay telemetry is not a byte-prefix of the long-lived log"
        );
    }
}

#[test]
fn ring_clean_rounds_reuse_is_invisible() {
    assert_reuse_invisible(cfg(42), 8, 300, 5, |_| Topology::ring(8));
}

#[test]
fn torus_clean_rounds_reuse_is_invisible() {
    assert_reuse_invisible(cfg(42), 8, 257, 5, |_| Topology::torus(2, 4));
}

/// A crash at round 4 shrinks the one-bit and full-precision buffers to the
/// seven survivors; later rounds regrow them. The warm instance must agree
/// with cold replays through the shrink *and* the regrow.
#[test]
fn ring_faulty_rounds_reuse_is_invisible() {
    assert_reuse_invisible(faulty_cfg(7), 8, 129, 8, |_| Topology::ring(8));
}

#[test]
fn torus_faulty_rounds_reuse_is_invisible() {
    assert_reuse_invisible(faulty_cfg(7), 8, 129, 8, |_| Topology::torus(2, 4));
}

/// Alternating ring/torus on one instance reshapes the workspace every
/// round — the harshest shape churn the driver can produce.
#[test]
fn mixed_topology_reuse_is_invisible() {
    assert_reuse_invisible(cfg(42), 8, 300, 5, |t| {
        if t % 2 == 0 {
            Topology::ring(8)
        } else {
            Topology::torus(2, 4)
        }
    });
}

/// The round prologue packs sign words straight into the workspace's sign
/// vectors, so a workspace adopted from another job hands the kernel stale
/// word buffers of the wrong size — and the mask planner a stale cache of
/// another job's winner planes, with a chain table laid out for that job's
/// chains. Ring(7) at a ragged `d` of more than two prologue blocks, run on a
/// fresh workspace, on one dirtied by a bigger job, on one dirtied by a
/// smaller job (other worker count, other data) and on one dirtied by a torus
/// (row and column chains, other chain sizes): outcomes, compensation state
/// and telemetry must agree byte for byte.
#[test]
fn adopted_workspace_of_another_size_is_invisible() {
    let (m, d) = (7usize, 40_007usize);
    let run_job = |donor: Option<(Topology, usize)>| {
        let mut job = Marsit::new(cfg(42), m, d);
        if let Some((donor_topology, donor_d)) = donor {
            // The donor stops after a one-bit round, so everything the
            // prologue and the collective touch is warm and dirty.
            let donor_m = donor_topology.workers();
            let mut other = Marsit::new(cfg(9), donor_m, donor_d);
            for t in 0..2 {
                let ups = round_updates(donor_m, donor_d, 77, t);
                let _ = other.synchronize(&ups, donor_topology);
            }
            job.adopt_workspace(other.release_workspace());
        }
        let tel = Telemetry::recording();
        let outcomes: Vec<SyncOutcome> = scoped(&tel, || {
            // One round past the last full-precision one, so the compensation
            // compared below is a live residual, not the reset zeros.
            (0..=ROUNDS as u64)
                .map(|t| job.synchronize(&round_updates(m, d, 5, t), Topology::ring(m)))
                .collect()
        });
        let residuals: Vec<Vec<u32>> = (0..m)
            .map(|w| {
                let c = job.compensation(w).vector();
                c.iter().map(|x| x.to_bits()).collect()
            })
            .collect();
        (outcomes, residuals, tel.events_jsonl())
    };
    let fresh = run_job(None);
    assert!(!fresh.2.is_empty(), "the run must actually log events");
    for (label, donor) in [
        ("bigger", (Topology::ring(8), 50_021)),
        ("smaller", (Topology::ring(5), 1_031)),
        ("torus", (Topology::torus(3, 3), 45_007)),
    ] {
        let adopted = run_job(Some(donor));
        assert_eq!(adopted.0, fresh.0, "{label} donor: outcomes differ");
        assert_eq!(adopted.1, fresh.1, "{label} donor: compensation differs");
        assert_eq!(adopted.2, fresh.2, "{label} donor: telemetry differs");
    }
}

/// `synchronize_into` recycles the caller's outcome: its mean accumulator is
/// only resized, then zeroed and refilled block by block. An outcome that
/// arrives poisoned and of the wrong lengths, and is then reused round after
/// round, must read exactly like a fresh one every round.
#[test]
fn recycled_outcome_is_invisible() {
    let (m, d) = (7usize, 40_007usize);
    let mut fresh_job = Marsit::new(cfg(42), m, d);
    let mut recycling_job = Marsit::new(cfg(42), m, d);
    let mut out = SyncOutcome {
        compensated_mean: vec![f32::NAN; d + 100],
        global_update: vec![f32::NAN; 3],
        ..SyncOutcome::default()
    };
    for t in 0..ROUNDS as u64 {
        let ups = round_updates(m, d, 5, t);
        let fresh = fresh_job.synchronize(&ups, Topology::ring(m));
        recycling_job.synchronize_into(&ups, Topology::ring(m), &mut out);
        assert_eq!(out, fresh, "round {t}: recycled outcome differs");
        if t == 4 {
            // Shorter than the model this time.
            out.compensated_mean.truncate(1_000);
            out.compensated_mean.fill(f32::NAN);
        }
    }
}

/// The same two hand-offs under a fault plan, through every membership state
/// of a torus(2,2): full, partial (a survivor ring), full again after a
/// rejoin, a lone survivor, nobody, and full again. A job that adopts a dirty
/// workspace from a bigger clean job and recycles one poisoned outcome must
/// read exactly like a cold job returning fresh outcomes — the terminal
/// rounds included, which write no collective output of their own: the empty
/// round must zero both recycled vectors and the lone round must not leak the
/// previous round's values.
#[test]
fn faulty_job_on_recycled_buffers_is_invisible() {
    let (m, d) = (4usize, 1_031usize);
    let topology = Topology::torus(2, 2);
    let plan = FaultPlan::seeded(0xBADC)
        .with_link_drop(0.05)
        .with_link_corruption(0.02)
        .with_retry_policy(1, 2e-4)
        .with_straggler(1, 2.0)
        // r2-r3 partial (one-bit, then full precision), r4 full again.
        .with_crash_event(3, 2)
        .with_rejoin(3, 4)
        // r6 (full precision) and r7 (one-bit): worker 0 alone.
        .with_crash_event(1, 6)
        .with_crash_event(2, 6)
        .with_crash_event(3, 6)
        // r8-r9: nobody.
        .with_crash_event(0, 8)
        // r10 on: everybody.
        .with_rejoin(0, 10)
        .with_rejoin(1, 10)
        .with_rejoin(2, 10)
        .with_rejoin(3, 10);
    let rounds = 13u64;
    let job_cfg = || cfg(42).with_fault_plan(plan.clone());

    let cold_tel = Telemetry::recording();
    let mut cold = Marsit::new(job_cfg(), m, d);
    let cold_outcomes: Vec<SyncOutcome> = scoped(&cold_tel, || {
        (0..rounds)
            .map(|t| cold.synchronize(&round_updates(m, d, 5, t), topology))
            .collect()
    });
    let modes: Vec<DegradedMode> = cold_outcomes.iter().map(|o| o.degraded).collect();
    assert_eq!(modes[2], DegradedMode::TorusToRing { live: 3 });
    assert_eq!(modes[4], DegradedMode::None);
    assert_eq!(modes[7], DegradedMode::LoneSurvivor { worker: 0 });
    assert_eq!(modes[9], DegradedMode::AllCrashed);
    assert_eq!(modes[10], DegradedMode::None);
    assert!(cold_outcomes[9].global_update.iter().all(|&g| g == 0.0));

    let mut donor = Marsit::new(cfg(9), 8, 50_021);
    for t in 0..2 {
        let _ = donor.synchronize(&round_updates(8, 50_021, 77, t), Topology::ring(8));
    }
    let mut warm = Marsit::new(job_cfg(), m, d);
    warm.adopt_workspace(donor.release_workspace());
    let warm_tel = Telemetry::recording();
    let mut out = SyncOutcome {
        compensated_mean: vec![f32::NAN; d + 100],
        global_update: vec![f32::NAN; 3],
        ..SyncOutcome::default()
    };
    for (t, want) in cold_outcomes.iter().enumerate() {
        let ups = round_updates(m, d, 5, t as u64);
        scoped(&warm_tel, || {
            warm.synchronize_into(&ups, topology, &mut out)
        });
        assert_eq!(
            &out, want,
            "round {t}: recycled buffers differ from cold ones"
        );
    }
    for w in 0..m {
        assert_eq!(
            warm.compensation(w).vector(),
            cold.compensation(w).vector(),
            "worker {w}: compensation differs"
        );
    }
    assert_eq!(warm_tel.events_jsonl(), cold_tel.events_jsonl());
}
