//! Cross-backend transport conformance suite.
//!
//! The pinned contract: a [`Scenario`] run on the deterministic simulator
//! and on the multi-process TCP backend must produce **byte-identical**
//! consensus words, identical `⊙`/RNG-draw counts, identical wire traces,
//! and identical per-hop telemetry (up to the `backend`/`clock` tag naming
//! the transport that produced it).
//!
//! The matrix covers all four multi-hop paradigms the paper names — ring,
//! 2D torus, binary tree, segmented ring — each clean and under seeded
//! link-drop faults. One more test `SIGKILL`s a worker process mid-session.

use marsit::collectives::{PlanTopology, SyncError};
use marsit::core::transport::{drive_round, RunArtifacts, Scenario};
use marsit::core::CombineKind;
use marsit::simnet::{Frame, FrameKind, WireHub, DRIVER};
use marsit::telemetry::{scoped, Telemetry};

fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_transport_worker")
}

fn matrix() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (topo, world, d) in [
        (PlanTopology::Ring, 8, 321),
        (PlanTopology::Torus { rows: 2, cols: 4 }, 8, 321),
        (PlanTopology::Tree, 6, 321),
        (PlanTopology::SegRing { macro_segments: 3 }, 4, 321),
        // Ragged segments (1031 divides by neither 7 nor 64) and non-dyadic
        // keep probabilities r/(r+1), r up to 6.
        (PlanTopology::Ring, 7, 1031),
        // Vertical rings of three rows fed row aggregates of three.
        (PlanTopology::Torus { rows: 3, cols: 3 }, 9, 321),
    ] {
        for drop_p in [None, Some(0.3)] {
            scenarios.push(Scenario {
                topo,
                world,
                d,
                seed: 0xD15C0,
                round: 5,
                drop_p,
                combine: CombineKind::Weighted,
            });
        }
    }
    scenarios
}

/// A lossy torus at three consecutive rounds: each round draws its own fates
/// and mask seeds, so omissions land on different hops and the survivors'
/// aggregation counts differ round to round.
fn consecutive_rounds() -> impl Iterator<Item = Scenario> {
    (5..8).map(|round| Scenario {
        topo: PlanTopology::Torus { rows: 2, cols: 4 },
        world: 8,
        d: 321,
        seed: 0xD15C0,
        round,
        drop_p: Some(0.3),
        combine: CombineKind::Weighted,
    })
}

/// Runs `f` under a fresh recording telemetry scope; returns its value plus
/// the scope's JSONL event log.
fn with_telemetry<R>(f: impl FnOnce() -> R) -> (R, String) {
    let tel = Telemetry::recording();
    let out = scoped(&tel, f);
    (out, tel.events_jsonl())
}

/// Strips the transport tag from a telemetry JSONL line so logs from
/// different backends become comparable. Tag values are pinned separately.
fn normalize(jsonl: &str) -> String {
    jsonl
        .lines()
        .map(|line| {
            let mut line = line.to_string();
            for backend in ["simulator", "process"] {
                for clock in ["simulated", "real"] {
                    line = line.replace(
                        &format!(",\"backend\":\"{backend}\",\"clock\":\"{clock}\""),
                        "",
                    );
                }
            }
            line
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_artifacts_match(label: &str, reference: &RunArtifacts, got: &RunArtifacts) {
    assert_eq!(
        reference.consensus_words(),
        got.consensus_words(),
        "{label}: consensus words diverged"
    );
    assert_eq!(reference.combines, got.combines, "{label}: combine count");
    assert_eq!(reference.rng_draws, got.rng_draws, "{label}: rng draws");
    assert_eq!(
        reference.trace.total_bytes(),
        got.trace.total_bytes(),
        "{label}: trace bytes"
    );
    assert_eq!(
        reference.trace.num_steps(),
        got.trace.num_steps(),
        "{label}: trace steps"
    );
    let link = marsit::simnet::RateProfile::public_cloud().link;
    assert!(
        (reference.trace.time(link) - got.trace.time(link)).abs() < 1e-12,
        "{label}: trace time"
    );
}

#[test]
fn process_backend_conforms_across_matrix() {
    for sc in matrix() {
        let label = format!("{:?} drop={:?} process", sc.topo, sc.drop_p);
        let (reference, ref_log) = with_telemetry(|| sc.run_simulator().unwrap());
        let (process, proc_log) = with_telemetry(|| sc.run_process(worker_exe()).unwrap());
        assert_artifacts_match(&label, &reference, &process);
        assert_eq!(
            normalize(&ref_log),
            normalize(&proc_log),
            "{label}: telemetry diverged"
        );
        // The tag itself must name the backend that produced each log.
        assert!(ref_log.contains("\"backend\":\"simulator\""), "{label}");
        assert!(proc_log.contains("\"backend\":\"process\""), "{label}");
    }
}

#[test]
fn consecutive_rounds_conform_on_both_backends() {
    let mut distinct = Vec::new();
    for sc in consecutive_rounds() {
        let label = format!("round {}", sc.round);
        let reference = sc.run_simulator().unwrap();
        assert_artifacts_match(&label, &reference, &sc.run_process(worker_exe()).unwrap());
        distinct.push((reference.consensus_words().to_vec(), reference.combines));
    }
    distinct.dedup();
    assert_eq!(distinct.len(), 3, "the rounds did not differ");
}

#[test]
fn unweighted_ablation_conforms_too() {
    let sc = Scenario {
        topo: PlanTopology::Ring,
        world: 8,
        d: 200,
        seed: 7,
        round: 0,
        drop_p: Some(0.2),
        combine: CombineKind::UnweightedAblation,
    };
    let reference = sc.run_simulator().unwrap();
    let process = sc.run_process(worker_exe()).unwrap();
    assert_artifacts_match("unweighted", &reference, &process);
}

#[test]
fn process_backend_repeats_are_deterministic() {
    let sc = Scenario {
        topo: PlanTopology::Ring,
        world: 4,
        d: 130,
        seed: 99,
        round: 2,
        drop_p: Some(0.25),
        combine: CombineKind::Weighted,
    };
    let a = sc.run_process(worker_exe()).unwrap();
    let b = sc.run_process(worker_exe()).unwrap();
    assert_eq!(a.consensus_words(), b.consensus_words());
    assert_eq!(a.combines, b.combines);
    assert_eq!(a.rng_draws, b.rng_draws);
}

/// ring(4) of real worker processes behind one hub: a clean round matches
/// the simulator; after `SIGKILL` of rank 1 the next round fails typed
/// instead of hanging; a fresh process under the same rank rejoins and the
/// round after matches the simulator again.
#[test]
fn killed_worker_degrades_typed_and_a_replacement_rejoins() {
    let sc = Scenario {
        topo: PlanTopology::Ring,
        world: 4,
        d: 1024,
        seed: 104_729,
        round: 0,
        drop_p: None,
        combine: CombineKind::Weighted,
    };
    let reference = sc.run_simulator().unwrap();
    let assert_matches_reference = |label: &str, (words, combines, draws): (Vec<u64>, u64, u64)| {
        assert_eq!(
            words,
            reference.consensus_words(),
            "{label}: consensus words"
        );
        assert_eq!(combines, reference.combines, "{label}: combine count");
        assert_eq!(draws, reference.rng_draws, "{label}: rng draws");
    };

    let hub = WireHub::bind(sc.world).unwrap();
    let addr = hub.addr().unwrap().to_string();
    let mut children: Vec<_> = (0..sc.world)
        .map(|rank| sc.spawn_worker(worker_exe(), &addr, rank))
        .collect();
    for _ in 0..sc.world {
        hub.accept_worker().unwrap();
    }
    assert_matches_reference("before the kill", drive_round(&hub, &sc).unwrap());

    let killed = 1;
    children[killed].kill().unwrap();
    children[killed].wait().unwrap();
    let degraded = drive_round(&hub, &sc);
    assert!(
        matches!(degraded, Err(SyncError::PeerDisconnected { .. })),
        "a killed worker must surface as a typed disconnect, got {degraded:?}"
    );

    children[killed] = sc.spawn_worker(worker_exe(), &addr, killed);
    assert_eq!(hub.accept_worker().unwrap(), killed);
    assert_matches_reference("after the rejoin", drive_round(&hub, &sc).unwrap());

    hub.broadcast(&Frame::control(FrameKind::Stop, DRIVER, DRIVER));
    for child in &mut children {
        child.wait().unwrap();
    }
}
