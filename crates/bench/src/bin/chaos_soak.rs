//! **Chaos soak harness**: a seeded crash/rejoin/drop/straggler storm over a
//! long training run, hard-asserting the elastic-membership guarantees:
//!
//! - **liveness** — every scheduled round completes; no panic, no hang, even
//!   when the ring shrinks to two survivors;
//! - **consensus** — `check_consistency` keeps the MAR invariant asserted
//!   after every synchronization (all live replicas bitwise identical);
//! - **deterministic replay** — the same seeds reproduce the storm run
//!   word-for-word (`TrainReport` equality, fault stats included);
//! - **checkpoint elasticity** — interrupting the storm mid-flight,
//!   round-tripping a snapshot through its checkpoint frame, and
//!   resuming yields the byte-identical report;
//! - **convergence** — the chaos run still trains: its final loss is finite
//!   and the clean-vs-chaos loss gap is recorded (and sanity-bounded).
//!
//! A second storm runs on the **multi-process transport backend**: one OS
//! process per rank (this binary re-execs itself as the worker), `SIGKILL`
//! for one of them mid-session, and the assertions that the survivors
//! degrade to a typed failure — never a hang — and that a fresh process
//! rejoining under the same rank restores bit-exact consensus.
//!
//! Emits `BENCH_chaos.json` (override with `--out <path>`). `--fast`
//! shrinks the storm for CI smoke runs; the JSON schema is identical in
//! both modes (`"mode"` records which ran).
//!
//! ```text
//! cargo run --release -p marsit-bench --bin chaos_soak [-- --fast] [-- --out PATH]
//! ```

use std::time::Instant;

use marsit_collectives::PlanTopology;
use marsit_collectives::SyncError;
use marsit_core::transport::{drive_round, Scenario};
use marsit_core::CombineKind;
use marsit_models::{OptimizerKind, Workload};
use marsit_simnet::{
    FaultPlan, Frame, FrameKind, MembershipEvent, MembershipSchedule, Topology, WireHub, DRIVER,
};
use marsit_trainsim::{train, StrategyKind, TrainConfig, TrainSnapshot, TrainerState};

struct Storm {
    mode: &'static str,
    workers: usize,
    rounds: usize,
    crashes: usize,
    rejoins: usize,
    storm_seed: u64,
    train_examples: usize,
    test_examples: usize,
}

/// The committed trajectory point: ≥200 rounds, ≥2 crashes, ≥1 rejoin.
const FULL: Storm = Storm {
    mode: "full",
    workers: 8,
    rounds: 240,
    crashes: 3,
    rejoins: 2,
    storm_seed: 104_729,
    train_examples: 4096,
    test_examples: 512,
};

/// CI smoke: same schema, same assertions, a fraction of the wall clock.
const FAST: Storm = Storm {
    mode: "fast",
    workers: 6,
    rounds: 48,
    crashes: 2,
    rejoins: 1,
    storm_seed: 104_729,
    train_examples: 512,
    test_examples: 128,
};

fn soak_cfg(storm: &Storm) -> TrainConfig {
    let mut cfg = TrainConfig::new(
        Workload::AlexNetMnist,
        Topology::ring(storm.workers),
        StrategyKind::Marsit { k: Some(10) },
    );
    cfg.rounds = storm.rounds;
    cfg.train_examples = storm.train_examples;
    cfg.test_examples = storm.test_examples;
    cfg.eval_every = 0;
    cfg.batch_per_worker = 64;
    cfg.local_lr = 0.05;
    cfg.marsit_global_lr = 0.01;
    cfg.optimizer = OptimizerKind::Sgd;
    cfg.check_consistency = true;
    cfg
}

/// What the multi-process kill/rejoin storm observed.
struct ProcessSoak {
    workers: usize,
    killed_rank: usize,
    round_before_kill_ok: bool,
    kill_surfaced_as_disconnect: bool,
    round_after_rejoin_ok: bool,
}

/// The process-backend storm: ring(4) of real OS processes (re-execs of this
/// binary) behind a [`WireHub`]. One clean round, then `SIGKILL` a rank and
/// drive a round that must fail **typed** on every survivor, then spawn a
/// replacement under the same rank and drive a round that must again match
/// the simulator bit-for-bit.
fn process_soak(storm_seed: u64) -> ProcessSoak {
    let exe = std::env::current_exe().expect("current exe");
    let exe = exe.to_str().expect("utf-8 exe path");
    let sc = Scenario {
        topo: PlanTopology::Ring,
        world: 4,
        d: 1024,
        seed: storm_seed,
        round: 0,
        drop_p: None,
        combine: CombineKind::Weighted,
    };
    let reference = sc.run_simulator().expect("simulator reference");
    let matches_reference = |words: &[u64], combines: u64, draws: u64| {
        words == reference.consensus_words()
            && combines == reference.combines
            && draws == reference.rng_draws
    };

    let hub = WireHub::bind(sc.world).expect("bind chaos hub");
    let addr = hub.addr().expect("hub addr").to_string();
    let mut children: Vec<std::process::Child> = (0..sc.world)
        .map(|rank| sc.spawn_worker(exe, &addr, rank))
        .collect();
    for _ in 0..sc.world {
        hub.accept_worker().expect("worker hello");
    }

    // Clean round: four processes agree with the simulator word-for-word.
    let (words, combines, draws) = drive_round(&hub, &sc).expect("clean process round");
    let round_before_kill_ok = matches_reference(&words, combines, draws);
    assert!(round_before_kill_ok, "process consensus diverged pre-kill");

    // SIGKILL one rank; the next round must degrade to a typed failure on
    // the driver (survivors report `failed`, nobody hangs).
    let killed_rank = 1;
    children[killed_rank].kill().expect("kill worker");
    let _ = children[killed_rank].wait();
    let kill_surfaced_as_disconnect = matches!(
        drive_round(&hub, &sc),
        Err(SyncError::PeerDisconnected { .. })
    );
    assert!(
        kill_surfaced_as_disconnect,
        "killed worker did not surface as a typed disconnect"
    );

    // A fresh process rejoins under the same rank; consensus is restored.
    children[killed_rank] = sc.spawn_worker(exe, &addr, killed_rank);
    assert_eq!(
        hub.accept_worker().expect("rejoin hello"),
        killed_rank,
        "replacement connected under the wrong rank"
    );
    let (words, combines, draws) = drive_round(&hub, &sc).expect("post-rejoin round");
    let round_after_rejoin_ok = matches_reference(&words, combines, draws);
    assert!(round_after_rejoin_ok, "post-rejoin consensus diverged");

    hub.broadcast(&Frame::control(FrameKind::Stop, DRIVER, DRIVER));
    for child in &mut children {
        let _ = child.wait();
    }
    ProcessSoak {
        workers: sc.world,
        killed_rank,
        round_before_kill_ok,
        kill_surfaced_as_disconnect,
        round_after_rejoin_ok,
    }
}

fn main() {
    // A copy of this binary doubles as one rank of the process-backend storm
    // (see `process_soak`); the worker environment routes it there.
    if marsit_core::transport::maybe_run_worker_from_env() {
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let storm = if args.iter().any(|a| a == "--fast") {
        FAST
    } else {
        FULL
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_chaos.json", String::as_str);

    // --- The storm schedule: seeded, causal, never below two survivors. ---
    let schedule = MembershipSchedule::storm(
        storm.storm_seed,
        storm.workers,
        storm.rounds as u64,
        storm.crashes,
        storm.rejoins,
    );
    let crash_events = schedule
        .events
        .iter()
        .filter(|e| matches!(e, MembershipEvent::Crash { .. }))
        .count();
    let rejoin_events = schedule.events.len() - crash_events;
    assert!(
        crash_events >= 2 && rejoin_events >= 1,
        "storm under-generated: {:?}",
        schedule.events
    );
    println!(
        "storm seed={} over {} rounds on ring({}): {crash_events} crashes, {rejoin_events} rejoins",
        storm.storm_seed, storm.rounds, storm.workers
    );

    // --- Clean baseline: same run, no faults. ---
    let clean_cfg = soak_cfg(&storm);
    let t = Instant::now();
    let clean = train(&clean_cfg);
    let clean_s = t.elapsed().as_secs_f64();
    assert!(!clean.diverged, "clean baseline diverged");

    // --- The chaos run: storm + lossy links + a straggler. ---
    let mut chaos_cfg = soak_cfg(&storm);
    chaos_cfg.fault_plan = FaultPlan::seeded(storm.storm_seed)
        .with_link_drop(0.02)
        .with_link_corruption(0.01)
        .with_straggler(storm.workers - 1, 2.5)
        .with_membership(schedule.clone());
    let t = Instant::now();
    let chaos = train(&chaos_cfg);
    let chaos_s = t.elapsed().as_secs_f64();

    // Liveness: every round produced a record; nothing panicked above.
    assert_eq!(
        chaos.records.len(),
        storm.rounds,
        "storm run lost rounds (liveness violated)"
    );
    assert_eq!(chaos.faults.rejoins as usize, rejoin_events);
    assert!(
        chaos.faults.repairs as usize >= schedule.events.len(),
        "every membership change must re-form the topology: {:?}",
        chaos.faults
    );
    assert!(
        chaos.faults.catchup_extra_s > 0.0,
        "rejoins must pay catch-up transfers on the simulated clock"
    );

    // Convergence through chaos: finite loss, bounded gap to clean.
    let loss_gap = chaos.final_eval.loss - clean.final_eval.loss;
    let accuracy_gap = clean.final_eval.accuracy - chaos.final_eval.accuracy;
    assert!(!chaos.diverged, "chaos run diverged");
    assert!(chaos.final_eval.loss.is_finite());
    assert!(
        chaos.final_eval.loss < clean.final_eval.loss.mul_add(3.0, 1.0),
        "chaos loss {} is not in the same regime as clean loss {}",
        chaos.final_eval.loss,
        clean.final_eval.loss
    );
    println!(
        "clean loss {:.4} ({clean_s:.2}s) vs chaos loss {:.4} ({chaos_s:.2}s): gap {loss_gap:+.4}",
        clean.final_eval.loss, chaos.final_eval.loss
    );

    // Deterministic replay: the same plan reproduces the storm word-for-word.
    let replay = train(&chaos_cfg);
    let replay_deterministic = replay == chaos;
    assert!(replay_deterministic, "storm replay diverged");

    // Checkpoint elasticity: interrupt mid-storm, serialize, restore, finish.
    let split = storm.rounds / 2;
    let mut state = TrainerState::new(&chaos_cfg);
    for _ in 0..split {
        state.step();
    }
    let snapshot_json = state.snapshot().to_json();
    drop(state);
    let parsed = TrainSnapshot::from_json(&snapshot_json).expect("snapshot round-trips");
    let mut resumed = TrainerState::restore(&chaos_cfg, &parsed);
    while !resumed.is_done() {
        resumed.step();
    }
    let resume_bit_identical = resumed.finish() == chaos;
    assert!(
        resume_bit_identical,
        "resume from the round-{split} checkpoint diverged from the storm run"
    );
    println!(
        "replay deterministic: {replay_deterministic}; \
         resume from round {split} bit-identical: {resume_bit_identical} \
         (snapshot {:.1} MiB)",
        snapshot_json.len() as f64 / (1024.0 * 1024.0),
    );

    // --- The process-backend storm: real processes, a real SIGKILL. ---
    let proc_soak = process_soak(storm.storm_seed);
    println!(
        "process storm on ring({}): kill rank {} -> typed disconnect: {}; rejoin -> consensus: {}",
        proc_soak.workers,
        proc_soak.killed_rank,
        proc_soak.kill_surfaced_as_disconnect,
        proc_soak.round_after_rejoin_ok,
    );

    let f = chaos.faults;
    let json = format!(
        r#"{{
  "bench": "chaos",
  "mode": "{mode}",
  "config": {{
    "workers": {workers},
    "topology": "ring",
    "rounds": {rounds},
    "storm_seed": {seed},
    "crash_events": {crash_events},
    "rejoin_events": {rejoin_events},
    "link_drop": 0.02,
    "link_corruption": 0.01,
    "straggler_multiplier": 2.5
  }},
  "liveness": {{
    "rounds_completed": {rounds_completed},
    "completed": true
  }},
  "consensus": {{
    "checked_every_round": true,
    "violations": 0
  }},
  "determinism": {{
    "replay_deterministic": {replay_deterministic},
    "resume_split_round": {split},
    "resume_bit_identical": {resume_bit_identical},
    "snapshot_bytes": {snapshot_bytes}
  }},
  "convergence": {{
    "clean_loss": {clean_loss:.6},
    "chaos_loss": {chaos_loss:.6},
    "loss_gap": {loss_gap:.6},
    "clean_accuracy": {clean_acc:.4},
    "chaos_accuracy": {chaos_acc:.4},
    "accuracy_gap": {accuracy_gap:.4}
  }},
  "faults": {{
    "retransmits": {retransmits},
    "dropped_transfers": {dropped},
    "corrupted_transfers": {corrupted},
    "repairs": {repairs},
    "crashed_workers_peak": {crashed},
    "forced_deliveries": {forced},
    "rejoins": {rejoins},
    "retry_extra_s": {retry_s:.6},
    "catchup_extra_s": {catchup_s:.6}
  }},
  "process": {{
    "workers": {proc_workers},
    "topology": "ring",
    "killed_rank": {proc_killed_rank},
    "round_before_kill_ok": {proc_before_ok},
    "kill_surfaced_as_disconnect": {proc_disconnect},
    "round_after_rejoin_ok": {proc_rejoin_ok}
  }},
  "meta": {{
    "clean_wall_s": {clean_s:.3},
    "chaos_wall_s": {chaos_s:.3},
    "git_describe": "{git_describe}"
  }}
}}
"#,
        mode = storm.mode,
        workers = storm.workers,
        rounds = storm.rounds,
        seed = storm.storm_seed,
        rounds_completed = chaos.records.len(),
        snapshot_bytes = snapshot_json.len(),
        clean_loss = clean.final_eval.loss,
        chaos_loss = chaos.final_eval.loss,
        clean_acc = clean.final_eval.accuracy,
        chaos_acc = chaos.final_eval.accuracy,
        retransmits = f.retransmits,
        dropped = f.dropped_transfers,
        corrupted = f.corrupted_transfers,
        repairs = f.repairs,
        crashed = f.crashed_workers,
        forced = f.forced_deliveries,
        rejoins = f.rejoins,
        retry_s = f.retry_extra_s,
        catchup_s = f.catchup_extra_s,
        proc_workers = proc_soak.workers,
        proc_killed_rank = proc_soak.killed_rank,
        proc_before_ok = proc_soak.round_before_kill_ok,
        proc_disconnect = proc_soak.kill_surfaced_as_disconnect,
        proc_rejoin_ok = proc_soak.round_after_rejoin_ok,
        git_describe = env!("MARSIT_GIT_DESCRIBE"),
    );
    std::fs::write(out_path, json).expect("write chaos soak JSON");
    println!("wrote {out_path}");
}
