//! No output bit depends on the lane count.
//!
//! `Marsit::synchronize_into` cuts every per-coordinate sweep of a round —
//! the fused prologue, the `g_t` write, the residual flush, the compensation
//! reset and the recorded norm — into lanes of whole `PROLOGUE_BLOCK`s and
//! runs them on the process-wide lane executor. These tests run the same
//! rounds at 1, 2, 3 and 8 lanes and compare everything a round produces,
//! byte for byte, and pin that a lane's panic reaches the caller.
//!
//! Both tests take one lock, so that neither finds the executor's helpers
//! busy with the other's job and quietly runs inline: each asserts that the
//! multi-thread path actually ran wherever the host has a second core.

use std::panic;
use std::sync::Mutex;

use marsit::core::SyncOutcome;
use marsit::prelude::*;
use marsit::telemetry::{scoped, Telemetry};
use marsit::tensor::lanes;
use marsit::tensor::PROLOGUE_BLOCK;

static EXECUTOR: Mutex<()> = Mutex::new(());

const ROUNDS: u64 = 20;
const LANES: [usize; 4] = [1, 2, 3, 8];

fn updates(m: usize, d: usize, t: u64) -> Vec<Vec<f32>> {
    (0..m)
        .map(|w| {
            let mut rng = FastRng::new(0x1A4E ^ t, w as u64);
            (0..d)
                .map(|_| 0.01 * (rng.next_f64() as f32 - 0.5))
                .collect()
        })
        .collect()
}

/// Everything a run produces: each round's outcome with its floats as bits,
/// the recorded JSONL, and two snapshots (mid-run, which flushes a pending
/// residual, and final) as bits.
#[derive(Debug, PartialEq)]
struct Run {
    outcomes: Vec<(SyncOutcome, Vec<u32>, Vec<u32>)>,
    jsonl: String,
    snapshots: Vec<(u64, Vec<Vec<u32>>)>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn run(cfg: &MarsitConfig, topology: Topology, d: usize, lanes: usize) -> Run {
    let m = topology.workers();
    let mut sync = Marsit::new(cfg.clone().with_lanes(lanes), m, d);
    let tel = Telemetry::recording();
    let mut out = SyncOutcome::default();
    let mut run = Run {
        outcomes: Vec::new(),
        jsonl: String::new(),
        snapshots: Vec::new(),
    };
    for t in 0..ROUNDS {
        let u = updates(m, d, t);
        scoped(&tel, || sync.synchronize_into(&u, topology, &mut out));
        tel.drain_events_jsonl_into(&mut run.jsonl);
        let (g, mean) = (bits(&out.global_update), bits(&out.compensated_mean));
        run.outcomes.push((out.clone(), g, mean));
        if t == ROUNDS / 2 || t == ROUNDS - 1 {
            let snap = sync.snapshot();
            let comps = snap.compensations.iter().map(|c| bits(c)).collect();
            run.snapshots.push((snap.round, comps));
        }
    }
    run
}

/// 1, 2, 3 and 8 lanes give byte-identical rounds over ring(8), torus(2,4)
/// and ring(7); a one-element model, a partial word and three and a bit
/// blocks; one-bit only and every third round full precision; clean, the
/// `sync_chaos` fault plan, and a crash followed by a rejoin.
#[test]
fn lane_count_changes_no_output_bit() {
    let _executor = EXECUTOR.lock().unwrap_or_else(|e| e.into_inner());
    let team_runs = lanes::team_runs();
    let plans = [
        ("clean", FaultPlan::none()),
        (
            "sync_chaos",
            FaultPlan::seeded(0xC4A05)
                .with_link_drop(0.02)
                .with_link_corruption(0.01)
                .with_straggler(3, 2.5),
        ),
        (
            "crash+rejoin",
            FaultPlan::seeded(7)
                .with_crash_event(2, 4)
                .with_rejoin(2, 8),
        ),
    ];
    for topology in [Topology::ring(8), Topology::torus(2, 4), Topology::ring(7)] {
        for d in [1, 63, 3 * PROLOGUE_BLOCK + 37] {
            for schedule in [SyncSchedule::never(), SyncSchedule::every(3)] {
                for (label, plan) in &plans {
                    let cfg = MarsitConfig::new(schedule, 0.01, 41).with_fault_plan(plan.clone());
                    let one = run(&cfg, topology, d, 1);
                    assert!(one.jsonl.contains("\"ev\":\"marsit_sync\""));
                    for lanes in &LANES[1..] {
                        assert!(
                            run(&cfg, topology, d, *lanes) == one,
                            "{topology:?} d={d} {schedule:?} {label}: {lanes} lanes differ from 1"
                        );
                    }
                }
            }
        }
    }
    if lanes::width() > 1 {
        assert!(
            lanes::team_runs() > team_runs,
            "no round ran on more than one thread"
        );
    }
}

/// A lane that panics re-raises on the caller, with its payload, and the
/// executor runs the next job on every thread again.
#[test]
fn a_panicking_lane_reraises_on_the_caller() {
    let _executor = EXECUTOR.lock().unwrap_or_else(|e| e.into_inner());
    for lane_that_panics in [0, 1] {
        let caught = panic::catch_unwind(|| {
            lanes::run(2, &|lane| {
                assert!(lane != lane_that_panics, "lane {lane} gives up");
            });
        })
        .expect_err("the lane's panic reaches the caller");
        let message = caught
            .downcast_ref::<String>()
            .expect("an assert's payload is a String");
        assert_eq!(message, &format!("lane {lane_that_panics} gives up"));

        let before = lanes::team_runs();
        let ran = [Mutex::new(0), Mutex::new(0)];
        lanes::run_phased(2, 2, &|lane, _| *ran[lane].lock().unwrap() += 1);
        assert!(ran.iter().all(|n| *n.lock().unwrap() == 2));
        if lanes::width() > 1 {
            assert_eq!(lanes::team_runs(), before + 1, "the helpers are usable");
        }
    }
}
