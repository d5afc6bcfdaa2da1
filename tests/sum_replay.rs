//! Differential pins for the full-precision round as a walk plus a replay.
//!
//! `SumReplay` walks a sum all-reduce's schedule once, touching no data, and
//! records its reduce folds; a replay of those folds in walk order must give
//! exactly what `allreduce_sum` leaves at every worker. These tests compare
//! the two bit for bit — the sum, the trace, the recorded hop JSONL and the
//! injector's draws — on every topology, on ragged and multi-block models,
//! on a clean fabric and under faults, and with inputs holding `−0.0`, ±∞ and
//! NaNs whose payloads differ by worker, so that a sum which reorders its
//! folds or keeps another operand's NaN shows. Marsit's full-precision round, which replays the
//! folds inside its laned prologue sweep, is checked against the same
//! reference at 1, 2 and 3 lanes and on every live set of a crash storm.

use marsit::collectives::{allreduce_sum, PlanTopology, SumReplay, Trace};
use marsit::core::SyncOutcome;
use marsit::prelude::*;
use marsit::telemetry::scoped;
use marsit::tensor::PROLOGUE_BLOCK;

const DS: [usize; 4] = [1, 63, 3 * PROLOGUE_BLOCK + 37, 65_536];

/// The `sync_chaos` plan: drops, corruption and a straggler.
fn chaos() -> FaultPlan {
    FaultPlan::seeded(0x5eed_c4a0)
        .with_link_drop(0.02)
        .with_link_corruption(0.01)
        .with_straggler(3, 2.5)
}

/// Heavy loss with one retry: reduce transfers are omitted.
fn lossy() -> FaultPlan {
    FaultPlan::seeded(11)
        .with_link_drop(0.3)
        .with_link_corruption(0.1)
        .with_retry_policy(1, 1e-4)
}

fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("clean", FaultPlan::none()),
        ("chaos", chaos()),
        ("lossy", lossy()),
    ]
}

/// Values that tell one float sum from another that should be equal: signed
/// zeros, infinities and quiet NaNs whose payloads differ by worker.
const SPECIALS: [u32; 6] = [
    0x8000_0000,
    0x0000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_0000,
    0xffc0_0000,
];

fn inputs(m: usize, d: usize, seed: u64, specials: bool) -> Vec<Vec<f32>> {
    (0..m)
        .map(|w| {
            let mut rng = FastRng::new(seed, w as u64);
            (0..d)
                .map(|x| {
                    let v = 0.01 * (rng.next_f64() as f32 - 0.5);
                    match (specials, (x * 7 + w * 3) % 23) {
                        (true, k @ 0..=5) => {
                            let bits = SPECIALS[k];
                            // A NaN carries its worker in the payload.
                            let nan = bits & 0x7fc0_0000 == 0x7fc0_0000;
                            f32::from_bits(if nan { bits | (w as u32 + 1) } else { bits })
                        }
                        _ => v,
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The recorded `hop` lines, without the scope's clock and sequence fields.
fn hops(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"hop\""))
        .map(|l| {
            l.split(',')
                .filter(|f| !f.starts_with("{\"t\":") && !f.starts_with("\"seq\":"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// Runs `f` in a fresh recording scope: its result and the JSONL.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, String) {
    let tel = Telemetry::recording();
    let out = scoped(&tel, f);
    let mut jsonl = String::new();
    tel.drain_events_jsonl_into(&mut jsonl);
    (out, jsonl)
}

/// What a sum all-reduce produced: the sum's bits, the trace, the recorded
/// JSONL and the injector's state afterwards.
type Summed = (Vec<u32>, Trace, String, String);

/// `allreduce_sum` on copies of `inputs`; every worker ends with the sum.
fn reference(topology: PlanTopology, inputs: &[Vec<f32>], plan: &FaultPlan, t: u64) -> Summed {
    let mut data = inputs.to_vec();
    let mut inj = plan.injector(t);
    let (trace, jsonl) = recorded(|| allreduce_sum(topology, &mut data, &mut inj).expect("valid"));
    let sum = bits(&data[0]);
    assert!(data.iter().all(|w| bits(w) == sum), "workers disagree");
    (sum, trace, jsonl, format!("{inj:?}"))
}

/// The walk + replay of the same sum, on one `SumReplay` reused across calls.
fn replayed(
    replay: &mut SumReplay,
    topology: PlanTopology,
    inputs: &[Vec<f32>],
    plan: &FaultPlan,
    t: u64,
) -> Summed {
    let mut inj = plan.injector(t);
    let ((sum, trace), jsonl) = recorded(|| {
        replay
            .sum(topology, inputs, &mut inj, |x| x)
            .expect("valid")
    });
    (bits(&sum), trace, jsonl, format!("{inj:?}"))
}

/// The walk + replay equals `allreduce_sum` on every topology, every model
/// size, every plan, over several rounds of each plan's injector.
#[test]
fn replay_is_allreduce_sum_bit_for_bit() {
    let topologies = [
        (PlanTopology::Ring, 8),
        (PlanTopology::Torus { rows: 2, cols: 4 }, 8),
        (PlanTopology::Tree, 6),
        (PlanTopology::SegRing { macro_segments: 3 }, 5),
    ];
    let mut replay = SumReplay::default();
    for (topology, m) in topologies {
        for d in DS {
            let data = inputs(m, d, d as u64, true);
            for (label, plan) in plans() {
                for t in 0..3 {
                    let want = reference(topology, &data, &plan, t);
                    let got = replayed(&mut replay, topology, &data, &plan, t);
                    let case = format!("{topology:?} d={d} {label} round {t}");
                    assert_eq!(got.0, want.0, "{case}: sum");
                    assert_eq!(got.1, want.1, "{case}: trace");
                    assert_eq!(got.2, want.2, "{case}: hop JSONL");
                    assert_eq!(got.3, want.3, "{case}: injector");
                }
            }
        }
    }
}

/// The lossy plan does omit reduce transfers on these shapes, so the replay
/// is checked on partial sums too, and the specials reach the sums.
#[test]
fn the_differential_cases_omit_transfers_and_carry_specials() {
    let data = inputs(8, 63, 63, true);
    let (sum, ..) = reference(PlanTopology::Ring, &data, &FaultPlan::none(), 0);
    assert!(sum.iter().any(|&b| f32::from_bits(b).is_nan()));
    let mut inj = lossy().injector(0);
    let mut copy = data.clone();
    allreduce_sum(PlanTopology::Ring, &mut copy, &mut inj).expect("valid");
    assert!(inj.stats().dropped_transfers > 0, "nothing was omitted");
}

/// `h_w = u_w + c_w`, the compensated update a round's prologue forms.
fn compensated(updates: &[Vec<f32>], comps: &[Vec<f32>]) -> Vec<Vec<f32>> {
    updates
        .iter()
        .zip(comps)
        .map(|(u, c)| u.iter().zip(c).map(|(&u, &c)| u + c).collect())
        .collect()
}

/// Checks one full-precision outcome against `allreduce_sum` of the live
/// workers' compensated updates: `g_t` bits, trace and hop lines.
fn assert_fp_round(
    out: &SyncOutcome,
    jsonl: &str,
    live_h: &[Vec<f32>],
    topology: PlanTopology,
    plan: &FaultPlan,
    t: u64,
    case: &str,
) {
    assert!(out.full_precision, "{case}");
    let (sum, trace, want_jsonl, _) = reference(topology, live_h, plan, t);
    let inv = 1.0 / live_h.len() as f32;
    let want: Vec<u32> = sum
        .iter()
        .map(|&b| (f32::from_bits(b) * inv).to_bits())
        .collect();
    assert_eq!(bits(&out.global_update), want, "{case}: g_t");
    assert_eq!(out.trace, trace, "{case}: trace");
    assert_eq!(hops(jsonl), hops(&want_jsonl), "{case}: hop lines");
}

/// Marsit's full-precision round — the walk, then the folds replayed in
/// place inside the prologue sweep — is `allreduce_sum` of the compensated
/// updates scaled by `1/|live|`, at 1, 2 and 3 lanes, on ring(8) and
/// torus(2,4), clean and under the chaos plans, with a residual both zero
/// (round 0, where the inputs carry the specials) and nonzero (round 2,
/// after a one-bit round). A twin that never flushes its deferred residual
/// gives the same bits.
#[test]
fn marsit_full_precision_round_is_the_replayed_sum() {
    for (topology, schedule) in [
        (Topology::ring(8), PlanTopology::Ring),
        (
            Topology::torus(2, 4),
            PlanTopology::Torus { rows: 2, cols: 4 },
        ),
    ] {
        let m = topology.workers();
        for d in DS {
            for (label, plan) in plans() {
                for lanes in [1, 2, 3] {
                    let cfg = MarsitConfig::new(SyncSchedule::every(2), 0.01, 7)
                        .with_fault_plan(plan.clone())
                        .with_lanes(lanes);
                    let mut sync = Marsit::new(cfg.clone(), m, d);
                    let mut twin = Marsit::new(cfg, m, d);
                    let (mut out, mut twin_out) = (SyncOutcome::default(), SyncOutcome::default());
                    for t in 0..3 {
                        let u = inputs(m, d, 100 + t, t == 0);
                        let comps: Vec<Vec<f32>> = (0..m)
                            .map(|w| sync.compensation(w).vector().to_vec())
                            .collect();
                        let (_, jsonl) = recorded(|| sync.synchronize_into(&u, topology, &mut out));
                        twin.synchronize_into(&u, topology, &mut twin_out);
                        let case = format!("{topology:?} d={d} {label} {lanes} lanes round {t}");
                        assert_eq!(
                            bits(&out.global_update),
                            bits(&twin_out.global_update),
                            "{case}: twin"
                        );
                        assert_eq!(out.trace, twin_out.trace, "{case}: twin trace");
                        if t % 2 == 0 {
                            let h = compensated(&u, &comps);
                            assert_fp_round(&out, &jsonl, &h, schedule, &plan, t, &case);
                            for w in 0..m {
                                assert!(
                                    sync.compensation(w)
                                        .vector()
                                        .iter()
                                        .all(|&c| c.to_bits() == 0),
                                    "{case}: c reset"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Every live set of a crash storm on torus(2,3): a partial set resyncs
/// over the survivor ring, so its full-precision round is the ring sum of
/// the survivors' compensated updates; one survivor and none keep the
/// terminal path (the survivor's own update, or zeros, and no wire).
#[test]
fn every_live_set_of_a_crash_storm_is_the_survivor_ring_sum() {
    let (m, d) = (6, 63);
    let topology = Topology::torus(2, 3);
    for mask in 0u32..1 << m {
        let live: Vec<usize> = (0..m).filter(|&w| mask & (1 << w) != 0).collect();
        let plan = (0..m)
            .filter(|w| !live.contains(w))
            .fold(lossy(), |plan, w| plan.with_crash(w, 0));
        let cfg = MarsitConfig::new(SyncSchedule::every(1), 0.01, 7)
            .with_fault_plan(plan.clone())
            .with_lanes(2);
        let mut sync = Marsit::new(cfg, m, d);
        let u = inputs(m, d, u64::from(mask), true);
        let mut out = SyncOutcome::default();
        let (_, jsonl) = recorded(|| sync.synchronize_into(&u, topology, &mut out));
        let zero = vec![vec![0.0f32; d]; m];
        let h = compensated(&u, &zero);
        let case = format!("live {live:?}");
        let live_h: Vec<Vec<f32>> = live.iter().map(|&w| h[w].clone()).collect();
        match live.len() {
            0 => assert_eq!(out.global_update, vec![0.0; d], "{case}"),
            1 => assert_eq!(bits(&out.global_update), bits(&h[live[0]]), "{case}"),
            6 => {
                let torus = PlanTopology::Torus { rows: 2, cols: 3 };
                assert_fp_round(&out, &jsonl, &live_h, torus, &plan, 0, &case);
            }
            _ => assert_fp_round(&out, &jsonl, &live_h, PlanTopology::Ring, &plan, 0, &case),
        }
        if live.len() < 2 {
            assert_eq!(out.trace.num_steps(), 0, "{case}: nothing on the wire");
        }
    }
}
