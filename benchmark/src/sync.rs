//! The three `sync_*` workloads: `Marsit::synchronize_into` on fixed shapes,
//! one call = one round, timed by the harness.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use marsit::core::SyncOutcome;
use marsit::prelude::*;
use marsit::telemetry::scoped;
use marsit::tensor::stats::binomial_ci_halfwidth;
use marsit::trainsim::elements_per_round;

use crate::harness::{
    cpu_seconds, peak_rss_mb, repeated_setup, Checks, Failure, Recorder, Seeds, Window,
};

/// Rotating update sets, so consecutive rounds never see identical inputs.
const UPDATE_SETS: usize = 4;

/// Everything that fixes a synchronization workload except its seed.
#[derive(Debug, Clone, Copy)]
pub struct SyncShape {
    pub topology: Topology,
    pub d: usize,
    /// Full-precision period `K` (`None` = never).
    pub k: Option<u32>,
    /// Seeded drops + corruption + a straggler, and a recording telemetry
    /// sink drained every round.
    pub chaos: bool,
    /// Rounds run (and discarded) during set-up.
    pub warmup_rounds: usize,
}

/// ring(8), d = 2^16: the ≈ 4 MB working set sits in L2, segments are
/// word-aligned, per-round fixed cost dominates.
pub const SMALL: SyncShape = SyncShape {
    topology: Topology::Ring { workers: 8 },
    d: 65_536,
    k: None,
    chaos: false,
    warmup_rounds: 1500,
};

/// ring(7), d = 1 048 583 (divisible by neither 7 nor 64): ≈ 120 MB
/// streamed from memory, ragged segments on the unaligned slice/splice path.
pub const LARGE: SyncShape = SyncShape {
    topology: Topology::Ring { workers: 7 },
    d: 1_048_583,
    k: None,
    chaos: false,
    warmup_rounds: 10,
};

/// torus(2,4), d = 2^16, K = 8, faults and a recording sink: the `_faulty`
/// collectives, the injector, the full-precision path and JSONL rendering.
/// (Not the d = 2^18 of ISSUE 12: that 56 MB working set made `round_ms_p95`
/// follow the host's memory contention by 28 %, beyond any allowed bound, and
/// the layers this workload exists for do not depend on d.)
pub const CHAOS: SyncShape = SyncShape {
    topology: Topology::Torus { rows: 2, cols: 4 },
    d: 65_536,
    k: Some(8),
    chaos: true,
    warmup_rounds: 600,
};

impl SyncShape {
    pub fn workers(&self) -> usize {
        self.topology.workers()
    }

    pub fn schedule(&self) -> SyncSchedule {
        self.k.map_or_else(SyncSchedule::never, SyncSchedule::every)
    }

    /// The fault plan of a chaos shape (`FaultPlan::none()` otherwise).
    pub fn fault_plan(&self, seeds: Seeds) -> FaultPlan {
        if self.chaos {
            chaos_plan(seeds)
        } else {
            FaultPlan::none()
        }
    }
}

/// The `sync_chaos` fault plan; the fault-decision probe of clean shapes
/// borrows it so it always measures a live injector.
pub fn chaos_plan(seeds: Seeds) -> FaultPlan {
    FaultPlan::seeded(seeds.faults())
        .with_link_drop(0.02)
        .with_link_corruption(0.01)
        .with_straggler(3, 2.5)
}

/// Seeded update sets: `UPDATE_SETS × m` vectors of `d` small floats.
pub fn update_sets(shape: &SyncShape, seeds: Seeds) -> Rc<Vec<Vec<Vec<f32>>>> {
    let mut g = FastRng::new(seeds.updates(), 0);
    Rc::new(
        (0..UPDATE_SETS)
            .map(|_| {
                (0..shape.workers())
                    .map(|_| {
                        (0..shape.d)
                            .map(|_| 0.01 * (g.next_f64() as f32 - 0.5))
                            .collect()
                    })
                    .collect()
            })
            .collect(),
    )
}

/// A synchronizer on its inputs, ready to run rounds.
pub struct SyncRig {
    pub shape: SyncShape,
    pub sets: Rc<Vec<Vec<Vec<f32>>>>,
    pub marsit: Marsit,
    pub out: SyncOutcome,
    /// `Some` = every round runs inside this recording scope and is drained.
    pub tel: Option<Telemetry>,
    pub jsonl: String,
    next: usize,
}

impl SyncRig {
    /// A fresh synchronizer (round 0, zero compensation) on `sets`.
    /// `recording` overrides the shape's telemetry mode (the probes measure
    /// both modes on every shape).
    pub fn fresh(
        shape: SyncShape,
        schedule: SyncSchedule,
        seeds: Seeds,
        sets: Rc<Vec<Vec<Vec<f32>>>>,
        recording: bool,
    ) -> Self {
        let cfg = MarsitConfig::new(schedule, 0.01, seeds.program())
            .with_fault_plan(shape.fault_plan(seeds));
        Self {
            shape,
            sets,
            marsit: Marsit::new(cfg, shape.workers(), shape.d),
            out: SyncOutcome::default(),
            tel: recording.then(Telemetry::recording),
            jsonl: String::new(),
            next: 0,
        }
    }

    /// Set-up as the workload defines it: inputs from the seed, construction,
    /// and the fixed warm-up.
    pub fn warmed(shape: SyncShape, seeds: Seeds) -> Self {
        let sets = update_sets(&shape, seeds);
        let mut rig = Self::fresh(shape, shape.schedule(), seeds, sets, shape.chaos);
        for _ in 0..shape.warmup_rounds {
            rig.round();
        }
        rig
    }

    /// The update set the next round will consume.
    pub fn next_set(&self) -> &[Vec<f32>] {
        &self.sets[self.next % self.sets.len()]
    }

    /// One round on the next update set.
    pub fn round(&mut self) {
        let set = &self.sets[self.next % self.sets.len()];
        self.next += 1;
        let topology = self.shape.topology;
        match &self.tel {
            Some(tel) => {
                scoped(tel, || {
                    self.marsit
                        .synchronize_into(black_box(set), topology, &mut self.out);
                });
                self.jsonl.clear();
                tel.drain_events_jsonl_into(&mut self.jsonl);
                black_box(&self.jsonl);
            }
            None => self
                .marsit
                .synchronize_into(black_box(set), topology, &mut self.out),
        }
        black_box(&mut self.out);
    }
}

/// Raw measurements of a timed loop.
pub struct Timed {
    pub rounds: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub round_ns: Vec<u64>,
}

/// Calls `round` until `seconds` have elapsed or it returns `false`, timing
/// every call with one clock reading per round.
pub fn timed_rounds(seconds: f64, mut round: impl FnMut(u64) -> bool) -> Timed {
    let deadline = Duration::from_secs_f64(seconds);
    // Room for 64 rounds per millisecond: no reallocation inside the window.
    let mut round_ns = Vec::with_capacity((seconds * 64_000.0) as usize + 1024);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut prev = start;
    loop {
        let more = round(round_ns.len() as u64);
        let now = Instant::now();
        round_ns.push((now - prev).as_nanos() as u64);
        prev = now;
        if !more || now - start >= deadline {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    round_ns.sort_unstable();
    Timed {
        rounds: round_ns.len() as u64,
        wall_s,
        cpu_s,
        round_ns,
    }
}

impl Timed {
    pub fn into_window(self, setup_s: f64) -> Window {
        Window {
            setup_s,
            rounds: self.rounds,
            wall_s: self.wall_s,
            cpu_s: self.cpu_s,
            round_ns: self.round_ns,
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// The untraced run: repeated set-up, the timed window, the output checks.
pub fn run(shape: SyncShape, seeds: Seeds, seconds: f64, checks: &mut Checks) -> Window {
    let (mut rig, setup_s) = repeated_setup(|| SyncRig::warmed(shape, seeds));
    let timed = timed_rounds(seconds, |_| {
        rig.round();
        true
    });
    let window = timed.into_window(setup_s);
    checks.ops(window.rounds);
    check_outputs(&rig, seeds, checks);
    window
}

/// The traced window: the same loop with a root span per round and a child
/// span around each harness-side call.
pub fn run_traced(rig: &mut SyncRig, seconds: f64, rec: &mut Recorder) -> Timed {
    timed_rounds(seconds, |r| {
        rec.span("round", "harness", r, |rec| {
            rec.span("synchronize_into", "core", r, |_| rig.round());
        });
        true
    })
}

fn plus_fraction(values: &[f32]) -> f64 {
    SignVec::from_signs(values).count_ones() as f64 / values.len() as f64
}

/// Output checks, outside the timed window.
fn check_outputs(rig: &SyncRig, seeds: Seeds, checks: &mut Checks) {
    let shape = rig.shape;
    checks.check(
        Failure::Output,
        rig.out.global_update.iter().all(|x| x.is_finite()),
        || "global_update of the last timed round is not finite".to_string(),
    );

    // Two fresh instances on the same seed must agree bit for bit.
    let fresh = || {
        SyncRig::fresh(
            shape,
            shape.schedule(),
            seeds,
            Rc::clone(&rig.sets),
            shape.chaos,
        )
    };
    let (mut a, mut b) = (fresh(), fresh());
    let mut unbiased_checked = false;
    let mut wire_checked = false;
    for r in 0..3 {
        let inputs_plus: f64 =
            a.next_set().iter().map(|u| plus_fraction(u)).sum::<f64>() / shape.workers() as f64;
        a.round();
        b.round();
        let same = a.out.global_update.len() == b.out.global_update.len()
            && a.out
                .global_update
                .iter()
                .zip(&b.out.global_update)
                .all(|(x, y)| x.to_bits() == y.to_bits());
        checks.check(Failure::Output, same, || {
            format!("round {r}: two instances on one seed disagree")
        });

        // ⊙ is an unbiased estimator of the mean sign: on the first one-bit
        // round (zero compensation — round 0, or the round after the
        // full-precision reset) the consensus `+` fraction must sit inside
        // the 5σ binomial band around the workers' mean `+` fraction.
        if !a.out.full_precision && !unbiased_checked {
            unbiased_checked = true;
            let consensus_plus = plus_fraction(&a.out.global_update);
            let band = binomial_ci_halfwidth(inputs_plus, shape.d as u64);
            checks.check(
                Failure::Output,
                (consensus_plus - inputs_plus).abs() <= band,
                || {
                    format!(
                        "round {r}: consensus + fraction {consensus_plus:.6} outside \
                     {inputs_plus:.6} ± {band:.6}"
                    )
                },
            );
        }
        if !a.out.full_precision && a.out.faults.is_clean() && !wire_checked {
            wire_checked = true;
            let bits = a.out.trace.total_bytes() as f64 * 8.0
                / elements_per_round(shape.topology, shape.d) as f64;
            checks.check(Failure::Output, bits <= 1.001, || {
                format!("round {r}: clean one-bit round carried {bits:.5} wire bits/elem")
            });
        }
    }
}
