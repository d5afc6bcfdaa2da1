//! System-level statistical properties: the `⊙` pipeline's unbiasedness
//! through the real collectives, and the theory-module bounds.

use marsit::collectives::ring::{ring_allreduce_onebit, SumWire};
use marsit::collectives::torus::torus_allreduce_onebit;
use marsit::collectives::{allreduce_signsum, PlanTopology};
use marsit::core::ominus::combine_weighted_assign;
use marsit::core::theory;
use marsit::prelude::*;
use marsit::telemetry::scoped;
use marsit::tensor::stats::{binomial_ci_halfwidth, STAT_TEST_Z};

/// E[consensus bit] through the full ring pipeline must equal the mean of
/// the workers' bits — the property Theorem 1 rests on.
#[test]
fn ring_onebit_allreduce_is_unbiased() {
    let m = 5;
    let d = 40;
    let mut seed_rng = FastRng::new(3, 0);
    let signs: Vec<SignVec> = (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut seed_rng))
        .collect();
    let trials = 20_000;
    let mut ones = vec![0u32; d];
    for trial in 0..trials {
        let mut rng = FastRng::new(1000 + trial, 0);
        let (out, _) = ring_allreduce_onebit(&signs, |r, l, ctx| {
            combine_weighted_assign(r, ctx.received_count, l, ctx.local_count, &mut rng);
        });
        for (j, o) in ones.iter_mut().enumerate() {
            *o += u32::from(out.get(j));
        }
    }
    for (j, &o) in ones.iter().enumerate() {
        let measured = f64::from(o) / f64::from(trials as u32);
        let expected = signs.iter().filter(|v| v.get(j)).count() as f64 / m as f64;
        // 5σ binomial interval: per-comparison false-positive ≈ 5.7e-7.
        let hw = binomial_ci_halfwidth(expected, trials);
        assert!(
            (measured - expected).abs() <= hw + 1e-12,
            "coord {j}: {measured} vs {expected} (±{hw})"
        );
    }
}

/// Same property through the 2D-torus pipeline with its weighted combines.
#[test]
fn torus_onebit_allreduce_is_unbiased() {
    let (rows, cols) = (2, 3);
    let m = rows * cols;
    let d = 24;
    let mut seed_rng = FastRng::new(8, 0);
    let signs: Vec<SignVec> = (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut seed_rng))
        .collect();
    let trials = 20_000;
    let mut ones = vec![0u32; d];
    for trial in 0..trials {
        let mut rng = FastRng::new(5000 + trial, 0);
        let (out, _) = torus_allreduce_onebit(&signs, rows, cols, |r, l, ctx| {
            combine_weighted_assign(r, ctx.received_count, l, ctx.local_count, &mut rng);
        });
        for (j, o) in ones.iter_mut().enumerate() {
            *o += u32::from(out.get(j));
        }
    }
    for (j, &o) in ones.iter().enumerate() {
        let measured = f64::from(o) / f64::from(trials as u32);
        let expected = signs.iter().filter(|v| v.get(j)).count() as f64 / m as f64;
        // 5σ binomial interval: per-comparison false-positive ≈ 5.7e-7.
        let hw = binomial_ci_halfwidth(expected, trials);
        assert!(
            (measured - expected).abs() <= hw + 1e-12,
            "coord {j}: {measured} vs {expected} (±{hw})"
        );
    }
}

/// The synchronizer's reduce chains resolve from one winner draw per
/// coordinate, so the consensus must *be* a uniformly random folded worker:
/// with exactly one worker disagreeing (each in turn), the consensus follows
/// it at a coordinate with probability `[it was folded there] / (workers
/// folded there)` — `1/M` on a clean fabric, where the band is the binomial
/// one. The folded sets come from the
/// integer sign-sum walk on the same injector (one schedule, same fates):
/// all-ones inputs give each coordinate's count `c`, the lone-dissenter
/// inputs give `2·[folded] − c`. Rates are pooled over coordinates and
/// seeds and held to the 5σ band of their exact variance `Σ p(1 − p)`.
#[test]
fn winner_is_uniform_over_folded_workers() {
    let (d, trials) = (1_500usize, 24u64);
    for (topology, schedule) in [
        (Topology::ring(3), PlanTopology::Ring),
        (Topology::ring(5), PlanTopology::Ring),
        (Topology::ring(6), PlanTopology::Ring),
        (Topology::ring(7), PlanTopology::Ring),
        (Topology::ring(8), PlanTopology::Ring),
        (
            Topology::torus(2, 4),
            PlanTopology::Torus { rows: 2, cols: 4 },
        ),
        (
            Topology::torus(3, 3),
            PlanTopology::Torus { rows: 3, cols: 3 },
        ),
    ] {
        let m = topology.workers();
        for drop_p in [0.0, 0.25] {
            let mut omissions = 0;
            for k in 0..m {
                let label = format!("{topology:?} drop={drop_p} dissenter {k}");
                let (mut ones, mut expected, mut variance) = (0usize, 0.0f64, 0.0f64);
                for trial in 0..trials {
                    let seed = 1_000 * (k as u64 + 1) + trial;
                    let plan = FaultPlan::seeded(seed)
                        .with_link_drop(drop_p)
                        .with_retry_policy(1, 1e-4);
                    let folded = |signs: &[SignVec]| {
                        let inj = &mut plan.injector(0);
                        let (sums, _) =
                            allreduce_signsum(schedule, signs, SumWire::FixedWidth, inj).unwrap();
                        sums.sums().to_vec()
                    };
                    let lone: Vec<SignVec> = (0..m)
                        .map(|w| {
                            if w == k {
                                SignVec::ones(d)
                            } else {
                                SignVec::zeros(d)
                            }
                        })
                        .collect();
                    let counts = folded(&vec![SignVec::ones(d); m]);
                    for (&c, &s) in counts.iter().zip(&folded(&lone)) {
                        assert!(
                            c >= 1 && (drop_p > 0.0 || c == m as i32),
                            "{label}: count {c}"
                        );
                        omissions += usize::from(c < m as i32);
                        let p = f64::from((s + c) / 2) / f64::from(c);
                        expected += p;
                        variance += p * (1.0 - p);
                    }
                    let cfg =
                        MarsitConfig::new(SyncSchedule::never(), 1.0, seed).with_fault_plan(plan);
                    let updates: Vec<Vec<f32>> = (0..m)
                        .map(|w| vec![if w == k { 1.0 } else { -1.0 }; d])
                        .collect();
                    let out = Marsit::new(cfg, m, d).synchronize(&updates, topology);
                    ones += SignVec::from_signs(&out.global_update).count_ones();
                }
                let band = STAT_TEST_Z * variance.sqrt();
                assert!(
                    (ones as f64 - expected).abs() <= band,
                    "{label}: followed at {ones} of {} coordinates, expected {expected:.1} ± {band:.1}",
                    d as u64 * trials
                );
            }
            assert_eq!(drop_p > 0.0, omissions > 0, "{topology:?} drop={drop_p}");
        }
    }
}

/// On a clean power-of-two ring nothing is rejected and nothing falls back:
/// a round draws exactly `⌈log₂ g⌉` words per 64 coordinates of each of the
/// `g` chains, once per chain — not once per hop.
#[test]
fn clean_power_of_two_ring_draws_are_closed_form() {
    for (g, d) in [
        (2usize, 64usize),
        (4, 1_000),
        (8, 300),
        (8, 65_536),
        (16, 4_099),
    ] {
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.01, 7);
        let mut sync = Marsit::new(cfg, g, d);
        let updates: Vec<Vec<f32>> = (0..g)
            .map(|w| {
                let mut rng = FastRng::new(3, w as u64);
                (0..d).map(|_| rng.next_f64() as f32 - 0.5).collect()
            })
            .collect();
        let tel = Telemetry::recording();
        let rounds = 3u64;
        for _ in 0..rounds {
            let _ = scoped(&tel, || sync.synchronize(&updates, Topology::ring(g)));
        }
        let words: usize = marsit::collectives::ring::segment_ranges(d, g)
            .iter()
            .map(|seg| seg.len().div_ceil(64))
            .sum();
        let planes = g.ilog2() as usize;
        assert_eq!(
            tel.counter("marsit.rng_draws"),
            rounds * (planes * words) as u64,
            "ring({g}) d={d}"
        );
        assert_eq!(
            tel.counter("marsit.combines"),
            rounds * (g * (g - 1)) as u64,
            "ring({g}) d={d}"
        );
    }
}

/// Theorems 2 and 3, empirically: PS deviation stays bounded while the
/// cascading deviation explodes with the chain length.
#[test]
fn deviation_bounds_shape() {
    let d = 48;
    let mut previous_cascading = 0.0;
    let mut previous_ps = f64::INFINITY;
    for m in [2usize, 4, 6, 8] {
        let est = theory::estimate_deviations(d, m, 60, 7);
        assert!(est.ps < theory::ps_deviation_bound(d, (d as f64).sqrt()));
        assert!(est.cascading < theory::cascading_deviation_bound(d, m, (d as f64).sqrt()));
        assert!(
            est.cascading > previous_cascading,
            "cascading deviation must grow with M: {est:?}"
        );
        previous_cascading = est.cascading;
        // PS deviation ≈ D²/M: shrinking in M, never exploding.
        assert!(
            est.ps < 1.2 * previous_ps,
            "PS deviation must not grow with M: {} after {previous_ps}",
            est.ps
        );
        previous_ps = est.ps;
    }
}

/// Marsit's compensation keeps the *compensated iterate* on the SGD path:
/// c_t + Σ applied = Σ intended (the ỹ construction of Theorem 1's proof).
#[test]
fn compensation_telescopes_through_full_algorithm() {
    use marsit::core::{Marsit, MarsitConfig, SyncSchedule};
    let m = 3;
    let d = 16;
    let cfg = MarsitConfig::new(SyncSchedule::never(), 0.01, 11);
    let mut sync = Marsit::new(cfg, m, d);
    let mut rng = FastRng::new(2, 0);
    let mut intended = vec![vec![0.0f64; d]; m];
    let mut applied = vec![0.0f64; d];
    for _ in 0..40 {
        let updates: Vec<Vec<f32>> = (0..m)
            .map(|_| {
                (0..d)
                    .map(|_| 0.02 * (rng.next_f64() as f32 - 0.5))
                    .collect()
            })
            .collect();
        for (acc, u) in intended.iter_mut().zip(&updates) {
            for (a, &x) in acc.iter_mut().zip(u) {
                *a += f64::from(x);
            }
        }
        let out = sync.synchronize(&updates, Topology::ring(m));
        for (a, &g) in applied.iter_mut().zip(&out.global_update) {
            *a += f64::from(g);
        }
    }
    for (w, intended_w) in intended.iter().enumerate() {
        let c = sync.compensation(w).vector();
        for j in 0..d {
            let residual = intended_w[j] - applied[j];
            assert!(
                (residual - f64::from(c[j])).abs() < 1e-3,
                "worker {w} coord {j}: residual {residual} vs c {}",
                c[j]
            );
        }
    }
}
