//! Deterministic training checkpoints: [`TrainSnapshot`] and its binary
//! format (a kind-`0x20` frame of [`marsit_simnet::wire`], format `/2`).
//!
//! A snapshot captures everything that evolves during a run — the consensus
//! parameter vector, per-worker optimizer and RNG states, the synchronizer's
//! cross-round state (Marsit compensation residuals), the per-round records,
//! and the run accumulators. Restoring it with
//! [`TrainerState::restore`](crate::trainer::TrainerState::restore) resumes
//! **bit-identically**, so the serialization must round-trip every float and
//! counter *exactly*. The frame body does that by construction: each field
//! is written through the shared [`Writer`] in declaration order as raw
//! little-endian bytes — an `f32` is the four bytes of its bit pattern, a
//! parameter vector a count and a block copy — so there is no decimal (or
//! hex) detour for a NaN payload, a `−0.0` or a `u64` above 2⁵³ to get lost
//! in, and the frame's CRC rejects any damaged byte before a field is read.
//!
//! The field order is fixed, so serialization is byte-deterministic: equal
//! snapshots produce equal bytes.

use marsit_models::{Evaluation, OptimizerState};
use marsit_simnet::wire::{sole_frame, Reader, SharedBytes, WireError, Writer};
use marsit_simnet::{FaultStats, PhaseBreakdown};

use crate::strategy::{SynchronizerSnapshot, SynchronizerState};
use crate::trainer::RoundRecord;

/// Frame kind of a checkpoint (see the table in [`marsit_simnet::wire`]).
const KIND_CHECKPOINT: u8 = 0x20;

/// The complete evolving state of a training run at a round boundary.
///
/// Produced by [`TrainerState::snapshot`](crate::trainer::TrainerState::snapshot);
/// consumed by [`TrainerState::restore`](crate::trainer::TrainerState::restore).
/// Serializes to one deterministic frame with [`TrainSnapshot::to_json`] and
/// back with [`TrainSnapshot::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSnapshot {
    /// Rounds completed before the capture (the next round to run).
    pub round: u64,
    /// Current local learning rate (after any full-precision decays).
    pub lr: f32,
    /// The parameter vector of the consensus model every worker applies.
    pub params: Vec<f32>,
    /// Per-worker optimizer states.
    pub optimizers: Vec<OptimizerState>,
    /// Per-worker RNG streams as `(state, draws)` pairs.
    pub worker_rngs: Vec<(u64, u64)>,
    /// The synchronizer's cross-round state.
    pub sync: SynchronizerSnapshot,
    /// Per-round records completed so far.
    pub records: Vec<RoundRecord>,
    /// Accumulated simulated phase times.
    pub total_time: PhaseBreakdown,
    /// Total bytes moved by the collectives so far.
    pub total_bytes: u64,
    /// Cumulative per-worker wire bits.
    pub cumulative_bits_per_worker: f64,
    /// Total elements transferred (wire-width denominator).
    pub total_elements: u64,
    /// Whether a non-finite loss or gradient has been observed.
    pub diverged: bool,
    /// Aggregate fault-layer activity so far.
    pub run_faults: FaultStats,
}

fn bad_tag(what: &str, tag: u8) -> WireError {
    WireError::BadPayload {
        reason: format!("unknown {what} tag {tag}"),
    }
}

/// Reads a count-prefixed list (of items at least a byte each).
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.count(1)?;
    (0..n).map(|_| item(r)).collect()
}

fn write_phase(w: &mut Writer, time: &PhaseBreakdown) {
    w.f64(time.compute_s);
    w.f64(time.compression_s);
    w.f64(time.communication_s);
}

fn read_phase(r: &mut Reader<'_>) -> Result<PhaseBreakdown, WireError> {
    Ok(PhaseBreakdown {
        compute_s: r.f64()?,
        compression_s: r.f64()?,
        communication_s: r.f64()?,
    })
}

fn write_optimizer(w: &mut Writer, state: &OptimizerState) {
    match state {
        OptimizerState::Sgd => w.u8(0),
        OptimizerState::Momentum { velocity } => {
            w.u8(1);
            w.f32s(velocity);
        }
        OptimizerState::Adam { step, m, v } => {
            w.u8(2);
            w.u32(*step);
            w.f32s(m);
            w.f32s(v);
        }
    }
}

fn read_optimizer(r: &mut Reader<'_>) -> Result<OptimizerState, WireError> {
    Ok(match r.u8()? {
        0 => OptimizerState::Sgd,
        1 => OptimizerState::Momentum {
            velocity: r.f32s()?,
        },
        2 => OptimizerState::Adam {
            step: r.u32()?,
            m: r.f32s()?,
            v: r.f32s()?,
        },
        tag => return Err(bad_tag("optimizer", tag)),
    })
}

fn write_sync(w: &mut Writer, sync: &SynchronizerSnapshot) {
    w.u64(sync.round);
    match &sync.state {
        SynchronizerState::Stateless => w.u8(0),
        SynchronizerState::Ssdm { velocity } => {
            w.u8(1);
            w.f32s(velocity);
        }
        SynchronizerState::Marsit(m) => {
            w.u8(2);
            w.u64(m.round);
            w.count(m.compensations.len());
            for c in &m.compensations {
                w.f32s(c);
            }
        }
    }
}

fn read_sync(r: &mut Reader<'_>) -> Result<SynchronizerSnapshot, WireError> {
    let round = r.u64()?;
    let state = match r.u8()? {
        0 => SynchronizerState::Stateless,
        1 => SynchronizerState::Ssdm {
            velocity: r.f32s()?,
        },
        2 => SynchronizerState::Marsit(marsit_core::MarsitSnapshot {
            round: r.u64()?,
            compensations: read_list(r, Reader::f32s)?,
        }),
        tag => return Err(bad_tag("synchronizer", tag)),
    };
    Ok(SynchronizerSnapshot { round, state })
}

fn write_record(w: &mut Writer, r: &RoundRecord) {
    w.u64(r.round as u64);
    w.f64(r.train_loss);
    w.f64(r.mean_grad_norm_sq);
    w.f64(r.matching_rate);
    w.u8(u8::from(r.full_precision));
    write_phase(w, &r.time);
    w.f64(r.wire_bits_per_element);
    w.f64(r.cumulative_megabits_per_worker);
    w.u8(u8::from(r.eval.is_some()));
    if let Some(e) = &r.eval {
        w.f64(e.loss);
        w.f64(e.accuracy);
    }
}

fn read_record(r: &mut Reader<'_>) -> Result<RoundRecord, WireError> {
    Ok(RoundRecord {
        round: usize::try_from(r.u64()?).map_err(|e| WireError::BadPayload {
            reason: format!("record round: {e}"),
        })?,
        train_loss: r.f64()?,
        mean_grad_norm_sq: r.f64()?,
        matching_rate: r.f64()?,
        full_precision: r.bool()?,
        time: read_phase(r)?,
        wire_bits_per_element: r.f64()?,
        cumulative_megabits_per_worker: r.f64()?,
        eval: if r.bool()? {
            Some(Evaluation {
                loss: r.f64()?,
                accuracy: r.f64()?,
            })
        } else {
            None
        },
    })
}

fn write_faults(w: &mut Writer, f: &FaultStats) {
    w.u64(f.retransmits);
    w.u64(f.dropped_transfers);
    w.u64(f.corrupted_transfers);
    w.u64(f.repairs);
    w.u64(f.crashed_workers);
    w.u64(f.forced_deliveries);
    w.u64(f.rejoins);
    w.f64(f.retry_extra_s);
    w.f64(f.catchup_extra_s);
    w.u64(f.stragglers_suspected);
    w.u64(f.links_degraded);
    w.u64(f.ranks_silent);
}

fn read_faults(r: &mut Reader<'_>) -> Result<FaultStats, WireError> {
    Ok(FaultStats {
        retransmits: r.u64()?,
        dropped_transfers: r.u64()?,
        corrupted_transfers: r.u64()?,
        repairs: r.u64()?,
        crashed_workers: r.u64()?,
        forced_deliveries: r.u64()?,
        rejoins: r.u64()?,
        retry_extra_s: r.f64()?,
        catchup_extra_s: r.f64()?,
        stragglers_suspected: r.u64()?,
        links_degraded: r.u64()?,
        ranks_silent: r.u64()?,
    })
}

impl TrainSnapshot {
    /// Serializes to one deterministic `/2` checkpoint frame, returned as the
    /// [`SharedBytes`] every later holder — a journal record, a migrating
    /// job, a resume plan — shares instead of copying. The name is
    /// historical (`/1` was a JSON document): `benchmark/` spells it, so the
    /// rename waits for the next benchmark PR.
    #[must_use]
    pub fn to_json(&self) -> SharedBytes {
        // Room for the three model-sized vectors of a typical job
        // (parameters, one optimizer buffer, one residual) per worker.
        let workers = self.optimizers.len().max(1);
        let mut w = Writer::new(KIND_CHECKPOINT, 4 * self.params.len() * (1 + 2 * workers));
        w.u64(self.round);
        w.f32(self.lr);
        w.f32s(&self.params);
        w.count(self.optimizers.len());
        for opt in &self.optimizers {
            write_optimizer(&mut w, opt);
        }
        w.count(self.worker_rngs.len());
        for &(state, draws) in &self.worker_rngs {
            w.u64(state);
            w.u64(draws);
        }
        write_sync(&mut w, &self.sync);
        w.count(self.records.len());
        for r in &self.records {
            write_record(&mut w, r);
        }
        write_phase(&mut w, &self.total_time);
        w.u64(self.total_bytes);
        w.f64(self.cumulative_bits_per_worker);
        w.u64(self.total_elements);
        w.u8(u8::from(self.diverged));
        write_faults(&mut w, &self.run_faults);
        w.finish().into()
    }

    /// Parses the frame written by [`TrainSnapshot::to_json`] (the name is
    /// historical, like its twin's).
    ///
    /// # Errors
    ///
    /// The typed [`WireError`] for a truncated, foreign, other-version or
    /// damaged frame, a frame of another kind, or a malformed field. Never
    /// panics on any input.
    pub fn from_json(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, mut r) = sole_frame(bytes)?;
        if kind != KIND_CHECKPOINT {
            return Err(WireError::UnknownKind { found: kind });
        }
        let snapshot = Self {
            round: r.u64()?,
            lr: r.f32()?,
            params: r.f32s()?,
            optimizers: read_list(&mut r, read_optimizer)?,
            worker_rngs: read_list(&mut r, |r| Ok((r.u64()?, r.u64()?)))?,
            sync: read_sync(&mut r)?,
            records: read_list(&mut r, read_record)?,
            total_time: read_phase(&mut r)?,
            total_bytes: r.u64()?,
            cumulative_bits_per_worker: r.f64()?,
            total_elements: r.u64()?,
            diverged: r.bool()?,
            run_faults: read_faults(&mut r)?,
        };
        r.finish()?;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_core::MarsitSnapshot;

    fn sample_snapshot() -> TrainSnapshot {
        TrainSnapshot {
            round: 7,
            lr: 0.1,
            params: vec![1.5, -2.25, 1e-30, f32::MIN_POSITIVE],
            optimizers: vec![
                OptimizerState::Sgd,
                OptimizerState::Momentum {
                    velocity: vec![0.25, -0.75],
                },
                OptimizerState::Adam {
                    step: 9,
                    m: vec![0.125],
                    v: vec![3.5],
                },
            ],
            worker_rngs: vec![(0xDEAD_BEEF_0000_0001, 42), (u64::MAX, 2u64.pow(60))],
            sync: SynchronizerSnapshot {
                round: 7,
                state: SynchronizerState::Marsit(MarsitSnapshot {
                    round: 7,
                    compensations: vec![vec![0.5, -0.5], vec![0.0, 1.0]],
                }),
            },
            records: vec![RoundRecord {
                round: 6,
                train_loss: 0.123_456_789,
                mean_grad_norm_sq: 1e-17,
                matching_rate: 0.875,
                full_precision: true,
                time: PhaseBreakdown {
                    compute_s: 0.001,
                    compression_s: 2e-5,
                    communication_s: 0.25,
                },
                wire_bits_per_element: 1.0,
                cumulative_megabits_per_worker: 12.5,
                eval: Some(Evaluation {
                    loss: 0.5,
                    accuracy: 0.75,
                }),
            }],
            total_time: PhaseBreakdown {
                compute_s: 0.25,
                compression_s: 0.125,
                communication_s: 1.0,
            },
            total_bytes: (1 << 55) + 3,
            cumulative_bits_per_worker: 1e9 + 0.5,
            total_elements: 10_000,
            diverged: false,
            run_faults: FaultStats {
                retransmits: 3,
                rejoins: 1,
                retry_extra_s: 0.125,
                catchup_extra_s: 1e-300,
                links_degraded: 5,
                ..FaultStats::default()
            },
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let snap = sample_snapshot();
        let bytes = snap.to_json();
        let back = TrainSnapshot::from_json(&bytes).expect("parses");
        assert_eq!(snap, back);
        // Every fault counter crosses, the health observations included.
        assert_eq!(back.run_faults.links_degraded, 5);
        // Determinism: re-serializing the parsed snapshot is byte-identical.
        assert_eq!(bytes, back.to_json());
    }

    #[test]
    fn u64_beyond_2_53_survives() {
        // A value a decimal float literal would round.
        let snap = sample_snapshot();
        assert_eq!(snap.total_bytes % 8, 3);
        let back = TrainSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(back.total_bytes, (1 << 55) + 3);
        assert_eq!(back.worker_rngs[1], (u64::MAX, 2u64.pow(60)));
    }

    #[test]
    fn other_version_and_other_kind_are_rejected() {
        let mut bytes = sample_snapshot().to_json().to_vec();
        bytes[4] = 1;
        assert_eq!(
            TrainSnapshot::from_json(&bytes),
            Err(WireError::UnsupportedVersion { found: 1 })
        );
        // A well-formed frame that is not a checkpoint.
        let stop = marsit_simnet::Frame::control(marsit_simnet::FrameKind::Stop, 0, 1);
        assert!(matches!(
            TrainSnapshot::from_json(&stop.encode()),
            Err(WireError::UnknownKind { .. })
        ));
    }

    #[test]
    fn truncated_document_is_rejected() {
        let bytes = sample_snapshot().to_json();
        assert_eq!(
            TrainSnapshot::from_json(&bytes[..bytes.len() - 2]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn negative_zero_and_subnormals_roundtrip() {
        let mut snap = sample_snapshot();
        snap.params = vec![-0.0, f32::from_bits(1), f32::INFINITY, -f32::NAN];
        snap.cumulative_bits_per_worker = -0.0;
        let back = TrainSnapshot::from_json(&snap.to_json()).expect("parses");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&snap.params), bits(&back.params));
        assert_eq!(
            snap.cumulative_bits_per_worker.to_bits(),
            back.cumulative_bits_per_worker.to_bits()
        );
    }
}
