//! Topology reconfiguration over elastic live sets, and the typed errors
//! the faulty collectives surface instead of panicking.
//!
//! When membership changes mid-run (crashes, rejoins — see
//! `marsit_simnet::fault::MembershipSchedule`), the synchronization layer
//! must re-form its collective over whatever workers remain. The rules,
//! chosen to keep every legacy single-crash trace byte-identical:
//!
//! - **Full membership** keeps the configured paradigm (a torus stays a
//!   torus, a ring stays a ring).
//! - **Any partial live set** re-forms as a ring over the live workers in
//!   ascending index order — a torus *degrades* to a survivor ring (losing
//!   its √M step advantage but never correctness), and a previously-degraded
//!   ring *re-expands* automatically when workers rejoin.
//! - **One live worker** runs a degenerate local-only round: no wire
//!   traffic, the round's consensus is the survivor's own update.
//! - **Zero live workers** is a defined no-op round, not a panic.
//!
//! The outcome of this decision is reported through [`DegradedMode`], which
//! rides on `SyncOutcome` so callers can observe exactly how degraded each
//! round was. Runtime shape/size violations in the faulty collectives are
//! reported as [`SyncError`] values rather than worker-thread panics.

use marsit_simnet::Topology;

/// Typed failure of a faulty collective: the schedule could not run over the
/// inputs it was given. Surfaced through `SyncOutcome` (as
/// [`DegradedMode::Error`]) instead of panicking a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncError {
    /// The collective needs at least `needed` participants, got `got`.
    TooFewWorkers {
        /// Minimum participants the schedule supports.
        needed: usize,
        /// Participants actually supplied.
        got: usize,
    },
    /// A payload's length disagrees with the first worker's.
    LengthMismatch {
        /// Length of worker 0's payload.
        expected: usize,
        /// The offending length.
        got: usize,
    },
    /// A torus was requested with an impossible shape.
    BadShape {
        /// Requested row count.
        rows: usize,
        /// Requested column count.
        cols: usize,
        /// Workers actually supplied.
        workers: usize,
    },
    /// A segmented ring was requested with zero macro-segments.
    ZeroSegments,
    /// A hop's peer vanished mid-collective (dead thread, crashed process,
    /// closed socket). The round degrades through the reconfiguration path —
    /// the next round re-forms over the survivors — instead of aborting.
    PeerDisconnected {
        /// Rank of the vanished peer.
        peer: usize,
    },
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::TooFewWorkers { needed, got } => {
                write!(f, "collective needs >= {needed} workers, got {got}")
            }
            Self::LengthMismatch { expected, got } => {
                write!(f, "payload length mismatch: expected {expected}, got {got}")
            }
            Self::BadShape {
                rows,
                cols,
                workers,
            } => write!(f, "torus {rows}x{cols} cannot host {workers} workers"),
            Self::ZeroSegments => write!(f, "segmented ring needs >= 1 macro-segment"),
            Self::PeerDisconnected { peer } => {
                write!(f, "peer {peer} disconnected mid-collective")
            }
        }
    }
}

impl std::error::Error for SyncError {}

/// How (and whether) a synchronization round deviated from the configured
/// topology. `None` is the fault-free/full-membership case; everything else
/// describes a graceful degradation, never a panic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradedMode {
    /// The configured paradigm ran over full membership.
    #[default]
    None,
    /// A torus re-formed as a ring over `live` survivors.
    TorusToRing {
        /// Live workers in the survivor ring.
        live: usize,
    },
    /// A ring re-formed over a partial live set of `live` workers.
    PartialRing {
        /// Live workers in the shrunken ring.
        live: usize,
    },
    /// Only `worker` is live: a degenerate local-only round (no wire
    /// traffic; the consensus is the survivor's own update).
    LoneSurvivor {
        /// Index of the sole live worker.
        worker: usize,
    },
    /// No workers are live: the round is a defined no-op.
    AllCrashed,
    /// A collective reported a typed error; the round fell back to a
    /// degenerate local-only round.
    Error(SyncError),
}

impl DegradedMode {
    /// Whether the round ran the configured paradigm over full membership.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, Self::None)
    }
}

/// The collective actually formed over a live set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectiveTopology {
    /// Full-membership torus (rows × cols over all workers).
    Torus {
        /// Vertical ring length.
        rows: usize,
        /// Horizontal ring length.
        cols: usize,
    },
    /// Ring over the listed number of live workers (ascending index order).
    Ring {
        /// Live workers in the ring.
        workers: usize,
    },
    /// Degenerate single-worker "collective": a local-only round.
    Lone {
        /// The sole live worker.
        worker: usize,
    },
    /// No live workers at all.
    Empty,
}

/// Re-forms a base topology over elastic live sets.
///
/// # Examples
///
/// ```
/// use marsit_collectives::reconfigure::{DegradedMode, EffectiveTopology, TopologyReconfigurer};
/// use marsit_simnet::Topology;
///
/// let rec = TopologyReconfigurer::new(Topology::torus(2, 4), 8);
/// let (eff, mode) = rec.effective(&[0, 1, 2, 3, 4, 5, 6, 7]);
/// assert_eq!(eff, EffectiveTopology::Torus { rows: 2, cols: 4 });
/// assert!(mode.is_none());
///
/// let (eff, mode) = rec.effective(&[0, 1, 3, 4, 6, 7]);
/// assert_eq!(eff, EffectiveTopology::Ring { workers: 6 });
/// assert_eq!(mode, DegradedMode::TorusToRing { live: 6 });
///
/// let (eff, mode) = rec.effective(&[5]);
/// assert_eq!(eff, EffectiveTopology::Lone { worker: 5 });
/// assert_eq!(mode, DegradedMode::LoneSurvivor { worker: 5 });
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TopologyReconfigurer {
    base: Topology,
    workers: usize,
}

impl TopologyReconfigurer {
    /// A reconfigurer for `base` over `workers` total workers.
    #[must_use]
    pub fn new(base: Topology, workers: usize) -> Self {
        Self { base, workers }
    }

    /// The collective to form over `live` (sorted ascending worker indices)
    /// and the degradation this represents.
    #[must_use]
    pub fn effective(&self, live: &[usize]) -> (EffectiveTopology, DegradedMode) {
        match live.len() {
            0 => (EffectiveTopology::Empty, DegradedMode::AllCrashed),
            1 => (
                EffectiveTopology::Lone { worker: live[0] },
                DegradedMode::LoneSurvivor { worker: live[0] },
            ),
            n if n == self.workers => match self.base {
                Topology::Torus { rows, cols }
                    if rows >= 2 && cols >= 2 && rows * cols == self.workers =>
                {
                    (EffectiveTopology::Torus { rows, cols }, DegradedMode::None)
                }
                _ => (EffectiveTopology::Ring { workers: n }, DegradedMode::None),
            },
            n => {
                let mode = match self.base {
                    Topology::Torus { .. } => DegradedMode::TorusToRing { live: n },
                    _ => DegradedMode::PartialRing { live: n },
                };
                (EffectiveTopology::Ring { workers: n }, mode)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_membership_is_not_degraded() {
        let rec = TopologyReconfigurer::new(Topology::ring(4), 4);
        let (eff, mode) = rec.effective(&[0, 1, 2, 3]);
        assert_eq!(eff, EffectiveTopology::Ring { workers: 4 });
        assert!(mode.is_none());
    }

    #[test]
    fn torus_degrades_and_reexpands() {
        let rec = TopologyReconfigurer::new(Topology::torus(2, 3), 6);
        let (eff, mode) = rec.effective(&[0, 2, 3, 4, 5]);
        assert_eq!(eff, EffectiveTopology::Ring { workers: 5 });
        assert_eq!(mode, DegradedMode::TorusToRing { live: 5 });
        // Rejoin restores full membership: the torus re-forms.
        let (eff, mode) = rec.effective(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(eff, EffectiveTopology::Torus { rows: 2, cols: 3 });
        assert!(mode.is_none());
    }

    #[test]
    fn terminal_live_sets_are_defined() {
        let rec = TopologyReconfigurer::new(Topology::torus(2, 2), 4);
        assert_eq!(
            rec.effective(&[3]),
            (
                EffectiveTopology::Lone { worker: 3 },
                DegradedMode::LoneSurvivor { worker: 3 }
            )
        );
        assert_eq!(
            rec.effective(&[]),
            (EffectiveTopology::Empty, DegradedMode::AllCrashed)
        );
    }

    #[test]
    fn two_member_torus_becomes_ring() {
        // M=2 "torus" live sets must not panic: they form a 2-ring.
        let rec = TopologyReconfigurer::new(Topology::torus(2, 4), 8);
        let (eff, mode) = rec.effective(&[1, 6]);
        assert_eq!(eff, EffectiveTopology::Ring { workers: 2 });
        assert_eq!(mode, DegradedMode::TorusToRing { live: 2 });
    }

    #[test]
    fn sync_error_displays() {
        let e = SyncError::TooFewWorkers { needed: 2, got: 1 };
        assert!(e.to_string().contains(">= 2"));
        let e = SyncError::BadShape {
            rows: 1,
            cols: 3,
            workers: 3,
        };
        assert!(e.to_string().contains("1x3"));
    }
}
