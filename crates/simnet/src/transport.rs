//! The [`Transport`] abstraction a rank's slice of a compiled plan runs on.
//!
//! A transport endpoint belongs to one worker (*rank*) and moves packed
//! sign words to peers. Two backends run a plan:
//!
//! - **Simulator** — the in-process collectives, deterministic and on the
//!   simulated α–β clock; no endpoint is involved;
//! - **Process** — one OS process per rank exchanging [`crate::wire`]
//!   frames over localhost TCP ([`crate::process`]), the one implementor of
//!   [`Transport`].
//!
//! Determinism across both rests on the frozen per-hop RNG stream contract
//! (`DESIGN.md` §9): combine randomness derives from the
//! [`CombineCtx`](../../marsit_collectives/struct.CombineCtx.html)-addressed
//! stream, never from arrival order, so any schedule-respecting transport
//! produces bit-identical consensus.

use crate::wire::{TraceCtx, WireError};

/// Which backend produced a run (the tag telemetry records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The in-process collectives on the simulated clock.
    Simulator,
    /// One OS process per rank, binary frames over localhost TCP.
    Process,
}

impl Backend {
    /// Stable lowercase name (used in telemetry and CLI flags).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Simulator => "simulator",
            Self::Process => "process",
        }
    }

    /// Which clock the backend's timings read: simulated α–β time or the
    /// wall clock.
    #[must_use]
    pub fn clock_kind(self) -> &'static str {
        match self {
            Self::Simulator => "simulated",
            Self::Process => "real",
        }
    }
}

/// Typed transport failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The peer's endpoint is gone (process died, socket EOF).
    PeerDisconnected {
        /// Rank of the vanished peer.
        peer: usize,
    },
    /// A frame failed to decode.
    Wire(WireError),
    /// A `hello` named a rank a live connection already holds.
    RankTaken {
        /// The rank.
        rank: usize,
    },
    /// An OS-level I/O failure.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PeerDisconnected { peer } => write!(f, "peer {peer} disconnected"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::RankTaken { rank } => write!(f, "rank {rank} is already connected"),
            Self::Io(msg) => write!(f, "transport i/o error: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// One worker's endpoint into a fabric of `world` ranks.
///
/// Sends are non-blocking (buffered); receives block until the named peer's
/// next message arrives, in per-pair FIFO order.
pub trait Transport {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of ranks in the fabric.
    fn world(&self) -> usize;
    /// Queues `words` for `to`, stamping the frame with the hop's absolute
    /// expanded-step `seq` when the endpoint traces (an untraced endpoint
    /// ignores `seq` and puts nothing extra on the wire). Does not block.
    ///
    /// # Errors
    ///
    /// Fails with [`TransportError::PeerDisconnected`] if `to` is gone, or
    /// an I/O error.
    fn send_words_traced(
        &mut self,
        to: usize,
        words: &[u64],
        seq: u64,
    ) -> Result<(), TransportError>;
    /// Next message from `from` (FIFO per sender), with the sender's
    /// [`TraceCtx`] when the frame carried one. Blocks until it arrives.
    ///
    /// # Errors
    ///
    /// Fails with [`TransportError::PeerDisconnected`] if `from` died before
    /// sending, or a wire/I/O error.
    fn recv_words_traced(
        &mut self,
        from: usize,
    ) -> Result<(Vec<u64>, Option<TraceCtx>), TransportError>;
}
