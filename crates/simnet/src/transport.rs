//! The pluggable [`Transport`] abstraction the collectives engine runs on.
//!
//! A transport endpoint belongs to one worker (*rank*) and moves packed
//! sign words to peers. Three backends implement it:
//!
//! - **Simulator** — [`ChannelFabric`] endpoints driven in deterministic
//!   single-threaded lockstep on a simulated α–β clock (the refactored form
//!   of the repo's original in-process execution);
//! - **Threaded** — the same endpoints, one OS thread per rank, real
//!   concurrency and a real clock (see
//!   `marsit_collectives::engine::run_threaded`);
//! - **Process** — one OS process per rank exchanging [`crate::wire`]
//!   frames over localhost TCP ([`crate::process`]).
//!
//! Determinism across all three rests on the frozen per-hop RNG stream
//! contract (`DESIGN.md` §9): combine randomness derives from the
//! [`CombineCtx`](../../marsit_collectives/struct.CombineCtx.html)-addressed
//! stream, never from arrival order, so any schedule-respecting transport
//! produces bit-identical consensus.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::link::LinkModel;
use crate::wire::{TraceCtx, WireError};

/// Which backend an endpoint belongs to (also the tag telemetry records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic single-threaded lockstep on the simulated clock.
    Simulator,
    /// One OS thread per rank, in-process channels, real clock.
    Threaded,
    /// One OS process per rank, binary frames over localhost TCP.
    Process,
}

impl Backend {
    /// Stable lowercase name (used in telemetry and CLI flags).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Simulator => "simulator",
            Self::Threaded => "threaded",
            Self::Process => "process",
        }
    }

    /// Whether [`Transport::clock_s`] reads a real or simulated clock.
    #[must_use]
    pub fn clock_kind(self) -> &'static str {
        match self {
            Self::Simulator => "simulated",
            Self::Threaded | Self::Process => "real",
        }
    }
}

/// Typed transport failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The peer's endpoint is gone (thread ended, process died, socket EOF).
    PeerDisconnected {
        /// Rank of the vanished peer.
        peer: usize,
    },
    /// A frame failed to decode.
    Wire(WireError),
    /// An OS-level I/O failure.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PeerDisconnected { peer } => write!(f, "peer {peer} disconnected"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
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
/// next message arrives, in per-pair FIFO order. The α–β [`LinkModel`] is
/// exposed so callers can price the bytes they move with the same arithmetic
/// as [`crate::cost`] (the simulator advances its clock with it).
pub trait Transport {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of ranks in the fabric.
    fn world(&self) -> usize;
    /// Which backend this endpoint belongs to.
    fn backend(&self) -> Backend;
    /// The α–β pricing model for this fabric's links.
    fn link(&self) -> LinkModel;
    /// Seconds on this backend's clock: simulated α–β time for the
    /// simulator, wall-clock seconds since fabric creation otherwise.
    fn clock_s(&self) -> f64;
    /// Queue `words` for `to`. Does not block.
    ///
    /// # Errors
    ///
    /// Fails with [`TransportError::PeerDisconnected`] if `to` is gone, or
    /// an I/O error on the process backend.
    fn send_words(&mut self, to: usize, words: &[u64]) -> Result<(), TransportError>;
    /// Next message from `from` (FIFO per sender). Blocks until it arrives.
    ///
    /// # Errors
    ///
    /// Fails with [`TransportError::PeerDisconnected`] if `from` died before
    /// sending, or a wire/I/O error on the process backend.
    fn recv_words(&mut self, from: usize) -> Result<Vec<u64>, TransportError>;
    /// Like [`Transport::send_words`], additionally stamping the frame with
    /// the hop's absolute expanded-step `seq` for cross-rank tracing.
    /// Backends without tracing (the default) ignore `seq` and put nothing
    /// extra on the wire.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Transport::send_words`].
    fn send_words_traced(
        &mut self,
        to: usize,
        words: &[u64],
        seq: u64,
    ) -> Result<(), TransportError> {
        let _ = seq;
        self.send_words(to, words)
    }
    /// Like [`Transport::recv_words`], additionally returning the sender's
    /// [`TraceCtx`] when the frame carried one (`None` on untraced backends
    /// — the default — and untraced frames).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Transport::recv_words`].
    fn recv_words_traced(
        &mut self,
        from: usize,
    ) -> Result<(Vec<u64>, Option<TraceCtx>), TransportError> {
        Ok((self.recv_words(from)?, None))
    }
}

/// One directed mailbox: a FIFO of word payloads plus a liveness flag.
#[derive(Debug, Default)]
struct Mailbox {
    queue: VecDeque<Vec<u64>>,
    sender_gone: bool,
}

#[derive(Debug)]
struct FabricShared {
    /// `boxes[to][from]`: messages awaiting `to` from `from`.
    boxes: Vec<Vec<Mutex<Mailbox>>>,
    signals: Vec<Condvar>,
    link: LinkModel,
    /// Simulated seconds, advanced by the lockstep driver.
    sim_clock: Mutex<f64>,
}

/// In-memory fabric of [`ChannelTransport`] endpoints.
///
/// The same endpoints serve two backends: the **simulator** drives all
/// ranks in single-threaded lockstep (deterministic, simulated clock), and
/// the **threaded** backend gives each endpoint to its own OS thread (sends
/// never block, so schedule-respecting engines cannot deadlock).
#[derive(Debug, Clone)]
pub struct ChannelFabric {
    shared: Arc<FabricShared>,
    world: usize,
    started: Instant,
}

impl ChannelFabric {
    /// A fabric of `world` connected endpoints priced by `link`.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    #[must_use]
    pub fn new(world: usize, link: LinkModel) -> Self {
        assert!(world > 0, "fabric needs at least one rank");
        let boxes = (0..world)
            .map(|_| (0..world).map(|_| Mutex::new(Mailbox::default())).collect())
            .collect();
        Self {
            shared: Arc::new(FabricShared {
                boxes,
                signals: (0..world).map(|_| Condvar::new()).collect(),
                link,
                sim_clock: Mutex::new(0.0),
            }),
            world,
            started: Instant::now(),
        }
    }

    /// The endpoint for `rank` under the given backend tag.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world`.
    #[must_use]
    pub fn endpoint(&self, rank: usize, backend: Backend) -> ChannelTransport {
        assert!(rank < self.world, "rank {rank} out of range");
        ChannelTransport {
            shared: Arc::clone(&self.shared),
            world: self.world,
            rank,
            backend,
            started: self.started,
        }
    }

    /// Advances the simulated clock by one lockstep step moving
    /// `max_bytes` on the busiest link: `α + max_bytes/β`.
    pub fn advance_sim_clock(&self, max_bytes: usize) {
        let mut t = self.shared.sim_clock.lock().expect("clock lock");
        *t += self.shared.link.transfer_time(max_bytes);
    }

    /// Marks `rank` as gone: every pending or future receive from it fails
    /// with [`TransportError::PeerDisconnected`].
    pub fn disconnect(&self, rank: usize) {
        for (to, row) in self.shared.boxes.iter().enumerate() {
            row[rank].lock().expect("mailbox lock").sender_gone = true;
            self.shared.signals[to].notify_all();
        }
    }
}

/// One rank's endpoint in a [`ChannelFabric`].
#[derive(Debug)]
pub struct ChannelTransport {
    shared: Arc<FabricShared>,
    world: usize,
    rank: usize,
    backend: Backend,
    started: Instant,
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn link(&self) -> LinkModel {
        self.shared.link
    }

    fn clock_s(&self) -> f64 {
        match self.backend {
            Backend::Simulator => *self.shared.sim_clock.lock().expect("clock lock"),
            _ => self.started.elapsed().as_secs_f64(),
        }
    }

    fn send_words(&mut self, to: usize, words: &[u64]) -> Result<(), TransportError> {
        if to >= self.world {
            return Err(TransportError::PeerDisconnected { peer: to });
        }
        let mut mbox = self.shared.boxes[to][self.rank]
            .lock()
            .expect("mailbox lock");
        mbox.queue.push_back(words.to_vec());
        drop(mbox);
        self.shared.signals[to].notify_all();
        Ok(())
    }

    fn recv_words(&mut self, from: usize) -> Result<Vec<u64>, TransportError> {
        if from >= self.world {
            return Err(TransportError::PeerDisconnected { peer: from });
        }
        let mut mbox = self.shared.boxes[self.rank][from]
            .lock()
            .expect("mailbox lock");
        loop {
            if let Some(words) = mbox.queue.pop_front() {
                return Ok(words);
            }
            if mbox.sender_gone {
                return Err(TransportError::PeerDisconnected { peer: from });
            }
            mbox = self.shared.signals[self.rank]
                .wait(mbox)
                .expect("mailbox wait");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(world: usize) -> ChannelFabric {
        ChannelFabric::new(world, LinkModel::new(1e-3, 1e6))
    }

    #[test]
    fn fifo_per_directed_pair() {
        let f = fabric(2);
        let mut a = f.endpoint(0, Backend::Simulator);
        let mut b = f.endpoint(1, Backend::Simulator);
        a.send_words(1, &[1]).unwrap();
        a.send_words(1, &[2, 3]).unwrap();
        assert_eq!(b.recv_words(0).unwrap(), vec![1]);
        assert_eq!(b.recv_words(0).unwrap(), vec![2, 3]);
    }

    #[test]
    fn pairs_are_independent() {
        let f = fabric(3);
        let mut a = f.endpoint(0, Backend::Simulator);
        let mut b = f.endpoint(1, Backend::Simulator);
        let mut c = f.endpoint(2, Backend::Simulator);
        b.send_words(2, &[10]).unwrap();
        a.send_words(2, &[20]).unwrap();
        // Receiver addresses each sender's FIFO, not a global queue.
        assert_eq!(c.recv_words(0).unwrap(), vec![20]);
        assert_eq!(c.recv_words(1).unwrap(), vec![10]);
    }

    #[test]
    fn threaded_roundtrip_blocks_until_delivery() {
        let f = fabric(2);
        let mut a = f.endpoint(0, Backend::Threaded);
        let mut b = f.endpoint(1, Backend::Threaded);
        let handle = std::thread::spawn(move || b.recv_words(0).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.send_words(1, &[42]).unwrap();
        assert_eq!(handle.join().unwrap(), vec![42]);
    }

    #[test]
    fn disconnect_surfaces_typed_error() {
        let f = fabric(2);
        let mut b = f.endpoint(1, Backend::Threaded);
        f.disconnect(0);
        assert_eq!(
            b.recv_words(0),
            Err(TransportError::PeerDisconnected { peer: 0 })
        );
    }

    #[test]
    fn simulated_clock_prices_steps() {
        let f = fabric(2);
        let a = f.endpoint(0, Backend::Simulator);
        f.advance_sim_clock(1000);
        f.advance_sim_clock(0);
        // Two steps: (1e-3 + 1e-3) + 1e-3.
        assert!((a.clock_s() - 3e-3).abs() < 1e-12);
        let t = f.endpoint(1, Backend::Threaded);
        assert!(t.clock_s() >= 0.0);
        assert_eq!(t.backend().clock_kind(), "real");
    }
}
