//! Multi-process transport: one OS process per rank, binary frames (see
//! [`crate::wire`]) over localhost TCP.
//!
//! The fabric is hub-and-spoke: a driver process binds a [`WireHub`] on
//! `127.0.0.1`, each worker process opens one [`ProcessTransport`] connection
//! to it and announces itself with a `hello` frame, and the hub routes `data`
//! frames between workers. A star instead of a full mesh keeps connection
//! setup O(world) and gives the driver a single place to observe liveness:
//! when a worker's socket reaches EOF (clean exit or SIGKILL alike) the hub
//! broadcasts `down <rank>` to the survivors, whose next receive from that
//! rank fails with [`TransportError::PeerDisconnected`] and degrades through
//! the reconfiguration path instead of hanging. The door, the readers and
//! the worker's connect are [`crate::fabric`]'s; this module adds what the
//! hub relays and what a worker endpoint buffers.
//!
//! Round orchestration rides the same connection: the driver sends `round`
//! frames to start a collective, workers answer `result` (consensus words +
//! counters) or `failed` (the vanished peer), and `stop` shuts a worker down.
//! Both ends move frames with the one blocking [`read_frame`] /
//! [`write_frame`] pair; a CRC-guarded length-prefixed frame has no torn or
//! ambiguous reading, whatever the socket does to its bytes.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

pub use crate::fabric::HubEvent;
use crate::fabric::{broadcast, connect_as, io_err, lock, send, Fabric, Relay, Slots};
use crate::transport::{Transport, TransportError};
use crate::wire::{
    read_frame, write_frame, Frame, FrameKind, Payload, TraceCtx, CTX_WIRE_BYTES, DRIVER,
};

/// Driver-side sink for the workers' telemetry side channel.
///
/// Workers with tracing enabled flush their event batches as `telem` frames
/// at round boundaries; the hub's reader threads file them here per rank
/// (never into the control inbox, so tracing cannot perturb round
/// orchestration). The collector also meters *every* observability byte
/// that crossed the wire — `telem` frame bytes plus the trace-context
/// overhead on routed `data` frames — so a disabled-collector run can
/// assert its side channel stayed at exactly zero.
#[derive(Debug, Default)]
pub struct TraceCollector {
    /// `batches[rank]`: JSONL batch texts in arrival order.
    batches: Mutex<Vec<Vec<String>>>,
    signal: Condvar,
    side_channel_bytes: AtomicU64,
}

impl TraceCollector {
    fn with_world(world: usize) -> Self {
        Self {
            batches: Mutex::new((0..world).map(|_| Vec::new()).collect()),
            signal: Condvar::new(),
            side_channel_bytes: AtomicU64::new(0),
        }
    }

    fn push(&self, rank: usize, batch: String) {
        let mut batches = lock(&self.batches);
        if let Some(slot) = batches.get_mut(rank) {
            slot.push(batch);
        }
        drop(batches);
        self.signal.notify_all();
    }

    fn add_wire_bytes(&self, n: usize) {
        self.side_channel_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Total observability bytes that crossed the wire: encoded `telem`
    /// frames plus trace-context segments on `data` frames. Exactly 0 when
    /// tracing was never enabled.
    #[must_use]
    pub fn side_channel_bytes(&self) -> u64 {
        self.side_channel_bytes.load(Ordering::Relaxed)
    }

    /// Blocks until every rank in `0..world` has sent at least `count`
    /// batches, or `timeout` elapses. Returns whether the target was met.
    #[must_use]
    pub fn wait_batches(&self, world: usize, count: usize, timeout: Duration) -> bool {
        let met =
            |batches: &mut Vec<Vec<String>>| batches.iter().take(world).all(|b| b.len() >= count);
        let (mut batches, _) = self
            .signal
            .wait_timeout_while(lock(&self.batches), timeout, |batches| !met(batches))
            .unwrap_or_else(PoisonError::into_inner);
        met(&mut batches)
    }

    /// Moves all collected batches out, per rank in arrival order.
    #[must_use]
    pub fn take_batches(&self) -> Vec<Vec<String>> {
        let mut batches = lock(&self.batches);
        batches.iter_mut().map(std::mem::take).collect()
    }
}

/// Driver-side hub: the fabric with the hub's relay, which routes `data`
/// frames between worker processes and surfaces driver-addressed frames and
/// disconnects as [`HubEvent`]s.
pub type WireHub = Fabric<HubRelay>;

/// The hub's relay: `telem` batches go to the collector, frames for the
/// driver are queued, and `data` frames are routed to their target — or,
/// when it is down, answered with a `down` so the sender's next receive
/// from it fails instead of blocking. Every (re)joined rank is announced to
/// all workers with a `hello` (clearing it from their dead sets, so a
/// rejoined peer is usable again from the next round on), every lost one
/// with a `down`.
pub struct HubRelay {
    collector: TraceCollector,
}

impl Relay for HubRelay {
    fn frame(
        &self,
        slots: &mut Slots,
        rank: usize,
        frame: Frame,
        wire_len: usize,
    ) -> Option<HubEvent> {
        if frame.kind == FrameKind::Telem {
            // Telemetry batches go to the collector, never the control
            // inbox: the side channel cannot stall or reorder round
            // orchestration.
            self.collector.add_wire_bytes(wire_len);
            if let Payload::Bytes(bytes) = frame.payload {
                self.collector
                    .push(rank, String::from_utf8_lossy(&bytes).into_owned());
            }
            return None;
        }
        if frame.ctx.is_some() {
            self.collector.add_wire_bytes(CTX_WIRE_BYTES);
        }
        let to = frame.to;
        if to == DRIVER {
            return Some(HubEvent::Frame(frame));
        }
        if !send(slots, to as usize, &frame) {
            send(
                slots,
                rank,
                &Frame::control(FrameKind::Down, to, rank as u32),
            );
        }
        None
    }

    fn joined(&self, slots: &mut Slots, rank: usize) {
        broadcast(
            slots,
            &Frame::control(FrameKind::Hello, rank as u32, DRIVER),
        );
    }

    fn left(&self, slots: &mut Slots, rank: usize) {
        broadcast(slots, &Frame::control(FrameKind::Down, rank as u32, DRIVER));
    }
}

impl WireHub {
    /// Binds a hub for `world` ranks on an ephemeral localhost port.
    ///
    /// # Errors
    ///
    /// Fails if the loopback listener cannot be bound.
    pub fn bind(world: usize) -> Result<Self, TransportError> {
        let collector = TraceCollector::with_world(world);
        Fabric::new(world, HubRelay { collector })
    }

    /// The hub's telemetry side-channel sink.
    #[must_use]
    pub fn collector(&self) -> &TraceCollector {
        &self.relay().collector
    }
}

/// Worker-side endpoint: one TCP connection to the driver's [`WireHub`].
pub struct ProcessTransport {
    rank: usize,
    world: usize,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// `data` payloads queued per sender (FIFO) with their trace context,
    /// filled while draining the socket for something else.
    inbox: Vec<VecDeque<(Vec<u64>, Option<TraceCtx>)>>,
    /// Driver control frames (`round`, `stop`) queued the same way.
    control: VecDeque<Frame>,
    dead: Vec<bool>,
    /// When set, traced sends stamp a [`TraceCtx`] onto their data frames.
    tracing: bool,
    /// Round number stamped into outgoing trace contexts.
    trace_round: u64,
}

impl ProcessTransport {
    /// Connects to the hub at `addr` and announces `rank`.
    ///
    /// # Errors
    ///
    /// Fails if the connection or the `hello` write fails.
    pub fn connect(addr: &str, rank: usize, world: usize) -> Result<Self, TransportError> {
        let (reader, writer) = connect_as(addr, rank)?;
        Ok(Self {
            rank,
            world,
            reader,
            writer,
            inbox: (0..world).map(|_| VecDeque::new()).collect(),
            control: VecDeque::new(),
            dead: vec![false; world],
            tracing: false,
            trace_round: 0,
        })
    }

    /// Enables (or disables) trace-context stamping on outgoing data
    /// frames. Off by default: an untraced connection's wire bytes are
    /// identical to the pre-trace protocol.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Sets the round number stamped into outgoing trace contexts (call at
    /// each round start, alongside [`ProcessTransport::reset_round`]).
    pub fn set_trace_round(&mut self, round: u64) {
        self.trace_round = round;
    }

    /// Flushes a telemetry JSONL batch to the hub's [`TraceCollector`] as a
    /// `telem` frame. Callers gate on their own tracing flag; an empty
    /// batch is legal (it still marks the flush point).
    ///
    /// # Errors
    ///
    /// Fails on socket errors.
    pub fn send_telemetry(&mut self, batch: &str) -> Result<(), TransportError> {
        self.send_frame(&Frame::telem(self.rank as u32, batch.as_bytes().to_vec()))
    }

    /// Reads one frame and files it (data → per-sender inbox, down → dead
    /// set, control → control queue).
    fn pump(&mut self) -> Result<(), TransportError> {
        let (frame, _) = read_frame(&mut self.reader)
            .map_err(io_err)?
            .ok_or_else(|| TransportError::Io("hub connection closed".into()))?;
        match frame.kind {
            FrameKind::Data => {
                let from = frame.from as usize;
                if from < self.world {
                    if let Payload::Words(words) = frame.payload {
                        self.inbox[from].push_back((words, frame.ctx));
                    }
                }
            }
            FrameKind::Down => {
                let rank = frame.from as usize;
                if rank < self.world {
                    self.dead[rank] = true;
                }
            }
            // The hub announces every (re)joined rank with a `hello`; the
            // rank is reachable again.
            FrameKind::Hello => {
                let rank = frame.from as usize;
                if rank < self.world {
                    self.dead[rank] = false;
                }
            }
            _ => self.control.push_back(frame),
        }
        Ok(())
    }

    /// Next driver control frame (`round`, `stop`, …), blocking. Data
    /// frames that arrive first — a faster peer already running the next
    /// round — are buffered, not lost.
    ///
    /// # Errors
    ///
    /// Fails if the hub connection drops or a frame fails to decode.
    pub fn recv_control(&mut self) -> Result<Frame, TransportError> {
        loop {
            if let Some(frame) = self.control.pop_front() {
                return Ok(frame);
            }
            self.pump()?;
        }
    }

    /// Sends a driver-addressed frame (`result`, `failed`).
    ///
    /// # Errors
    ///
    /// Fails on socket errors.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), TransportError> {
        write_frame(&mut self.writer, frame).map_err(io_err)
    }

    /// Discards all buffered data payloads. Call on a `round` frame: the
    /// hub writes `round` to this connection *after* everything the aborted
    /// previous round routed here, so whatever sits in the inbox at that
    /// point is stale. Dead-set state is kept — liveness is tracked by
    /// `down`/`hello` announcements, not by rounds.
    pub fn reset_round(&mut self) {
        for q in &mut self.inbox {
            q.clear();
        }
    }
}

impl Transport for ProcessTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn send_words_traced(
        &mut self,
        to: usize,
        words: &[u64],
        seq: u64,
    ) -> Result<(), TransportError> {
        if to >= self.world || self.dead[to] {
            return Err(TransportError::PeerDisconnected { peer: to });
        }
        let mut frame = Frame::words(FrameKind::Data, self.rank as u32, to as u32, words.to_vec());
        if self.tracing {
            frame = frame.with_ctx(TraceCtx {
                round: self.trace_round,
                seq,
                sender: self.rank as u32,
                send_ns: wall_now_ns(),
            });
        }
        self.send_frame(&frame)
    }

    fn recv_words_traced(
        &mut self,
        from: usize,
    ) -> Result<(Vec<u64>, Option<TraceCtx>), TransportError> {
        if from >= self.world {
            return Err(TransportError::PeerDisconnected { peer: from });
        }
        loop {
            if let Some(entry) = self.inbox[from].pop_front() {
                return Ok(entry);
            }
            // Any death dooms the whole collective (every plan spans all
            // ranks), so abort on the first one we learn of — even when the
            // immediate sender is alive, somebody upstream of it stopped
            // forwarding, and waiting on this socket would hang forever.
            if let Some(peer) = (0..self.world).find(|&r| self.dead[r]) {
                return Err(TransportError::PeerDisconnected { peer });
            }
            self.pump()?;
        }
    }
}

/// Wall-clock nanos since the UNIX epoch (the trace-context send stamp).
fn wall_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_workers_exchange_words_through_hub() {
        let hub = WireHub::bind(2).unwrap();
        let addr = hub.addr().unwrap().to_string();
        let workers: Vec<_> = (0..2)
            .map(|rank| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut t = ProcessTransport::connect(&addr, rank, 2).unwrap();
                    // Wait for the driver's go signal: peers may not have
                    // registered with the hub yet, and a send to an
                    // unregistered rank bounces as `down`.
                    assert_eq!(t.recv_control().unwrap().kind, FrameKind::Round);
                    let peer = 1 - rank;
                    t.send_words_traced(peer, &[rank as u64 + 100, 0x8000_0000_0000_0000], 0)
                        .unwrap();
                    let (got, _) = t.recv_words_traced(peer).unwrap();
                    assert_eq!(got, vec![peer as u64 + 100, 0x8000_0000_0000_0000]);
                    t.send_frame(&Frame::words(FrameKind::Result, rank as u32, DRIVER, got))
                        .unwrap();
                })
            })
            .collect();
        hub.accept_worker().unwrap();
        hub.accept_worker().unwrap();
        hub.broadcast(&Frame::control(FrameKind::Round, DRIVER, DRIVER));
        let mut results = 0;
        while results < 2 {
            match hub.next_event_timeout(Duration::from_secs(30)) {
                Some(HubEvent::Frame(f)) if f.kind == FrameKind::Result => results += 1,
                Some(_) => {}
                None => panic!("timed out waiting for worker results"),
            }
        }
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn collector_receives_batches_and_meters_the_side_channel() {
        let hub = WireHub::bind(2).unwrap();
        let addr = hub.addr().unwrap().to_string();
        let workers: Vec<_> = (0..2usize)
            .map(|rank| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut t = ProcessTransport::connect(&addr, rank, 2).unwrap();
                    assert_eq!(t.recv_control().unwrap().kind, FrameKind::Round);
                    t.set_tracing(true);
                    t.set_trace_round(7);
                    let peer = 1 - rank;
                    t.send_words_traced(peer, &[rank as u64], 42).unwrap();
                    let (words, ctx) = t.recv_words_traced(peer).unwrap();
                    assert_eq!(words, vec![peer as u64]);
                    let ctx = ctx.expect("traced frame carries context");
                    assert_eq!(ctx.round, 7);
                    assert_eq!(ctx.seq, 42);
                    assert_eq!(ctx.sender, peer as u32);
                    assert!(ctx.send_ns > 0);
                    t.send_telemetry(&format!("{{\"t\":0.0,\"ev\":\"x\",\"rank\":{rank}}}\n"))
                        .unwrap();
                })
            })
            .collect();
        hub.accept_worker().unwrap();
        hub.accept_worker().unwrap();
        hub.broadcast(&Frame::control(FrameKind::Round, DRIVER, DRIVER));
        assert!(
            hub.collector().wait_batches(2, 1, Duration::from_secs(30)),
            "collector did not see one batch per rank"
        );
        for w in workers {
            w.join().unwrap();
        }
        let batches = hub.collector().take_batches();
        assert!(batches[0][0].contains("\"rank\":0"));
        assert!(batches[1][0].contains("\"rank\":1"));
        // Two telem frames + two ctx segments crossed the wire.
        let bytes = hub.collector().side_channel_bytes();
        assert!(
            bytes as usize >= 2 * CTX_WIRE_BYTES,
            "side channel undercounted: {bytes}"
        );
    }

    #[test]
    fn untraced_run_puts_zero_bytes_on_the_side_channel() {
        let hub = WireHub::bind(2).unwrap();
        let addr = hub.addr().unwrap().to_string();
        let workers: Vec<_> = (0..2usize)
            .map(|rank| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut t = ProcessTransport::connect(&addr, rank, 2).unwrap();
                    assert_eq!(t.recv_control().unwrap().kind, FrameKind::Round);
                    let peer = 1 - rank;
                    // Traced entry points with tracing off: nothing extra on
                    // the wire, no context on arrival.
                    t.send_words_traced(peer, &[rank as u64], 42).unwrap();
                    let (_, ctx) = t.recv_words_traced(peer).unwrap();
                    assert_eq!(ctx, None);
                    t.send_frame(&Frame::words(
                        FrameKind::Result,
                        rank as u32,
                        DRIVER,
                        vec![],
                    ))
                    .unwrap();
                })
            })
            .collect();
        hub.accept_worker().unwrap();
        hub.accept_worker().unwrap();
        hub.broadcast(&Frame::control(FrameKind::Round, DRIVER, DRIVER));
        let mut results = 0;
        while results < 2 {
            match hub.next_event_timeout(Duration::from_secs(30)) {
                Some(HubEvent::Frame(f)) if f.kind == FrameKind::Result => results += 1,
                Some(_) => {}
                None => panic!("timed out"),
            }
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(hub.collector().side_channel_bytes(), 0);
    }

    #[test]
    fn dead_peer_surfaces_as_peer_disconnected() {
        let hub = WireHub::bind(2).unwrap();
        let addr = hub.addr().unwrap().to_string();
        let survivor = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut t = ProcessTransport::connect(&addr, 0, 2).unwrap();
                t.recv_words_traced(1).map(|(words, _)| words)
            })
        };
        let doomed = ProcessTransport::connect(&addr, 1, 2).unwrap();
        hub.accept_worker().unwrap();
        hub.accept_worker().unwrap();
        drop(doomed); // socket EOF → hub broadcasts `down 1`
        assert_eq!(
            survivor.join().unwrap(),
            Err(TransportError::PeerDisconnected { peer: 1 })
        );
        // The hub saw the disconnect too.
        let mut saw_down = false;
        while let Some(ev) = hub.next_event_timeout(Duration::from_secs(5)) {
            if ev == HubEvent::Disconnected(1) {
                saw_down = true;
                break;
            }
        }
        assert!(saw_down);
        assert!(!hub.is_up(1));
    }

    #[test]
    fn any_death_unblocks_survivors_waiting_on_live_peers() {
        let hub = WireHub::bind(3).unwrap();
        let addr = hub.addr().unwrap().to_string();
        let waiter = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut t = ProcessTransport::connect(&addr, 2, 3).unwrap();
                // Rank 0 is alive but silent; rank 1's death must still
                // abort this receive (the collective is doomed either way),
                // and the error names the rank that actually died.
                t.recv_words_traced(0).map(|(words, _)| words)
            })
        };
        let silent = ProcessTransport::connect(&addr, 0, 3).unwrap();
        let doomed = ProcessTransport::connect(&addr, 1, 3).unwrap();
        for _ in 0..3 {
            hub.accept_worker().unwrap();
        }
        drop(doomed);
        assert_eq!(
            waiter.join().unwrap(),
            Err(TransportError::PeerDisconnected { peer: 1 })
        );
        drop(silent);
    }

    /// A connection that said hello as rank 0 cannot speak for another rank,
    /// in or out of range: the hub forwards nothing it says under a foreign
    /// `from` and drops it, so the driver sees rank 0 go down.
    #[test]
    fn frame_with_a_foreign_from_drops_its_connection() {
        for claimed in [9, 1] {
            let hub = WireHub::bind(2).unwrap();
            let addr = hub.addr().unwrap().to_string();
            let mut liar = ProcessTransport::connect(&addr, 0, 2).unwrap();
            let honest = ProcessTransport::connect(&addr, 1, 2).unwrap();
            hub.accept_worker().unwrap();
            hub.accept_worker().unwrap();
            liar.send_frame(&Frame::words(FrameKind::Result, claimed, DRIVER, vec![7]))
                .unwrap();
            loop {
                match hub.next_event_timeout(Duration::from_secs(30)) {
                    Some(HubEvent::Disconnected(rank)) => {
                        assert_eq!(rank, 0, "the lying connection is the one dropped");
                        break;
                    }
                    Some(HubEvent::Frame(f)) => {
                        assert_eq!(f.kind, FrameKind::Hello, "forwarded a spoofed {f:?}");
                    }
                    None => panic!("timed out waiting for the disconnect"),
                }
            }
            assert!(!hub.is_up(0) && hub.is_up(1));
            drop(honest);
        }
    }

    #[test]
    fn crashed_rank_can_rejoin() {
        let hub = WireHub::bind(2).unwrap();
        let addr = hub.addr().unwrap().to_string();
        let first = ProcessTransport::connect(&addr, 1, 2).unwrap();
        hub.accept_worker().unwrap();
        drop(first);
        loop {
            match hub.next_event_timeout(Duration::from_secs(30)) {
                Some(HubEvent::Disconnected(1)) => break,
                Some(_) => {}
                None => panic!("timed out waiting for the disconnect"),
            }
        }
        // Same rank, fresh process (modeled by a fresh connection).
        let mut second = ProcessTransport::connect(&addr, 1, 2).unwrap();
        assert_eq!(hub.accept_worker().unwrap(), 1);
        assert!(hub.is_up(1));
        hub.send_to(1, &Frame::control(FrameKind::Stop, DRIVER, 1))
            .unwrap();
        assert_eq!(second.recv_control().unwrap().kind, FrameKind::Stop);
    }

    /// A second `hello` for a live rank is refused at the door, and the
    /// connection that holds the rank is untouched: after the refused one
    /// is gone, the first is still up and still receives the driver's
    /// frames.
    #[test]
    fn a_second_hello_for_a_live_rank_is_refused() {
        let hub = WireHub::bind(2).unwrap();
        let addr = hub.addr().unwrap().to_string();
        let mut first = ProcessTransport::connect(&addr, 1, 2).unwrap();
        assert_eq!(hub.accept_worker().unwrap(), 1);
        let second = ProcessTransport::connect(&addr, 1, 2).unwrap();
        assert_eq!(
            hub.accept_worker(),
            Err(TransportError::RankTaken { rank: 1 })
        );
        drop(second);
        while let Some(event) = hub.next_event_timeout(Duration::from_millis(300)) {
            assert!(
                matches!(&event, HubEvent::Frame(f) if f.kind == FrameKind::Hello),
                "unexpected {event:?}"
            );
        }
        assert!(hub.is_up(1));
        hub.send_to(1, &Frame::control(FrameKind::Stop, DRIVER, 1))
            .unwrap();
        assert_eq!(first.recv_control().unwrap().kind, FrameKind::Stop);
    }
}
