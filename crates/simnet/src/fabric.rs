//! The process fabric: everything a driver and its worker processes do with
//! a socket or a child process, once.
//!
//! - **The door** ([`Fabric`]) binds `127.0.0.1:0` and admits a connection
//!   only if its first frame passes [`read_hello`] (a `hello` from a rank
//!   `< world`) and no live connection holds that rank. A refusal is a typed
//!   [`TransportError`] and leaves the live connection untouched.
//! - **The reader**, one loop per admitted connection, hands each frame
//!   whose `from` is the connection's `hello` rank to the fabric's [`Relay`].
//!   A frame under another `from`, a torn or malformed frame and EOF all end
//!   the connection: the rank's writer slot is cleared first, then exactly
//!   one [`HubEvent::Disconnected`] is queued.
//! - **The worker side** is [`connect_as`]: connect, `nodelay`, the
//!   reader/writer split and the `hello`.
//! - **Children** are started by [`spawn_child`] as `<exe> <mode-flag>
//!   --addr <hub> --key value …` and read that back with
//!   [`ChildArgs::parse`], which names the flag of any value it refuses.
//!
//! [`WireHub`](crate::WireHub) (whose relay routes `data` and files `telem`)
//! and the serving supervisor (whose [`Queue`] queues every frame) are its
//! two consumers.

use std::ffi::OsStr;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::transport::TransportError;
use crate::wire::{read_frame, write_frame, Frame, FrameKind, WireError, DRIVER};

/// A decode failure inside [`read_frame`] stays a typed
/// [`TransportError::Wire`]; everything else is the OS's message.
pub(crate) fn io_err(e: std::io::Error) -> TransportError {
    match e
        .get_ref()
        .and_then(|inner| inner.downcast_ref::<WireError>())
    {
        Some(wire) => TransportError::Wire(wire.clone()),
        None => TransportError::Io(e.to_string()),
    }
}

/// Locks `m`. A thread that panicked while holding a lock leaves state that
/// is still well-formed (slots, batches), so poison is not spread.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Something the fabric observed on its connections.
#[derive(Debug, Clone, PartialEq)]
pub enum HubEvent {
    /// A frame for the driver: each admitted connection's `hello`, then
    /// whatever the relay queues.
    Frame(Frame),
    /// A connection ended (exit, crash, or a frame the reader refused).
    Disconnected(usize),
}

/// The writer half per rank, locked; `None` while that rank is down.
pub type Slots = [Option<TcpStream>];

/// Writes `frame` to `rank` if it is up. Returns whether the write landed.
pub(crate) fn send(slots: &mut Slots, rank: usize, frame: &Frame) -> bool {
    match slots.get_mut(rank) {
        Some(Some(stream)) => write_frame(stream, frame).is_ok(),
        _ => false,
    }
}

/// Writes `frame` to every live rank; a failed writer's reader reports it.
pub(crate) fn broadcast(slots: &mut Slots, frame: &Frame) {
    for stream in slots.iter_mut().flatten() {
        let _ = write_frame(stream, frame);
    }
}

/// What a fabric's consumer does with the frames its readers verify. Every
/// hook runs with the writer slots locked, so what it writes is ordered
/// with the door's admissions and the readers' disconnects.
pub trait Relay: Send + Sync + 'static {
    /// A frame from `rank` (its `from` is `rank`) and its encoded length.
    /// Returns the event to queue for the driver, if any.
    fn frame(
        &self,
        slots: &mut Slots,
        rank: usize,
        frame: Frame,
        wire_len: usize,
    ) -> Option<HubEvent>;

    /// `rank` was admitted; its writer is in `slots`.
    fn joined(&self, _slots: &mut Slots, _rank: usize) {}

    /// `rank`'s connection ended; its writer is already gone from `slots`.
    fn left(&self, _slots: &mut Slots, _rank: usize) {}
}

/// The relay that queues every verified frame and announces nothing.
#[derive(Debug, Default)]
pub struct Queue;

impl Relay for Queue {
    fn frame(&self, _: &mut Slots, _: usize, frame: Frame, _: usize) -> Option<HubEvent> {
        Some(HubEvent::Frame(frame))
    }
}

/// The `hello` check: the first frame on a connection must be a `hello`
/// whose `from` is `< world`. Returns that frame.
///
/// # Errors
///
/// The socket's error, a malformed frame, EOF before any frame, another
/// first frame, or a rank outside `0..world`: each typed, none a panic.
pub fn read_hello(reader: &mut impl BufRead, world: usize) -> Result<Frame, TransportError> {
    let (hello, _) = read_frame(reader)
        .map_err(io_err)?
        .ok_or_else(|| TransportError::Io("worker closed before hello".into()))?;
    let refuse = |reason| Err(TransportError::Wire(WireError::BadPayload { reason }));
    if hello.kind != FrameKind::Hello {
        return refuse(format!("expected hello, got {:?}", hello.kind));
    }
    if hello.from as usize >= world {
        return refuse(format!("hello from rank {} outside 0..{world}", hello.from));
    }
    Ok(hello)
}

/// What the door, the readers and the driver share.
struct Shared<R> {
    slots: Mutex<Vec<Option<TcpStream>>>,
    events: Sender<HubEvent>,
    relay: R,
}

impl<R: Relay> Shared<R> {
    /// The door's checks on an accepted stream; registers its writer and
    /// queues its `hello`. Returns the rank and the reader half.
    fn admit(&self, stream: TcpStream) -> Result<(usize, BufReader<TcpStream>), TransportError> {
        stream.set_nodelay(true).map_err(io_err)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io_err)?);
        let hello = read_hello(&mut reader, lock(&self.slots).len())?;
        let rank = hello.from as usize;
        let mut slots = lock(&self.slots);
        if slots[rank].is_some() {
            return Err(TransportError::RankTaken { rank });
        }
        slots[rank] = Some(stream);
        let _ = self.events.send(HubEvent::Frame(hello));
        self.relay.joined(&mut slots, rank);
        Ok((rank, reader))
    }

    /// The reader loop of `rank`'s connection, to its end.
    fn read(&self, rank: usize, mut reader: BufReader<TcpStream>) {
        while let Ok(Some((frame, wire_len))) = read_frame(&mut reader) {
            if frame.from as usize != rank {
                break;
            }
            let event = self
                .relay
                .frame(&mut lock(&self.slots), rank, frame, wire_len);
            if let Some(event) = event {
                let _ = self.events.send(event);
            }
        }
        let mut slots = lock(&self.slots);
        slots[rank] = None;
        self.relay.left(&mut slots, rank);
        let _ = self.events.send(HubEvent::Disconnected(rank));
    }
}

/// The driver side of the fabric: a door on an ephemeral localhost port,
/// one reader thread per admitted connection, a writer slot per rank, and
/// the queue of [`HubEvent`]s.
pub struct Fabric<R: Relay = Queue> {
    listener: TcpListener,
    shared: Arc<Shared<R>>,
    events: Mutex<Receiver<HubEvent>>,
}

impl<R: Relay> Fabric<R> {
    /// Binds a fabric for `world` ranks on `127.0.0.1:0`.
    ///
    /// # Errors
    ///
    /// Fails if the loopback listener cannot be bound.
    pub fn new(world: usize, relay: R) -> Result<Self, TransportError> {
        let (events, inbox) = channel();
        Ok(Self {
            listener: TcpListener::bind(("127.0.0.1", 0)).map_err(io_err)?,
            shared: Arc::new(Shared {
                slots: Mutex::new((0..world).map(|_| None).collect()),
                events,
                relay,
            }),
            events: Mutex::new(inbox),
        })
    }

    /// The `host:port` workers connect to.
    ///
    /// # Errors
    ///
    /// Fails if the local address cannot be read back from the socket.
    pub fn addr(&self) -> Result<SocketAddr, TransportError> {
        self.listener.local_addr().map_err(io_err)
    }

    /// The relay this fabric hands verified frames to.
    #[must_use]
    pub fn relay(&self) -> &R {
        &self.shared.relay
    }

    /// Accepts one connection and puts it through the door, waiting for
    /// its `hello`: registers the writer (taking the slot of a rank that is
    /// down — this is how a crashed worker rejoins) and starts its reader
    /// on a thread of its own. Returns the rank.
    ///
    /// # Errors
    ///
    /// Fails on socket errors and on every refusal of [`read_hello`] or of
    /// a rank a live connection holds ([`TransportError::RankTaken`]; that
    /// connection is untouched).
    pub fn accept_worker(&self) -> Result<usize, TransportError> {
        let (stream, _) = self.listener.accept().map_err(io_err)?;
        let (rank, reader) = self.shared.admit(stream)?;
        let shared = Arc::clone(&self.shared);
        std::thread::spawn(move || shared.read(rank, reader));
        Ok(rank)
    }

    /// Keeps the door open on a thread of its own. Each connection waits
    /// for its `hello` and runs its reader on a thread of its own, so a
    /// silent one holds up nobody; a refused connection is dropped.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot be shared or the thread not started.
    pub fn open(&self) -> Result<(), TransportError> {
        let listener = self.listener.try_clone().map_err(io_err)?;
        let shared = Arc::clone(&self.shared);
        let door = move || {
            while let Ok((stream, _)) = listener.accept() {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    if let Ok((rank, reader)) = shared.admit(stream) {
                        shared.read(rank, reader);
                    }
                });
            }
        };
        std::thread::Builder::new()
            .name("marsit-fabric-door".to_string())
            .spawn(door)
            .map_err(io_err)?;
        Ok(())
    }

    /// Sends a driver frame to one rank.
    ///
    /// # Errors
    ///
    /// Fails with [`TransportError::PeerDisconnected`] if the rank is down.
    pub fn send_to(&self, rank: usize, frame: &Frame) -> Result<(), TransportError> {
        if send(&mut lock(&self.shared.slots), rank, frame) {
            Ok(())
        } else {
            Err(TransportError::PeerDisconnected { peer: rank })
        }
    }

    /// Sends a driver frame to every live rank.
    pub fn broadcast(&self, frame: &Frame) {
        broadcast(&mut lock(&self.shared.slots), frame);
    }

    /// Next event, blocking.
    #[must_use]
    pub fn next_event(&self) -> HubEvent {
        loop {
            if let Some(event) = self.next_event_timeout(Duration::from_secs(3600)) {
                return event;
            }
        }
    }

    /// Like [`Self::next_event`] but gives up after `timeout`.
    #[must_use]
    pub fn next_event_timeout(&self, timeout: Duration) -> Option<HubEvent> {
        lock(&self.events).recv_timeout(timeout).ok()
    }

    /// Whether `rank` currently has a live connection.
    #[must_use]
    pub fn is_up(&self, rank: usize) -> bool {
        lock(&self.shared.slots)
            .get(rank)
            .is_some_and(Option::is_some)
    }
}

/// The worker side of the door: connects to the fabric at `addr`, splits
/// the stream into a buffered reader and a writer, and says `hello` as
/// `rank`.
///
/// # Errors
///
/// Fails if the connection or the `hello` write fails.
pub fn connect_as(
    addr: &str,
    rank: usize,
) -> Result<(BufReader<TcpStream>, TcpStream), TransportError> {
    let mut stream = TcpStream::connect(addr).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
    let hello = Frame::control(FrameKind::Hello, rank as u32, DRIVER);
    write_frame(&mut stream, &hello).map_err(io_err)?;
    Ok((reader, stream))
}

/// A child's argv after the program name: `<mode> --addr <hub>`, then one
/// `--key value` pair per entry of `args`.
#[must_use]
fn child_argv(mode: &str, addr: &str, args: &[(&str, String)]) -> Vec<String> {
    let pairs = args
        .iter()
        .map(|(key, value)| [format!("--{key}"), value.clone()]);
    [mode, "--addr", addr]
        .map(str::to_string)
        .into_iter()
        .chain(pairs.flatten())
        .collect()
}

/// Starts `exe` as `<exe> <mode> --addr <addr> --key value …`, one pair per
/// entry of `args`, with stdin and stdout closed and stderr inherited.
///
/// # Errors
///
/// The OS's error if the process cannot be started.
pub fn spawn_child(
    exe: impl AsRef<OsStr>,
    mode: &str,
    addr: &str,
    args: &[(&str, String)],
) -> std::io::Result<Child> {
    Command::new(exe)
        .args(child_argv(mode, addr, args))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
}

/// Why a child refused its arguments; each names the flag (`--shard`) or
/// the token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A required flag is absent, or the argv ends before its value.
    Missing(String),
    /// A flag and the value that does not parse.
    Malformed(String, String),
    /// A token where a `--flag` belongs, or a flag given twice.
    Unexpected(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Missing(flag) => write!(f, "{flag} needs a value"),
            Self::Malformed(flag, value) => write!(f, "{flag}: malformed value {value:?}"),
            Self::Unexpected(token) => write!(f, "unexpected argument {token:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// A child's arguments after its mode flag, as [`spawn_child`] writes them:
/// `--key value` pairs, `--addr` among them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildArgs(Vec<(String, String)>);

impl ChildArgs {
    /// Reads the pairs.
    ///
    /// # Errors
    ///
    /// A token that is not a `--flag`, a repeated flag, a flag without a
    /// value, or no `--addr`.
    pub fn parse(argv: &[String]) -> Result<Self, ArgError> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            let key = token
                .strip_prefix("--")
                .filter(|key| !key.is_empty() && pairs.iter().all(|(seen, _)| seen != key))
                .ok_or_else(|| ArgError::Unexpected(token.clone()))?;
            let value = tokens
                .next()
                .ok_or_else(|| ArgError::Missing(token.clone()))?;
            pairs.push((key.to_string(), value.clone()));
        }
        let args = Self(pairs);
        args.get::<String>("addr")?;
        Ok(args)
    }

    /// The hub address.
    #[must_use]
    pub fn addr(&self) -> &str {
        self.0
            .iter()
            .find(|(key, _)| key == "addr")
            .map_or("", |(_, v)| v)
    }

    /// `--key`'s value through `parse`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::Malformed`] when `parse` refuses the value.
    pub fn opt_with<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ArgError> {
        let Some((_, value)) = self.0.iter().find(|(k, _)| k == key) else {
            return Ok(None);
        };
        let malformed = || ArgError::Malformed(format!("--{key}"), value.clone());
        parse(value).map(Some).ok_or_else(malformed)
    }

    /// Like [`Self::opt_with`], for a required flag.
    ///
    /// # Errors
    ///
    /// [`ArgError::Missing`] or [`ArgError::Malformed`].
    pub fn get_with<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, ArgError> {
        let missing = || ArgError::Missing(format!("--{key}"));
        self.opt_with(key, parse)?.ok_or_else(missing)
    }

    /// [`Self::get_with`] through [`FromStr`].
    ///
    /// # Errors
    ///
    /// [`ArgError::Missing`] or [`ArgError::Malformed`].
    pub fn get<T: FromStr>(&self, key: &str) -> Result<T, ArgError> {
        self.get_with(key, |v| v.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn strings(argv: &[&str]) -> Vec<String> {
        argv.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn child_args_name_the_flag_they_refuse() {
        let args = ChildArgs::parse(&strings(&["--addr", "h:1", "--shard", "nine"])).unwrap();
        assert_eq!(args.addr(), "h:1");
        assert_eq!(
            args.get::<usize>("shard").unwrap_err().to_string(),
            "--shard: malformed value \"nine\""
        );
        assert_eq!(
            args.get::<usize>("tick").unwrap_err().to_string(),
            "--tick needs a value"
        );
        assert_eq!(args.opt_with("tick", |v| v.parse::<usize>().ok()), Ok(None));
        for (argv, refused) in [
            (&["--shard", "0"][..], "--addr needs a value"),
            (&["--addr"][..], "--addr needs a value"),
            (
                &["--addr", "a", "stray"][..],
                "unexpected argument \"stray\"",
            ),
            (
                &["--addr", "a", "--addr", "b"][..],
                "unexpected argument \"--addr\"",
            ),
            (
                &["--", "x", "--addr", "a"][..],
                "unexpected argument \"--\"",
            ),
        ] {
            assert_eq!(
                ChildArgs::parse(&strings(argv)).unwrap_err().to_string(),
                refused,
                "{argv:?}"
            );
        }
    }

    const KEYS: [&str; 5] = ["shard", "tick", "snapshot-every", "rank", "x"];

    /// A token drawn from what a child's argv may hold: `--addr`, known
    /// and unknown flags, `--` alone, numbers, and text that is neither.
    fn token(kind: u8, n: u32) -> String {
        match kind {
            0 => "--addr".to_string(),
            1 => format!("--{}", KEYS[n as usize % KEYS.len()]),
            2 => "--".to_string(),
            3 => n.to_string(),
            4 => format!("-{}", i64::from(n) - (1 << 31)),
            _ => char::from_u32(n % 0x11_0000)
                .unwrap_or('\u{fffd}')
                .to_string()
                .repeat(n as usize % 3),
        }
    }

    proptest! {
        /// Whatever a child is handed, the parser answers with a value or a
        /// typed error; what `child_argv` writes it reads back exactly.
        #[test]
        fn child_args_never_panic_and_round_trip(
            argv in prop::collection::vec((0u8..6, any::<u32>()), 0..12),
            addr in (0u8..6, any::<u32>()),
            pairs in prop::collection::vec((0usize..5, (3u8..6, any::<u32>())), 0..5),
        ) {
            let argv: Vec<String> = argv.into_iter().map(|(kind, n)| token(kind, n)).collect();
            if let Ok(args) = ChildArgs::parse(&argv) {
                let _ = args.get::<usize>("shard");
                let _ = args.opt_with("tick", |v| v.strip_prefix('-').map(str::len));
            }
            let addr = token(addr.0, addr.1);
            let mut written: Vec<(&str, String)> = Vec::new();
            for (key, (kind, n)) in pairs {
                let key = KEYS[key];
                if written.iter().all(|(seen, _)| *seen != key) {
                    written.push((key, token(kind, n)));
                }
            }
            let argv = child_argv("--mode", &addr, &written);
            prop_assert_eq!(argv[0].as_str(), "--mode");
            let args = ChildArgs::parse(&argv[1..]).unwrap();
            prop_assert_eq!(args.addr(), &addr[..]);
            for (key, value) in &written {
                prop_assert_eq!(&args.get::<String>(key).unwrap(), value);
            }
        }

        /// The door's first-frame check over arbitrary bytes and over
        /// well-formed frames of any kind and sender: a `hello` from a rank
        /// in range is admitted, everything else is a typed refusal.
        #[test]
        fn the_hello_check_never_panics(
            noise in prop::collection::vec(any::<u8>(), 0..64),
            kind in 0usize..6,
            from in (0u32..10, any::<u32>(), any::<bool>()),
            world in 0usize..8,
        ) {
            let _ = read_hello(&mut noise.as_slice(), world);
            let kind = [
                FrameKind::Hello, FrameKind::Data, FrameKind::Down, FrameKind::Stop,
                FrameKind::Telem, FrameKind::Outcome,
            ][kind];
            let from = if from.2 { from.0 } else { from.1 };
            let bytes = Frame::control(kind, from, DRIVER).encode();
            let verdict = read_hello(&mut bytes.as_slice(), world);
            let admitted = kind == FrameKind::Hello && (from as usize) < world;
            prop_assert_eq!(verdict.map(|hello| hello.from).ok(), admitted.then_some(from));
        }
    }
}
