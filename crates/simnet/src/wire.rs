//! The one binary frame behind every byte that leaves a process or survives a
//! crash (format version `/2`).
//!
//! Transport frames between ranks ([`Frame`]), training checkpoints
//! (`marsit_trainsim::TrainSnapshot`) and serving-journal records
//! (`marsit_serve::journal`) share one header, one checksum, one field
//! [`Writer`] and one field [`Reader`]:
//!
//! ```text
//! offset  bytes  field
//!      0      4  magic "MRST"
//!      4      1  format version (2)
//!      5      1  kind
//!      6      4  body length n, little-endian u32
//!     10      4  IEEE CRC-32 over bytes 5..10 and the body, little-endian
//!     14      n  body
//! ```
//!
//! | kind        | body                                                        | written by                          | read by                        |
//! |-------------|-------------------------------------------------------------|-------------------------------------|--------------------------------|
//! | `0x01–0x0B` | [`Frame`]: `from`, `to`, payload tag + payload, trace ctx   | [`Frame::encode`] / [`write_frame`] | [`Frame::decode`] / [`read_frame`] |
//! | `0x20`      | checkpoint: every `TrainSnapshot` field in declaration order | `TrainSnapshot::to_json`            | `TrainSnapshot::from_json`     |
//! | `0x30–0x33` | journal record: `seq`, then the record's typed fields       | `marsit_serve::encode_record`       | `marsit_serve::Scanner` (via [`read_frame_bytes`]) |
//!
//! A checkpoint travels as a [`SharedBytes`]: `to_json` returns one,
//! `encode_record` copies it into the record's frame (the one copy on the
//! write side), and a journal scan reads each frame into a recycled buffer
//! and hands a snapshot record a view of it instead of a copy; the holder
//! done with it gives the buffer back ([`SharedBytes::reclaim`]) for a
//! later frame.
//!
//! Bodies are sequences of fixed-width little-endian scalars, count-prefixed
//! raw `f32` / `u64` slices and length-prefixed byte strings. A float crosses
//! as the four or eight bytes of its bit pattern, so `−0.0`, NaN payloads and
//! subnormals survive without any text encoding. Decoding never panics and
//! never trusts a length: every malformed input — short buffer, foreign
//! magic, other version, flipped bit, count larger than the bytes behind it —
//! is a typed [`WireError`], and nothing is allocated for a count before the
//! bytes it promises are known to be there. A stream is read frame by frame
//! with [`read_frame_bytes`] — the one stream reader, under [`read_frame`]
//! and the journal scanner alike — which gives any bytes the verdict
//! [`split_frame`] gives them in memory.
//!
//! # Trace context
//!
//! A traced transport appends the [`TraceCtx`] — (round, absolute
//! expanded-step seq, sender rank, sender wall-clock nanos), four fixed-width
//! fields, [`CTX_WIRE_BYTES`] in all — after a data frame's payload. The
//! payload carries its own length, so presence needs no flag: a frame with
//! `ctx: None` spends no byte on tracing.

use std::fmt;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::Arc;

/// Format version of every frame: wire, checkpoint and journal move together.
pub const VERSION: u8 = 2;

const MAGIC: [u8; 4] = *b"MRST";
const HEADER_LEN: usize = 14;
/// How many of a foreign input's first bytes [`WireError::BadMagic`] quotes.
const MAGIC_QUOTE_LEN: usize = 16;

/// What a frame means to the hub/worker protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Worker → hub: `from` announces its rank.
    Hello = 1,
    /// Worker ↔ worker (routed through the hub): collective payload.
    Data,
    /// Hub → worker: begin a collective round (`to` is the target rank,
    /// payload words parameterize the round).
    Round,
    /// Worker → hub: round finished; payload = result words + counters.
    Result,
    /// Worker → hub: round aborted; payload word 0 = peer that vanished.
    Failed,
    /// Hub → workers: rank `from` disconnected.
    Down,
    /// Hub → worker: shut down cleanly.
    Stop,
    /// Worker → hub: a batch of telemetry events for the trace collector
    /// (payload = UTF-8 JSONL as [`Payload::Bytes`]).
    Telem,
    /// Supervisor → shard: run a job. The payload of this and the two
    /// kinds below is one or more serving-journal records
    /// (`marsit_serve::encode_record`) as [`Payload::Bytes`]; here a
    /// `Submit`, followed by a `Snapshot` when the job resumes from a
    /// durability point.
    Submit,
    /// Shard → supervisor: a job finished (one `Outcome` record).
    Outcome,
    /// Shard → supervisor: a durability snapshot of an in-flight job (one
    /// `Snapshot` record, preceded by a `Migrate` when the job is handed
    /// back); supervisor → shard: an eviction request (one `Migrate`).
    Snapshot,
}

impl FrameKind {
    const ALL: [Self; 11] = [
        Self::Hello,
        Self::Data,
        Self::Round,
        Self::Result,
        Self::Failed,
        Self::Down,
        Self::Stop,
        Self::Telem,
        Self::Submit,
        Self::Outcome,
        Self::Snapshot,
    ];

    fn from_u8(kind: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|&k| k as u8 == kind)
    }
}

/// Frame payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Nothing (control frames).
    Empty,
    /// Packed sign words / counters, 8 raw bytes each on the wire.
    Words(Vec<u64>),
    /// Raw bytes (telemetry batches, serving-journal records).
    Bytes(Vec<u8>),
}

/// Trace context a traced transport stamps onto a data frame: enough for
/// the receiver to emit a hop event keyed to the same absolute
/// expanded-step slot the sender used, with the sender's wall clock for
/// cross-rank latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Training round the hop belongs to.
    pub round: u64,
    /// Absolute expanded-step sequence number of the hop.
    pub seq: u64,
    /// Sending rank.
    pub sender: u32,
    /// Sender wall-clock nanos at send time.
    pub send_ns: u64,
}

/// Wire overhead of an attached trace context: round 8 + seq 8 + sender 4 +
/// `send_ns` 8 bytes.
pub const CTX_WIRE_BYTES: usize = 8 + 8 + 4 + 8;

/// One transport frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Frame meaning.
    pub kind: FrameKind,
    /// Originating rank (or [`DRIVER`] for the hub).
    pub from: u32,
    /// Destination rank (or [`DRIVER`] for the hub).
    pub to: u32,
    /// Bit-exact payload.
    pub payload: Payload,
    /// Optional trace context (`None` spends no byte on the wire).
    pub ctx: Option<TraceCtx>,
}

/// Pseudo-rank the hub/driver uses in `from`/`to` fields.
pub const DRIVER: u32 = u32::MAX;

/// Typed decode failures. Decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the bytes a header or length field promised.
    Truncated,
    /// The input does not start with the frame magic.
    BadMagic {
        /// The first bytes found instead, as text.
        found: String,
    },
    /// The header names a format version this decoder does not speak.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// Kind, length and body do not match the recorded CRC (a torn or
    /// corrupted frame).
    BadCrc {
        /// CRC stored in the header.
        recorded: u32,
        /// CRC of the bytes actually present.
        actual: u32,
    },
    /// The kind byte is not one this decoder knows.
    UnknownKind {
        /// The kind byte found.
        found: u8,
    },
    /// The body passed its CRC but its fields are malformed.
    BadPayload {
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated frame"),
            Self::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found} (want {VERSION})")
            }
            Self::BadCrc { recorded, actual } => write!(
                f,
                "frame CRC mismatch: recorded {recorded:08x}, actual {actual:08x}"
            ),
            Self::UnknownKind { found } => write!(f, "unknown frame kind {found:#04x}"),
            Self::BadPayload { reason } => write!(f, "bad payload: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        Self::new(io::ErrorKind::InvalidData, e)
    }
}

/// IEEE CRC-32 (the ubiquitous reflected 0xEDB88320 polynomial),
/// dependency-free. Check value: `crc32(b"123456789") == 0xCBF4_3926`.
///
/// The polynomial and the check value are the contract; how many bytes a
/// step folds is not. Every checkpoint byte goes through here on its way
/// into a frame and again on its way out, so inputs of 64 bytes and more
/// run a carry-less-multiply fold where the CPU has one, and the
/// slicing-by-8 table loop — the reference the fold is tested against —
/// takes short inputs, the last few bytes and every other target.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0u32, bytes)
}

/// Streaming form of [`crc32`]: folds `bytes` into a raw (pre-inverted)
/// CRC state. `!crc32_update(!0, b)` equals `crc32(b)`, and chaining
/// updates over slices equals one update over their concatenation.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if bytes.len() >= CLMUL_MIN
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: feature presence just checked.
            return unsafe { crc32_clmul(state, bytes) };
        }
    }
    crc32_table(state, bytes)
}

/// Shortest input the carry-less-multiply build takes: its four accumulators
/// start as the first four 16-byte lanes.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN: usize = 64;

/// [`crc32_update`] by `PCLMULQDQ` folding (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009): the message is a polynomial over GF(2), and multiplying a 128-bit
/// accumulator by `x^n mod P` moves it `n` bits down the message without
/// changing the remainder. Four accumulators fold over 64-byte blocks
/// (independent multiplies, so the loop streams), merge into one, walk the
/// remaining whole 16-byte lanes, and a Barrett reduction turns the last 128
/// bits into the 32-bit state. The table loop finishes the < 16 bytes left.
///
/// The constants are the paper's for the bit-reflected IEEE polynomial:
/// `x^n mod P`, its 32 bits reflected and shifted left by one, for `n` =
/// 512+32 / 512−32 (fold by four lanes), 128+32 / 128−32 (fold by one) and
/// 64 (the 96→64-bit step); then `P` itself and `μ = ⌊x^64 / P⌋`, reflected
/// over 33 bits, for Barrett.
///
/// Panics on fewer than [`CLMUL_MIN`] bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };
    const FOLD_BY_4: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    const FOLD_BY_1: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    const FOLD_TO_64: i64 = 0x1_63cd_6124;
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    let load = |lane: &[u8; 16]| {
        let v = u128::from_le_bytes(*lane);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    };
    // acc · x^n, both halves, plus the lane n bits further on.
    let fold = |acc: __m128i, k: __m128i, next: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    };

    let (lanes, tail) = bytes.as_chunks::<16>();
    let (head, mut lanes) = lanes
        .split_first_chunk::<4>()
        .expect("the clmul build takes inputs of 64 bytes and more");
    let mut x = head.map(|lane| load(&lane));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let k = _mm_set_epi64x(FOLD_BY_4.1, FOLD_BY_4.0);
    while let Some((block, rest)) = lanes.split_first_chunk::<4>() {
        for (acc, lane) in x.iter_mut().zip(block) {
            *acc = fold(*acc, k, load(lane));
        }
        lanes = rest;
    }

    let k = _mm_set_epi64x(FOLD_BY_1.1, FOLD_BY_1.0);
    let mut acc = x[0];
    for &next in &x[1..] {
        acc = fold(acc, k, next);
    }
    for lane in lanes {
        acc = fold(acc, k, load(lane));
    }

    // 128 → 96 → 64 bits.
    let low32s = _mm_setr_epi32(!0, 0, !0, 0);
    let acc = _mm_xor_si128(
        _mm_srli_si128::<8>(acc),
        _mm_clmulepi64_si128::<0x10>(acc, k),
    );
    let acc = _mm_xor_si128(
        _mm_srli_si128::<4>(acc),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32s), _mm_set_epi64x(0, FOLD_TO_64)),
    );
    // Barrett: acc − ⌊acc · μ / x^32⌋ · P leaves the remainder in bits 32..64.
    let poly_mu = _mm_set_epi64x(MU, POLY);
    let quotient = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32s), poly_mu);
    let product = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(quotient, low32s), poly_mu);
    let folded = _mm_extract_epi32::<1>(_mm_xor_si128(acc, product)) as u32;
    crc32_table(folded, tail)
}

/// [`crc32_update`] by slicing-by-8: eight tables let each iteration fold in
/// 8 bytes with independent lookups instead of one lookup per byte
/// serialized through the crc register. The scalar reference.
fn crc32_table(state: u32, bytes: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut slice = 1;
        while slice < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[slice - 1][i];
                t[slice][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                i += 1;
            }
            slice += 1;
        }
        t
    }
    static TABLES: [[u32; 256]; 8] = tables();
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// An immutable view of bytes in a buffer that other views share: the type
/// of a checkpoint payload wherever it travels (`TrainSnapshot::to_json`,
/// the journal's `SnapshotRecord`, a `ResumeJob`, a job migrating between
/// shards).
///
/// A journal scan reads each frame into a buffer of its own and hands a
/// snapshot record a view of it; planning a resume and journaling a migration
/// then pass the payload on by bumping a reference count instead of copying a
/// megabyte, and the last holder can [`reclaim`](Self::reclaim) the buffer
/// for the next frame. `clone` never copies bytes,
/// `From<Vec<u8>>` takes the vector over without copying it, and a view
/// dereferences to `[u8]`; equality and `Debug` are by content, exactly as
/// for the `Vec<u8>` it replaces. A view keeps its whole buffer alive, so
/// one that must outlive its siblings by long is better copied out
/// (`to_vec().into()`).
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl SharedBytes {
    /// The buffer behind this view, once no other view shares it: a holder
    /// done with a payload hands the memory on for reuse instead of freeing
    /// it. `None` — the view dropped all the same — while another view of
    /// the buffer lives.
    #[must_use]
    pub fn reclaim(self) -> Option<Vec<u8>> {
        Arc::try_unwrap(self.buf).ok()
    }

    /// The view of `range` (offsets within this view) onto the same buffer.
    /// Panics when `range` does not lie within the view.
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "range {range:?} outside a view of {} bytes",
            self.len()
        );
        Self {
            buf: Arc::clone(&self.buf),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }
}

impl std::ops::Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        Self {
            range: 0..bytes.len(),
            buf: Arc::new(bytes),
        }
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The header checksum: CRC-32 over kind ‖ length (`header[5..10]`) ‖ body.
fn frame_crc(header: &[u8], body: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &header[5..10]), body)
}

/// Builds one frame: the header is reserved up front, fields append to the
/// body, and [`Writer::finish`] seals length and CRC.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a frame of `kind` with room for `body_capacity` body bytes.
    #[must_use]
    pub fn new(kind: u8, body_capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + body_capacity);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[VERSION, kind]);
        buf.resize(HEADER_LEN, 0);
        Self { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an element or byte count. Panics above `u32::MAX`: a frame
    /// body is under 4 GiB.
    pub fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("frame field count fits u32"));
    }

    fn words<const N: usize, T: Copy>(&mut self, values: &[T], le: impl Fn(T) -> [u8; N]) {
        self.count(values.len());
        let start = self.buf.len();
        self.buf.resize(start + values.len() * N, 0);
        for (dst, &v) in self.buf[start..].chunks_exact_mut(N).zip(values) {
            dst.copy_from_slice(&le(v));
        }
    }

    /// Appends a count-prefixed `f32` slice as raw little-endian words.
    pub fn f32s(&mut self, values: &[f32]) {
        self.words(values, |v: f32| v.to_bits().to_le_bytes());
    }

    /// Appends a count-prefixed `u64` slice as raw little-endian words.
    pub fn u64s(&mut self, values: &[u64]) {
        self.words(values, u64::to_le_bytes);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.count(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, text: &str) {
        self.bytes(text.as_bytes());
    }

    /// Seals the header (body length, CRC) and returns the frame's bytes.
    /// Panics on a body of 4 GiB or more.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let len = u32::try_from(self.buf.len() - HEADER_LEN).expect("frame body fits u32");
        self.buf[6..10].copy_from_slice(&len.to_le_bytes());
        let (header, body) = self.buf.split_at_mut(HEADER_LEN);
        let crc = frame_crc(header, body);
        header[10..].copy_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Reads a frame body field by field. Every getter is a typed error —
/// [`WireError::Truncated`] where the body ends early, [`WireError::BadPayload`]
/// where a field's content is invalid — and none panics or allocates on a
/// count's say-so.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// Next byte as a flag: 0 or 1, nothing else.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadPayload {
                reason: format!("flag byte {other} is neither 0 nor 1"),
            }),
        }
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Next `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        self.u32().map(f32::from_bits)
    }

    /// Next `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    /// Next count, checked against the bytes left: `item_bytes` is the
    /// least one counted item occupies, so a count that promises more than
    /// the body holds is `Truncated` before anything is allocated for it.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        match n.checked_mul(item_bytes) {
            Some(bytes) if bytes <= self.rest.len() => Ok(n),
            _ => Err(WireError::Truncated),
        }
    }

    fn words<const N: usize, T>(&mut self, le: impl Fn([u8; N]) -> T) -> Result<Vec<T>, WireError> {
        let n = self.count(N)?;
        let raw = self.take(n * N)?.chunks_exact(N);
        Ok(raw
            .map(|b| le(b.try_into().expect("N-byte chunk")))
            .collect())
    }

    /// Next count-prefixed `f32` slice.
    pub fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        self.words(|b| f32::from_bits(u32::from_le_bytes(b)))
    }

    /// Next count-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        self.words(u64::from_le_bytes)
    }

    /// Next length-prefixed byte string, borrowed from the body.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Next length-prefixed string, borrowed from the body; must be UTF-8.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|e| WireError::BadPayload {
            reason: format!("string field is not UTF-8: {e}"),
        })
    }

    /// Ends the body; bytes left over are an error.
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadPayload {
                reason: format!("{} trailing bytes after the last field", self.rest.len()),
            })
        }
    }
}

/// Rejects input whose first bytes, as far as they go, are not this format's
/// magic and version.
fn check_magic_and_version(bytes: &[u8]) -> Result<(), WireError> {
    let seen = bytes.len().min(MAGIC.len());
    if bytes[..seen] != MAGIC[..seen] {
        let head = &bytes[..bytes.len().min(MAGIC_QUOTE_LEN)];
        return Err(WireError::BadMagic {
            found: String::from_utf8_lossy(head).into_owned(),
        });
    }
    match bytes.get(MAGIC.len()) {
        Some(&found) if found != VERSION => Err(WireError::UnsupportedVersion { found }),
        _ => Ok(()),
    }
}

/// Splits the frame at the front of `bytes` into its kind, a [`Reader`] over
/// its CRC-checked body, and the bytes after it.
///
/// # Errors
///
/// [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] as soon as the
/// bytes present contradict the header, [`WireError::Truncated`] when header
/// or body are cut short, [`WireError::BadCrc`] when they are all there but
/// damaged.
pub fn split_frame(bytes: &[u8]) -> Result<(u8, Reader<'_>, &[u8]), WireError> {
    check_magic_and_version(bytes)?;
    let Some((header, rest)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(WireError::Truncated);
    };
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > rest.len() {
        return Err(WireError::Truncated);
    }
    let (body, rest) = rest.split_at(len);
    let recorded = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    let actual = frame_crc(header, body);
    if recorded != actual {
        return Err(WireError::BadCrc { recorded, actual });
    }
    Ok((header[5], Reader { rest: body }, rest))
}

/// [`split_frame`] for input that must hold exactly one frame: bytes after
/// it are [`WireError::BadPayload`].
pub fn sole_frame(bytes: &[u8]) -> Result<(u8, Reader<'_>), WireError> {
    let (kind, body, rest) = split_frame(bytes)?;
    if rest.is_empty() {
        Ok((kind, body))
    } else {
        Err(WireError::BadPayload {
            reason: format!("{} trailing bytes after the frame", rest.len()),
        })
    }
}

impl Frame {
    /// Convenience constructor for a words-payload frame.
    #[must_use]
    pub fn words(kind: FrameKind, from: u32, to: u32, words: Vec<u64>) -> Self {
        Self {
            kind,
            from,
            to,
            payload: Payload::Words(words),
            ctx: None,
        }
    }

    /// Convenience constructor for a control frame without payload.
    #[must_use]
    pub fn control(kind: FrameKind, from: u32, to: u32) -> Self {
        Self {
            kind,
            from,
            to,
            payload: Payload::Empty,
            ctx: None,
        }
    }

    /// Convenience constructor for a bytes-payload frame.
    #[must_use]
    pub fn bytes(kind: FrameKind, from: u32, to: u32, bytes: Vec<u8>) -> Self {
        Self {
            kind,
            from,
            to,
            payload: Payload::Bytes(bytes),
            ctx: None,
        }
    }

    /// Convenience constructor for a telemetry-batch frame.
    #[must_use]
    pub fn telem(from: u32, bytes: Vec<u8>) -> Self {
        Self::bytes(FrameKind::Telem, from, DRIVER, bytes)
    }

    /// The same frame with a trace context stamped on.
    #[must_use]
    pub fn with_ctx(mut self, ctx: TraceCtx) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Serializes to the frame's wire bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = match &self.payload {
            Payload::Empty => 0,
            Payload::Words(words) => 4 + words.len() * 8,
            Payload::Bytes(bytes) => 4 + bytes.len(),
        };
        let mut w = Writer::new(self.kind as u8, 9 + payload_len + CTX_WIRE_BYTES);
        w.u32(self.from);
        w.u32(self.to);
        match &self.payload {
            Payload::Empty => w.u8(0),
            Payload::Words(words) => {
                w.u8(1);
                w.u64s(words);
            }
            Payload::Bytes(bytes) => {
                w.u8(2);
                w.bytes(bytes);
            }
        }
        if let Some(ctx) = &self.ctx {
            w.u64(ctx.round);
            w.u64(ctx.seq);
            w.u32(ctx.sender);
            w.u64(ctx.send_ns);
        }
        w.finish()
    }

    /// Parses exactly one frame.
    ///
    /// # Errors
    ///
    /// Returns the first [`WireError`] describing why `bytes` is not one
    /// valid transport frame. Never panics on any input.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, mut body) = sole_frame(bytes)?;
        let kind = FrameKind::from_u8(kind).ok_or(WireError::UnknownKind { found: kind })?;
        let from = body.u32()?;
        let to = body.u32()?;
        let payload = match body.u8()? {
            0 => Payload::Empty,
            1 => Payload::Words(body.u64s()?),
            2 => Payload::Bytes(body.bytes()?.to_vec()),
            tag => {
                return Err(WireError::BadPayload {
                    reason: format!("unknown payload tag {tag}"),
                })
            }
        };
        let ctx = if body.remaining() == 0 {
            None
        } else {
            Some(TraceCtx {
                round: body.u64()?,
                seq: body.u64()?,
                sender: body.u32()?,
                send_ns: body.u64()?,
            })
        };
        body.finish()?;
        Ok(Self {
            kind,
            from,
            to,
            payload,
            ctx,
        })
    }
}

/// Writes one frame to a blocking stream.
///
/// # Errors
///
/// The stream's I/O error.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> io::Result<()> {
    writer.write_all(&frame.encode())
}

/// Reads one frame off a blocking stream, with the number of bytes it
/// occupied. `Ok(None)` is a clean EOF on a frame boundary.
///
/// # Errors
///
/// As [`read_frame_bytes`], and `InvalidData` wrapping the [`WireError`]
/// of a frame that arrived whole but is damaged or not a transport frame.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<(Frame, usize)>> {
    let Some(bytes) = read_frame_bytes(reader, |_| Vec::new())? else {
        return Ok(None);
    };
    Ok(Some((Frame::decode(&bytes)?, bytes.len())))
}

/// Reads from `reader` until `buf` is full or the stream ends; the bytes
/// read.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// The stream half of [`split_frame`]: reads the next frame's bytes, header
/// and body, off a blocking stream, without checking its CRC. Once the
/// header has said how many bytes the frame claims, `buffer(claimed)` hands
/// over the vector they go into: its old contents are dropped and its
/// capacity is reused, so a reader that recycles its buffers reads frame
/// after frame without going back to the allocator. `Ok(None)` is a clean
/// EOF on a frame boundary.
///
/// Nothing is taken on the header's word: magic and version are checked
/// before the length is believed, and the buffer grows with the bytes that
/// arrive, not with what the header claims (a caller that knows how much the
/// stream still holds — a file's size — may hand over that much room).
///
/// # Errors
///
/// The stream's I/O error, or `InvalidData` wrapping the [`WireError`] that
/// [`split_frame`] would give the same bytes in memory — a stream that ends
/// inside a frame (a killed peer's torn tail) is [`WireError::Truncated`],
/// and a foreign head is quoted as far as an in-memory decoder would quote
/// it (reading at most two bytes past the header to do so).
pub fn read_frame_bytes(
    reader: &mut impl Read,
    buffer: impl FnOnce(usize) -> Vec<u8>,
) -> io::Result<Option<Vec<u8>>> {
    let mut head = [0u8; MAGIC_QUOTE_LEN];
    let n = fill(reader, &mut head[..HEADER_LEN])?;
    if n == 0 {
        return Ok(None);
    }
    let quoted = if n == HEADER_LEN && head[..MAGIC.len()] != MAGIC {
        n + fill(reader, &mut head[n..])?
    } else {
        n
    };
    check_magic_and_version(&head[..quoted])?;
    if n < HEADER_LEN {
        return Err(WireError::Truncated.into());
    }
    let len = u32::from_le_bytes([head[6], head[7], head[8], head[9]]) as usize;
    let mut frame = buffer(HEADER_LEN + len);
    frame.clear();
    frame.extend_from_slice(&head[..HEADER_LEN]);
    reader.take(len as u64).read_to_end(&mut frame)?;
    if frame.len() < HEADER_LEN + len {
        return Err(WireError::Truncated.into());
    }
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn crc32_matches_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition: one conditional subtraction of the polynomial per bit.
    fn crc32_bitwise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |crc, &b| {
            (0..8).fold(crc ^ u32::from(b), |c, _| {
                (c >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(c & 1))
            })
        })
    }

    /// Bytes with no short period (a 64-bit LCG's top byte).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    /// `crc32_update` as every build this CPU can run computes it, called
    /// directly (not only through the dispatcher) — so the table loop is
    /// exercised on hosts with `PCLMULQDQ` too. The first entry is the
    /// dispatcher itself.
    fn crc32_on_every_build(state: u32, bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let mut got = vec![
            ("dispatched", crc32_update(state, bytes)),
            ("table", crc32_table(state, bytes)),
        ];
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= CLMUL_MIN
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: feature presence just checked.
            got.push(("clmul", unsafe { crc32_clmul(state, bytes) }));
        }
        got
    }

    const STATES: [u32; 3] = [!0, 0, 0x1234_5678];

    /// The table loop and the carry-less-multiply fold, each called directly,
    /// agree — with each other and with the bit-at-a-time definition.
    #[test]
    fn crc32_builds_match_the_table() {
        // Every length around the 16- and 64-byte strides, at every
        // alignment of the first byte within a lane.
        let buf = noise(1024 + 16, 1);
        for offset in 0..16 {
            for len in 0..=1024 {
                let bytes = &buf[offset..offset + len];
                for state in STATES {
                    let want = crc32_bitwise(state, bytes);
                    for (build, got) in crc32_on_every_build(state, bytes) {
                        assert_eq!(
                            got, want,
                            "{build}: len {len} at offset {offset}, state {state:08x}"
                        );
                    }
                }
            }
        }
        // The serving mix's largest checkpoint: 18 347 blocks of 64 bytes
        // and a 10-byte tail.
        let big = noise(1_174_218 + 1, 2);
        for bytes in [&big[1..], &big[..1_174_218]] {
            for state in STATES {
                let want = crc32_bitwise(state, bytes);
                for (build, got) in crc32_on_every_build(state, bytes) {
                    assert_eq!(got, want, "{build}: checkpoint-sized, state {state:08x}");
                }
            }
        }
        // Chaining — how `frame_crc` runs header ‖ body — at every split.
        let bytes = &buf[3..303];
        for state in STATES {
            let want = crc32_bitwise(state, bytes);
            for split in 0..=bytes.len() {
                let (head, tail) = bytes.split_at(split);
                for (build, mid) in crc32_on_every_build(state, head) {
                    for (then, got) in crc32_on_every_build(mid, tail) {
                        assert_eq!(got, want, "{build} then {then}: split at {split}");
                    }
                }
            }
        }
    }

    #[test]
    fn golden_fixture_words_frame() {
        // Pinned wire bytes (recorded for format /2): if this moves, the
        // format is broken and needs a version bump.
        let frame = Frame::words(FrameKind::Data, 3, 1, vec![0xDEAD_BEEF_0000_0001, 7]);
        assert_eq!(
            hex(&frame.encode()),
            concat!(
                "4d525354",         // magic
                "02",               // format version
                "02",               // kind: data
                "1d000000",         // body length
                "3cdbc616",         // CRC-32
                "03000000",         // from
                "01000000",         // to
                "01",               // payload: words
                "02000000",         //   count
                "01000000efbeadde", //   0xDEADBEEF00000001, little-endian
                "0700000000000000", //   7
            )
        );
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn golden_fixture_control_frame() {
        let frame = Frame::control(FrameKind::Stop, DRIVER, 2);
        assert_eq!(
            hex(&frame.encode()),
            "4d525354020709000000de61d550ffffffff0200000000"
        );
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn golden_fixture_serving_frames() {
        // Pinned wire bytes for the process-per-shard serving protocol: a
        // supervisor → shard 2 submit frame, a shard's outcome frame (real
        // payloads are journal records; any bytes frame the same way), and
        // a payload-free snapshot frame.
        let submit = Frame::bytes(FrameKind::Submit, DRIVER, 2, b"name=j0".to_vec());
        assert_eq!(
            hex(&submit.encode()),
            concat!(
                "4d525354",
                "02",
                "09",
                "14000000",
                "91bcab24",
                "ffffffff",
                "02000000",
                "02",             // payload: bytes
                "07000000",       //   length
                "6e616d653d6a30", //   "name=j0"
            )
        );
        assert_eq!(Frame::decode(&submit.encode()).unwrap(), submit);

        let outcome = Frame::bytes(FrameKind::Outcome, 2, DRIVER, b"ok".to_vec());
        assert_eq!(
            hex(&outcome.encode()),
            "4d525354020a0f000000652df3c502000000ffffffff02020000006f6b"
        );
        assert_eq!(Frame::decode(&outcome.encode()).unwrap(), outcome);

        let snapshot = Frame::control(FrameKind::Snapshot, 1, DRIVER);
        assert_eq!(
            hex(&snapshot.encode()),
            "4d525354020b090000006354b03701000000ffffffff00"
        );
        assert_eq!(Frame::decode(&snapshot.encode()).unwrap(), snapshot);
    }

    /// The slice pair the checkpoint relies on: every `f32` bit pattern
    /// crosses unchanged.
    #[test]
    fn float_bit_patterns_roundtrip() {
        let values = vec![
            -0.0f32,
            f32::NAN,
            f32::from_bits(0xffc0_0001), // negative quiet NaN with payload
            f32::from_bits(1),           // smallest subnormal
            f32::NEG_INFINITY,
            f32::INFINITY,
        ];
        let mut w = Writer::new(0x7f, 0);
        w.f32s(&values);
        w.f32(values[2]);
        let frame = w.finish();
        let (_, mut body) = sole_frame(&frame).unwrap();
        let got = body.f32s().unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&got));
        assert_eq!(body.f32().unwrap().to_bits(), values[2].to_bits());
        body.finish().unwrap();
    }

    #[test]
    fn every_field_kind_roundtrips_in_order() {
        let mut w = Writer::new(0x7f, 0);
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.u64s(&[1, u64::MAX]);
        w.bytes(&[0, 0xFF, b'\n']);
        w.str("naïve\n");
        w.u8(1);
        let frame = w.finish();
        let (kind, mut r) = sole_frame(&frame).unwrap();
        assert_eq!(kind, 0x7f);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.u64s().unwrap(), vec![1, u64::MAX]);
        assert_eq!(r.bytes().unwrap(), &[0, 0xFF, b'\n']);
        assert_eq!(r.str().unwrap(), "naïve\n");
        assert!(r.bool().unwrap());
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(WireError::Truncated));
        r.finish().unwrap();
    }

    /// A frame without trace context spends no byte on one — observability
    /// is free when off — and a context costs exactly its fixed width.
    #[test]
    fn ctx_free_frames_are_byte_identical_to_pre_trace_wire() {
        let frame = Frame::words(FrameKind::Data, 3, 1, vec![0xDEAD_BEEF_0000_0001, 7]);
        let plain = frame.encode();
        // header + from + to + tag + count + two words, nothing else.
        assert_eq!(plain.len(), HEADER_LEN + 4 + 4 + 1 + 4 + 16);
        let traced = frame
            .with_ctx(TraceCtx {
                round: 1,
                seq: 2,
                sender: 3,
                send_ns: 4,
            })
            .encode();
        assert_eq!(traced.len(), plain.len() + CTX_WIRE_BYTES);
        // Same body up to where the context starts.
        assert_eq!(traced[HEADER_LEN..plain.len()], plain[HEADER_LEN..]);
    }

    #[test]
    fn trace_context_roundtrips() {
        let ctx = TraceCtx {
            round: 42,
            seq: 0x0123_4567_89AB_CDEF,
            sender: 3,
            send_ns: u64::MAX,
        };
        let frame = Frame::words(FrameKind::Data, 3, 1, vec![7]).with_ctx(ctx);
        let bytes = frame.encode();
        assert_eq!(
            hex(&bytes[bytes.len() - CTX_WIRE_BYTES..]),
            concat!(
                "2a00000000000000", // round
                "efcdab8967452301", // seq
                "03000000",         // sender
                "ffffffffffffffff", // send_ns
            )
        );
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.ctx, Some(ctx));
    }

    #[test]
    fn telem_bytes_roundtrip() {
        let batch = br#"{"t":0.5,"ev":"hop","seq":0}"#.to_vec();
        let frame = Frame::telem(2, batch.clone());
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back.kind, FrameKind::Telem);
        assert_eq!(back.to, DRIVER);
        assert_eq!(back.payload, Payload::Bytes(batch));
        // Empty batches are legal (a rank with nothing to flush).
        let empty = Frame::telem(0, Vec::new());
        assert_eq!(Frame::decode(&empty.encode()).unwrap(), empty);
    }

    /// Bytes after the payload are a whole trace context or an error.
    #[test]
    fn malformed_trace_context_is_a_typed_error() {
        for (extra, want_truncated) in [
            (1, true),
            (CTX_WIRE_BYTES - 1, true),
            (CTX_WIRE_BYTES + 1, false),
        ] {
            let mut w = Writer::new(FrameKind::Data as u8, 0);
            w.u32(0);
            w.u32(1);
            w.u8(0);
            for _ in 0..extra {
                w.u8(0xEE);
            }
            let err = Frame::decode(&w.finish()).expect_err("not a context");
            if want_truncated {
                assert_eq!(err, WireError::Truncated, "{extra} bytes");
            } else {
                assert!(
                    matches!(err, WireError::BadPayload { .. }),
                    "{extra} bytes: {err:?}"
                );
            }
        }
    }

    #[test]
    fn typed_errors_never_panic() {
        let good = Frame::words(FrameKind::Data, 0, 1, vec![7]).encode();
        assert!(matches!(
            Frame::decode(b"garbage"),
            Err(WireError::BadMagic { .. })
        ));
        let mut other_version = good.clone();
        other_version[4] = 9;
        assert_eq!(
            Frame::decode(&other_version),
            Err(WireError::UnsupportedVersion { found: 9 })
        );
        assert_eq!(Frame::decode(&good[..11]), Err(WireError::Truncated));
        assert_eq!(Frame::decode(b"MR"), Err(WireError::Truncated));
        let mut damaged = good.clone();
        *damaged.last_mut().unwrap() ^= 0x80;
        assert!(matches!(
            Frame::decode(&damaged),
            Err(WireError::BadCrc { .. })
        ));
        assert_eq!(
            Frame::decode(&Writer::new(0x20, 0).finish()),
            Err(WireError::UnknownKind { found: 0x20 })
        );
        let mut bad_tag = Writer::new(FrameKind::Data as u8, 0);
        bad_tag.u32(0);
        bad_tag.u32(1);
        bad_tag.u8(b'z');
        assert!(matches!(
            Frame::decode(&bad_tag.finish()),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn split_frame_walks_a_concatenation() {
        let a = Frame::control(FrameKind::Hello, 1, DRIVER).encode();
        let b = Frame::words(FrameKind::Data, 1, 2, vec![9]).encode();
        let both = [a.clone(), b.clone()].concat();
        let (kind, _, rest) = split_frame(&both).unwrap();
        assert_eq!((kind, rest), (FrameKind::Hello as u8, &b[..]));
        let (kind, _, rest) = split_frame(rest).unwrap();
        assert_eq!((kind, rest.len()), (FrameKind::Data as u8, 0));
        assert!(matches!(
            sole_frame(&both),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn stream_pair_roundtrips_and_types_its_endings() {
        let frames = [
            Frame::control(FrameKind::Hello, 1, DRIVER),
            Frame::words(FrameKind::Data, 1, 2, vec![1, 2, 3]),
            Frame::telem(1, b"{}\n".to_vec()),
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut reader = io::Cursor::new(&stream);
        for frame in &frames {
            let (got, len) = read_frame(&mut reader).unwrap().expect("a frame");
            assert_eq!(&got, frame);
            assert_eq!(len, frame.encode().len());
        }
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");

        // A stream that ends inside a frame — header or body — is the typed
        // `Truncated`, not a clean EOF.
        for cut in [5, stream.len() - 1] {
            let mut reader = io::Cursor::new(&stream[..cut]);
            let err = loop {
                match read_frame(&mut reader) {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("cut at {cut} read as a clean EOF"),
                    Err(e) => break e,
                }
            };
            let wire = err.get_ref().and_then(|e| e.downcast_ref::<WireError>());
            assert_eq!(wire, Some(&WireError::Truncated), "cut at {cut}");
        }

        // Foreign bytes fail on their magic, before the "length" behind it
        // (here 0x20202020 bytes) is waited for.
        let mut reader = io::Cursor::new(b"not a frame, but long enough to hold a header");
        let err = read_frame(&mut reader).expect_err("foreign");
        let wire = err.get_ref().and_then(|e| e.downcast_ref::<WireError>());
        assert!(matches!(wire, Some(WireError::BadMagic { .. })), "{err}");
    }

    /// The stream reader and `split_frame` give any input the same verdict
    /// — cut anywhere, any bit flipped, a foreign head (whole or cut short)
    /// quoted alike — and
    /// the stream reads exactly the frame's bytes, not one past them.
    #[test]
    fn stream_reads_agree_with_split_frame() {
        let frame = Frame::telem(3, b"{\"ev\":\"hop\"}\n".to_vec()).encode();
        let whole = [
            frame.clone(),
            Frame::control(FrameKind::Stop, DRIVER, 3).encode(),
        ]
        .concat();
        let stream = |bytes: &[u8]| -> Result<Option<usize>, WireError> {
            let mut reader = bytes;
            match read_frame_bytes(&mut reader, |_| Vec::new()) {
                Ok(Some(read)) => {
                    split_frame(&read)?;
                    assert_eq!(
                        reader.len(),
                        bytes.len() - read.len(),
                        "read past the frame"
                    );
                    Ok(Some(read.len()))
                }
                Ok(None) => Ok(None),
                Err(e) => Err(e
                    .get_ref()
                    .and_then(|e| e.downcast_ref::<WireError>())
                    .expect("a wire error")
                    .clone()),
            }
        };
        let memory = |bytes: &[u8]| -> Result<Option<usize>, WireError> {
            if bytes.is_empty() {
                return Ok(None);
            }
            let (_, _, rest) = split_frame(bytes)?;
            Ok(Some(bytes.len() - rest.len()))
        };
        let mut inputs: Vec<Vec<u8>> = (0..=whole.len()).map(|cut| whole[..cut].to_vec()).collect();
        for bit in 0..frame.len() * 8 {
            let mut flipped = whole.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            inputs.push(flipped);
        }
        let foreign = b"marsit-journal/1 0000000000000000 migrate";
        inputs.extend((1..=foreign.len()).map(|cut| foreign[..cut].to_vec()));
        for input in &inputs {
            assert_eq!(stream(input), memory(input), "{input:?}");
        }
        assert!(matches!(
            stream(foreign),
            Err(WireError::BadMagic { found }) if found == "marsit-journal/1"
        ));
    }

    /// A view hands its buffer back only when it is the last one.
    #[test]
    fn reclaim_takes_the_buffer_from_its_last_view() {
        let whole = SharedBytes::from(vec![1, 2, 3, 4]);
        let part = whole.slice(1..3);
        assert_eq!(whole.clone().reclaim(), None, "two views still live");
        assert_eq!(part.reclaim(), None, "the whole view still lives");
        assert_eq!(whole.reclaim(), Some(vec![1, 2, 3, 4]));
    }

    proptest! {
        /// Random bytes cut at two random points and chained from a random
        /// state: every build, in every combination, agrees with the
        /// bit-at-a-time definition over the whole.
        #[test]
        fn crc32_chains_across_random_splits(
            bytes in proptest::collection::vec(any::<u8>(), 0..2048),
            cuts in (any::<u64>(), any::<u64>()),
            state in any::<u32>(),
        ) {
            let a = (cuts.0 % (bytes.len() as u64 + 1)) as usize;
            let b = (cuts.1 % (bytes.len() as u64 + 1)) as usize;
            let (a, b) = (a.min(b), a.max(b));
            let want = crc32_bitwise(state, &bytes);
            for (first, s1) in crc32_on_every_build(state, &bytes[..a]) {
                for (second, s2) in crc32_on_every_build(s1, &bytes[a..b]) {
                    for (third, got) in crc32_on_every_build(s2, &bytes[b..]) {
                        prop_assert_eq!(
                            got, want,
                            "{} / {} / {} cut at {} and {}", first, second, third, a, b
                        );
                    }
                }
            }
        }

        /// Arbitrary bytes never panic any getter, bare or behind a valid
        /// header, and a slice getter never returns more than the body held
        /// (a count is not believed past the bytes present).
        #[test]
        fn arbitrary_bodies_never_panic_a_getter(
            body in proptest::collection::vec(any::<u8>(), 0..64),
            getter in 0usize..9,
        ) {
            let _ = split_frame(&body);
            let mut w = Writer::new(0x7f, body.len());
            for &b in &body {
                w.u8(b);
            }
            let frame = w.finish();
            let (_, mut r) = sole_frame(&frame).expect("sealed frame");
            let returned_bytes = match getter {
                0 => r.u8().map(|_| 1),
                1 => r.u32().map(|_| 4),
                2 => r.u64().map(|_| 8),
                3 => r.f32().map(|_| 4),
                4 => r.f64().map(|_| 8),
                5 => r.f32s().map(|v| 4 + v.len() * 4),
                6 => r.u64s().map(|v| 4 + v.len() * 8),
                7 => r.bytes().map(|v| 4 + v.len()),
                _ => r.str().map(|v| 4 + v.len()),
            };
            if let Ok(n) = returned_bytes {
                prop_assert_eq!(r.remaining() + n, body.len());
            }
        }

        /// Any single-bit flip of a sealed frame is rejected by
        /// `split_frame`; any strict prefix is `Truncated`.
        #[test]
        fn sealed_frames_reject_flips_and_cuts(
            body in proptest::collection::vec(any::<u8>(), 0..48),
            pick in any::<u64>(),
        ) {
            let mut w = Writer::new(0x7f, body.len());
            w.bytes(&body);
            let frame = w.finish();
            let bit = (pick % (frame.len() as u64 * 8)) as usize;
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(split_frame(&flipped).is_err(), "bit {}", bit);
            let cut = (pick % frame.len() as u64) as usize;
            prop_assert_eq!(split_frame(&frame[..cut]).err(), Some(WireError::Truncated));
        }
    }
}
