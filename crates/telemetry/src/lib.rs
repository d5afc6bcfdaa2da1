//! Deterministic observability for the Marsit reproduction.
//!
//! Everything in this crate is driven by the *simulated* clock (the α–β cost
//! model's seconds), never the wall clock, so a run replayed with the same
//! seed produces a byte-identical event log. The pieces:
//!
//! - [`Telemetry`]: a cheaply clonable handle that is either *disabled* (the
//!   no-op sink — every operation is a branch on `None` and returns
//!   immediately, recording nothing) or *recording* into a shared in-memory
//!   state of events, counters, gauges, and log2-bucket [`Histogram`]s;
//! - [`Event`]/[`Value`]: the schema-light event record, serialized as one
//!   JSON object per line ([`Telemetry::events_jsonl`]);
//! - [`scope`]: a thread-local ambient scope so deep call sites (the
//!   collectives' per-hop loops) can emit without threading a handle through
//!   every signature, plus the [`scope::HopRecorder`] that assigns each wire
//!   attempt its absolute expanded-step sequence number — including across
//!   the 2D-torus vertical phase, where per-column sub-rings share step slots;
//! - [`report`]: parsing and reconstruction — rebuilds the exact
//!   `Trace`-equivalent step structure from hop events and reprices it with
//!   the same α–β arithmetic;
//! - [`json`]: a minimal hand-rolled JSON writer/parser (the workspace has
//!   no serialization framework, so all machine-readable output is
//!   hand-encoded).
//!
//! # The batched sink
//!
//! Recording must not distort what it measures, so a recorded event costs
//! what it records and nothing else:
//!
//! - **No formatting or allocation while recording.** An event is one
//!   fixed-size record pushed into a preallocated batch plus its fields
//!   appended to a flat key/value arena, where keys are `&'static str` and
//!   values are the scalar `CompactValue` repr. [`Telemetry::emit`] takes
//!   any iterable of fields, so hot call sites pass arrays. Hop events
//!   additionally fold their derived statistics into fixed slots
//!   (`HopStats`) rather than name-keyed map entries, and those slots'
//!   histograms index their buckets directly. A warm recording sink
//!   therefore allocates nothing per round, once the batch capacity
//!   (claimed up front by [`Telemetry::recording`]) covers it.
//! - **Render on demand.** JSONL text and owned [`Event`] structs are
//!   materialized at flush, outside the timed region. Both views render
//!   every field through one field writer, so they carry the same bytes.
//!   The renderer formats the `{"t":…,"ev":` prefix once per distinct
//!   timestamp (a round's events share one), not once per event, and writes
//!   small integers without the general formatter.
//!
//! Reading events back is explicit about cost: [`Telemetry::for_each_event`]
//! visits events without building a vector, [`Telemetry::snapshot_events`]
//! materializes an owned copy, and [`Telemetry::drain_events`] moves the
//! events out, resetting the batch while keeping its capacity.
//!
//! # Determinism contract
//!
//! With the same seed and configuration, two recording runs produce
//! byte-identical JSONL event logs and summary snapshots. Event timestamps
//! are whatever the *producer* last passed to [`Telemetry::set_time`]
//! (trainsim sets it to the cumulative simulated time at the start of each
//! round); floats are formatted with Rust's shortest-roundtrip formatter,
//! which is platform-independent.
//!
//! # Example
//!
//! ```
//! use marsit_telemetry::{Telemetry, Value};
//!
//! let t = Telemetry::recording();
//! t.set_time(0.5);
//! t.emit("round", vec![("round", Value::U64(0)), ("loss", Value::F64(2.3))]);
//! t.counter_add("rounds", 1);
//! t.observe("loss", 2.3);
//! assert_eq!(t.event_count(), 1);
//! assert!(t.events_jsonl().starts_with(r#"{"t":0.5,"ev":"round""#));
//!
//! let off = Telemetry::disabled();
//! off.emit("round", vec![]);
//! assert_eq!(off.event_count(), 0); // the no-op sink records nothing
//! ```
#![warn(missing_docs)]

pub mod health;
pub mod json;
pub mod metrics;
pub mod report;
pub mod scope;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub use health::{HealthEvent, StragglerDetector};
pub use metrics::Histogram;
pub use scope::{active, scoped, Hop, HopRecorder, HopTiming};

/// Wall-clock nanoseconds since the UNIX epoch.
///
/// This is the *dual-clock* timestamp: unlike the simulated clock it is
/// shared across worker processes on one host, so cross-rank hop latencies
/// computed from it are meaningful. It only ever reaches the event log when
/// wall-clock recording is explicitly enabled
/// ([`Telemetry::set_wall_clock`]) or a caller passes it to a timed hop —
/// deterministic logs never contain it.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn wall_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// A dynamically typed event-field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, indices, byte totals).
    U64(u64),
    /// Floating point (simulated seconds, norms, rates).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (labels, phase names).
    Str(String),
}

impl Value {
    /// The value as `u64`, if it is an integer (or an integral float, as
    /// produced by round-tripping through JSON).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    fn as_field(&self) -> Field<'_> {
        match self {
            Value::U64(n) => Field::U64(*n),
            Value::F64(x) => Field::F64(*x),
            Value::Bool(b) => Field::Bool(*b),
            Value::Str(s) => Field::Str(s),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A borrowed field value: what the one field writer renders and what every
/// stored form of a value materializes through.
#[derive(Debug, Clone, Copy)]
enum Field<'a> {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
}

impl Field<'_> {
    fn to_value(self) -> Value {
        match self {
            Field::U64(n) => Value::U64(n),
            Field::F64(x) => Value::F64(x),
            Field::Bool(b) => Value::Bool(b),
            Field::Str(s) => Value::Str(s.to_string()),
        }
    }
}

/// Appends `,"key":value`: the one field renderer behind
/// [`Event::write_jsonl`] and the batched sink, so the two render every
/// field alike.
fn write_field(out: &mut String, key: &str, value: Field<'_>) {
    out.push(',');
    json::write_str(out, key);
    out.push(':');
    match value {
        Field::U64(n) => write_u64(out, n),
        Field::F64(x) => json::write_f64(out, x),
        Field::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        Field::Str(s) => json::write_str(out, s),
    }
}

/// Appends the decimal digits of `n` without heap allocation; one- and
/// two-digit values (most counts, steps and worker ids) skip the loop.
fn write_u64(out: &mut String, n: u64) {
    const DIGITS: &[u8; 10] = b"0123456789";
    if n < 10 {
        out.push(char::from(DIGITS[n as usize]));
    } else if n < 100 {
        out.push(char::from(DIGITS[(n / 10) as usize]));
        out.push(char::from(DIGITS[(n % 10) as usize]));
    } else {
        // 20 digits cover `u64::MAX`.
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut n = n;
        while n > 0 {
            i -= 1;
            buf[i] = DIGITS[(n % 10) as usize];
            n /= 10;
        }
        out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
    }
}

/// Allocation-free field value as stored in the batch arena. Strings are
/// either borrowed for `'static` (event schemas use literal keys and phase
/// labels), shared (the transport tag, cloned per hop as an `Arc` bump), or
/// owned (caller-provided dynamic strings — the rare case).
#[derive(Debug, Clone)]
enum CompactValue {
    U64(u64),
    F64(f64),
    Bool(bool),
    Static(&'static str),
    Shared(Arc<str>),
    Owned(String),
}

impl CompactValue {
    fn from_value(v: Value) -> CompactValue {
        match v {
            Value::U64(n) => CompactValue::U64(n),
            Value::F64(x) => CompactValue::F64(x),
            Value::Bool(b) => CompactValue::Bool(b),
            Value::Str(s) => CompactValue::Owned(s),
        }
    }

    fn as_field(&self) -> Field<'_> {
        match self {
            CompactValue::U64(n) => Field::U64(*n),
            CompactValue::F64(x) => Field::F64(*x),
            CompactValue::Bool(b) => Field::Bool(*b),
            CompactValue::Static(s) => Field::Str(s),
            CompactValue::Shared(s) => Field::Str(s),
            CompactValue::Owned(s) => Field::Str(s),
        }
    }
}

/// One fixed-size event record in the batch; its fields live in the shared
/// key/value arena at `[field_start, field_start + field_len)`.
#[derive(Debug, Clone, Copy)]
struct EventRec {
    time_s: f64,
    name: &'static str,
    field_start: u32,
    field_len: u32,
}

/// Appends `{"t":<time_s>,"ev":`, the part of a line before the event name.
fn write_prefix(out: &mut String, time_s: f64) {
    out.push_str("{\"t\":");
    json::write_f64(out, time_s);
    out.push_str(",\"ev\":");
}

/// One recorded event: a simulated timestamp, a name, and ordered fields.
///
/// This is the *materialized* (owned) view, built on demand from the compact
/// batch by [`Telemetry::snapshot_events`] and friends.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time in seconds when the event was recorded (the last value
    /// passed to [`Telemetry::set_time`] before emission).
    pub time_s: f64,
    /// Event name (`"hop"`, `"marsit_sync"`, `"round"`, …).
    pub name: String,
    /// Ordered `(key, value)` fields; order is preserved in the JSONL line.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Look up a field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as `u64`, `None` if absent or mistyped.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Value::as_u64)
    }

    /// Field as `f64`, `None` if absent or mistyped.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// Field as `bool`, `None` if absent or mistyped.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// Field as `&str`, `None` if absent or mistyped.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Append this event as one JSON object (no trailing newline) to `out`.
    ///
    /// The timestamp is written first as `"t"`, the name as `"ev"`, then the
    /// fields in recorded order — so logs are byte-stable. This produces the
    /// same bytes as the batched renderer behind
    /// [`Telemetry::events_jsonl`].
    pub fn write_jsonl(&self, out: &mut String) {
        write_prefix(out, self.time_s);
        json::write_str(out, &self.name);
        for (k, v) in &self.fields {
            write_field(out, k, v.as_field());
        }
        out.push('}');
    }

    /// Parse one JSONL line back into an [`Event`].
    ///
    /// Numbers become [`Value::U64`] when they are non-negative integers
    /// (lossless below 2⁵³) and [`Value::F64`] otherwise.
    pub fn parse_jsonl(line: &str) -> Result<Event, String> {
        let v = json::parse(line)?;
        let json::Json::Obj(pairs) = v else {
            return Err("event line is not a JSON object".to_string());
        };
        let mut time_s = None;
        let mut name = None;
        let mut fields = Vec::new();
        for (k, v) in pairs {
            match (k.as_str(), &v) {
                ("t", _) => {
                    time_s = Some(v.as_f64().ok_or("\"t\" is not a number")?);
                }
                ("ev", json::Json::Str(s)) => name = Some(s.clone()),
                ("ev", _) => return Err("\"ev\" is not a string".to_string()),
                _ => {
                    let val = match v {
                        json::Json::Bool(b) => Value::Bool(b),
                        json::Json::Str(s) => Value::Str(s),
                        json::Json::Num(x) => {
                            // Non-negative integers parse back as U64 so
                            // counter-like fields round-trip typed. This must
                            // cover wall-clock nanos (~2^60; the parse into
                            // f64 already cost the low bits, converting here
                            // loses nothing further).
                            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                            if x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64 {
                                Value::U64(x as u64)
                            } else {
                                Value::F64(x)
                            }
                        }
                        other => {
                            return Err(format!("field {k:?} has unsupported type: {other:?}"))
                        }
                    };
                    fields.push((k, val));
                }
            }
        }
        Ok(Event {
            time_s: time_s.ok_or("event line is missing \"t\"")?,
            name: name.ok_or("event line is missing \"ev\"")?,
            fields,
        })
    }
}

/// Derived per-hop statistics, kept in fixed slots instead of name-keyed map
/// entries so the per-hop cost is a handful of integer adds. They surface
/// under their historical names (`hop.events`, `hop.bytes`,
/// `hop.retransmits`, `hop.undelivered` counters; `hop.bytes`,
/// `hop.wire_bits_per_elem` histograms) through [`Telemetry::counter`],
/// [`Telemetry::histogram`], and the summary snapshot.
#[derive(Debug, Default)]
struct HopStats {
    events: u64,
    bytes: u64,
    retransmits: u64,
    undelivered: u64,
    bytes_hist: Histogram,
    wire_bits_per_elem: Histogram,
}

/// Initial event-batch capacity claimed by a recording sink: enough for a
/// typical bench round's hop stream without growth inside the timed region.
const EVENT_BATCH: usize = 4096;
/// Initial key/value arena capacity (~12 fields per hop event).
const KV_BATCH: usize = 12 * EVENT_BATCH;

/// The `{"t":…,"ev":` prefix of the timestamp rendered last. Formatting a
/// float is the costliest part of a short line, and all the events of a
/// round share one timestamp, so each distinct run of timestamps is
/// formatted once. Kept across renders, so its buffer is reused.
#[derive(Debug, Default)]
struct Prefix {
    time_bits: Option<u64>,
    text: String,
}

impl Prefix {
    fn write(&mut self, out: &mut String, time_s: f64) {
        let bits = time_s.to_bits();
        if self.time_bits != Some(bits) {
            self.text.clear();
            write_prefix(&mut self.text, time_s);
            self.time_bits = Some(bits);
        }
        out.push_str(&self.text);
    }
}

/// Shared mutable state behind a recording [`Telemetry`] handle.
#[derive(Debug)]
struct State {
    now_s: f64,
    next_seq: u64,
    events: Vec<EventRec>,
    kvs: Vec<(&'static str, CompactValue)>,
    prefix: Prefix,
    hop: HopStats,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// `(backend, clock-kind)` tag appended to every `hop` event when set
    /// via [`Telemetry::set_transport_tag`]. `None` (the default) keeps hop
    /// events byte-identical to their pre-transport schema.
    transport_tag: Option<(Arc<str>, Arc<str>)>,
    /// When set via [`Telemetry::set_wall_clock`], every event additionally
    /// carries a `wall_ns` field with [`wall_now_ns`] at emission. Off by
    /// default — the determinism contract requires logs without wall-clock
    /// fields to stay byte-identical across same-seed runs.
    wall_clock: bool,
}

impl Default for State {
    fn default() -> Self {
        State {
            now_s: 0.0,
            next_seq: 0,
            events: Vec::with_capacity(EVENT_BATCH),
            kvs: Vec::with_capacity(KV_BATCH),
            prefix: Prefix::default(),
            hop: HopStats::default(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            transport_tag: None,
            wall_clock: false,
        }
    }
}

impl State {
    fn fields_of(&self, rec: &EventRec) -> &[(&'static str, CompactValue)] {
        &self.kvs[rec.field_start as usize..(rec.field_start + rec.field_len) as usize]
    }

    /// Closes the event whose arena fields start at `field_start`.
    fn push_event(&mut self, name: &'static str, field_start: u32) {
        self.events.push(EventRec {
            time_s: self.now_s,
            name,
            field_start,
            field_len: self.kvs.len() as u32 - field_start,
        });
    }

    fn materialize(&self, rec: &EventRec) -> Event {
        Event {
            time_s: rec.time_s,
            name: rec.name.to_string(),
            fields: self
                .fields_of(rec)
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.as_field().to_value()))
                .collect(),
        }
    }

    /// Appends every recorded event as one JSONL line, exactly as
    /// [`Event::write_jsonl`] renders its materialized form.
    fn write_jsonl(&mut self, out: &mut String) {
        // ~96 bytes is a typical hop line; reserving up front keeps a large
        // flush from reallocating its way through the log.
        out.reserve(self.events.len() * 96);
        for rec in &self.events {
            self.prefix.write(out, rec.time_s);
            json::write_str(out, rec.name);
            for (k, v) in self.fields_of(rec) {
                write_field(out, k, v.as_field());
            }
            out.push_str("}\n");
        }
    }
}

/// Handle to the telemetry sink: either disabled (no-op) or recording.
///
/// Clones share the same underlying state, so a handle can be stored in a
/// config struct, passed across layers, and flushed once at the end. When
/// the handle was created with a sink path, dropping the *last* clone
/// flushes the log there (best-effort; see [`Telemetry::flush_env`] for the
/// explicit, error-checked form).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<State>>>,
    /// Where [`Telemetry::flush_env`] writes the JSONL log, if anywhere.
    sink_path: Option<Arc<PathBuf>>,
}

/// Environment variable checked by [`Telemetry::from_env`]: when set to a
/// non-empty path, binaries record telemetry and flush the JSONL log there
/// (plus a `<path>.summary.json` snapshot).
pub const ENV_VAR: &str = "MARSIT_TELEMETRY";

impl Telemetry {
    /// The no-op sink: records nothing, every operation returns immediately.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// A recording sink with fresh, preallocated in-memory state.
    pub fn recording() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(State::default()))),
            sink_path: None,
        }
    }

    /// A recording sink that remembers `path` as its flush destination.
    pub fn recording_to(path: impl Into<PathBuf>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(State::default()))),
            sink_path: Some(Arc::new(path.into())),
        }
    }

    /// Recording sink if the [`ENV_VAR`] environment variable names a path,
    /// disabled otherwise.
    pub fn from_env() -> Self {
        match std::env::var(ENV_VAR) {
            Ok(path) if !path.is_empty() => Telemetry::recording_to(path),
            _ => Telemetry::disabled(),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn state(&self) -> Option<MutexGuard<'_, State>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Advance the simulated clock; subsequent events are stamped with `now_s`.
    pub fn set_time(&self, now_s: f64) {
        if let Some(mut st) = self.state() {
            st.now_s = now_s;
        }
    }

    /// Current simulated time (0.0 when disabled or never set).
    pub fn now_s(&self) -> f64 {
        self.state().map_or(0.0, |st| st.now_s)
    }

    /// Record an event stamped with the current simulated time.
    ///
    /// `fields` is anything iterable — hot call sites pass an array, which
    /// costs no allocation. Hot paths should still check
    /// [`Telemetry::is_enabled`] before computing field values a disabled
    /// sink would ignore.
    pub fn emit(
        &self,
        name: &'static str,
        fields: impl IntoIterator<Item = (&'static str, Value)>,
    ) {
        if let Some(mut st) = self.state() {
            let st = &mut *st;
            let field_start = st.kvs.len() as u32;
            st.kvs.extend(
                fields
                    .into_iter()
                    .map(|(k, v)| (k, CompactValue::from_value(v))),
            );
            if st.wall_clock {
                st.kvs.push(("wall_ns", CompactValue::U64(wall_now_ns())));
            }
            st.push_event(name, field_start);
        }
    }

    /// Add `delta` to the named monotone counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(mut st) = self.state() {
            if let Some(slot) = st.counters.get_mut(name) {
                *slot += delta;
            } else {
                st.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set the named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(mut st) = self.state() {
            if let Some(slot) = st.gauges.get_mut(name) {
                *slot = value;
            } else {
                st.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Observe one sample into the named log2-bucket histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(mut st) = self.state() {
            if let Some(h) = st.histograms.get_mut(name) {
                h.observe(value);
            } else {
                st.histograms
                    .entry(name.to_string())
                    .or_default()
                    .observe(value);
            }
        }
    }

    /// Current value of a counter (0 when disabled or never touched). The
    /// derived hop counters (`hop.events`, `hop.bytes`, `hop.retransmits`,
    /// `hop.undelivered`) are served from their fixed slots.
    pub fn counter(&self, name: &str) -> u64 {
        self.state().map_or(0, |st| {
            let derived = match name {
                "hop.events" => st.hop.events,
                "hop.bytes" => st.hop.bytes,
                "hop.retransmits" => st.hop.retransmits,
                "hop.undelivered" => st.hop.undelivered,
                _ => 0,
            };
            derived + st.counters.get(name).copied().unwrap_or(0)
        })
    }

    /// Snapshot of a histogram, if it has been observed into.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.state().and_then(|st| {
            match name {
                "hop.bytes" if st.hop.events > 0 => return Some(st.hop.bytes_hist.clone()),
                "hop.wire_bits_per_elem" if st.hop.wire_bits_per_elem.count() > 0 => {
                    return Some(st.hop.wire_bits_per_elem.clone())
                }
                _ => {}
            }
            st.histograms.get(name).cloned()
        })
    }

    /// Number of recorded events (0 when disabled — the no-op guarantee).
    pub fn event_count(&self) -> usize {
        self.state().map_or(0, |st| st.events.len())
    }

    /// Visit every recorded event in emission order without materializing a
    /// vector. Each call of `f` sees a freshly materialized [`Event`].
    pub fn for_each_event(&self, mut f: impl FnMut(&Event)) {
        if let Some(st) = self.state() {
            for rec in &st.events {
                f(&st.materialize(rec));
            }
        }
    }

    /// Materialize an owned copy of all recorded events, in emission order.
    ///
    /// This walks the compact batch and builds owned strings — call it at
    /// flush/analysis time, not inside a measured region. (The accessor is
    /// deliberately named for what it costs; there is no implicit
    /// full-vector clone on the recording path.)
    pub fn snapshot_events(&self) -> Vec<Event> {
        self.state().map_or_else(Vec::new, |st| {
            st.events.iter().map(|rec| st.materialize(rec)).collect()
        })
    }

    /// Move all recorded events out of the sink, resetting the batch (its
    /// capacity is retained) while counters, gauges, histograms, the
    /// simulated clock, and sequence accounting stay untouched.
    pub fn drain_events(&self) -> Vec<Event> {
        self.state().map_or_else(Vec::new, |mut st| {
            let st = &mut *st;
            let out = st.events.iter().map(|rec| st.materialize(rec)).collect();
            st.events.clear();
            st.kvs.clear();
            out
        })
    }

    /// Start a span at the current simulated time; finish it with
    /// [`Span::end`].
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            name,
            start_s: self.now_s(),
        }
    }

    /// The full event log as JSONL (one event object per line, trailing
    /// newline after each), rendered directly from the compact batch. Empty
    /// string when disabled.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(mut st) = self.state() {
            st.write_jsonl(&mut out);
        }
        out
    }

    /// Deterministic JSON snapshot of counters, gauges, and histogram
    /// percentiles (schema `marsit-telemetry-summary/1`).
    pub fn summary_json(&self) -> String {
        let Some(st) = self.state() else {
            return "{\"schema\":\"marsit-telemetry-summary/1\",\"events\":0,\
                    \"counters\":{},\"gauges\":{},\"histograms\":{}}\n"
                .to_string();
        };
        // Merge the fixed hop slots back under their historical names so the
        // snapshot schema is unchanged. BTreeMap keeps the key order stable.
        let mut counters: BTreeMap<&str, u64> =
            st.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        if st.hop.events > 0 {
            *counters.entry("hop.events").or_default() += st.hop.events;
            *counters.entry("hop.bytes").or_default() += st.hop.bytes;
        }
        if st.hop.retransmits > 0 {
            *counters.entry("hop.retransmits").or_default() += st.hop.retransmits;
        }
        if st.hop.undelivered > 0 {
            *counters.entry("hop.undelivered").or_default() += st.hop.undelivered;
        }
        let mut histograms: BTreeMap<&str, &Histogram> =
            st.histograms.iter().map(|(k, h)| (k.as_str(), h)).collect();
        if st.hop.events > 0 {
            histograms.insert("hop.bytes", &st.hop.bytes_hist);
        }
        if st.hop.wire_bits_per_elem.count() > 0 {
            histograms.insert("hop.wire_bits_per_elem", &st.hop.wire_bits_per_elem);
        }
        let mut out = String::from("{\"schema\":\"marsit-telemetry-summary/1\",\"events\":");
        out.push_str(&st.events.len().to_string());
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in st.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            json::write_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            h.write_json(&mut out);
        }
        out.push_str("}}\n");
        out
    }

    /// Write the JSONL event log to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.events_jsonl())
    }

    /// Write the summary snapshot to `path`.
    pub fn write_summary(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.summary_json())
    }

    /// If this handle was created with a sink path ([`Telemetry::from_env`]
    /// or [`Telemetry::recording_to`]), write the JSONL log there and the
    /// summary to `<path>.summary.json`, returning the event-log path.
    pub fn flush_env(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = self.sink_path.as_deref() else {
            return Ok(None);
        };
        self.write_jsonl(path)?;
        let mut summary = path.as_os_str().to_owned();
        summary.push(".summary.json");
        self.write_summary(Path::new(&summary))?;
        Ok(Some(path.clone()))
    }

    /// Tag every subsequent `hop` event with the transport backend that
    /// carried it (`"simulator"` or `"process"`) and which kind
    /// of clock its run is timed on (`"simulated"` or `"real"`). Off by
    /// default, so logs from untagged runs stay byte-identical to the
    /// pre-transport schema; [`report::validate`] accepts both forms.
    pub fn set_transport_tag(&self, backend: &str, clock_kind: &str) {
        if let Some(mut st) = self.state() {
            st.transport_tag = Some((Arc::from(backend), Arc::from(clock_kind)));
        }
    }

    /// Enable (or disable) the wall clock: when on, every subsequent event
    /// carries a `wall_ns` field with [`wall_now_ns`] at emission time. Off
    /// by default — deterministic runs must never see wall-clock fields.
    /// Comparisons strip them with [`report::strip_wall_clock`].
    pub fn set_wall_clock(&self, on: bool) {
        if let Some(mut st) = self.state() {
            st.wall_clock = on;
        }
    }

    /// Whether wall-clock stamping is enabled on this sink.
    pub fn wall_clock(&self) -> bool {
        self.state().is_some_and(|st| st.wall_clock)
    }

    /// Drain all recorded events as a JSONL string (same bytes as
    /// [`Telemetry::events_jsonl`]), resetting the batch while keeping
    /// metrics and sequence accounting. This is the per-flush payload a
    /// worker streams to the hub's trace collector.
    pub fn drain_events_jsonl(&self) -> String {
        let mut out = String::new();
        self.drain_events_jsonl_into(&mut out);
        out
    }

    /// [`Telemetry::drain_events_jsonl`] appending into a caller-owned
    /// buffer — the shard-scoped batch flush: a job-server shard drains
    /// every job's events into that job's accumulated log once per
    /// scheduling tick (not once per round), reusing the log's capacity so
    /// the flush itself allocates nothing in the steady state. The bytes
    /// appended are identical to what one [`Telemetry::events_jsonl`] call
    /// at the end of the run would have produced for the same events,
    /// whatever the flush cadence.
    pub fn drain_events_jsonl_into(&self, out: &mut String) {
        if let Some(mut st) = self.state() {
            st.write_jsonl(out);
            st.events.clear();
            st.kvs.clear();
        }
    }

    /// The `(backend, clock-kind)` transport tag, if one is set.
    pub fn transport_tag(&self) -> Option<(String, String)> {
        self.state().and_then(|st| {
            st.transport_tag
                .as_ref()
                .map(|(b, c)| (b.as_ref().to_string(), c.as_ref().to_string()))
        })
    }

    /// Next unassigned expanded-step sequence number (scope bookkeeping).
    pub(crate) fn peek_seq(&self) -> u64 {
        self.state().map_or(0, |st| st.next_seq)
    }

    /// Raise the sequence floor to `seq` (never lowers it).
    pub(crate) fn advance_seq(&self, seq: u64) {
        if let Some(mut st) = self.state() {
            st.next_seq = st.next_seq.max(seq);
        }
    }

    /// The next unassigned expanded-step sequence number. Crash-safe
    /// serving journals this alongside a trainer snapshot: hop events
    /// carry absolute sequence numbers, so a job resumed onto a *fresh*
    /// sink after a process crash must start numbering where the dead
    /// sink left off for the concatenated log to stay byte-identical to
    /// an uninterrupted run.
    #[must_use]
    pub fn seq_floor(&self) -> u64 {
        self.peek_seq()
    }

    /// Raises this sink's sequence floor to `seq` (never lowers it) —
    /// the restore half of [`Telemetry::seq_floor`]. Call on a fresh
    /// sink before stepping a crash-restored job.
    pub fn restore_seq_floor(&self, seq: u64) {
        self.advance_seq(seq);
    }

    /// Record one wire attempt under a single lock: the `hop` event plus the
    /// derived statistics, with no allocation in the steady state. The
    /// optional [`HopTiming`] fields carry what a traced transport
    /// propagates; `None` fields are omitted entirely, so an untraced hop
    /// renders byte-identically to the legacy schema.
    pub(crate) fn record_hop_timed(
        &self,
        seq: u64,
        send: usize,
        recv: usize,
        hop: &Hop,
        timing: scope::HopTiming,
    ) {
        let Some(mut st) = self.state() else { return };
        let st = &mut *st;
        let field_start = st.kvs.len() as u32;
        st.kvs.extend([
            ("seq", CompactValue::U64(seq)),
            ("phase", CompactValue::Static(hop.phase)),
            ("step", CompactValue::U64(hop.step as u64)),
            ("send", CompactValue::U64(send as u64)),
            ("recv", CompactValue::U64(recv as u64)),
            ("seg", CompactValue::U64(hop.segment as u64)),
            ("elems", CompactValue::U64(hop.elems as u64)),
            ("bytes", CompactValue::U64(hop.bytes as u64)),
            ("attempt", CompactValue::U64(u64::from(hop.attempt))),
            ("delivered", CompactValue::Bool(hop.delivered)),
        ]);
        if let Some(r) = timing.round {
            st.kvs.push(("round", CompactValue::U64(r)));
        }
        if let Some(ns) = timing.send_ns {
            st.kvs.push(("send_ns", CompactValue::U64(ns)));
        }
        if let Some(ns) = timing.recv_ns {
            st.kvs.push(("recv_ns", CompactValue::U64(ns)));
        } else if st.wall_clock {
            st.kvs.push(("wall_ns", CompactValue::U64(wall_now_ns())));
        }
        if let Some((backend, clock)) = &st.transport_tag {
            st.kvs
                .push(("backend", CompactValue::Shared(backend.clone())));
            st.kvs.push(("clock", CompactValue::Shared(clock.clone())));
        }
        st.push_event("hop", field_start);
        st.hop.events += 1;
        st.hop.bytes += hop.bytes as u64;
        if hop.attempt > 1 {
            st.hop.retransmits += 1;
        }
        if !hop.delivered {
            st.hop.undelivered += 1;
        }
        st.hop.bytes_hist.observe(hop.bytes as f64);
        if hop.elems > 0 {
            st.hop
                .wire_bits_per_elem
                .observe(hop.bytes as f64 * 8.0 / hop.elems as f64);
        }
    }
}

impl Drop for Telemetry {
    /// Dropping the last clone of a path-bound recording handle flushes the
    /// log (best-effort: I/O errors on this implicit path are swallowed;
    /// call [`Telemetry::flush_env`] to observe them).
    fn drop(&mut self) {
        if let (Some(inner), Some(_)) = (&self.inner, &self.sink_path) {
            if Arc::strong_count(inner) == 1 {
                let _ = self.flush_env();
            }
        }
    }
}

/// An open span; [`Span::end`] emits a `"span"` event with the simulated
/// duration. See [`Telemetry::span`].
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start_s: f64,
}

impl Span {
    /// Close the span against `t`, emitting `{"ev":"span","span":name,
    /// "start_s":…,"dur_s":…}` with the simulated elapsed time.
    pub fn end(self, t: &Telemetry) {
        t.emit(
            "span",
            vec![
                ("span", Value::Str(self.name.to_string())),
                ("start_s", Value::F64(self.start_s)),
                ("dur_s", Value::F64(t.now_s() - self.start_s)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::disabled();
        t.set_time(1.0);
        t.emit("x", vec![("a", Value::U64(1))]);
        t.counter_add("c", 5);
        t.observe("h", 2.0);
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.counter("c"), 0);
        assert_eq!(t.events_jsonl(), "");
        assert!(!t.is_enabled());
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = Telemetry::recording();
        t.set_time(0.125);
        t.emit(
            "round",
            vec![
                ("round", Value::U64(3)),
                ("loss", Value::F64(0.75)),
                ("label", Value::Str("a\"b\\c\n".to_string())),
                ("ok", Value::Bool(true)),
            ],
        );
        let log = t.events_jsonl();
        let ev = Event::parse_jsonl(log.trim_end()).unwrap();
        assert_eq!(ev.time_s, 0.125);
        assert_eq!(ev.name, "round");
        assert_eq!(ev.u64_field("round"), Some(3));
        assert_eq!(ev.f64_field("loss"), Some(0.75));
        assert_eq!(ev.str_field("label"), Some("a\"b\\c\n"));
        assert_eq!(ev.bool_field("ok"), Some(true));
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::recording();
        let u = t.clone();
        u.counter_add("c", 2);
        t.counter_add("c", 3);
        assert_eq!(t.counter("c"), 5);
        assert_eq!(u.counter("c"), 5);
    }

    #[test]
    fn identical_inputs_identical_logs() {
        let run = || {
            let t = Telemetry::recording();
            for i in 0..10u64 {
                t.set_time(i as f64 * 0.1);
                t.emit(
                    "e",
                    vec![
                        ("i", Value::U64(i)),
                        ("x", Value::F64(1.0 / (i + 1) as f64)),
                    ],
                );
                t.observe("x", 1.0 / (i + 1) as f64);
            }
            (t.events_jsonl(), t.summary_json())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn summary_contains_histogram_percentiles() {
        let t = Telemetry::recording();
        for v in 1..=100 {
            t.observe("lat", f64::from(v));
        }
        let s = t.summary_json();
        let parsed = json::parse(&s).unwrap();
        let h = parsed.get("histograms").and_then(|h| h.get("lat")).unwrap();
        assert_eq!(h.get("count").and_then(json::Json::as_f64), Some(100.0));
        assert!(h.get("p50").is_some() && h.get("p99").is_some());
    }

    #[test]
    fn span_measures_simulated_time() {
        let t = Telemetry::recording();
        t.set_time(1.0);
        let sp = t.span("phase");
        t.set_time(3.5);
        sp.end(&t);
        let ev = &t.snapshot_events()[0];
        assert_eq!(ev.name, "span");
        assert_eq!(ev.f64_field("dur_s"), Some(2.5));
    }

    /// The batched renderer and the materialized per-event renderer agree
    /// byte for byte — for generic events (escaped keys and multi-digit
    /// integers included), and for hops with and without their optional
    /// trailing fields, across timestamp changes.
    #[test]
    fn batched_render_matches_materialized_render() {
        let t = Telemetry::recording();
        t.set_time(0.25);
        t.emit(
            "a",
            vec![("x", Value::U64(7)), ("s", Value::Str("hi".into()))],
        );
        t.set_time(0.5);
        t.emit(
            "b",
            [
                ("f", Value::F64(0.1)),
                ("ok", Value::Bool(false)),
                ("big", Value::U64(u64::MAX)),
                ("two", Value::U64(42)),
                ("odd \"key\"", Value::U64(100)),
            ],
        );
        let hop = |attempt: u32, delivered: bool| Hop {
            expanded_step: 3,
            step: 1,
            phase: "reduce",
            sender: 2,
            receiver: 3,
            segment: 12,
            elems: 8192,
            bytes: 1024,
            attempt,
            delivered,
        };
        scope::scoped(&t, || {
            let mut rec = HopRecorder::begin();
            rec.hop(&hop(1, false));
            t.set_time(0.75);
            rec.hop(&hop(2, true));
            t.set_transport_tag("simulator", "simulated");
            let timing = HopTiming {
                round: Some(4),
                send_ns: Some(1_000),
                recv_ns: Some(2_000),
            };
            rec.hop_timed(&hop(1, true), timing);
            t.set_wall_clock(true);
            rec.hop(&hop(1, true));
        });
        assert_eq!(t.event_count(), 6);
        let mut expected = String::new();
        t.for_each_event(|ev| {
            ev.write_jsonl(&mut expected);
            expected.push('\n');
        });
        assert_eq!(t.events_jsonl(), expected);
    }

    /// `drain_events` moves events out, keeps counters, and resets the batch.
    #[test]
    fn drain_resets_the_batch_but_not_the_metrics() {
        let t = Telemetry::recording();
        t.emit("e", vec![("i", Value::U64(1))]);
        t.counter_add("c", 9);
        let drained = t.drain_events();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].u64_field("i"), Some(1));
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.events_jsonl(), "");
        assert_eq!(t.counter("c"), 9);
        t.emit("e", vec![("i", Value::U64(2))]);
        assert_eq!(t.snapshot_events()[0].u64_field("i"), Some(2));
    }

    /// Dropping the last clone of a path-bound handle flushes the JSONL log
    /// and summary snapshot, with exactly the bytes the live handle renders.
    #[test]
    fn drop_of_last_clone_flushes_to_sink_path() {
        let dir = std::env::temp_dir().join(format!("marsit-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop.jsonl");
        let (expected_log, expected_summary) = {
            let t = Telemetry::recording_to(&path);
            t.set_time(0.5);
            t.emit("e", vec![("i", Value::U64(7))]);
            t.counter_add("c", 3);
            let clone = t.clone();
            drop(t);
            // An earlier clone dropping must NOT flush (state still live)...
            assert!(!path.exists(), "flush fired before the last clone dropped");
            (clone.events_jsonl(), clone.summary_json())
        }; // ...but the last one here must.
        let log = std::fs::read_to_string(&path).expect("drop flushed the event log");
        assert_eq!(log, expected_log);
        let summary_path = dir.join("drop.jsonl.summary.json");
        let summary = std::fs::read_to_string(&summary_path).expect("drop flushed the summary");
        assert_eq!(summary, expected_summary);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pathless recording handle flushes nowhere on drop.
    #[test]
    fn drop_without_sink_path_is_silent() {
        let t = Telemetry::recording();
        t.emit("e", vec![]);
        assert_eq!(t.flush_env().unwrap(), None);
        drop(t); // must not panic or touch the filesystem
    }

    /// u64 fields render without the heap round-trip `to_string` takes.
    #[test]
    fn u64_formatter_matches_std() {
        for n in [0u64, 1, 9, 10, 42, 99, 100, 101, 12345, u64::MAX] {
            let mut out = String::from("x");
            write_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }
}
