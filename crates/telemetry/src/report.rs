//! Run-report reconstruction from recorded events.
//!
//! The reconstruction guarantee: grouping `hop` events by their `seq` field
//! (in emission order within each group) rebuilds exactly the step structure
//! the collectives put in their `Trace` — same per-step byte lists, same
//! order — so [`RunAnalysis::total_bytes`] equals `Trace::total_bytes` and
//! [`schedule_time`] (the same α–β arithmetic as `cost::schedule_time`, in
//! the same fold order) equals `Trace::time` bit-for-bit.

use std::collections::BTreeMap;

use crate::Event;

/// Traffic aggregated over one directed link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStat {
    /// Sending worker (global id).
    pub send: usize,
    /// Receiving worker (global id).
    pub recv: usize,
    /// Total bytes over all attempts.
    pub bytes: u64,
    /// Wire attempts (including retransmits).
    pub attempts: u64,
    /// Attempts with `attempt > 1`.
    pub retransmits: u64,
    /// Attempts that did not deliver.
    pub undelivered: u64,
}

/// Simulated-time totals accumulated from `round` events.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTotals {
    /// Total compute seconds.
    pub compute_s: f64,
    /// Total compression/codec seconds.
    pub compression_s: f64,
    /// Total communication seconds.
    pub communication_s: f64,
    /// Number of `round` events seen.
    pub rounds: u64,
}

impl PhaseTotals {
    /// Sum of the three phases.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.compression_s + self.communication_s
    }
}

/// Fault counters accumulated from `marsit_sync` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTotals {
    /// Retransmitted transfers.
    pub retransmits: u64,
    /// Best-effort transfers abandoned after retry exhaustion.
    pub dropped: u64,
    /// Transfers corrupted then repaired by checksum retry.
    pub corrupted: u64,
    /// Crash repairs performed.
    pub repairs: u64,
    /// Workers observed crashed (max over events).
    pub crashed: u64,
}

/// Everything reconstructed from one event log.
#[derive(Debug, Clone, Default)]
pub struct RunAnalysis {
    /// The `run_meta` event, if the log starts with one.
    pub meta: Option<Event>,
    /// Expanded wire steps rebuilt from `hop` events, `seq`-ascending; equal
    /// to the concatenated `Trace::steps()` of every instrumented collective
    /// the run executed.
    pub steps: Vec<Vec<usize>>,
    /// Total bytes over all hop events (== rebuilt trace total).
    pub total_hop_bytes: u64,
    /// Number of `hop` events.
    pub hop_events: u64,
    /// Hop attempts with `attempt > 1`.
    pub retransmits: u64,
    /// Hop attempts that did not deliver.
    pub undelivered: u64,
    /// Per-directed-link aggregates, sorted by (send, recv).
    pub links: Vec<LinkStat>,
    /// Phase totals from `round` events.
    pub phases: PhaseTotals,
    /// Fault totals from `marsit_sync` events.
    pub faults: FaultTotals,
    /// Simulated seconds lost to retries (from `marsit_sync` events).
    pub retry_extra_s: f64,
    /// Number of `marsit_sync` events.
    pub sync_events: u64,
}

impl RunAnalysis {
    /// Total bytes of the rebuilt step structure.
    pub fn total_bytes(&self) -> u64 {
        self.total_hop_bytes
    }

    /// Critical-path time of the rebuilt steps under an α–β link.
    pub fn schedule_time(&self, alpha_s: f64, beta_bytes_per_s: f64) -> f64 {
        schedule_time(alpha_s, beta_bytes_per_s, &self.steps)
    }

    /// `(alpha_s, beta_bytes_per_s)` from the `run_meta` event, if present.
    pub fn meta_alpha_beta(&self) -> Option<(f64, f64)> {
        let meta = self.meta.as_ref()?;
        Some((
            meta.f64_field("alpha_s")?,
            meta.f64_field("beta_bytes_per_s")?,
        ))
    }
}

/// Critical-path time of `steps` under an α–β link: for each non-empty step,
/// `alpha + max_bytes / beta`, summed in step order — the identical
/// arithmetic and fold order as `marsit_simnet::cost::schedule_time`, so the
/// result matches `Trace::time` bit-for-bit on identical steps.
pub fn schedule_time(alpha_s: f64, beta_bytes_per_s: f64, steps: &[Vec<usize>]) -> f64 {
    steps
        .iter()
        .filter(|step| !step.is_empty())
        .map(|step| {
            let max = step.iter().copied().max().unwrap_or(0);
            alpha_s + max as f64 / beta_bytes_per_s
        })
        .sum()
}

/// Parse a JSONL event log (one event per non-empty line).
///
/// # Errors
///
/// Returns the first line's parse error, prefixed with its 1-based line
/// number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| Event::parse_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Reconstruct a [`RunAnalysis`] from parsed events.
///
/// # Errors
///
/// Returns a message if a `hop` event is missing a required field.
pub fn analyze(events: &[Event]) -> Result<RunAnalysis, String> {
    let mut out = RunAnalysis::default();
    let mut steps: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut links: BTreeMap<(usize, usize), LinkStat> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.name.as_str() {
            "run_meta" if out.meta.is_none() => {
                out.meta = Some(ev.clone());
            }
            "hop" => {
                let field = |key: &str| {
                    ev.u64_field(key)
                        .ok_or_else(|| format!("event {i}: hop missing field {key:?}"))
                };
                let seq = field("seq")?;
                let send = field("send")? as usize;
                let recv = field("recv")? as usize;
                let bytes = field("bytes")?;
                let attempt = field("attempt")?;
                let delivered = ev
                    .bool_field("delivered")
                    .ok_or_else(|| format!("event {i}: hop missing field \"delivered\""))?;
                steps.entry(seq).or_default().push(bytes as usize);
                out.total_hop_bytes += bytes;
                out.hop_events += 1;
                let link = links.entry((send, recv)).or_insert(LinkStat {
                    send,
                    recv,
                    bytes: 0,
                    attempts: 0,
                    retransmits: 0,
                    undelivered: 0,
                });
                link.bytes += bytes;
                link.attempts += 1;
                if attempt > 1 {
                    link.retransmits += 1;
                    out.retransmits += 1;
                }
                if !delivered {
                    link.undelivered += 1;
                    out.undelivered += 1;
                }
            }
            "round" => {
                out.phases.rounds += 1;
                out.phases.compute_s += ev.f64_field("compute_s").unwrap_or(0.0);
                out.phases.compression_s += ev.f64_field("compression_s").unwrap_or(0.0);
                out.phases.communication_s += ev.f64_field("communication_s").unwrap_or(0.0);
            }
            "marsit_sync" => {
                out.sync_events += 1;
                out.faults.retransmits += ev.u64_field("retransmits").unwrap_or(0);
                out.faults.dropped += ev.u64_field("dropped").unwrap_or(0);
                out.faults.corrupted += ev.u64_field("corrupted").unwrap_or(0);
                out.faults.repairs += ev.u64_field("repairs").unwrap_or(0);
                out.faults.crashed = out.faults.crashed.max(ev.u64_field("crashed").unwrap_or(0));
                out.retry_extra_s += ev.f64_field("retry_extra_s").unwrap_or(0.0);
            }
            _ => {}
        }
    }
    out.steps = steps.into_values().collect();
    out.links = links.into_values().collect();
    Ok(out)
}

/// Schema validation for an event log. Returns all problems found (empty =
/// valid). Checks: parseable structure is assumed (use [`parse_jsonl`]
/// first); the log is non-empty and starts with a `run_meta` event;
/// timestamps are monotone non-decreasing; `hop` events carry sane required
/// fields; hop `seq` values are contiguous from 0.
pub fn validate(events: &[Event]) -> Vec<String> {
    let mut errors = Vec::new();
    if events.is_empty() {
        errors.push("event log is empty".to_string());
        return errors;
    }
    if events[0].name != "run_meta" {
        errors.push(format!(
            "first event is {:?}, expected \"run_meta\"",
            events[0].name
        ));
    } else if events[0].str_field("schema") != Some("marsit-telemetry/1") {
        errors.push("run_meta is missing schema \"marsit-telemetry/1\"".to_string());
    }
    let mut last_t = f64::NEG_INFINITY;
    let mut seqs: Vec<u64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if !ev.time_s.is_finite() || ev.time_s < last_t {
            errors.push(format!(
                "event {i} ({}): timestamp {} not monotone (previous {last_t})",
                ev.name, ev.time_s
            ));
        }
        last_t = last_t.max(ev.time_s);
        if ev.name == "hop" {
            for key in [
                "seq", "step", "send", "recv", "seg", "elems", "bytes", "attempt",
            ] {
                if ev.u64_field(key).is_none() {
                    errors.push(format!("event {i}: hop missing numeric field {key:?}"));
                }
            }
            if ev.bool_field("delivered").is_none() {
                errors.push(format!("event {i}: hop missing bool field \"delivered\""));
            }
            match ev.str_field("phase") {
                Some("reduce" | "gather") => {}
                other => errors.push(format!("event {i}: hop has bad phase {other:?}")),
            }
            if ev.u64_field("bytes") == Some(0) {
                errors.push(format!("event {i}: hop carries zero bytes"));
            }
            if ev.u64_field("attempt") == Some(0) {
                errors.push(format!("event {i}: hop attempt must be 1-based"));
            }
            if let (Some(s), Some(r)) = (ev.u64_field("send"), ev.u64_field("recv")) {
                if s == r {
                    errors.push(format!("event {i}: hop sends worker {s} to itself"));
                }
            }
            if let Some(seq) = ev.u64_field("seq") {
                seqs.push(seq);
            }
            // The transport tag is optional (absent on legacy logs), but a
            // present tag must name a known backend and clock kind, together.
            match (ev.str_field("backend"), ev.str_field("clock")) {
                (None, None) => {}
                (Some("simulator"), Some("simulated")) | (Some("process"), Some("real")) => {}
                (backend, clock) => errors.push(format!(
                    "event {i}: bad transport tag backend={backend:?} clock={clock:?}"
                )),
            }
        }
    }
    seqs.sort_unstable();
    seqs.dedup();
    for (expect, &got) in seqs.iter().enumerate() {
        if got != expect as u64 {
            errors.push(format!(
                "hop seq values are not contiguous: expected {expect}, found {got}"
            ));
            break;
        }
    }
    errors
}

/// The wall-clock field names stripped by [`strip_wall_clock`]. Everything
/// else in an event is part of the deterministic schema.
pub const WALL_CLOCK_FIELDS: [&str; 3] = ["wall_ns", "send_ns", "recv_ns"];

/// Remove the wall-clock timing fields from every event, in place. After
/// stripping, two same-seed runs' logs are byte-comparable again — this is
/// what `validate`-mode comparisons and the trace-merge determinism test
/// apply before diffing.
pub fn strip_wall_clock(events: &mut [Event]) {
    for ev in events {
        ev.fields
            .retain(|(k, _)| !WALL_CLOCK_FIELDS.contains(&k.as_str()));
    }
}

/// Merge per-rank event logs into one causally-ordered run trace.
///
/// The merge key is the trace's own causal structure, not arrival order:
/// `run_meta` events first (deduplicated when byte-identical), then `hop`
/// events by absolute expanded-step `seq` (the same key that pins
/// `Trace::steps`), then everything else; ties break on the simulated
/// timestamp's bit pattern and finally on the event's *wall-clock-stripped*
/// rendered bytes. Because no key consults input order or wall-clock
/// values, merging the same logs in any file order yields the identical
/// event sequence — the determinism contract the trace-merge test pins.
pub fn merge_logs(logs: &[Vec<Event>]) -> Vec<Event> {
    fn class(ev: &Event) -> u8 {
        match ev.name.as_str() {
            "run_meta" => 0,
            "hop" => 1,
            _ => 2,
        }
    }
    fn stripped_line(ev: &Event) -> String {
        let mut copy = ev.clone();
        copy.fields
            .retain(|(k, _)| !WALL_CLOCK_FIELDS.contains(&k.as_str()));
        let mut s = String::new();
        copy.write_jsonl(&mut s);
        s
    }
    let mut keyed: Vec<(u8, u64, u64, String, &Event)> = logs
        .iter()
        .flatten()
        .map(|ev| {
            (
                class(ev),
                ev.u64_field("seq").unwrap_or(u64::MAX),
                ev.time_s.to_bits(),
                stripped_line(ev),
                ev,
            )
        })
        .collect();
    keyed.sort_by(|a, b| (a.0, a.1, a.2, &a.3).cmp(&(b.0, b.1, b.2, &b.3)));
    let mut out: Vec<Event> = Vec::with_capacity(keyed.len());
    let mut last_meta_line: Option<String> = None;
    for (cls, _, _, line, ev) in keyed {
        if cls == 0 {
            // Every rank emits the same run_meta; keep one copy per distinct
            // rendering (ranks that disagree are preserved, not hidden).
            if last_meta_line.as_deref() == Some(line.as_str()) {
                continue;
            }
            last_meta_line = Some(line);
        }
        out.push(ev.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{scoped, Hop, HopRecorder};
    use crate::{Telemetry, Value};

    fn sample_log() -> Telemetry {
        let t = Telemetry::recording();
        t.emit(
            "run_meta",
            vec![
                ("schema", Value::Str("marsit-telemetry/1".to_string())),
                ("seed", Value::U64(7)),
                ("alpha_s", Value::F64(1e-4)),
                ("beta_bytes_per_s", Value::F64(1e9)),
            ],
        );
        scoped(&t, || {
            let mut rec = HopRecorder::begin();
            for (step, send, bytes, attempt, delivered) in [
                (0, 0, 16, 1, false),
                (1, 0, 16, 2, true),
                (0, 1, 8, 1, true),
            ] {
                rec.hop(&Hop {
                    expanded_step: step,
                    step: 0,
                    phase: "reduce",
                    sender: send,
                    receiver: (send + 1) % 3,
                    segment: 0,
                    elems: 4,
                    bytes,
                    attempt,
                    delivered,
                });
            }
        });
        t
    }

    #[test]
    fn rebuilds_steps_and_totals() {
        let t = sample_log();
        let events = parse_jsonl(&t.events_jsonl()).unwrap();
        let analysis = analyze(&events).unwrap();
        assert_eq!(analysis.steps, vec![vec![16, 8], vec![16]]);
        assert_eq!(analysis.total_bytes(), 40);
        assert_eq!(analysis.retransmits, 1);
        assert_eq!(analysis.undelivered, 1);
        assert_eq!(analysis.links.len(), 2);
        let expected: f64 = (1e-4 + 16.0 / 1e9) + (1e-4 + 16.0 / 1e9);
        assert_eq!(
            analysis.schedule_time(1e-4, 1e9).to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn validate_passes_on_well_formed_log() {
        let t = sample_log();
        let events = parse_jsonl(&t.events_jsonl()).unwrap();
        assert_eq!(validate(&events), Vec::<String>::new());
    }

    #[test]
    fn validate_flags_problems() {
        let events = vec![
            Event {
                time_s: 1.0,
                name: "hop".to_string(),
                fields: vec![
                    ("seq".to_string(), Value::U64(1)),
                    ("send".to_string(), Value::U64(0)),
                    ("recv".to_string(), Value::U64(0)),
                ],
            },
            Event {
                time_s: 0.5, // goes backwards
                name: "x".to_string(),
                fields: vec![],
            },
        ];
        let errors = validate(&events);
        assert!(errors.iter().any(|e| e.contains("expected \"run_meta\"")));
        assert!(errors.iter().any(|e| e.contains("not monotone")));
        assert!(errors.iter().any(|e| e.contains("to itself")));
        assert!(errors.iter().any(|e| e.contains("not contiguous")));
    }

    #[test]
    fn empty_log_is_invalid() {
        assert!(!validate(&[]).is_empty());
    }

    fn rank_log(rank: usize, wall_base: u64) -> Vec<Event> {
        let t = Telemetry::recording();
        t.emit(
            "run_meta",
            vec![
                ("schema", Value::Str("marsit-telemetry/1".to_string())),
                ("seed", Value::U64(7)),
            ],
        );
        scoped(&t, || {
            let mut rec = HopRecorder::begin();
            rec.hop_timed(
                &Hop {
                    expanded_step: rank, // each rank receives a distinct step
                    step: rank,
                    phase: "reduce",
                    sender: (rank + 2) % 3,
                    receiver: rank,
                    segment: 0,
                    elems: 4,
                    bytes: 8,
                    attempt: 1,
                    delivered: true,
                },
                crate::HopTiming {
                    round: Some(0),
                    send_ns: Some(wall_base + rank as u64),
                    recv_ns: Some(wall_base + rank as u64 + 50),
                },
            );
            rec.reserve_steps(3);
        });
        t.snapshot_events()
    }

    /// Merging the same per-rank logs in any file order yields the same
    /// causally-ordered event sequence, byte-identical once wall-clock
    /// fields are stripped — even when the wall clocks themselves differ.
    #[test]
    fn merge_is_order_invariant_and_wall_clock_free() {
        let logs_a = vec![rank_log(0, 1000), rank_log(1, 1000), rank_log(2, 1000)];
        let logs_b = vec![logs_a[2].clone(), logs_a[0].clone(), logs_a[1].clone()];
        let render = |logs: &[Vec<Event>]| {
            let mut merged = merge_logs(logs);
            strip_wall_clock(&mut merged);
            let mut s = String::new();
            for ev in &merged {
                ev.write_jsonl(&mut s);
                s.push('\n');
            }
            s
        };
        assert_eq!(render(&logs_a), render(&logs_b));
        // A re-run with different wall clocks strips to the same bytes.
        let rerun = vec![rank_log(1, 9999), rank_log(2, 9999), rank_log(0, 9999)];
        assert_eq!(render(&logs_a), render(&rerun));
        // The merge is causally ordered and deduplicates run_meta.
        let merged = merge_logs(&logs_a);
        assert_eq!(merged[0].name, "run_meta");
        assert_eq!(merged[1].name, "hop");
        let seqs: Vec<u64> = merged
            .iter()
            .filter(|e| e.name == "hop")
            .map(|e| e.u64_field("seq").unwrap())
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(
            merged.iter().filter(|e| e.name == "run_meta").count(),
            1,
            "identical run_meta events must deduplicate"
        );
        // The merged log passes schema validation.
        let mut stripped = merged;
        strip_wall_clock(&mut stripped);
        assert_eq!(validate(&stripped), Vec::<String>::new());
    }

    #[test]
    fn strip_removes_only_wall_fields() {
        let mut evs = vec![Event {
            time_s: 0.0,
            name: "hop".to_string(),
            fields: vec![
                ("seq".to_string(), Value::U64(0)),
                ("wall_ns".to_string(), Value::U64(123)),
                ("send_ns".to_string(), Value::U64(456)),
                ("recv_ns".to_string(), Value::U64(789)),
                ("bytes".to_string(), Value::U64(8)),
            ],
        }];
        strip_wall_clock(&mut evs);
        let keys: Vec<&str> = evs[0].fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["seq", "bytes"]);
    }
}
