//! Run-report CLI over a recorded telemetry event log.
//!
//! Ingests the JSONL event log written by a run with `MARSIT_TELEMETRY=path`
//! (plus the `<path>.summary.json` snapshot when present) and prints:
//!
//! - run metadata (strategy, topology, workers, seed, link parameters);
//! - wire totals and the critical-path schedule time rebuilt from per-hop
//!   events — bit-identical to the collective's own `Trace::time`;
//! - per-directed-link utilization, retransmit, and loss counts;
//! - the simulated phase breakdown (compute / compression / communication);
//! - fault-layer activity and retry time lost;
//! - histogram percentiles from the summary snapshot.
//!
//! ```text
//! telemetry_report <events.jsonl> [--summary PATH] [--json] [--validate]
//! telemetry_report merge <shard.jsonl>... [--out PATH]
//! ```
//!
//! `--validate` checks the log against the event schema and exits non-zero
//! on any violation (used by CI). `--json` prints the analysis as a single
//! machine-readable JSON object instead of tables.
//!
//! `merge` combines per-rank trace shards into the one causally-ordered
//! log (identical run_meta events deduplicated, hops ordered by absolute
//! expanded-step seq) regardless of the order the shards are listed in,
//! writing JSONL to stdout or `--out`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use marsit_telemetry::json::{self, Json};
use marsit_telemetry::report::{analyze, merge_logs, parse_jsonl, validate, RunAnalysis};

fn usage() -> ! {
    eprintln!("usage: telemetry_report <events.jsonl> [--summary PATH] [--json] [--validate]");
    eprintln!("       telemetry_report merge <shard.jsonl>... [--out PATH]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        return merge_main(&args[1..]);
    }
    let mut events_path: Option<PathBuf> = None;
    let mut summary_path: Option<PathBuf> = None;
    let mut as_json = false;
    let mut do_validate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--summary" => summary_path = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--json" => as_json = true,
            "--validate" => do_validate = true,
            "--help" | "-h" => usage(),
            _ if events_path.is_none() => events_path = Some(PathBuf::from(arg)),
            _ => usage(),
        }
    }
    let Some(events_path) = events_path else {
        usage()
    };

    let text = match std::fs::read_to_string(&events_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", events_path.display());
            return ExitCode::FAILURE;
        }
    };
    let events = match parse_jsonl(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("error: {}: {e}", events_path.display());
            return ExitCode::FAILURE;
        }
    };

    if do_validate {
        let problems = validate(&events);
        if problems.is_empty() {
            println!("OK: {} events, schema valid", events.len());
        } else {
            for p in &problems {
                eprintln!("invalid: {p}");
            }
            eprintln!(
                "{} schema violation(s) in {} events",
                problems.len(),
                events.len()
            );
            return ExitCode::FAILURE;
        }
    }

    let analysis = match analyze(&events) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The summary snapshot rides next to the event log unless pointed
    // elsewhere; it is optional in both cases.
    let summary_path = summary_path
        .unwrap_or_else(|| PathBuf::from(format!("{}.summary.json", events_path.display())));
    let summary = read_summary(&summary_path);

    if as_json {
        println!(
            "{}",
            analysis_json(&analysis, events.len(), summary.as_ref())
        );
    } else {
        print_report(&analysis, events.len(), summary.as_ref());
    }
    ExitCode::SUCCESS
}

/// `telemetry_report merge`: parse every shard, merge into one causally
/// ordered log, emit JSONL. File order is irrelevant by construction
/// ([`merge_logs`] sorts on content), so shell globs are safe inputs.
fn merge_main(args: &[String]) -> ExitCode {
    let mut shards: Vec<PathBuf> = Vec::new();
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--help" | "-h" => usage(),
            _ => shards.push(PathBuf::from(arg)),
        }
    }
    if shards.is_empty() {
        usage();
    }
    let mut logs: Vec<Vec<marsit_telemetry::Event>> = Vec::with_capacity(shards.len());
    for path in &shards {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match parse_jsonl(&text) {
            Ok(ev) => logs.push(ev),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let merged = merge_logs(&logs);
    let mut out = String::new();
    for ev in &merged {
        ev.write_jsonl(&mut out);
        out.push('\n');
    }
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &out) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "merged {} shard(s), {} events -> {}",
                shards.len(),
                merged.len(),
                path.display()
            );
        }
        None => print!("{out}"),
    }
    ExitCode::SUCCESS
}

/// Parse the summary snapshot if the file exists and is well-formed.
fn read_summary(path: &Path) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    match json::parse(text.trim()) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!(
                "warning: ignoring malformed summary {}: {e}",
                path.display()
            );
            None
        }
    }
}

fn print_report(a: &RunAnalysis, event_count: usize, summary: Option<&Json>) {
    println!("== run ==");
    if let Some(meta) = &a.meta {
        let s = |k: &str| meta.str_field(k).unwrap_or("?").to_string();
        let n = |k: &str| meta.u64_field(k).map_or("?".to_string(), |v| v.to_string());
        println!("  strategy   {}", s("strategy"));
        println!("  topology   {}", s("topology"));
        println!("  workers    {}", n("workers"));
        println!("  d          {}", n("d"));
        println!("  rounds     {}", n("rounds"));
        println!("  seed       {}", n("seed"));
        if let Some((alpha, beta)) = a.meta_alpha_beta() {
            println!("  link       alpha {alpha:.2e} s, beta {beta:.3e} B/s");
        }
        if let Some(git) = meta.str_field("git_describe") {
            println!("  build      {git}");
        }
    } else {
        println!("  (no run_meta event)");
    }
    println!("  events     {event_count}");

    println!("== wire ==");
    println!("  hop events        {}", a.hop_events);
    println!("  expanded steps    {}", a.steps.len());
    println!("  total bytes       {}", a.total_hop_bytes);
    println!("  retransmits       {}", a.retransmits);
    println!("  undelivered       {}", a.undelivered);
    if let Some((alpha, beta)) = a.meta_alpha_beta() {
        println!("  schedule time     {:.6e} s", a.schedule_time(alpha, beta));
    }

    if !a.links.is_empty() {
        println!("== links ==");
        println!("  send -> recv       bytes   share  attempts  retrans  lost");
        let total = a.total_hop_bytes.max(1);
        for l in &a.links {
            println!(
                "  {:>4} -> {:<4} {:>11}  {:>5.1}%  {:>8}  {:>7}  {:>4}",
                l.send,
                l.recv,
                l.bytes,
                l.bytes as f64 * 100.0 / total as f64,
                l.attempts,
                l.retransmits,
                l.undelivered
            );
        }
    }

    if a.phases.rounds > 0 {
        println!("== phases ({} rounds) ==", a.phases.rounds);
        let total = a.phases.total_s().max(f64::MIN_POSITIVE);
        for (name, v) in [
            ("compute", a.phases.compute_s),
            ("compression", a.phases.compression_s),
            ("communication", a.phases.communication_s),
        ] {
            println!("  {name:<14} {v:>12.6} s  {:>5.1}%", v * 100.0 / total);
        }
        println!("  {:<14} {:>12.6} s", "total", a.phases.total_s());
    }

    if a.sync_events > 0 {
        println!("== faults ({} sync events) ==", a.sync_events);
        println!("  retransmits    {}", a.faults.retransmits);
        println!("  dropped        {}", a.faults.dropped);
        println!("  corrupted      {}", a.faults.corrupted);
        println!("  repairs        {}", a.faults.repairs);
        println!("  crashed        {}", a.faults.crashed);
        println!("  retry time     {:.6e} s", a.retry_extra_s);
    }

    if let Some(hists) = summary
        .and_then(|s| s.get("histograms"))
        .and_then(Json::as_obj)
    {
        if !hists.is_empty() {
            println!("== histograms ==");
            println!(
                "  {:<24} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "name", "count", "mean", "p50", "p95", "p99", "max"
            );
            for (name, h) in hists {
                let f = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                println!(
                    "  {:<24} {:>8} {:>12.5e} {:>12.5e} {:>12.5e} {:>12.5e} {:>12.5e}",
                    name,
                    h.get("count").and_then(Json::as_u64).unwrap_or(0),
                    f("mean"),
                    f("p50"),
                    f("p95"),
                    f("p99"),
                    f("max")
                );
            }
        }
    }
}

/// The analysis as one JSON object (`--json`). Hand-written like every other
/// JSON artifact in this workspace.
fn analysis_json(a: &RunAnalysis, event_count: usize, summary: Option<&Json>) -> String {
    let mut out = String::from("{\"schema\":\"marsit-telemetry-report/1\"");
    out.push_str(&format!(",\"events\":{event_count}"));
    if let Some(meta) = &a.meta {
        out.push_str(",\"meta\":");
        meta.write_jsonl(&mut out);
    }
    out.push_str(&format!(
        ",\"wire\":{{\"hop_events\":{},\"steps\":{},\"total_bytes\":{},\
         \"retransmits\":{},\"undelivered\":{}",
        a.hop_events,
        a.steps.len(),
        a.total_hop_bytes,
        a.retransmits,
        a.undelivered
    ));
    if let Some((alpha, beta)) = a.meta_alpha_beta() {
        out.push_str(",\"schedule_time_s\":");
        json::write_f64(&mut out, a.schedule_time(alpha, beta));
    }
    out.push('}');
    out.push_str(",\"links\":[");
    for (i, l) in a.links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"send\":{},\"recv\":{},\"bytes\":{},\"attempts\":{},\
             \"retransmits\":{},\"undelivered\":{}}}",
            l.send, l.recv, l.bytes, l.attempts, l.retransmits, l.undelivered
        ));
    }
    out.push(']');
    out.push_str(&format!(",\"phases\":{{\"rounds\":{}", a.phases.rounds));
    for (k, v) in [
        ("compute_s", a.phases.compute_s),
        ("compression_s", a.phases.compression_s),
        ("communication_s", a.phases.communication_s),
        ("total_s", a.phases.total_s()),
    ] {
        out.push_str(&format!(",\"{k}\":"));
        json::write_f64(&mut out, v);
    }
    out.push('}');
    out.push_str(&format!(
        ",\"faults\":{{\"sync_events\":{},\"retransmits\":{},\"dropped\":{},\
         \"corrupted\":{},\"repairs\":{},\"crashed\":{},\"retry_extra_s\":",
        a.sync_events,
        a.faults.retransmits,
        a.faults.dropped,
        a.faults.corrupted,
        a.faults.repairs,
        a.faults.crashed
    ));
    json::write_f64(&mut out, a.retry_extra_s);
    out.push('}');
    if let Some(hists) = summary.and_then(|s| s.get("histograms")) {
        out.push_str(",\"histograms\":");
        write_json_value(&mut out, hists);
    }
    out.push('}');
    out
}

/// Re-serialize a parsed [`Json`] value (used to pass the summary's
/// histogram section through to `--json` output).
fn write_json_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
                out.push_str(&format!("{}", *x as i64));
            } else {
                json::write_f64(out, *x);
            }
        }
        Json::Str(s) => json::write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, k);
                out.push(':');
                write_json_value(out, val);
            }
            out.push('}');
        }
    }
}
