//! The repo benchmark: one workload per process, driven through public entry
//! points only, measured end to end (`--trace 0`) or probed layer by layer
//! from outside (`--trace 1`). See `benchmark/README.md`.

mod harness;
mod probes;
mod serve;
mod sync;
mod train;

use std::process::ExitCode;

use harness::{Checks, CountingAlloc, Failure, Metric, Provenance, Seeds};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Seed used when `--seed` is absent; `README.md` names a second, held-out
/// seed for checking claims.
const DEFAULT_SEED: u64 = 20_220_710;
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SyncSmall,
    SyncLarge,
    SyncChaos,
    TrainTorus,
    ServeStorm,
    ServeRecover,
}

impl Workload {
    const ALL: [(&'static str, Workload); 6] = [
        ("sync_small", Workload::SyncSmall),
        ("sync_large", Workload::SyncLarge),
        ("sync_chaos", Workload::SyncChaos),
        ("train_torus", Workload::TrainTorus),
        ("serve_storm", Workload::ServeStorm),
        ("serve_recover", Workload::ServeRecover),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|&&(_, w)| w == self)
            .map_or("?", |&(n, _)| n)
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|&(n, _)| n).collect();
    format!(
        "usage: marsit-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         marsit-benchmark --selfcheck",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{}", usage()))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number\n{}", usage()))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.workload.is_none() && !args.selfcheck {
        return Err(usage());
    }
    Ok(args)
}

/// The end-to-end run of one workload.
fn end_to_end(
    workload: Workload,
    seeds: Seeds,
    seconds: f64,
    checks: &mut Checks,
) -> harness::Window {
    match workload {
        Workload::SyncSmall => sync::run(sync::SMALL, seeds, seconds, checks),
        Workload::SyncLarge => sync::run(sync::LARGE, seeds, seconds, checks),
        Workload::SyncChaos => sync::run(sync::CHAOS, seeds, seconds, checks),
        Workload::TrainTorus => train::run(seeds, seconds, checks),
        Workload::ServeStorm => serve::run_storm(seeds, seconds, checks),
        Workload::ServeRecover => serve::run_recover(seeds, seconds, checks),
    }
}

/// Prints every metric by name with its unit, then the result line the
/// benchmark contract asks for as the last line of standard output. Failures
/// go to standard error as well. Returns the class of the first failure.
fn report(checks: &Checks, metrics: &[Metric]) -> Option<Failure> {
    let mut first = checks.first;
    let failed = |line: String| {
        println!("FAILED: {line}");
        eprintln!("FAILED: {line}");
    };
    for failure in &checks.failures {
        failed(failure.clone());
    }
    let mut json = String::new();
    for m in metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            failed(format!("metric {} is not a finite number", m.name));
            first.get_or_insert(Failure::NonFinite);
        }
        if !json.is_empty() {
            json.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            r#""{}": {{"value": {value}, "unit": "{}"}}"#,
            m.name, m.unit
        ));
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{json}}}}}"#,
        first.is_none(),
        checks.attempted.max(1),
        checks.failed
    );
    first
}

/// Evidence that the numbers respond to the program's work and come from the
/// tree under test: `sync_small` at `d` and at `2d` must differ in
/// `round_ms_p50` by 1.6–2.6×, and the recorded commit must be `HEAD`.
fn selfcheck(provenance: &Provenance) -> bool {
    let seeds = Seeds::new(DEFAULT_SEED);
    let p50 = |d: usize| {
        let shape = sync::SyncShape { d, ..sync::SMALL };
        let mut rig = sync::SyncRig::warmed(shape, seeds);
        let timed = sync::timed_rounds(1.0, |_| {
            rig.round();
            true
        });
        harness::quantile(&timed.round_ns, 0.5) as f64 / 1e6
    };
    let (base, doubled) = (p50(sync::SMALL.d), p50(2 * sync::SMALL.d));
    let ratio = doubled / base;
    let scales = (1.6..=2.6).contains(&ratio);
    println!(
        "selfcheck: round_ms_p50 {base:.4} ms at d, {doubled:.4} ms at 2d, ratio {ratio:.3} \
         (must be 1.6-2.6): {}",
        if scales { "ok" } else { "FAILED" }
    );
    let head = harness::command_line("git", &["rev-parse", "HEAD"]);
    let commit_ok = head.as_deref() == Some(provenance.commit.as_str());
    println!(
        "selfcheck: recorded commit {} vs git rev-parse HEAD {}: {}",
        provenance.commit,
        head.as_deref().unwrap_or("(not a git checkout)"),
        if commit_ok { "ok" } else { "FAILED" }
    );
    scales && commit_ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::probe();
    println!(
        "provenance: commit {}{} | {} | nproc {}",
        provenance.commit,
        if provenance.dirty { " (dirty)" } else { "" },
        provenance.rustc,
        provenance.nproc
    );
    if provenance.nproc < 2 {
        eprintln!("the benchmark needs at least 2 cores (2 shards + the load generator)");
        return ExitCode::from(2);
    }
    if args.selfcheck {
        return if selfcheck(&provenance) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let workload = args.workload.expect("checked by parse_args");
    let seeds = Seeds::new(args.seed);
    println!(
        "workload {} | seed {} | {} s | trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        probes::run(workload, seeds, args.seconds, &mut checks)
    } else {
        let window = end_to_end(workload, seeds, args.seconds, &mut checks);
        println!(
            "timed window: {} rounds in {:.3} s ({} round samples)",
            window.rounds,
            window.wall_s,
            window.round_ns.len()
        );
        window.metrics()
    };
    match report(&checks, &metrics) {
        None => ExitCode::SUCCESS,
        Some(kind) => ExitCode::from(kind as u8),
    }
}
