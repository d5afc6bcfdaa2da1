//! Measurement plumbing shared by every workload: clocks, the counting
//! allocator, order statistics, seed splitting, the span recorder of the
//! traced run, and the result a workload hands back to `main`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use marsit::serve::quantile_ns as quantile;
use marsit::tensor::rng::split_seed;

/// Heap-allocation counter around the system allocator (`alloc`/`realloc`
/// events on every thread); `core.allocs_per_round` is a difference of two
/// readings.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls made by the whole process so far.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Process CPU seconds (user + system, every thread) from
/// `/proc/self/stat`. Linux fixes `USER_HZ` at 100 for these fields.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat (Linux only)");
    // `comm` may contain spaces; the fields after the closing paren start
    // at field 3 (`state`), so utime/stime are the 12th and 13th of them.
    let rest = stat.rsplit(')').next().expect("stat has a comm field");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (tick() + tick()) / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Median of unsorted float samples.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Repetitions for a probe whose one call costs about `one_call_s`: the 30
/// the issue asks for, cut down so no probe exceeds ~0.3 s, never below 5.
pub fn probe_reps(one_call_s: f64) -> usize {
    ((0.3 / one_call_s.max(1e-9)) as usize).clamp(5, 30)
}

/// The independent random streams every workload derives from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    base: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Self { base: seed }
    }
    fn stream(self, s: u64) -> u64 {
        split_seed(self.base, s)
    }
    /// Worker update sets of the `sync_*` workloads.
    pub fn updates(self) -> u64 {
        self.stream(1)
    }
    /// Fault-plan seeds (the chaos plan, fault-injected jobs).
    pub fn faults(self) -> u64 {
        self.stream(2)
    }
    /// Per-job training seeds.
    pub fn jobs(self) -> u64 {
        self.stream(3)
    }
    /// The server's seeded migration schedule.
    pub fn migration(self) -> u64 {
        self.stream(4)
    }
    /// The synchronizer's / trainer's own master seed.
    pub fn program(self) -> u64 {
        self.stream(5)
    }
    /// Which outcomes the output checks sample.
    pub fn sample(self) -> u64 {
        self.stream(6)
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The class of a failed check. The process exits with the code of the first
/// class that failed, so a report that carries nothing but the exit code still
/// says what went wrong (and tells a failed check from a failure of `cargo`
/// or `rustup` themselves, which exit with 101 and 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// An output check of `sync_*` or `train_torus`.
    Output = 10,
    /// A job refused by admission or without an outcome.
    Accounting = 11,
    /// A torn journal that left nothing to resume.
    NothingToResume = 12,
    /// `verify_recovered`: a replayed-complete job differs from its solo run.
    Replayed = 13,
    /// `verify_outcome`: a served or resumed job differs from its solo run.
    Served = 14,
    /// The span file of the traced run could not be written.
    SpanFile = 15,
    /// A metric that is not a finite number.
    NonFinite = 16,
}

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Class of the first failure.
    pub first: Option<Failure>,
}

impl Checks {
    /// Counts `n` operations that completed without a typed error.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }
    /// One output check: counted as attempted, and as failed unless `ok`.
    pub fn check(&mut self, kind: Failure, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first.get_or_insert(kind);
            self.failures.push(what());
        }
    }
}

/// What the timed window of any workload measures; the end-to-end metrics
/// are derived from it in one place ([`Window::metrics`]).
#[derive(Debug)]
pub struct Window {
    /// Median wall seconds of the repeated set-ups.
    pub setup_s: f64,
    /// Rounds completed in the window.
    pub rounds: u64,
    /// Wall seconds of the window (harness clock).
    pub wall_s: f64,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    /// Per-round wall nanoseconds, ascending.
    pub round_ns: Vec<u64>,
    /// `VmHWM` when the window closed.
    pub peak_rss_mb: f64,
}

impl Window {
    /// The six end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let round_ms = |q| quantile(&self.round_ns, q) as f64 / 1e6;
        let rounds = self.rounds as f64;
        vec![
            m("setup_s", self.setup_s, "s"),
            m("rounds_per_s", rounds / self.wall_s, "rounds/s"),
            m("round_ms_p50", round_ms(0.5), "ms"),
            m("round_ms_p95", round_ms(0.95), "ms"),
            m("cpu_ms_per_round", self.cpu_s * 1e3 / rounds, "ms"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Runs `setup` `SETUP_REPS` times, dropping each product before the next
/// is built (so the peak resident set is that of one), and returns the last
/// product with the median set-up time.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    const SETUP_REPS: usize = 3;
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), median(times))
}

/// Directory for everything a run writes (journals, span files); inside the
/// checkout, ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A scratch file path unique to this process.
pub fn scratch_file(stem: &str) -> PathBuf {
    out_dir().join(format!("{stem}-{}.journal", std::process::id()))
}

/// One recorded span of the traced run.
#[derive(Debug)]
struct Span {
    name: &'static str,
    layer: &'static str,
    /// Round or job index the span belongs to.
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Nanoseconds covered by direct children.
    child_ns: u64,
}

/// In-memory span recorder of the traced run. Spans nest through
/// [`Recorder::span`]; a layer's self time is its span minus its children.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(8),
        }
    }

    /// Times `f` as a span named `name` in `layer`, child of the span
    /// currently open (if any).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        id: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            layer,
            id,
            parent,
            start_ns: 0,
            end_ns: 0,
            child_ns: 0,
        });
        self.stack.push(idx);
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.t0.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans[idx].start_ns = start;
        self.spans[idx].end_ns = end;
        if let Some(p) = parent {
            self.spans[p].child_ns += end - start;
        }
        out
    }

    /// Median self time (span minus children) of the spans named `name`, in
    /// seconds.
    pub fn median_self_secs(&self, name: &str) -> f64 {
        median(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns).saturating_sub(s.child_ns) as f64 / 1e9)
                .collect(),
        )
    }

    /// Median seconds of `f` over `reps` calls (after one untimed call), each
    /// call a span: the form every per-layer timing goes through.
    pub fn probe(
        &mut self,
        name: &'static str,
        layer: &'static str,
        reps: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        f();
        for i in 0..reps.max(1) {
            self.span(name, layer, i as u64, |_| f());
        }
        self.median_self_secs(name)
    }

    /// Writes every span as one JSON line to `benchmark/out/<stem>.trace.jsonl`.
    pub fn write(&self, stem: &str) -> std::io::Result<PathBuf> {
        let path = out_dir().join(format!("{stem}.trace.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"span":{i},"name":"{}","layer":"{}","id":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.layer, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(path)
    }
}

/// Commit, dirty flag, compiler and core count of the tree under test.
#[derive(Debug)]
pub struct Provenance {
    pub commit: String,
    pub dirty: bool,
    pub rustc: String,
    pub nproc: usize,
}

/// Trimmed standard output of a command that exited successfully.
pub fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    /// Probes `git` and `rustc`; a checkout that is not a git repository
    /// records the commit as `none`.
    pub fn probe() -> Self {
        let commit =
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_string());
        let dirty = command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        Self {
            commit,
            dirty,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }
}
