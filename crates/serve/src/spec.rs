//! Job specifications: what a client submits to the job server.
//!
//! A [`JobSpec`] is the serving-side unit of work — one Marsit training run
//! described by its model proxy, topology, full-precision period `K`, fault
//! plan, seed, and round budget. Specs arrive over the submission queue as
//! single `key=value` lines (see [`JobSpec::parse_line`]), the format the
//! `marsit_serve` binary reads from a file or stdin.

use marsit_models::{OptimizerKind, Workload};
use marsit_simnet::{FaultPlan, Topology};
use marsit_telemetry::Telemetry;
use marsit_trainsim::{StrategyKind, TrainConfig};

/// Tenant a spec belongs to when no `tenant=` key is given. Admission
/// control buckets quota by tenant; single-tenant deployments never need
/// to name one.
pub const DEFAULT_TENANT: &str = "default";

/// One training job submitted to the server.
///
/// The defaults describe a short serving-sized run (small synthetic split,
/// no periodic eval) so a storm of jobs exercises the server rather than
/// the data generator; every field can be overridden per job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen job name (unique per submission batch).
    pub name: String,
    /// Tenant the job is billed to (admission-control quota bucket).
    pub tenant: String,
    /// Model/dataset proxy to train.
    pub workload: Workload,
    /// Cluster topology the job's collectives run over.
    pub topology: Topology,
    /// Full-precision period `K` (`None` = plain one-bit Marsit).
    pub k: Option<u32>,
    /// Master seed.
    pub seed: u64,
    /// Round budget `T`.
    pub rounds: usize,
    /// Deterministic fault plan ([`FaultPlan::none`] by default).
    pub fault_plan: FaultPlan,
    /// Training-set size (split IID across the topology's workers).
    pub train_examples: usize,
    /// Held-out test-set size.
    pub test_examples: usize,
    /// Per-worker minibatch size.
    pub batch_per_worker: usize,
    /// Local learning rate `η_l`.
    pub local_lr: f32,
    /// Marsit global learning rate `η_s`.
    pub global_lr: f32,
}

impl JobSpec {
    /// A serving-sized job: `workload` on `topology` for `rounds` rounds.
    #[must_use]
    pub fn new(name: impl Into<String>, workload: Workload, topology: Topology) -> Self {
        Self {
            name: name.into(),
            tenant: DEFAULT_TENANT.to_string(),
            workload,
            topology,
            k: Some(20),
            seed: 42,
            rounds: 30,
            fault_plan: FaultPlan::none(),
            train_examples: 512,
            test_examples: 64,
            batch_per_worker: 16,
            local_lr: 0.01,
            global_lr: 0.002,
        }
    }

    /// The trainer configuration for this job, recording into `telemetry`.
    ///
    /// The scheduler owns parallelism at the job level (one shard thread
    /// drives many jobs), so the per-job config keeps the worker compute
    /// phase and the collectives on the shard thread.
    #[must_use]
    pub fn to_train_config(&self, telemetry: Telemetry) -> TrainConfig {
        let mut cfg = TrainConfig::new(
            self.workload,
            self.topology,
            StrategyKind::Marsit { k: self.k },
        );
        cfg.rounds = self.rounds;
        cfg.seed = self.seed;
        cfg.fault_plan = self.fault_plan.clone();
        cfg.train_examples = self.train_examples;
        cfg.test_examples = self.test_examples;
        cfg.batch_per_worker = self.batch_per_worker;
        cfg.local_lr = self.local_lr;
        cfg.marsit_global_lr = self.global_lr;
        cfg.optimizer = OptimizerKind::Momentum(0.9);
        cfg.eval_every = 0;
        cfg.parallel_workers = false;
        cfg.telemetry = telemetry;
        cfg
    }

    /// Parses one submission-queue line of whitespace-separated `key=value`
    /// tokens, e.g.
    ///
    /// ```text
    /// name=j0 workload=alexnet_mnist topo=ring:4 k=20 seed=7 rounds=40
    /// ```
    ///
    /// Recognized keys: `name`, `tenant`, `workload` (snake-case proxy
    /// name), `topo` (`ring:M` or `torus:RxC`), `k` (`never` or a period),
    /// `seed`, `rounds`, `examples`, `test`, `batch`, `lr`, `glr`, and
    /// `fault` (`SEED:DROP_PERMILLE`). `name` is required; everything else
    /// falls back to the [`JobSpec::new`] defaults.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let mut spec = Self::new("", Workload::AlexNetMnist, Topology::ring(4));
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("malformed token (expected key=value): {token}"))?;
            match key {
                "name" => spec.name = value.to_string(),
                "tenant" => spec.tenant = value.to_string(),
                "workload" => spec.workload = parse_workload(value)?,
                "topo" => spec.topology = parse_topology(value)?,
                "k" => {
                    spec.k = if value == "never" {
                        None
                    } else {
                        Some(parse_num(key, value)?)
                    };
                }
                "seed" => spec.seed = parse_num(key, value)?,
                "rounds" => spec.rounds = parse_num(key, value)?,
                "examples" => spec.train_examples = parse_num(key, value)?,
                "test" => spec.test_examples = parse_num(key, value)?,
                "batch" => spec.batch_per_worker = parse_num(key, value)?,
                "lr" => spec.local_lr = parse_num(key, value)?,
                "glr" => spec.global_lr = parse_num(key, value)?,
                "fault" => spec.fault_plan = parse_fault(value)?,
                other => return Err(format!("unknown job-spec key: {other}")),
            }
        }
        if spec.name.is_empty() {
            return Err("job spec is missing name=".to_string());
        }
        Ok(spec)
    }

    /// Serializes the spec back to one canonical submission-queue line that
    /// [`JobSpec::parse_line`] reconstructs field-for-field — the exact
    /// round-trip the submission journal depends on. Floats are rendered
    /// with Rust's shortest-round-trip formatting, so every `f32` bit
    /// pattern a client can type survives the trip.
    ///
    /// # Errors
    ///
    /// Returns a description when the spec cannot be expressed as a queue
    /// line: a name or tenant containing whitespace (the line format is
    /// whitespace-delimited), or a fault plan richer than the seeded
    /// link-drop form the `fault=SEED:DROP_PERMILLE` key encodes.
    pub fn to_line(&self) -> Result<String, String> {
        for (what, value) in [("name", &self.name), ("tenant", &self.tenant)] {
            if value.is_empty() || value.chars().any(char::is_whitespace) {
                return Err(format!(
                    "job {what} {value:?} is not line-representable \
                     (must be non-empty with no whitespace)"
                ));
            }
        }
        let mut line = format!("name={}", self.name);
        if self.tenant != DEFAULT_TENANT {
            line.push_str(&format!(" tenant={}", self.tenant));
        }
        line.push_str(&format!(
            " workload={} topo={}",
            workload_tag(self.workload),
            topology_tag(self.topology)
        ));
        match self.k {
            Some(k) => line.push_str(&format!(" k={k}")),
            None => line.push_str(" k=never"),
        }
        line.push_str(&format!(
            " seed={} rounds={} examples={} test={} batch={} lr={:?} glr={:?}",
            self.seed,
            self.rounds,
            self.train_examples,
            self.test_examples,
            self.batch_per_worker,
            self.local_lr,
            self.global_lr,
        ));
        // Any plan but the default is written out, a seeded plan that drops
        // nothing included: its seed is part of the spec.
        if self.fault_plan != FaultPlan::none() {
            let permille = (self.fault_plan.link_drop_prob * 1000.0).round() as u64;
            let rebuilt = FaultPlan::seeded(self.fault_plan.seed)
                .with_link_drop(permille.min(1000) as f64 / 1000.0);
            if rebuilt != self.fault_plan {
                return Err(format!(
                    "fault plan for job {} is not line-representable \
                     (only seeded link-drop in whole permille fits fault=SEED:PERMILLE)",
                    self.name
                ));
            }
            line.push_str(&format!(" fault={}:{permille}", self.fault_plan.seed));
        }
        Ok(line)
    }
}

fn workload_tag(workload: Workload) -> &'static str {
    match workload {
        Workload::AlexNetMnist => "alexnet_mnist",
        Workload::AlexNetCifar10 => "alexnet_cifar10",
        Workload::ResNet20Cifar10 => "resnet20_cifar10",
        Workload::ResNet18ImageNet => "resnet18_imagenet",
        Workload::ResNet50ImageNet => "resnet50_imagenet",
        Workload::DistilBertImdb => "distilbert_imdb",
    }
}

fn topology_tag(topology: Topology) -> String {
    match topology {
        Topology::Ring { workers } => format!("ring:{workers}"),
        Topology::Torus { rows, cols } => format!("torus:{rows}x{cols}"),
        // Star is not in the submission-line grammar yet; emit the ring
        // form it would be rejected as, so the caller's parse round-trip
        // check fails loudly rather than silently serving a different job.
        Topology::Star { workers } => format!("star:{workers}"),
    }
}

/// One rejected line from a submission queue: where it was, what it said,
/// and why it was refused. The CLI renders these as `path:line: reason`
/// diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueDiagnostic {
    /// 1-based line number in the queue file.
    pub line_no: usize,
    /// The offending line, verbatim.
    pub line: String,
    /// Why it was rejected.
    pub reason: String,
}

impl std::fmt::Display for QueueDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}: {:?}", self.line_no, self.reason, self.line)
    }
}

/// Parses a whole submission queue, collecting *every* malformed line as a
/// [`QueueDiagnostic`] instead of stopping at the first (or panicking).
/// Blank lines and `#` comments are skipped; duplicate job names are
/// diagnosed because the journal and the outcome map key jobs by name.
#[must_use]
pub fn parse_queue(text: &str) -> (Vec<JobSpec>, Vec<QueueDiagnostic>) {
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut diagnostics = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match JobSpec::parse_line(line) {
            Ok(spec) => {
                if specs.iter().any(|s| s.name == spec.name) {
                    diagnostics.push(QueueDiagnostic {
                        line_no: idx + 1,
                        line: raw.to_string(),
                        reason: format!("duplicate job name {:?}", spec.name),
                    });
                } else {
                    specs.push(spec);
                }
            }
            Err(reason) => diagnostics.push(QueueDiagnostic {
                line_no: idx + 1,
                line: raw.to_string(),
                reason,
            }),
        }
    }
    (specs, diagnostics)
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {key}: {value}"))
}

fn parse_workload(value: &str) -> Result<Workload, String> {
    Ok(match value {
        "alexnet_mnist" => Workload::AlexNetMnist,
        "alexnet_cifar10" => Workload::AlexNetCifar10,
        "resnet20_cifar10" => Workload::ResNet20Cifar10,
        "resnet18_imagenet" => Workload::ResNet18ImageNet,
        "resnet50_imagenet" => Workload::ResNet50ImageNet,
        "distilbert_imdb" => Workload::DistilBertImdb,
        other => return Err(format!("unknown workload: {other}")),
    })
}

fn parse_topology(value: &str) -> Result<Topology, String> {
    let dim = |text: &str| match parse_num::<usize>("topo", text)? {
        n if n >= 2 => Ok(n),
        _ => Err(format!(
            "bad topology (every dimension needs 2 or more workers): {value}"
        )),
    };
    if let Some(m) = value.strip_prefix("ring:") {
        return Ok(Topology::ring(dim(m)?));
    }
    if let Some(rc) = value.strip_prefix("torus:") {
        let (r, c) = rc
            .split_once('x')
            .ok_or_else(|| format!("bad torus spec (expected torus:RxC): {value}"))?;
        return Ok(Topology::torus(dim(r)?, dim(c)?));
    }
    Err(format!(
        "unknown topology (expected ring:M or torus:RxC): {value}"
    ))
}

fn parse_fault(value: &str) -> Result<FaultPlan, String> {
    let (seed, drop) = value
        .split_once(':')
        .ok_or_else(|| format!("bad fault spec (expected SEED:DROP_PERMILLE): {value}"))?;
    let seed: u64 = parse_num("fault", seed)?;
    let drop_permille: u64 = parse_num("fault", drop)?;
    if drop_permille > 1000 {
        return Err(format!(
            "bad fault drop rate (at most 1000 per mille): {value}"
        ));
    }
    Ok(FaultPlan::seeded(seed).with_link_drop(drop_permille as f64 / 1000.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_line_round_trips_the_readme_example() {
        let spec =
            JobSpec::parse_line("name=j0 workload=alexnet_mnist topo=ring:4 k=20 seed=7 rounds=40")
                .expect("valid line");
        assert_eq!(spec.name, "j0");
        assert_eq!(spec.workload, Workload::AlexNetMnist);
        assert_eq!(spec.topology, Topology::ring(4));
        assert_eq!(spec.k, Some(20));
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.rounds, 40);
    }

    /// A served job's shard already owns a core: the synchronizer its
    /// `TrainConfig` builds runs every sweep on the calling thread, while a
    /// default trainer may use every core.
    #[test]
    fn served_jobs_synchronize_with_a_lane_budget_of_1() {
        let mut spec = JobSpec::new("lanes", Workload::AlexNetMnist, Topology::ring(4));
        spec.train_examples = 64;
        spec.test_examples = 8;
        let cfg = spec.to_train_config(Telemetry::disabled());
        assert!(!cfg.parallel_workers);
        assert_eq!(marsit_trainsim::TrainerState::new(&cfg).lane_budget(), 1);
        let mut solo = cfg.clone();
        solo.parallel_workers = true;
        assert_eq!(
            marsit_trainsim::TrainerState::new(&solo).lane_budget(),
            marsit_tensor::lanes::width()
        );
    }

    #[test]
    fn parse_line_supports_torus_never_and_fault() {
        let spec = JobSpec::parse_line(
            "name=t workload=distilbert_imdb topo=torus:2x3 k=never fault=9:50",
        )
        .expect("valid line");
        assert_eq!(spec.topology, Topology::torus(2, 3));
        assert_eq!(spec.k, None);
        assert!(!spec.fault_plan.is_none());
    }

    #[test]
    fn parse_line_rejects_garbage() {
        assert!(JobSpec::parse_line("name=x topo=star:4").is_err());
        assert!(JobSpec::parse_line("name=x bogus=1").is_err());
        assert!(JobSpec::parse_line("workload=alexnet_mnist").is_err());
    }

    #[test]
    fn to_line_round_trips_every_field() {
        let mut spec = JobSpec::new("rt", Workload::ResNet20Cifar10, Topology::torus(2, 3));
        spec.tenant = "team-a".to_string();
        spec.k = None;
        spec.seed = u64::MAX;
        spec.rounds = 17;
        spec.train_examples = 300;
        spec.test_examples = 41;
        spec.batch_per_worker = 7;
        spec.local_lr = f32::from_bits(0x3C23_D70B); // not exactly representable in decimal shorthand
        spec.global_lr = -0.0;
        spec.fault_plan = FaultPlan::seeded(9).with_link_drop(0.05);
        let line = spec.to_line().expect("representable");
        let back = JobSpec::parse_line(&line).expect("canonical line parses");
        assert_eq!(back, spec);
        // Canonical form is a fixed point.
        assert_eq!(back.to_line().expect("still representable"), line);
    }

    #[test]
    fn to_line_rejects_unrepresentable_specs() {
        let mut spec = JobSpec::new("bad name", Workload::AlexNetMnist, Topology::ring(4));
        assert!(spec.to_line().is_err(), "whitespace in name");
        spec.name = "ok".to_string();
        spec.fault_plan = FaultPlan::seeded(1).with_link_corruption(0.5);
        assert!(spec.to_line().is_err(), "corruption not line-encodable");
        spec.fault_plan = FaultPlan::seeded(1).with_link_drop(0.0005);
        assert!(spec.to_line().is_err(), "sub-permille drop not encodable");
    }

    #[test]
    fn parse_queue_collects_all_diagnostics() {
        let queue = "# storm\n\
                     name=a rounds=3\n\
                     name=b topo=hypercube:4\n\
                     \n\
                     bogus line\n\
                     name=a rounds=5\n\
                     name=c tenant=t2\n";
        let (specs, diags) = parse_queue(queue);
        assert_eq!(
            specs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["a", "c"]
        );
        assert_eq!(specs[1].tenant, "t2");
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[0].line_no, 3);
        assert_eq!(diags[1].line_no, 5);
        assert!(diags[2].reason.contains("duplicate"));
    }
}
