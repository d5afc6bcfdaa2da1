//! Proxy models standing in for the paper's architectures.
//!
//! Training AlexNet/ResNet/DistilBERT on a CPU is infeasible, so each paper
//! workload maps to a small MLP (the *trainable* proxy) plus the real
//! architecture's parameter count and per-sample compute cost (the *logical*
//! profile). Learning dynamics — accuracy curves, compression error,
//! convergence — come from actually training the proxy; communication sizes
//! and simulated wall-clock times use the logical profile, so the timing
//! experiments (Fig 1a, 4a, 5; time columns of Table 1/Fig 3) keep the
//! paper's scale. See `DESIGN.md` for the substitution rationale.

use crate::mlp::MlpSpec;

/// One of the paper's model/dataset workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// AlexNet on MNIST (Table 1 / Fig 1 motivation experiments).
    AlexNetMnist,
    /// AlexNet on CIFAR-10 (Fig 3, Fig 5, Table 2 row 1).
    AlexNetCifar10,
    /// ResNet-20 on CIFAR-10 (Table 2 row 2).
    ResNet20Cifar10,
    /// ResNet-18 on ImageNet (Table 2 row 3).
    ResNet18ImageNet,
    /// ResNet-50 on ImageNet (Table 2 row 4, Fig 4).
    ResNet50ImageNet,
    /// DistilBERT on IMDb reviews (Table 2 row 5).
    DistilBertImdb,
}

impl Workload {
    /// All workloads, in Table 2 order.
    pub const ALL: [Workload; 6] = [
        Workload::AlexNetMnist,
        Workload::AlexNetCifar10,
        Workload::ResNet20Cifar10,
        Workload::ResNet18ImageNet,
        Workload::ResNet50ImageNet,
        Workload::DistilBertImdb,
    ];

    /// Human-readable `model / dataset` label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::AlexNetMnist => "AlexNet / MNIST",
            Self::AlexNetCifar10 => "AlexNet / CIFAR-10",
            Self::ResNet20Cifar10 => "ResNet-20 / CIFAR-10",
            Self::ResNet18ImageNet => "ResNet-18 / ImageNet",
            Self::ResNet50ImageNet => "ResNet-50 / ImageNet",
            Self::DistilBertImdb => "DistilBERT / IMDb",
        }
    }

    /// Parameter count of the *real* architecture, used for communication
    /// sizing and simulated timing (paper's "# parameters" column).
    ///
    /// Note: the paper's Table 2 lists DistilBERT as "8.3B"; the actual
    /// DistilBERT-base has ~66M parameters. We use 66M — the realistic value —
    /// and note the discrepancy in `EXPERIMENTS.md`.
    #[must_use]
    pub fn logical_params(self) -> usize {
        match self {
            Self::AlexNetMnist => 23_000_000,
            Self::AlexNetCifar10 => 23_000_000,
            Self::ResNet20Cifar10 => 270_000,
            Self::ResNet18ImageNet => 11_000_000,
            Self::ResNet50ImageNet => 25_000_000,
            Self::DistilBertImdb => 66_000_000,
        }
    }

    /// Approximate forward+backward FLOPs per training sample of the real
    /// architecture, used by the compute-time model.
    #[must_use]
    pub fn flops_per_sample(self) -> f64 {
        match self {
            // ~3x forward MACs * 2 (rough fwd+bwd convention).
            Self::AlexNetMnist => 2.0e9,
            Self::AlexNetCifar10 => 2.0e9,
            Self::ResNet20Cifar10 => 2.5e8,
            Self::ResNet18ImageNet => 1.1e10,
            Self::ResNet50ImageNet => 2.5e10,
            Self::DistilBertImdb => 1.4e10,
        }
    }

    /// Batch size used in the paper's Table 2 for this workload (global,
    /// across all workers).
    #[must_use]
    pub fn paper_batch_size(self) -> usize {
        match self {
            Self::AlexNetMnist => 256,
            Self::AlexNetCifar10 | Self::ResNet20Cifar10 => 8192,
            Self::ResNet18ImageNet | Self::ResNet50ImageNet => 6144,
            Self::DistilBertImdb => 512,
        }
    }

    /// Architecture of the *trainable* proxy (an MLP sized for CPU training
    /// whose input matches the corresponding synthetic dataset).
    #[must_use]
    pub fn proxy_spec(self) -> MlpSpec {
        match self {
            // mnist_like: 64-dim, 10 classes.
            Self::AlexNetMnist => MlpSpec::new(64, vec![128, 64], 10),
            // cifar10_like: 256-dim, 10 classes. AlexNet proxy is wider than
            // the ResNet-20 proxy, mirroring 23M vs 0.27M real parameters.
            Self::AlexNetCifar10 => MlpSpec::new(256, vec![256, 128], 10),
            Self::ResNet20Cifar10 => MlpSpec::new(256, vec![48], 10),
            // imagenet_like: 512-dim, 50 classes.
            Self::ResNet18ImageNet => MlpSpec::new(512, vec![192], 50),
            Self::ResNet50ImageNet => MlpSpec::new(512, vec![256, 128], 50),
            // imdb_like: 512-dim vocabulary, 2 classes.
            Self::DistilBertImdb => MlpSpec::new(512, vec![128], 2),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_sizes_preserve_orderings() {
        // The paper's comparisons rely on these orderings.
        assert!(
            Workload::ResNet20Cifar10.logical_params()
                < Workload::ResNet18ImageNet.logical_params()
        );
        assert!(
            Workload::ResNet18ImageNet.logical_params() < Workload::AlexNetCifar10.logical_params()
        );
        assert!(
            Workload::AlexNetCifar10.logical_params() < Workload::ResNet50ImageNet.logical_params()
        );
        assert!(
            Workload::ResNet50ImageNet.logical_params() < Workload::DistilBertImdb.logical_params()
        );
    }

    #[test]
    fn proxy_specs_match_dataset_shapes() {
        assert_eq!(Workload::AlexNetMnist.proxy_spec().input_dim(), 64);
        assert_eq!(Workload::AlexNetCifar10.proxy_spec().input_dim(), 256);
        assert_eq!(Workload::ResNet50ImageNet.proxy_spec().output_dim(), 50);
        assert_eq!(Workload::DistilBertImdb.proxy_spec().output_dim(), 2);
    }

    #[test]
    fn proxy_size_orderings_track_real_models() {
        let alex = Workload::AlexNetCifar10.proxy_spec().num_params();
        let r20 = Workload::ResNet20Cifar10.proxy_spec().num_params();
        assert!(alex > 4 * r20, "AlexNet proxy should dwarf ResNet-20 proxy");
        let r18 = Workload::ResNet18ImageNet.proxy_spec().num_params();
        let r50 = Workload::ResNet50ImageNet.proxy_spec().num_params();
        assert!(r50 > r18);
    }

    #[test]
    fn all_contains_every_workload_once() {
        let mut labels: Vec<&str> = Workload::ALL.iter().map(|w| w.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(
            format!("{}", Workload::AlexNetCifar10),
            "AlexNet / CIFAR-10"
        );
    }
}
