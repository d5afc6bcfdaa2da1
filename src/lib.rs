//! # Marsit: one-bit multi-hop all-reduce for distributed training
//!
//! A full reproduction of **“Sign Bit is Enough: A Learning Synchronization
//! Framework for Multi-hop All-reduce with Ultimate Compression”** (Wu, He,
//! Guo, Qu, Wang, Zhuang, Zhang — DAC 2022), built from scratch in Rust:
//! the Marsit algorithm itself plus every substrate its evaluation depends
//! on (tensor math, synthetic datasets, exact-backprop models, gradient
//! compressors, ring/torus/PS collectives, and an α–β network simulator).
//!
//! This facade re-exports each subsystem under a short module name; see
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured results of every table and figure.
//!
//! ## Quick start
//!
//! Train the MNIST proxy over an 8-worker ring with one-bit Marsit
//! synchronization, and compare the traffic against full-precision PSGD:
//!
//! ```
//! use marsit::prelude::*;
//!
//! let mut cfg = TrainConfig::new(
//!     Workload::AlexNetMnist,
//!     Topology::ring(4),
//!     StrategyKind::Marsit { k: Some(50) },
//! );
//! cfg.rounds = 30;
//! cfg.train_examples = 1024;
//! cfg.test_examples = 256;
//! let marsit_report = train(&cfg);
//!
//! cfg.strategy = StrategyKind::Psgd;
//! let psgd_report = train(&cfg);
//!
//! assert!(marsit_report.total_bytes * 10 < psgd_report.total_bytes);
//! ```
//!
//! ## Layout
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `marsit-core` | the `⊙` operator, compensation, Algorithm 1, Theorems 1–3 |
//! | [`trainsim`] | `marsit-trainsim` | training loop, six strategies, timing model |
//! | [`collectives`] | `marsit-collectives` | ring / torus / PS schedules with tracing |
//! | [`compress`] | `marsit-compress` | signSGD, EF-signSGD, SSDM, cascading, PowerSGD, Elias bit counts |
//! | [`models`] | `marsit-models` | MLP proxies with exact backprop, optimizers |
//! | [`datagen`] | `marsit-datagen` | synthetic MNIST/CIFAR/ImageNet/IMDb stand-ins |
//! | [`simnet`] | `marsit-simnet` | topologies, α–β link model, phase accounting |
//! | [`tensor`] | `marsit-tensor` | dense tensors, bit-packed sign vectors, RNG |
//! | [`telemetry`] | `marsit-telemetry` | deterministic event tracing, metrics, run reports |
//! | [`serve`] | `marsit-serve` | sharded multi-job scheduler with bit-exact migration |

pub use marsit_collectives as collectives;
pub use marsit_compress as compress;
pub use marsit_core as core;
pub use marsit_datagen as datagen;
pub use marsit_models as models;
pub use marsit_serve as serve;
pub use marsit_simnet as simnet;
pub use marsit_telemetry as telemetry;
pub use marsit_tensor as tensor;
pub use marsit_trainsim as trainsim;

/// The items needed by a typical experiment, importable in one line.
pub mod prelude {
    pub use marsit_collectives::{DegradedMode, SyncError, TopologyReconfigurer};
    pub use marsit_core::{Marsit, MarsitConfig, MarsitSnapshot, SyncSchedule};
    pub use marsit_datagen::synthetic::{cifar10_like, imagenet_like, imdb_like, mnist_like};
    pub use marsit_models::{Evaluation, Mlp, MlpSpec, OptimizerKind, Workload};
    pub use marsit_simnet::{
        Backend, FaultPlan, FaultStats, LinkModel, MembershipEvent, MembershipSchedule,
        PhaseBreakdown, RateProfile, Topology,
    };
    pub use marsit_telemetry::Telemetry;
    pub use marsit_tensor::{rng::FastRng, SignVec, Tensor};
    pub use marsit_trainsim::{
        train, StrategyKind, TrainConfig, TrainReport, TrainSnapshot, TrainerState,
    };
}
