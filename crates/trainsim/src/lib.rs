//! End-to-end distributed-training simulation for the Marsit reproduction.
//!
//! Ties the substrates together: synthetic datasets (`marsit_datagen`),
//! exact-backprop models (`marsit_models`), the six synchronization
//! strategies ([`StrategyKind`]), the collectives (`marsit_collectives`),
//! and the simulated clock (`marsit_simnet`). One [`train`] call reproduces
//! one cell of the paper's evaluation: accuracy trace, sign matching rate,
//! phase-time breakdown, and exact wire-bit accounting.
//!
//! # Examples
//!
//! Train the MNIST proxy with Marsit over an 8-worker ring:
//!
//! ```
//! use marsit_trainsim::{train, StrategyKind, TrainConfig};
//! use marsit_models::Workload;
//! use marsit_simnet::Topology;
//!
//! let mut cfg = TrainConfig::new(
//!     Workload::AlexNetMnist,
//!     Topology::ring(4),
//!     StrategyKind::Marsit { k: Some(50) },
//! );
//! cfg.rounds = 20;
//! cfg.train_examples = 1024;
//! cfg.test_examples = 256;
//! cfg.eval_every = 0; // final evaluation only
//! let report = train(&cfg);
//! assert!(!report.diverged);
//! assert_eq!(report.records.len(), 20);
//! ```

pub mod decentralized;
pub mod snapshot;
pub mod strategy;
pub mod timing;
pub mod trainer;

pub use decentralized::{train_gossip, GossipReport, GossipRound};
pub use snapshot::TrainSnapshot;
pub use strategy::{
    StrategyKind, SyncResult, Synchronizer, SynchronizerSnapshot, SynchronizerState,
};
pub use timing::TimingModel;
pub use trainer::{elements_per_round, train, RoundRecord, TrainConfig, TrainReport, TrainerState};
