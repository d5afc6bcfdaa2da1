//! Network and timing simulator for the Marsit reproduction.
//!
//! The paper's timing results come from a 32-node Huawei-Cloud cluster; this
//! crate substitutes an α–β (latency–bandwidth) simulation of that cluster —
//! see the substitution table in `DESIGN.md`. It provides:
//!
//! - [`Topology`]: ring (RAR), 2D torus (TAR), and star (PS) fabrics;
//! - [`LinkModel`] / [`RateProfile`]: per-link and per-node hardware rates;
//! - [`cost`]: closed-form collective costs (ring/torus all-reduce, PS
//!   exchange, variable-width hop schedules for bit-growing MAR payloads);
//! - [`PhaseBreakdown`]: the compute / compression / communication split
//!   that Figures 1a and 5 plot;
//! - [`fault`]: deterministic fault injection (drops, detected corruption,
//!   stragglers, crashes) with retry/timeout pricing under the α–β model.
//!
//! # Examples
//!
//! ```
//! use marsit_simnet::{cost, LinkModel, Topology};
//!
//! let link = LinkModel::new(25e-6, 1.25e9);
//! let fp32 = cost::allreduce_time(link, 23_000_000 * 4, Topology::ring(8));
//! let onebit = cost::allreduce_time(link, 23_000_000 / 8, Topology::ring(8));
//! assert!(onebit < fp32 / 20.0); // one-bit payload is ~32x smaller
//! ```

pub mod cost;
pub mod fabric;
pub mod fault;
pub mod link;
pub mod phase;
pub mod process;
pub mod topology;
pub mod transport;
pub mod wire;

pub use fabric::{spawn_child, ArgError, ChildArgs, Fabric, HubEvent};
pub use fault::{
    FaultInjector, FaultPlan, FaultStats, MembershipEvent, MembershipSchedule, TransferFate,
};
pub use link::{LinkModel, RateProfile};
pub use phase::PhaseBreakdown;
pub use process::{HubRelay, ProcessTransport, TraceCollector, WireHub};
pub use topology::Topology;
pub use transport::{Backend, Transport, TransportError};
pub use wire::{
    Frame, FrameKind, Payload, SharedBytes, TraceCtx, WireError, CTX_WIRE_BYTES, DRIVER,
};
