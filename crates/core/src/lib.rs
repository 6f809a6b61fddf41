//! The privacy-preserving top-k selection protocols of *"Topk Queries
//! across Multiple Private Databases"* (Xiong, Chitti, Liu — ICDCS 2005).
//!
//! Multiple organizations each hold a private database; they want the
//! global top-k values of a common attribute without a trusted third party
//! and without revealing their own values. The paper's protocol arranges
//! the `n > 2` parties on a randomly mapped ring and circulates a global
//! top-k vector for several rounds; in each round a node that would have
//! to reveal its data instead injects *bounded random noise* with a
//! probability `P_r(r) = p0 · d^(r−1)` that decays to zero, so the final
//! result is exact with probability arbitrarily close to 1 while no single
//! message provably exposes any node's data.
//!
//! # Crate layout
//!
//! - [`local`]: Algorithm 1 (max) and Algorithm 2 (top-k), as pure
//!   functions.
//! - [`Schedule`]: the randomization-probability schedules (Equation 2
//!   plus ablation variants).
//! - [`ProtocolConfig`]: query parameters, round policies, start policies.
//! - [`SimulationEngine`]: deterministic in-process execution producing a
//!   full [`Transcript`] of intermediate results.
//! - [`distributed`]: the same protocol over a wire: node workers on one
//!   thread passing frames through an in-memory FIFO, or one thread per
//!   node over TCP loopback or the lossy and chaos in-process networks.
//! - [`service`]: the persistent service runtime — long-lived node
//!   workers answering a stream of queries over one standing ring, with
//!   a pipelined scheduler keeping several queries in flight at once.
//! - [`groups`]: the Section 4.2 group-parallel scaling optimization.
//!
//! # Quickstart
//!
//! ```
//! use privtopk_core::{ProtocolConfig, RoundPolicy, SimulationEngine};
//! use privtopk_domain::Value;
//!
//! // Four competing retailers, one private sales total each.
//! let sales = [3200i64, 1100, 4800, 2700].map(Value::new);
//! let engine = SimulationEngine::new(
//!     ProtocolConfig::max().with_rounds(RoundPolicy::Precision { epsilon: 1e-6 }),
//! );
//! let transcript = engine.run_values(&sales, 42)?;
//! assert_eq!(transcript.result_value(), Value::new(4800));
//! # Ok::<(), privtopk_core::ProtocolError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod audit;
mod batch;
mod config;
pub mod distributed;
mod engine;
mod error;
pub mod groups;
pub mod latency;
pub mod local;
mod messages;
mod node;
mod schedule;
pub mod service;
mod transcript;

pub use batch::{derive_batch_seed, BatchJob};
pub use config::{AlgorithmKind, ProtocolConfig, RoundPolicy, StartPolicy};
pub use engine::{run_simulated_batch, run_simulated_batch_traced, true_topk, SimulationEngine};
pub use error::ProtocolError;
pub use messages::{BatchMessage, SlotMessage, TokenMessage, MAX_BATCH_ENTRIES};
pub use schedule::Schedule;
pub use service::{
    QueryObserver, QueryTicket, ServiceOutcome, ServiceRuntime, ServiceStats, ServiceStatsHandle,
};
pub use transcript::{StepRecord, Transcript};

/// Chaos scenario types, re-exported from the ring substrate so service
/// embedders can build plans without a direct `privtopk-ring` dependency.
pub use privtopk_ring::chaos::{
    ChaosEvent, ChaosIncident, ChaosPlan, ChaosState, DEFAULT_HEAL_BUDGET,
};
