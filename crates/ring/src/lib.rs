//! Decentralized ring-network substrate for the `privtopk` protocols.
//!
//! The paper's protocol (Section 3.2) "is designed to run over a
//! decentralized network with a ring topology" with four structural pieces:
//! the ring itself, a node-to-successor communication scheme, a local
//! computation module (provided by `privtopk-core`), and an initialization
//! module. This crate supplies everything below the protocol logic:
//!
//! - [`RingTopology`]: the random mapping of nodes onto ring positions,
//!   per-round remapping (the Section 4.3 collusion mitigation), and ring
//!   reconstruction after node failure.
//! - [`wire`]: the frame codec's traits and field codecs (tag byte, LEB128
//!   varints, compact sorted top-k vectors); the frame types live in
//!   `privtopk_core::messages`.
//! - [`transport`]: a [`transport::Transport`] abstraction with an
//!   in-memory crossbeam implementation, a single-thread FIFO for rings
//!   one thread drives, and a real TCP-loopback implementation.
//! - [`chaos`]: the one seeded fault injector (node outages, partitions,
//!   loss windows; a whole-run loss window is a uniformly lossy link),
//!   healed by [`faults::ReliableEndpoint`].
//! - [`TransportMetrics`]: message/byte counters backing the efficiency
//!   experiments.
//!
//! Channel confidentiality is out of scope. The paper only notes that
//! "encryption techniques can be used so that data are protected on the
//! communication channel", and its privacy analysis already treats the
//! successor, who reads every frame, as the adversary.
//!
//! # Example
//!
//! ```
//! use privtopk_ring::transport::{InMemoryNetwork, Transport};
//! use privtopk_domain::NodeId;
//! use bytes::Bytes;
//!
//! let net = InMemoryNetwork::new(3);
//! let mut endpoints = net.endpoints();
//! endpoints[0].send(NodeId::new(1), Bytes::from_static(b"token"))?;
//! let (from, frame) = endpoints[1].recv()?;
//! assert_eq!(from, NodeId::new(0));
//! assert_eq!(&frame[..], b"token");
//! # Ok::<(), privtopk_ring::RingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod error;
pub mod faults;
mod metrics;
mod topology;
pub mod transport;
pub mod trust;
pub mod wire;

pub use error::RingError;
pub use metrics::{MetricsSnapshot, TransportMetrics};
pub use topology::RingTopology;
