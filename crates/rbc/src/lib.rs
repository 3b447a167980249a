//! Message-level reliable broadcast on the torus: an explicit
//! message-passing runtime hosting Bracha's send/echo/ready protocol,
//! erasure-coded CTRBC, and a single-value flood baseline.
//!
//! The paper's engines count copies; this crate counts *messages*.
//! [`sim::RbcSim`] gives every directed edge of the torus a FIFO queue
//! — edge ids and their reverses are arithmetic on the
//! [`bftbcast_net::Topology`] stencil — delivers one wave at a time
//! under a pluggable [`schedule::DeliverySchedule`], and floods
//! protocol messages with per-id relay dedup so fully-connected
//! broadcast protocols run unchanged on an r-neighborhood torus.
//! [`engine::RbcEngine`] wraps the runtime behind
//! [`bftbcast_sim::SimEngine`], so rbc runs flow through the same
//! scenario files, cache keys, serve/store path, and federation as
//! every other engine.
//!
//! Two adversary axes are first-class: [`schedule::ScheduleKind`]
//! selects how the network reorders and defers delivery (from PR 9's
//! seeded permutation to delay-the-quorum and GST-style partial
//! synchrony), and [`behavior::ByzantineBehavior`] selects what faulty
//! nodes actively do (mute, equivocate, selective-send, stale-replay).
//!
//! [`merkle`] supplies the commitment scheme CTRBC's fragment echoes
//! carry (an FNV-1a tree — structural fidelity, no cryptographic
//! claims), and the fragment integrity layer reuses
//! [`bftbcast_coding::segment`]'s cascade.
//!
//! # Example
//!
//! ```
//! use bftbcast_net::Grid;
//! use bftbcast_rbc::{ByzantineBehavior, RbcConfig, RbcEngine, RbcProtocol, ScheduleKind};
//! use bftbcast_sim::SimEngine;
//!
//! let grid = Grid::new(15, 15, 1).unwrap();
//! let config = RbcConfig {
//!     protocol: RbcProtocol::Bracha,
//!     t: 1,
//!     payload_bits: 256,
//!     max_waves: 10_000,
//!     seed: 7,
//!     schedule: ScheduleKind::Seeded,
//!     behavior: ByzantineBehavior::Mute,
//! };
//! let mut engine = RbcEngine::new(grid, 0, &[], config);
//! let outcome = engine.run_to_completion();
//! assert!(outcome.as_rbc().unwrap().is_reliable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod engine;
pub mod merkle;
pub mod schedule;
pub mod sim;

pub use behavior::ByzantineBehavior;
pub use engine::RbcEngine;
pub use schedule::{DeliverySchedule, MsgClass, MsgView, ScheduleKind, MAX_DEFER_WAVES};
pub use sim::{RbcConfig, RbcProtocol, RbcSim};
