//! Toroidal grid radio-network substrate for Byzantine fault-tolerant
//! broadcast simulation.
//!
//! This crate implements the network model of Bertier, Kermarrec and Tan,
//! *"Message-Efficient Byzantine Fault-Tolerant Broadcast in a Multi-Hop
//! Wireless Sensor Network"* (ICDCS 2010):
//!
//! * a total of `n` nodes deployed on a unit grid, wrapped into a torus to
//!   avoid edge effects ([`Grid`]);
//! * every node has an integer transmission radius `r` under the
//!   **L∞ metric**, so a neighborhood is the `(2r+1) × (2r+1)` square
//!   centered at the node, minus the node itself —
//!   `(2r+1)² − 1 = 2·r·(2r+1)` neighbors ([`Grid::neighbors`]);
//! * transmissions follow a pre-determined collision-free time-slotted
//!   schedule ([`Schedule`]);
//! * every node has a finite message budget ([`Budget`]) — the property the
//!   paper's message-efficiency results revolve around;
//! * the neighborhood stencil as torus arithmetic ([`Topology`]):
//!   contiguous id runs, edge ids, membership and common neighbors
//!   from two per-axis wrap tables, the allocation-free fast path the
//!   simulation engines' hot loops run on (the naive [`Grid`]
//!   iterators remain as the property-test oracle);
//! * an active-frontier worklist ([`Worklist`]) plus the [`ScanMode`]
//!   flag: the sparse iteration kernel that lets the wave engines visit
//!   only the nodes whose neighborhood changed last wave, making
//!   per-wave cost proportional to the propagation front instead of the
//!   grid (the legacy dense scans stay available for differential
//!   testing).
//!
//! The crate is purely a *substrate*: it knows nothing about protocols or
//! adversaries. Those live in `bftbcast-protocols` and
//! `bftbcast-adversary`, and the two simulation engines in `bftbcast-sim`
//! drive everything.
//!
//! # Example
//!
//! ```
//! use bftbcast_net::{Grid, Value};
//!
//! // A 45×45 torus with radio range 4 (the Figure-2 setting of the paper).
//! let grid = Grid::new(45, 45, 4).unwrap();
//! assert_eq!(grid.node_count(), 45 * 45);
//! assert_eq!(grid.neighborhood_size(), (2 * 4 + 1) * (2 * 4 + 1) - 1);
//!
//! let origin = grid.id_at(0, 0);
//! assert_eq!(grid.neighbors(origin).count(), grid.neighborhood_size());
//! assert_eq!(Value::TRUE, Value::TRUE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod error;
mod frontier;
mod grid;
mod message;
mod region;
mod schedule;
mod topology;

pub use budget::Budget;
pub use error::NetError;
pub use frontier::{ScanMode, Worklist};
pub use grid::{Coord, Grid, NodeId};
pub use message::{NodeKind, Value};
pub use region::{Cross, Disc, Rect, Region, Stripe};
pub use schedule::Schedule;
pub use topology::Topology;
