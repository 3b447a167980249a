//! Simulation engines for message-bounded Byzantine broadcast.
//!
//! Two engines, sharing the `bftbcast-net` substrate:
//!
//! * [`counting`] — the **worst-case counting engine**: a deterministic
//!   wave-expansion simulator implementing exactly the per-receiver
//!   copy-counting used in the paper's proofs (Theorems 1–3, Figure 2).
//!   Transmissions carry multiplicities, the adversary spends collision
//!   budget through validated [`bftbcast_adversary::AttackPlan`]s, and
//!   acceptance is threshold-based. Its nodes are good, Byzantine or
//!   crash-stop ([`crash`]), so hybrid fault loads run in the same wave
//!   loop. Fast enough for full parameter sweeps (a 45×45 torus run is
//!   well under a millisecond).
//! * [`slot`] — the **slot-level discrete-event engine**: explicit TDMA
//!   message rounds, coded frames, collision superposition, NACKs and
//!   certified propagation — the Section 5 (`Breactive`) machinery,
//!   also used to cross-validate the counting engine on small
//!   configurations.
//!
//! A third engine builds on the same substrate: [`agreement`]
//! (source-neighborhood agreement under a faulty base station).
//!
//! [`engine`] puts one incremental [`SimEngine`] surface
//! (`prepare / step / outcome` over a shared
//! [`bftbcast_net::Topology`]) over all three engines — the contract the
//! declarative scenario runtime in the `bftbcast` crate drives.
//! [`runner`] adds seeded parameter sweeps parallelized with std
//! scoped threads, and [`metrics`] the outcome records the engines
//! produce. [`oracle`] is the differential harness for the frontier
//! kernel: it runs any engine's one step loop fed the frontier
//! ([`bftbcast_net::ScanMode::Frontier`]) and fed every node
//! ([`bftbcast_net::ScanMode::Dense`]) in lockstep, asserting per-step
//! state equality.
//!
//! # Example
//!
//! ```
//! use bftbcast_net::Grid;
//! use bftbcast_protocols::{CountingProtocol, Params};
//! use bftbcast_sim::CountingSim;
//!
//! let grid = Grid::new(15, 15, 1).unwrap();
//! let params = Params::new(1, 1, 10);
//! let protocol = CountingProtocol::protocol_b(&grid, params);
//! let mut sim = CountingSim::new(grid, protocol, 0, &[], params.mf);
//! let outcome = sim.run_oracle(params.mf);
//! assert!(outcome.is_reliable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
pub mod counting;
pub mod crash;
pub mod engine;
pub mod metrics;
pub mod oracle;
pub mod render;
pub mod runner;
pub mod slot;

pub use counting::CountingSim;
pub use engine::{EngineOutcome, Probe, SimEngine};
pub use metrics::{CountingOutcome, RbcOutcome, ReactiveOutcome};
pub use oracle::DenseOracle;
pub use slot::SlotSim;
