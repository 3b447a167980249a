//! **bftbcast** — message-efficient Byzantine fault-tolerant broadcast
//! for multi-hop wireless sensor networks.
//!
//! A from-scratch Rust reproduction of Bertier, Kermarrec and Tan,
//! *"Message-Efficient Byzantine Fault-Tolerant Broadcast in a Multi-Hop
//! Wireless Sensor Network"* (ICDCS 2010): the toroidal grid radio
//! model, the locally-bounded collision-capable adversary, the
//! message-budget bounds (`m0`, `2·m0`), protocols **B**, **Bheter**
//! and **Breactive**, the two-level AUED integrity code, and the
//! worst-case simulation machinery that regenerates every construction
//! in the paper.
//!
//! # Quickstart
//!
//! ```
//! use bftbcast::prelude::*;
//!
//! // A 15x15 torus with radio range 1; up to 1 Byzantine node per
//! // neighborhood, each with a budget of 50 messages.
//! let scenario = Scenario::builder(15, 15, 1)
//!     .faults(1, 50)
//!     .lattice_placement()
//!     .build()
//!     .unwrap();
//!
//! // Protocol B with the paper's sufficient budget m = 2*m0 survives
//! // the strongest (per-receiver oracle) adversary:
//! let outcome = scenario.run_protocol_b(Adversary::PerReceiverOracle);
//! assert!(outcome.is_reliable());
//!
//! // The same network with budgets below m0 stalls:
//! let m = scenario.params().m0() - 1;
//! let starved = scenario.run_starved(m, Adversary::PerReceiverOracle);
//! assert!(!starved.is_complete());
//! ```
//!
//! # Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`net`] | torus grid, L∞ neighborhoods, regions, TDMA schedules, budgets |
//! | [`coding`] | two-level AUED code and the sub-bit channel (Fig. 9) |
//! | [`geometry`] | exact committed-line/frontier verification (Lemmas 5–11) |
//! | [`adversary`] | bad-node placements and corruption strategies |
//! | [`protocols`] | bounds (`m0`, Corollary 1, Theorem 4) and protocol specs |
//! | [`sim`] | counting engine, slot engine, crash/hybrid engine, agreement engine, `SimEngine` trait, sweep runner |
//! | [`rbc`] | message-level runtime: flood baseline, Bracha RBC, erasure-coded CTRBC |
//! | [`viz`] | SVG torus maps and sweep charts |
//! | [`scenario`] | this crate's high-level builder API |
//! | [`spec`] | the canonical typed [`EngineSpec`]: builder, `.scn` ⇄ JSON codecs, identity = cache key |
//! | [`scn`] / [`scenario_file`] / [`batch`] | declarative `*.scn` scenario files and the batch runner |
//! | [`cache`] | content-addressed cache keys and the result codec over `bftbcast-store` |
//! | [`report`] | the report layer: sweep results → deterministic SVG maps and charts |
//!
//! # Declarative scenarios
//!
//! The same run can be described in a `*.scn` file (see
//! `docs/ARCHITECTURE.md` for the grammar) and executed — optionally
//! over a sweep grid — without writing Rust:
//!
//! ```
//! use bftbcast::batch::run_file;
//! use bftbcast::scenario_file::ScenarioFile;
//!
//! let file = ScenarioFile::parse(concat!(
//!     "[topology]\nside = 15\nr = 1\n",
//!     "[faults]\nt = 1\nmf = 50\n",
//!     "[placement]\nkind = \"lattice\"\n",
//! ))
//! .unwrap();
//! let report = run_file(&file).unwrap();
//! assert!(report.results[0].outcome.success());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bftbcast_adversary as adversary;
pub use bftbcast_coding as coding;
pub use bftbcast_geometry as geometry;
pub use bftbcast_net as net;
pub use bftbcast_protocols as protocols;
pub use bftbcast_rbc as rbc;
pub use bftbcast_sim as sim;
pub use bftbcast_viz as viz;

pub mod batch;
pub mod cache;
mod fields;
pub mod json;
pub mod prelude;
pub mod report;
pub mod scenario;
pub mod scenario_file;
pub mod scn;
pub mod spec;

pub use batch::{run_file, run_file_with, BatchOptions, BatchReport, PointResult};
pub use report::{Figure, FigureKind, ReportSpec};
pub use scenario::{Adversary, Scenario, ScenarioBuilder, ScenarioError};
pub use scenario_file::{EngineKind, PointSpec, ScenarioFile};
pub use spec::{EngineSpec, SpecBuilder};

/// Compiles the README's code blocks as doctests, so the embedding
/// examples there can never drift from the real API.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
