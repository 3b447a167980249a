//! Convenience re-exports for typical use.
//!
//! ```
//! use bftbcast::prelude::*;
//! let p = Params::new(4, 1, 1000);
//! assert_eq!(p.m0(), 58);
//! ```

pub use crate::batch::{
    run_file, run_file_with, BatchOptions, BatchReport, PointResult, ProbeResult,
};
pub use crate::scenario::{Adversary, Scenario, ScenarioBuilder, ScenarioError};
pub use crate::scenario_file::{EngineKind, PointSpec, ScenarioFile};
pub use bftbcast_adversary::probabilistic::{
    critical_p, local_bound_holds_probability, BernoulliPlacement,
};
pub use bftbcast_net::{Budget, Cross, Disc, Grid, NodeId, Rect, Region, Schedule, Stripe, Value};
pub use bftbcast_protocols::agreement::{AgreementConfig, CONFLICT, DEFAULT_VALUE};
pub use bftbcast_protocols::bounds::{
    corollary1_max_tolerable_t, corollary1_min_defeating_t, reactive_max_t, theorem4_budget,
};
pub use bftbcast_protocols::{CountingProtocol, Params};
pub use bftbcast_sim::agreement::{AgreementSim, SourceBehavior, SplitAttack};
pub use bftbcast_sim::crash::{crash_only_protocol, crash_stripe, crash_threshold, CrashBehavior};
pub use bftbcast_sim::engine::{EngineOutcome, Probe, SimEngine};
pub use bftbcast_sim::metrics::{CountingOutcome, ReactiveOutcome};
pub use bftbcast_sim::runner::{sweep, Table};
pub use bftbcast_sim::slot::ReactiveAdversary;
pub use bftbcast_sim::CountingSim;
pub use bftbcast_viz::{CellStyle, GridMap, LineChart};
