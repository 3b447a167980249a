//! The high-level builder API: describe a network + fault assumption
//! once, then run any of the paper's protocols against any adversary.
//!
//! A [`Scenario`] is the validated triple *(torus, fault parameters,
//! bad-node placement)*. The builder checks the model's side conditions
//! — a well-formed grid, the local bound `t` — at [`ScenarioBuilder::build`]
//! time, so every run method on the resulting scenario starts from a
//! legal configuration. The `run_*` methods cover the paper's protocol
//! family (B, the starved variant, Bheter, Breactive, the Koo
//! baseline) and the engines behind them; [`Scenario::counting_sim`]
//! and [`Scenario::agreement_sim`] hand back the engine itself for
//! per-node inspection.
//!
//! ```
//! use bftbcast::prelude::*;
//!
//! // Theorem 2 end to end: a 15x15 torus, one bad node per
//! // neighborhood, budget 50 each.
//! let scenario = Scenario::builder(15, 15, 1)
//!     .faults(1, 50)
//!     .lattice_placement()
//!     .build()
//!     .unwrap();
//!
//! // Protocol B at m = 2*m0 survives the strongest adversary...
//! assert!(scenario.run_protocol_b(Adversary::PerReceiverOracle).is_reliable());
//! // ...while budgets below m0 stall (Theorem 1).
//! let starved = scenario.run_starved(scenario.params().m0() - 1, Adversary::PerReceiverOracle);
//! assert!(!starved.is_complete());
//!
//! // Illegal configurations never build:
//! let err = Scenario::builder(15, 15, 1)
//!     .faults(1, 50)
//!     .explicit_placement(vec![16, 17, 18]) // three adjacent bad nodes
//!     .build()
//!     .unwrap_err();
//! assert!(matches!(err, ScenarioError::LocalBoundViolated { .. }));
//! ```
//!
//! The declarative twin of this module is [`crate::scenario_file`]:
//! the same configurations written as `*.scn` files and run in batch.

use core::fmt;

use bftbcast_adversary::{
    respects_local_bound, BernoulliPlacement, Chaos, GreedyFrontier, LatticePlacement, Passive,
    Placement, RandomPlacement, StripePlacement,
};
use bftbcast_net::{Cross, Grid, NetError, NodeId};
use bftbcast_protocols::reactive::ReactiveConfig;
use bftbcast_protocols::{CountingProtocol, Params};
use bftbcast_sim::metrics::{CountingOutcome, ReactiveOutcome};
use bftbcast_sim::slot::{ReactiveAdversary, SlotConfig, SlotSim};
use bftbcast_sim::CountingSim;

/// Errors from scenario construction — programmatic ([`ScenarioBuilder`])
/// or declarative (`*.scn` files, see [`crate::scenario_file`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// Invalid torus dimensions / radio range.
    Net(NetError),
    /// The requested placement violates the local bound `t`.
    LocalBoundViolated {
        /// Worst neighborhood load produced by the placement.
        worst: usize,
        /// The configured bound.
        t: u32,
    },
    /// Scenario-file text failed to parse (see [`crate::scn`]).
    Parse {
        /// 1-based line number of the offending text.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A scenario-file section or key outside the grammar — typically a
    /// typo; rejected rather than silently ignored.
    UnknownKey {
        /// Section name (`""` for the top level).
        section: String,
        /// The offending key (`""` when the section itself is unknown).
        key: String,
    },
    /// A semantically invalid scenario-file field, sweep axis, or
    /// combination.
    Invalid {
        /// What was being interpreted (`"sweep.m"`, `"placement.kind"`, …).
        what: String,
        /// Why it is invalid.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Net(e) => write!(f, "{e}"),
            ScenarioError::LocalBoundViolated { worst, t } => write!(
                f,
                "placement puts {worst} bad nodes in one neighborhood, exceeding t = {t}"
            ),
            ScenarioError::Parse { line, message } => {
                write!(f, "scenario parse error at line {line}: {message}")
            }
            ScenarioError::UnknownKey { section, key } if key.is_empty() => {
                write!(f, "unknown scenario section [{section}]")
            }
            ScenarioError::UnknownKey { section, key } if section.is_empty() => {
                write!(f, "unknown top-level scenario key {key:?}")
            }
            ScenarioError::UnknownKey { section, key } => {
                write!(f, "unknown key {key:?} in scenario section [{section}]")
            }
            ScenarioError::Invalid { what, message } => {
                write!(f, "invalid {what}: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<NetError> for ScenarioError {
    fn from(e: NetError) -> Self {
        ScenarioError::Net(e)
    }
}

impl From<crate::scn::ScnError> for ScenarioError {
    fn from(e: crate::scn::ScnError) -> Self {
        ScenarioError::Parse {
            line: e.line,
            message: e.message,
        }
    }
}

/// Adversary selection for counting-engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// No attacks.
    Passive,
    /// Physical global-budget adversary with the frontier-starving
    /// greedy strategy.
    Greedy,
    /// Physical global-budget adversary taking seeded random actions
    /// (fuzzing).
    Chaos(u64),
    /// The paper's per-receiver budget accounting (strictly stronger
    /// than any physical strategy; the model under which Theorems 1–3
    /// are proved). See `bftbcast_sim::counting` for the distinction.
    PerReceiverOracle,
}

enum PlacementChoice {
    None,
    Lattice { offset: u32 },
    Stripes(Vec<(u32, u32, bool)>),
    Random { count: usize, seed: u64 },
    Bernoulli { p: f64, seed: u64 },
    Explicit(Vec<NodeId>),
}

/// Builder for [`Scenario`].
pub struct ScenarioBuilder {
    width: u32,
    height: u32,
    r: u32,
    t: u32,
    mf: u64,
    source_xy: (u32, u32),
    placement: PlacementChoice,
}

impl ScenarioBuilder {
    /// Starts a builder for a `width × height` torus with radio range
    /// `r`. Defaults: `t = 1`, `mf = 1`, source at `(0, 0)`, no bad
    /// nodes.
    pub fn new(width: u32, height: u32, r: u32) -> Self {
        ScenarioBuilder {
            width,
            height,
            r,
            t: 1,
            mf: 1,
            source_xy: (0, 0),
            placement: PlacementChoice::None,
        }
    }

    /// Sets the fault assumption: at most `t` bad nodes per
    /// neighborhood, each with message budget `mf`.
    pub fn faults(mut self, t: u32, mf: u64) -> Self {
        self.t = t;
        self.mf = mf;
        self
    }

    /// Places the base station.
    pub fn source(mut self, x: u32, y: u32) -> Self {
        self.source_xy = (x, y);
        self
    }

    /// Figure 2's lattice placement: exactly `t` bad nodes in every
    /// neighborhood.
    pub fn lattice_placement(mut self) -> Self {
        self.placement = PlacementChoice::Lattice { offset: 1 };
        self
    }

    /// Lattice placement with an explicit residue-class offset — offset
    /// 41 at `r = 4` reproduces the exact per-node numbers of the
    /// paper's Figure 2 narrative (see EXP-F2).
    pub fn lattice_placement_with_offset(mut self, offset: u32) -> Self {
        self.placement = PlacementChoice::Lattice { offset };
        self
    }

    /// Theorem 1's stripe placement: each entry is `(y0, t,
    /// victims_above)` (see `StripePlacement`). On a torus a single
    /// stripe does not separate the network; pass two stripes of
    /// opposite orientation to isolate a band.
    pub fn stripe_placement(mut self, stripes: &[(u32, u32, bool)]) -> Self {
        self.placement = PlacementChoice::Stripes(stripes.to_vec());
        self
    }

    /// Random placement honoring the local bound.
    pub fn random_placement(mut self, count: usize, seed: u64) -> Self {
        self.placement = PlacementChoice::Random { count, seed };
        self
    }

    /// Probabilistic (iid) corruption at rate `p` — the model of the
    /// paper's stated future work (see
    /// `bftbcast_adversary::probabilistic`). Unlike
    /// [`ScenarioBuilder::random_placement`] this does **not** steer
    /// around the local bound: if the sampled placement overloads a
    /// neighborhood, [`ScenarioBuilder::build`] reports
    /// [`ScenarioError::LocalBoundViolated`] — which is the event the
    /// probabilistic analysis quantifies.
    pub fn bernoulli_placement(mut self, p: f64, seed: u64) -> Self {
        self.placement = PlacementChoice::Bernoulli { p, seed };
        self
    }

    /// An explicit list of bad nodes (validated against the local bound).
    pub fn explicit_placement(mut self, bad: Vec<NodeId>) -> Self {
        self.placement = PlacementChoice::Explicit(bad);
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Net`] for invalid grids,
    /// [`ScenarioError::Invalid`] for a lattice placement the torus does
    /// not fit, [`ScenarioError::LocalBoundViolated`] if the placement
    /// exceeds `t`.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let grid = Grid::new(self.width, self.height, self.r)?;
        let params = Params::new(self.r, self.t, self.mf);
        let source = grid.id_at(self.source_xy.0, self.source_xy.1);
        let bad_nodes = match self.placement {
            PlacementChoice::None => Vec::new(),
            PlacementChoice::Lattice { offset } => {
                let lattice = LatticePlacement { t: self.t, offset };
                if let Some(message) = lattice.misfit(self.width, self.height, self.r) {
                    let what = "placement".to_string();
                    return Err(ScenarioError::Invalid { what, message });
                }
                lattice.bad_nodes(&grid)
            }
            PlacementChoice::Stripes(stripes) => {
                let mut all = Vec::new();
                for (y0, t, victims_above) in stripes {
                    all.extend(
                        StripePlacement {
                            y0,
                            t,
                            victims_above,
                        }
                        .bad_nodes(&grid),
                    );
                }
                all.sort_unstable();
                all.dedup();
                all
            }
            PlacementChoice::Random { count, seed } => RandomPlacement {
                count,
                t: self.t,
                seed,
                source,
            }
            .bad_nodes(&grid),
            PlacementChoice::Bernoulli { p, seed } => {
                BernoulliPlacement { p, seed, source }.bad_nodes(&grid)
            }
            PlacementChoice::Explicit(bad) => bad,
        };
        let bad_nodes: Vec<NodeId> = bad_nodes.into_iter().filter(|&b| b != source).collect();
        let worst = bftbcast_adversary::max_bad_per_neighborhood(&grid, &bad_nodes);
        if worst > self.t as usize {
            return Err(ScenarioError::LocalBoundViolated { worst, t: self.t });
        }
        debug_assert!(respects_local_bound(&grid, &bad_nodes, self.t as usize));
        Ok(Scenario {
            grid,
            params,
            source,
            bad_nodes,
        })
    }
}

/// A network + fault assumption + bad-node placement, ready to run the
/// paper's protocols.
#[derive(Debug, Clone)]
pub struct Scenario {
    grid: Grid,
    params: Params,
    source: NodeId,
    bad_nodes: Vec<NodeId>,
}

impl Scenario {
    /// Starts a [`ScenarioBuilder`].
    pub fn builder(width: u32, height: u32, r: u32) -> ScenarioBuilder {
        ScenarioBuilder::new(width, height, r)
    }

    /// The torus.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The fault parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The base station.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The corrupted nodes.
    pub fn bad_nodes(&self) -> &[NodeId] {
        &self.bad_nodes
    }

    fn run_counting(&self, protocol: CountingProtocol, adversary: Adversary) -> CountingOutcome {
        let mut sim = CountingSim::new(
            self.grid.clone(),
            protocol,
            self.source,
            &self.bad_nodes,
            self.params.mf,
        );
        match adversary {
            Adversary::Passive => sim.run(&mut Passive),
            Adversary::Greedy => sim.run(&mut GreedyFrontier::default()),
            Adversary::Chaos(seed) => sim.run(&mut Chaos::new(seed)),
            Adversary::PerReceiverOracle => sim.run_oracle(self.params.mf),
        }
    }

    /// Runs **protocol B** (Theorem 2: homogeneous `m = 2·m0`).
    pub fn run_protocol_b(&self, adversary: Adversary) -> CountingOutcome {
        self.run_counting(
            CountingProtocol::protocol_b(&self.grid, self.params),
            adversary,
        )
    }

    /// Runs the budget-starved variant (`m` per node, all relayed) —
    /// the Theorem 1 / Figure 2 impossibility regime.
    pub fn run_starved(&self, m: u64, adversary: Adversary) -> CountingOutcome {
        self.run_counting(
            CountingProtocol::starved(&self.grid, self.params, m),
            adversary,
        )
    }

    /// Runs **Bheter** (Theorem 3) with the given cross-shaped
    /// high-budget region.
    pub fn run_heterogeneous(&self, cross: &Cross, adversary: Adversary) -> CountingOutcome {
        self.run_counting(
            CountingProtocol::heterogeneous(&self.grid, self.params, cross),
            adversary,
        )
    }

    /// Runs the Koo et al. (PODC'06) baseline (`m = 2·t·mf + 1` per
    /// node).
    pub fn run_koo_baseline(&self, adversary: Adversary) -> CountingOutcome {
        self.run_counting(
            CountingProtocol::koo_baseline(&self.grid, self.params),
            adversary,
        )
    }

    /// Runs the scenario under **majority acceptance** instead of the
    /// paper's threshold rule (the EXP-A3 ablation): every node has a
    /// send quota of `quorum` copies and accepts the leading value once
    /// `quorum` total copies arrive. Safe only for
    /// `quorum ≥ 2·t·mf + 1`; at the threshold rule's intake
    /// (`t·mf + 1`) the oracle forges acceptances.
    ///
    /// ```
    /// use bftbcast::prelude::*;
    /// let s = Scenario::builder(15, 15, 1)
    ///     .faults(1, 4)
    ///     .lattice_placement()
    ///     .build()
    ///     .unwrap();
    /// assert!(s.run_majority(9).is_reliable());       // 2*t*mf + 1
    /// assert!(!s.run_majority(5).is_correct());       // t*mf + 1: forged
    /// ```
    pub fn run_majority(&self, quorum: u64) -> CountingOutcome {
        let proto = CountingProtocol::starved(&self.grid, self.params, quorum);
        let mut sim = self.counting_sim(proto);
        sim.run_majority_oracle(self.params.mf, quorum)
    }

    /// Runs the scenario as a **hybrid fault load**: this scenario's
    /// bad nodes stay Byzantine (per-receiver oracle), and `crash`
    /// additionally marks crash-stop nodes with the given stop
    /// schedule, under protocol B budgets.
    ///
    /// # Panics
    ///
    /// Panics if `crash` overlaps the Byzantine set or the source.
    pub fn run_with_crashes(
        &self,
        crash: &[NodeId],
        behavior: bftbcast_sim::crash::CrashBehavior,
    ) -> CountingOutcome {
        let proto = CountingProtocol::protocol_b(&self.grid, self.params);
        let mut sim = self.counting_sim(proto).with_crash_nodes(crash, behavior);
        sim.run_oracle(self.params.mf)
    }

    /// Builds a source-neighborhood agreement engine for this
    /// scenario's source, using the scenario's bad nodes that fall
    /// inside `N(source)` as the colluders (bad nodes elsewhere cannot
    /// touch the agreement phase).
    pub fn agreement_sim(&self) -> bftbcast_sim::agreement::AgreementSim {
        let cfg = bftbcast_protocols::agreement::AgreementConfig::paper_margins(self.params);
        let colluders: Vec<NodeId> = self
            .bad_nodes
            .iter()
            .copied()
            .filter(|&b| self.grid.are_neighbors(self.source, b))
            .take(self.params.t as usize)
            .collect();
        bftbcast_sim::agreement::AgreementSim::new(self.grid.clone(), cfg, self.source, &colluders)
    }

    /// Runs **Breactive** (Theorem 4) on the slot engine: coded frames,
    /// NACK-driven local broadcast, certified propagation. `mmax` is the
    /// loose budget bound known to good nodes; `k` the payload width in
    /// bits; the real budget is the scenario's `mf`.
    pub fn run_reactive(
        &self,
        k: usize,
        mmax: u64,
        adversary: ReactiveAdversary,
        seed: u64,
    ) -> ReactiveOutcome {
        self.run_reactive_with_budget(k, mmax, adversary, seed, None)
    }

    /// [`Scenario::run_reactive`] with a hard per-good-node message cap
    /// (data + NACK frames): exhausted nodes fall silent. Pass
    /// Theorem 4's `2(t·mf+1)` message count to check the bound is
    /// *sufficient*, or less to inject under-provisioning failures.
    pub fn run_reactive_with_budget(
        &self,
        k: usize,
        mmax: u64,
        adversary: ReactiveAdversary,
        seed: u64,
        good_budget: Option<u64>,
    ) -> ReactiveOutcome {
        let config = SlotConfig {
            reactive: ReactiveConfig::paper(
                self.grid.node_count(),
                self.grid.range(),
                self.params.t,
                mmax,
                k,
            ),
            t: self.params.t,
            mf: self.params.mf,
            good_budget,
            adversary,
            max_rounds: 2_000_000,
            seed,
        };
        let mut sim = SlotSim::new(self.grid.clone(), self.source, &self.bad_nodes, config);
        sim.run()
    }

    /// Builds a counting engine for manual inspection (the Figure 2
    /// trace workflow): run it, then query per-node tallies.
    pub fn counting_sim(&self, protocol: CountingProtocol) -> CountingSim {
        CountingSim::new(
            self.grid.clone(),
            protocol,
            self.source,
            &self.bad_nodes,
            self.params.mf,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_local_bound() {
        // Three adjacent explicit bad nodes violate t = 1.
        let err = Scenario::builder(15, 15, 1)
            .faults(1, 5)
            .explicit_placement(vec![16, 17, 18])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::LocalBoundViolated { worst: 2.., t: 1 }
        ));
    }

    #[test]
    fn builder_rejects_bad_grid() {
        assert!(matches!(
            Scenario::builder(2, 2, 1).build(),
            Err(ScenarioError::Net(_))
        ));
    }

    #[test]
    fn source_is_filtered_from_placements() {
        let s = Scenario::builder(15, 15, 1)
            .faults(1, 5)
            .explicit_placement(vec![0, 20])
            .build()
            .unwrap();
        assert_eq!(s.bad_nodes(), &[20]);
    }

    #[test]
    fn end_to_end_protocol_b() {
        let s = Scenario::builder(15, 15, 1)
            .faults(1, 10)
            .lattice_placement()
            .build()
            .unwrap();
        for adv in [
            Adversary::Passive,
            Adversary::Greedy,
            Adversary::Chaos(3),
            Adversary::PerReceiverOracle,
        ] {
            let out = s.run_protocol_b(adv);
            assert!(out.is_reliable(), "{adv:?}: {}", out.coverage());
        }
    }

    #[test]
    fn end_to_end_reactive() {
        let s = Scenario::builder(15, 15, 1)
            .faults(1, 4)
            .random_placement(8, 9)
            .build()
            .unwrap();
        let out = s.run_reactive(8, 1 << 16, ReactiveAdversary::Jammer, 42);
        assert!(out.is_reliable(), "uncommitted: {:?}", out.uncommitted);
    }

    #[test]
    fn stripes_compose() {
        let s = Scenario::builder(15, 15, 1)
            .faults(1, 100)
            .stripe_placement(&[(4, 1, true), (11, 1, false)])
            .build()
            .unwrap();
        assert_eq!(s.bad_nodes().len(), 10);
    }

    #[test]
    fn hybrid_run_through_the_scenario_api() {
        use bftbcast_sim::crash::CrashBehavior;
        let s = Scenario::builder(20, 20, 2)
            .faults(1, 10)
            .lattice_placement()
            .build()
            .unwrap();
        let crash: Vec<NodeId> = (1..6)
            .map(|x| s.grid().id_at(x, 9))
            .filter(|u| !s.bad_nodes().contains(u))
            .collect();
        let out = s.run_with_crashes(&crash, CrashBehavior::Immediate);
        assert!(out.is_correct());
        assert!(out.is_complete(), "coverage {}", out.coverage());
    }

    #[test]
    fn agreement_through_the_scenario_api() {
        use bftbcast_sim::agreement::{SourceBehavior, SplitAttack};
        let s = Scenario::builder(15, 15, 2)
            .faults(1, 10)
            .source(7, 7)
            .explicit_placement(vec![Grid::new(15, 15, 2).unwrap().id_at(7, 8)])
            .build()
            .unwrap();
        let mut sim = s.agreement_sim();
        let out = sim.run(SourceBehavior::Correct, SplitAttack::strongest());
        assert!(out.validity_holds());
        assert!(out.agreement_holds());
    }

    #[test]
    fn bernoulli_placement_validates_the_bound() {
        // Low rate: builds; absurd rate: LocalBoundViolated.
        let ok = Scenario::builder(20, 20, 2)
            .faults(4, 5)
            .bernoulli_placement(0.005, 7)
            .build();
        assert!(ok.is_ok());
        let err = Scenario::builder(20, 20, 2)
            .faults(1, 5)
            .bernoulli_placement(0.5, 7)
            .build();
        assert!(matches!(err, Err(ScenarioError::LocalBoundViolated { .. })));
    }

    #[test]
    fn majority_run_through_the_scenario_api() {
        let s = Scenario::builder(15, 15, 1)
            .faults(1, 4)
            .lattice_placement()
            .build()
            .unwrap();
        let safe = s.run_majority(9);
        assert!(safe.is_reliable());
        let unsafe_run = s.run_majority(5);
        assert!(unsafe_run.wrong_accepts > 0);
    }
}
