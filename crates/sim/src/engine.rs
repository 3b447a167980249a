//! The unified engine surface: one `prepare / step / outcome` contract
//! over every simulation engine.
//!
//! Each engine in this crate grew its own entry points — the counting
//! engine's strategy and oracle runs (crash loads included), the slot
//! engine's round loop, the agreement engine's three phases. [`SimEngine`] puts one incremental surface over all of them
//! so generic machinery (the scenario batch runner in `bftbcast`, the
//! CLI, future schedulers) can drive any engine without knowing which
//! one it holds:
//!
//! * [`SimEngine::prepare`] — (re)initialize a run from the engine's
//!   configuration;
//! * [`SimEngine::step`] — advance one scheduling unit (a wave, a
//!   message round, an agreement phase); `false` means the run is over;
//! * [`SimEngine::outcome`] — the run's result as an [`EngineOutcome`];
//! * [`SimEngine::probe`] — per-node tally inspection where the engine
//!   supports it (the Figure 2 trace workflow).
//!
//! Stepping is genuine, not a facade: the wrappers drive the engines'
//! resumable `begin_* / step_*` APIs, so a caller can interleave many
//! engines, render progress mid-run, or stop early.
//!
//! # Example
//!
//! ```
//! use bftbcast_net::Grid;
//! use bftbcast_protocols::{CountingProtocol, Params};
//! use bftbcast_sim::engine::{CountingDrive, CountingEngine, SimEngine};
//! use bftbcast_sim::CountingSim;
//!
//! let grid = Grid::new(15, 15, 1).unwrap();
//! let params = Params::new(1, 1, 10);
//! let proto = CountingProtocol::protocol_b(&grid, params);
//! let sim = CountingSim::new(grid, proto, 0, &[], params.mf);
//! let mut engine = CountingEngine::new(sim, params.mf, CountingDrive::Oracle);
//!
//! // Drive wave by wave — or use run_to_completion() for the loop.
//! engine.prepare();
//! let mut waves = 0;
//! while engine.step() {
//!     waves += 1;
//! }
//! assert!(engine.outcome().success());
//! assert!(waves >= 7, "a 15x15 torus takes several waves");
//! ```

use bftbcast_adversary::{Chaos, CorruptionStrategy, GreedyFrontier, Passive};
use bftbcast_net::{NodeId, ScanMode, Topology, Value};

use crate::agreement::{AgreementOutcome, AgreementSim, SourceBehavior, SplitAttack};
use crate::counting::{AttackRun, CountingSim, OracleRun};
use crate::metrics::{CountingOutcome, RbcOutcome, ReactiveOutcome};
use crate::slot::{SlotRun, SlotSim};

/// The uniform incremental surface over every simulation engine.
///
/// Contract: [`SimEngine::prepare`] starts (or restarts) a run;
/// [`SimEngine::step`] advances one scheduling unit and reports whether
/// more work remains (a `step` without a `prepare` prepares first);
/// [`SimEngine::outcome`] is final once `step` has returned `false`.
pub trait SimEngine {
    /// The precomputed neighborhood topology the engine runs on.
    fn topology(&self) -> &Topology;

    /// (Re)initializes the run from the engine's configuration,
    /// discarding any previous run's state. The counting engine (which
    /// also runs crash loads) runs its simulator as built on the first
    /// call and resets it in place on later ones, so a re-prepare allocates no second
    /// copy of the per-node state; the slot and rbc engines rebuild
    /// theirs (they own a seeded RNG).
    fn prepare(&mut self);

    /// Advances one scheduling unit (wave / round / phase). Returns
    /// `false` once the run is over.
    fn step(&mut self) -> bool;

    /// The run's aggregate result (partial until `step` returns
    /// `false`).
    fn outcome(&self) -> EngineOutcome;

    /// Per-node tallies. Every engine answers for the nodes it tracks:
    /// the counting engine for all nodes, the slot engine
    /// for good nodes (`None` at Byzantine cells), the agreement engine
    /// for neighborhood members once the run finished. The exact
    /// meaning of each [`Probe`] field per engine is documented on
    /// [`Probe`].
    fn probe(&self, u: NodeId) -> Option<Probe> {
        let _ = u;
        None
    }

    /// Selects frontier or every-node iteration (see [`ScanMode`]).
    /// Both modes run the same step loop and are bit-identical in
    /// outcomes and probes; `Dense` feeds the loop every node and
    /// cross-checks the engine's incremental bookkeeping. Call before
    /// [`SimEngine::prepare`]; the mode persists across re-prepares.
    /// Engines without a worklist (the agreement engine is already
    /// neighborhood-local) ignore it.
    fn set_scan_mode(&mut self, mode: ScanMode) {
        let _ = mode;
    }

    /// Prepares and steps to fixpoint, returning the final outcome.
    fn run_to_completion(&mut self) -> EngineOutcome {
        self.prepare();
        while self.step() {}
        self.outcome()
    }
}

/// Outcome of any [`SimEngine`] run.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineOutcome {
    /// A counting-engine run (crash loads included).
    Counting(CountingOutcome),
    /// A slot-engine (`Breactive`) run.
    Reactive(ReactiveOutcome),
    /// A source-neighborhood agreement run.
    Agreement(AgreementOutcome),
    /// A message-level reliable-broadcast run (`bftbcast-rbc`).
    Rbc(RbcOutcome),
}

impl EngineOutcome {
    /// Whether the run met its engine's headline goal: reliable
    /// broadcast (counting/crash/slot) or validity + agreement
    /// (agreement engine).
    pub fn success(&self) -> bool {
        match self {
            EngineOutcome::Counting(o) => o.is_reliable(),
            EngineOutcome::Reactive(o) => o.is_reliable(),
            EngineOutcome::Agreement(o) => o.validity_holds() && o.agreement_holds(),
            EngineOutcome::Rbc(o) => o.is_reliable(),
        }
    }

    /// Fraction of participants that reached the correct result:
    /// good-node coverage for the broadcast engines, the modal-decision
    /// fraction for the agreement engine (1.0 when all members agree).
    pub fn coverage(&self) -> f64 {
        match self {
            EngineOutcome::Counting(o) => o.coverage(),
            EngineOutcome::Reactive(o) => o.coverage(),
            EngineOutcome::Agreement(o) => {
                if o.decisions.is_empty() {
                    return 0.0;
                }
                let mut counts: Vec<(Value, usize)> = Vec::new();
                for &(_, v) in &o.decisions {
                    match counts.iter_mut().find(|(w, _)| *w == v) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((v, 1)),
                    }
                }
                let top = counts.iter().map(|&(_, n)| n).max().unwrap_or(0);
                top as f64 / o.decisions.len() as f64
            }
            EngineOutcome::Rbc(o) => o.coverage(),
        }
    }

    /// The counting outcome, if this run came from a counting-family
    /// engine.
    pub fn as_counting(&self) -> Option<&CountingOutcome> {
        match self {
            EngineOutcome::Counting(o) => Some(o),
            _ => None,
        }
    }

    /// The reactive outcome, if this run came from the slot engine.
    pub fn as_reactive(&self) -> Option<&ReactiveOutcome> {
        match self {
            EngineOutcome::Reactive(o) => Some(o),
            _ => None,
        }
    }

    /// The agreement outcome, if this run came from the agreement
    /// engine.
    pub fn as_agreement(&self) -> Option<&AgreementOutcome> {
        match self {
            EngineOutcome::Agreement(o) => Some(o),
            _ => None,
        }
    }

    /// The reliable-broadcast outcome, if this run came from the
    /// message-level rbc engine.
    pub fn as_rbc(&self) -> Option<&RbcOutcome> {
        match self {
            EngineOutcome::Rbc(o) => Some(o),
            _ => None,
        }
    }
}

/// Per-node tallies exposed by [`SimEngine::probe`] — the quantities
/// the Figure 2 narrative reads off node by node.
///
/// Per engine: the counting/crash engines report delivered copies
/// (correct vs corrupted) and the accepted value; the slot engine
/// reports delivered data frames (decoding to the broadcast value vs
/// anything else) and the committed value; the agreement engine
/// reports members agreeing/disagreeing with this member's decision;
/// the rbc engine additionally reports its protocol phase and the
/// equivocation evidence it observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Probe {
    /// Correct copies delivered so far (agreement engine: members
    /// deciding the same value as this one, itself included).
    pub tally_true: u64,
    /// Corrupted copies delivered so far (agreement engine: members
    /// deciding a different value).
    pub tally_wrong: u64,
    /// Neighbors that accepted/committed `Vtrue` (agreement engine:
    /// neighbors that decided anything).
    pub decided_neighbors: usize,
    /// The value this node accepted/committed/decided, if any.
    pub accepted: Option<Value>,
    /// Protocol progress phase — rbc engine: 0 idle, 1 echoed,
    /// 2 readied, 3 delivered (diagnoses where a wave-capped run
    /// stalled); 0 for every other engine.
    pub phase: u64,
    /// Equivocation evidence observed at this node (cross-variant
    /// messages and double votes) — rbc engine only, 0 elsewhere.
    pub conflicts: u64,
}

impl Probe {
    /// Total copies delivered (correct + corrupted) — Figure 2's
    /// "intake" quantity.
    pub fn intake(&self) -> u64 {
        self.tally_true + self.tally_wrong
    }
}

// ---------------------------------------------------------------------
// Counting engine
// ---------------------------------------------------------------------

/// Which adversary drives a [`CountingEngine`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountingDrive {
    /// The paper's per-receiver budget accounting
    /// ([`CountingSim::run_oracle`]).
    Oracle,
    /// Per-receiver oracle under majority acceptance at this quorum
    /// ([`CountingSim::run_majority_oracle`]).
    Majority {
        /// Total copies (correct or corrupted) needed to decide.
        quorum: u64,
    },
    /// No attacks.
    Passive,
    /// Physical global budgets, frontier-starving greedy strategy.
    Greedy,
    /// Physical global budgets, seeded random actions.
    Chaos(u64),
}

enum CountingState {
    Idle,
    Oracle(OracleRun),
    Attack(AttackRun, Box<dyn CorruptionStrategy>),
}

/// [`SimEngine`] over the worst-case counting engine (and, via
/// [`CountingDrive`], every adversary model it supports). A crash load
/// ([`CountingSim::with_crash_nodes`]) runs on the
/// [`CountingDrive::Oracle`] drive.
///
/// The engine holds one simulator: the first `prepare` runs it as
/// built, and every later one [`reset`](CountingSim::reset)s it in
/// place.
pub struct CountingEngine {
    live: CountingSim,
    mf: u64,
    drive: CountingDrive,
    state: CountingState,
}

impl CountingEngine {
    /// Wraps a configured engine. `mf` is the per-(bad node, receiver)
    /// capacity used by the oracle drives.
    pub fn new(sim: CountingSim, mf: u64, drive: CountingDrive) -> Self {
        CountingEngine {
            live: sim,
            mf,
            drive,
            state: CountingState::Idle,
        }
    }

    /// The live engine, for inspection beyond [`SimEngine::probe`].
    pub fn sim(&self) -> &CountingSim {
        &self.live
    }
}

impl SimEngine for CountingEngine {
    fn topology(&self) -> &Topology {
        self.live.topology()
    }

    fn prepare(&mut self) {
        if !matches!(self.state, CountingState::Idle) {
            self.live.reset();
        }
        self.state = match self.drive {
            CountingDrive::Oracle => CountingState::Oracle(self.live.begin_oracle(self.mf)),
            CountingDrive::Majority { quorum } => {
                CountingState::Oracle(self.live.begin_majority_oracle(self.mf, quorum))
            }
            CountingDrive::Passive => {
                CountingState::Attack(self.live.begin_attack(), Box::new(Passive))
            }
            CountingDrive::Greedy => CountingState::Attack(
                self.live.begin_attack(),
                Box::new(GreedyFrontier::default()),
            ),
            CountingDrive::Chaos(seed) => {
                CountingState::Attack(self.live.begin_attack(), Box::new(Chaos::new(seed)))
            }
        };
    }

    fn step(&mut self) -> bool {
        if matches!(self.state, CountingState::Idle) {
            self.prepare();
        }
        match &mut self.state {
            CountingState::Idle => unreachable!("prepared above"),
            CountingState::Oracle(run) => self.live.step_oracle(run),
            CountingState::Attack(run, strategy) => self.live.step_attack(run, strategy.as_mut()),
        }
    }

    fn outcome(&self) -> EngineOutcome {
        EngineOutcome::Counting(self.live.outcome())
    }

    fn probe(&self, u: NodeId) -> Option<Probe> {
        Some(Probe {
            tally_true: self.live.tally_true(u),
            tally_wrong: self.live.tally_wrong(u),
            decided_neighbors: self.live.decided_neighbors(u),
            accepted: self.live.accepted(u),
            ..Probe::default()
        })
    }

    fn set_scan_mode(&mut self, mode: ScanMode) {
        self.live.set_scan_mode(mode);
    }
}

// ---------------------------------------------------------------------
// Slot engine
// ---------------------------------------------------------------------

/// [`SimEngine`] over the slot-level `Breactive` engine. The slot
/// engine owns a seeded RNG, so `prepare` rebuilds it from the stored
/// construction parameters instead of resetting in place.
pub struct SlotEngine {
    grid: bftbcast_net::Grid,
    source: NodeId,
    bad_nodes: Vec<NodeId>,
    config: crate::slot::SlotConfig,
    scan: ScanMode,
    live: SlotSim,
    state: Option<SlotRun>,
}

impl SlotEngine {
    /// Builds the engine; same arguments as [`SlotSim::new`].
    pub fn new(
        grid: bftbcast_net::Grid,
        source: NodeId,
        bad_nodes: &[NodeId],
        config: crate::slot::SlotConfig,
    ) -> Self {
        SlotEngine {
            live: SlotSim::new(grid.clone(), source, bad_nodes, config),
            grid,
            source,
            bad_nodes: bad_nodes.to_vec(),
            config,
            scan: ScanMode::default(),
            state: None,
        }
    }

    /// The live engine, for inspection beyond the outcome.
    pub fn sim(&self) -> &SlotSim {
        &self.live
    }
}

impl SimEngine for SlotEngine {
    fn topology(&self) -> &Topology {
        self.live.topology()
    }

    fn prepare(&mut self) {
        self.live = SlotSim::new(self.grid.clone(), self.source, &self.bad_nodes, self.config);
        self.live.set_scan_mode(self.scan);
        self.state = Some(self.live.begin_rounds());
    }

    fn step(&mut self) -> bool {
        if self.state.is_none() {
            self.prepare();
        }
        let run = self.state.as_mut().expect("prepared above");
        self.live.step_round(run)
    }

    fn outcome(&self) -> EngineOutcome {
        EngineOutcome::Reactive(self.live.outcome())
    }

    fn probe(&self, u: NodeId) -> Option<Probe> {
        let (tally_true, tally_wrong) = self.live.tallies(u)?;
        Some(Probe {
            tally_true,
            tally_wrong,
            decided_neighbors: self.live.committed_neighbors(u),
            accepted: self.live.committed(u),
            ..Probe::default()
        })
    }

    fn set_scan_mode(&mut self, mode: ScanMode) {
        // Stored so `prepare`'s rebuild re-applies it.
        self.scan = mode;
        self.live.set_scan_mode(mode);
    }
}

// ---------------------------------------------------------------------
// Agreement engine
// ---------------------------------------------------------------------

/// Which agreement protocol a [`AgreementEngine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgreementMode {
    /// The cheap three-phase propose/echo/confirm protocol.
    Cheap,
    /// The proven vector mode (deterministic agreement at a
    /// `Θ((2r+1)²)` cost multiplier).
    Proven,
}

enum AgreementState {
    Idle,
    Start,
    Proposed(Vec<(NodeId, Value)>),
    Echoed {
        proposals: Vec<(NodeId, Value)>,
        aggregates: Vec<(NodeId, Value)>,
    },
    Done(AgreementOutcome),
}

/// [`SimEngine`] over the source-neighborhood agreement engine; each
/// step is one protocol phase.
pub struct AgreementEngine {
    template: AgreementSim,
    live: AgreementSim,
    source: SourceBehavior,
    attack: SplitAttack,
    mode: AgreementMode,
    transmissions: Vec<(Value, u64)>,
    state: AgreementState,
}

impl AgreementEngine {
    /// Wraps a configured engine with the run's source behavior and
    /// colluder schedule.
    pub fn new(
        sim: AgreementSim,
        source: SourceBehavior,
        attack: SplitAttack,
        mode: AgreementMode,
    ) -> Self {
        AgreementEngine {
            template: sim.clone(),
            live: sim,
            source,
            attack,
            mode,
            transmissions: Vec::new(),
            state: AgreementState::Idle,
        }
    }
}

impl SimEngine for AgreementEngine {
    fn topology(&self) -> &Topology {
        self.live.topology()
    }

    fn prepare(&mut self) {
        self.live = self.template.clone();
        self.transmissions = self.live.validate_inputs(&self.source, self.attack);
        if self.mode == AgreementMode::Proven {
            use bftbcast_protocols::agreement::proven_max_t;
            let p = self.live.config().params;
            assert!(
                u64::from(p.t) <= proven_max_t(p.r),
                "t = {} exceeds the proven-mode bound {} at r = {}",
                p.t,
                proven_max_t(p.r),
                p.r
            );
        }
        self.state = AgreementState::Start;
    }

    fn step(&mut self) -> bool {
        if matches!(self.state, AgreementState::Idle) {
            self.prepare();
        }
        let state = std::mem::replace(&mut self.state, AgreementState::Idle);
        let source_correct = self.source == SourceBehavior::Correct;
        match state {
            AgreementState::Idle => unreachable!("prepared above"),
            AgreementState::Start => {
                let proposals = self.live.propose_phase(&self.transmissions, self.attack);
                self.state = AgreementState::Proposed(proposals);
                true
            }
            AgreementState::Proposed(proposals) => match self.mode {
                AgreementMode::Cheap => {
                    let aggregates = self.live.echo_phase(&proposals, self.attack);
                    self.state = AgreementState::Echoed {
                        proposals,
                        aggregates,
                    };
                    true
                }
                AgreementMode::Proven => {
                    let decisions = self.live.vector_phase(&proposals, self.attack);
                    self.state = AgreementState::Done(AgreementOutcome {
                        decisions,
                        source_correct,
                        aggregates: proposals.clone(),
                        proposals,
                    });
                    false
                }
            },
            AgreementState::Echoed {
                proposals,
                aggregates,
            } => {
                let decisions = self.live.confirm_phase(&aggregates, self.attack);
                self.state = AgreementState::Done(AgreementOutcome {
                    decisions,
                    source_correct,
                    proposals,
                    aggregates,
                });
                false
            }
            AgreementState::Done(out) => {
                self.state = AgreementState::Done(out);
                false
            }
        }
    }

    fn outcome(&self) -> EngineOutcome {
        let out = match &self.state {
            AgreementState::Done(out) => out.clone(),
            // Partial: phases still pending decide nothing yet.
            _ => AgreementOutcome {
                decisions: Vec::new(),
                source_correct: self.source == SourceBehavior::Correct,
                proposals: Vec::new(),
                aggregates: Vec::new(),
            },
        };
        EngineOutcome::Agreement(out)
    }

    fn probe(&self, u: NodeId) -> Option<Probe> {
        let AgreementState::Done(out) = &self.state else {
            return None;
        };
        let &(_, decided) = out.decisions.iter().find(|&&(w, _)| w == u)?;
        let same = out.decisions.iter().filter(|&&(_, v)| v == decided).count();
        let decided_neighbors = out
            .decisions
            .iter()
            .filter(|&&(w, _)| w != u && self.live.topology().contains(u, w))
            .count();
        Some(Probe {
            tally_true: same as u64,
            tally_wrong: (out.decisions.len() - same) as u64,
            decided_neighbors,
            accepted: Some(decided),
            ..Probe::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{crash_stripe, CrashBehavior};
    use crate::slot::{ReactiveAdversary, SlotConfig};
    use bftbcast_adversary::{LatticePlacement, Placement};
    use bftbcast_net::Grid;
    use bftbcast_protocols::agreement::AgreementConfig;
    use bftbcast_protocols::{CountingProtocol, Params};

    fn counting_fixture(drive: CountingDrive) -> CountingEngine {
        let grid = Grid::new(15, 15, 1).unwrap();
        let p = Params::new(1, 1, 4);
        let proto = CountingProtocol::protocol_b(&grid, p);
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        let sim = CountingSim::new(grid, proto, 0, &bad, p.mf);
        CountingEngine::new(sim, p.mf, drive)
    }

    #[test]
    fn counting_engine_matches_direct_run_per_drive() {
        for drive in [
            CountingDrive::Oracle,
            CountingDrive::Passive,
            CountingDrive::Greedy,
            CountingDrive::Chaos(7),
            CountingDrive::Majority { quorum: 9 },
        ] {
            let mut engine = counting_fixture(drive);
            let stepped = engine.run_to_completion();
            let stepped = stepped.as_counting().expect("counting outcome");

            let grid = Grid::new(15, 15, 1).unwrap();
            let p = Params::new(1, 1, 4);
            let proto = CountingProtocol::protocol_b(&grid, p);
            let bad = LatticePlacement::new(1).bad_nodes(&grid);
            let mut direct = CountingSim::new(grid, proto, 0, &bad, p.mf);
            let expected = match drive {
                CountingDrive::Oracle => direct.run_oracle(p.mf),
                CountingDrive::Majority { quorum } => direct.run_majority_oracle(p.mf, quorum),
                CountingDrive::Passive => direct.run(&mut Passive),
                CountingDrive::Greedy => direct.run(&mut GreedyFrontier::default()),
                CountingDrive::Chaos(seed) => direct.run(&mut Chaos::new(seed)),
            };
            assert_eq!(*stepped, expected, "{drive:?}");
        }
    }

    /// Everything a run leaves behind: the outcome, then every node's
    /// probe and acceptance wave.
    type Snapshot = (EngineOutcome, Vec<(Option<Probe>, Option<usize>)>);

    fn snapshot<E: SimEngine>(engine: &E, wave: impl Fn(&E, NodeId) -> Option<usize>) -> Snapshot {
        let nodes = (0..engine.topology().node_count())
            .map(|u| (engine.probe(u), wave(engine, u)))
            .collect();
        (engine.outcome(), nodes)
    }

    /// Three back-to-back runs of one engine, and a run followed by a
    /// dense-scan run of another, all equal a fresh engine's first run.
    fn assert_reprepare_is_fresh<E: SimEngine>(
        build: impl Fn() -> E,
        wave: impl Fn(&E, NodeId) -> Option<usize> + Copy,
        what: &str,
    ) {
        let mut fresh = build();
        fresh.run_to_completion();
        let expected = snapshot(&fresh, wave);
        let mut engine = build();
        for run in 0..3 {
            engine.run_to_completion();
            assert_eq!(snapshot(&engine, wave), expected, "{what}: run {run}");
        }
        let mut engine = build();
        engine.run_to_completion();
        engine.set_scan_mode(ScanMode::Dense);
        engine.run_to_completion();
        assert_eq!(snapshot(&engine, wave), expected, "{what}: dense re-run");
    }

    #[test]
    fn prepare_resets_for_a_fresh_identical_run() {
        let wave = |e: &CountingEngine, u| e.sim().accepted_wave(u);
        for drive in [
            CountingDrive::Oracle,
            CountingDrive::Majority { quorum: 9 },
            CountingDrive::Passive,
            CountingDrive::Greedy,
            CountingDrive::Chaos(7),
        ] {
            assert_reprepare_is_fresh(|| counting_fixture(drive), wave, &format!("{drive:?}"));
        }
    }

    #[test]
    fn crash_engine_prepare_resets_for_a_fresh_identical_run() {
        let grid = Grid::new(20, 20, 2).unwrap();
        let p = Params::new(2, 1, 10);
        let proto = CountingProtocol::protocol_b(&grid, p);
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        let dead: Vec<NodeId> = crash_stripe(&grid, 9, 1)
            .into_iter()
            .filter(|u| !bad.contains(u) && *u != 0)
            .collect();
        let build = || {
            let sim = CountingSim::new(grid.clone(), proto.clone(), 0, &bad, p.mf)
                .with_crash_nodes(&dead, CrashBehavior::AfterCopies(1));
            CountingEngine::new(sim, p.mf, CountingDrive::Oracle)
        };
        let wave = |e: &CountingEngine, u| e.sim().accepted_wave(u);
        assert_reprepare_is_fresh(build, wave, "crash");
    }

    #[test]
    fn counting_probe_reports_tallies() {
        let mut engine = counting_fixture(CountingDrive::Oracle);
        engine.run_to_completion();
        let good = (1..engine.topology().node_count())
            .find(|&u| engine.sim().is_good(u))
            .expect("some good node");
        let probe = engine.probe(good).expect("counting engines probe");
        assert!(probe.intake() > 0);
        assert_eq!(probe.accepted, Some(Value::TRUE));
    }

    #[test]
    fn crash_engine_matches_direct_run() {
        let grid = Grid::new(20, 20, 2).unwrap();
        let p = Params::new(2, 1, 10);
        let proto = CountingProtocol::protocol_b(&grid, p);
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        let dead: Vec<NodeId> = crash_stripe(&grid, 9, 1)
            .into_iter()
            .filter(|u| !bad.contains(u) && *u != 0)
            .collect();
        let build = || {
            CountingSim::new(grid.clone(), proto.clone(), 0, &bad, p.mf)
                .with_crash_nodes(&dead, CrashBehavior::Immediate)
        };
        let mut engine = CountingEngine::new(build(), p.mf, CountingDrive::Oracle);
        let stepped = engine.run_to_completion();
        let expected = build().run_oracle(p.mf);
        assert_eq!(*stepped.as_counting().unwrap(), expected);
    }

    #[test]
    fn slot_engine_matches_direct_run() {
        let grid = Grid::new(15, 15, 1).unwrap();
        let bad = vec![grid.id_at(7, 7)];
        let config = SlotConfig {
            reactive: bftbcast_protocols::reactive::ReactiveConfig::paper(
                grid.node_count(),
                grid.range(),
                1,
                1 << 16,
                8,
            ),
            t: 1,
            mf: 4,
            good_budget: None,
            adversary: ReactiveAdversary::Jammer,
            max_rounds: 2_000_000,
            seed: 42,
        };
        let mut engine = SlotEngine::new(grid.clone(), 0, &bad, config);
        let stepped = engine.run_to_completion();
        let expected = SlotSim::new(grid, 0, &bad, config).run();
        assert_eq!(*stepped.as_reactive().unwrap(), expected);
    }

    #[test]
    fn agreement_engine_matches_direct_run_in_both_modes() {
        let grid = Grid::new(15, 15, 2).unwrap();
        let p = Params::new(2, 1, 10);
        let cfg = AgreementConfig::paper_margins(p);
        let source = grid.id_at(7, 7);
        let bad = vec![grid.id_at(6, 8)];
        let sim = AgreementSim::new(grid, cfg, source, &bad);
        let behavior = SourceBehavior::even_split(&cfg, Value(2), Value(3));
        let attack = SplitAttack::strongest();

        for mode in [AgreementMode::Cheap, AgreementMode::Proven] {
            let mut engine = AgreementEngine::new(sim.clone(), behavior.clone(), attack, mode);
            let stepped = engine.run_to_completion();
            let stepped = stepped.as_agreement().unwrap();
            let mut direct = sim.clone();
            let expected = match mode {
                AgreementMode::Cheap => direct.run(behavior.clone(), attack),
                AgreementMode::Proven => direct.run_proven(behavior.clone(), attack),
            };
            assert_eq!(stepped.decisions, expected.decisions, "{mode:?}");
            assert_eq!(
                stepped.agreement_holds(),
                expected.agreement_holds(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn slot_engine_outcome_is_final_after_completion() {
        let grid = Grid::new(15, 15, 1).unwrap();
        let config = SlotConfig {
            reactive: bftbcast_protocols::reactive::ReactiveConfig::paper(
                grid.node_count(),
                grid.range(),
                1,
                1 << 16,
                8,
            ),
            t: 1,
            mf: 4,
            good_budget: None,
            adversary: ReactiveAdversary::Passive,
            max_rounds: 2_000_000,
            seed: 1,
        };
        let mut engine = SlotEngine::new(grid, 0, &[], config);
        engine.run_to_completion();
        let rounds = engine.outcome().as_reactive().unwrap().rounds;
        // Extra steps after completion are no-ops, not extra rounds.
        assert!(!engine.step());
        assert!(!engine.step());
        assert_eq!(engine.outcome().as_reactive().unwrap().rounds, rounds);
    }

    #[test]
    fn slot_probe_reports_good_nodes_only() {
        let grid = Grid::new(15, 15, 1).unwrap();
        let bad = vec![grid.id_at(7, 7)];
        let config = SlotConfig {
            reactive: bftbcast_protocols::reactive::ReactiveConfig::paper(
                grid.node_count(),
                grid.range(),
                1,
                1 << 16,
                8,
            ),
            t: 1,
            mf: 4,
            good_budget: None,
            adversary: ReactiveAdversary::Jammer,
            max_rounds: 2_000_000,
            seed: 42,
        };
        let mut engine = SlotEngine::new(grid.clone(), 0, &bad, config);
        let outcome = engine.run_to_completion();
        assert!(outcome.as_reactive().unwrap().is_reliable());
        assert_eq!(engine.probe(grid.id_at(7, 7)), None, "bad nodes are mute");
        let probe = engine.probe(grid.id_at(3, 3)).expect("good node");
        assert!(probe.tally_true >= 1, "{probe:?}");
        assert_eq!(probe.accepted, Some(Value::TRUE));
        assert!(probe.decided_neighbors >= 1);
    }

    #[test]
    fn agreement_probe_answers_members_after_completion() {
        let grid = Grid::new(15, 15, 2).unwrap();
        let p = Params::new(2, 1, 10);
        let cfg = AgreementConfig::paper_margins(p);
        let source = grid.id_at(7, 7);
        let member = grid.id_at(7, 8);
        let far = grid.id_at(0, 0);
        let sim = AgreementSim::new(grid, cfg, source, &[]);
        let mut engine = AgreementEngine::new(
            sim,
            SourceBehavior::Correct,
            SplitAttack::strongest(),
            AgreementMode::Cheap,
        );
        assert_eq!(engine.probe(member), None, "no decisions before the run");
        engine.run_to_completion();
        let outcome = engine.outcome();
        let o = outcome.as_agreement().unwrap();
        let probe = engine.probe(member).expect("member decided");
        assert_eq!(probe.tally_true, o.decisions.len() as u64, "unanimous");
        assert_eq!(probe.tally_wrong, 0);
        assert!(probe.accepted.is_some());
        assert!(probe.decided_neighbors >= 1);
        assert_eq!(engine.probe(far), None, "non-members are mute");
    }

    #[test]
    fn step_without_prepare_self_prepares() {
        let mut engine = counting_fixture(CountingDrive::Passive);
        assert!(engine.step(), "first wave exists");
        while engine.step() {}
        assert!(engine.outcome().success());
    }

    #[test]
    fn coverage_of_agreement_outcome_is_modal_fraction() {
        let o = EngineOutcome::Agreement(AgreementOutcome {
            decisions: vec![(1, Value(2)), (2, Value(2)), (3, Value(3)), (4, Value(2))],
            source_correct: false,
            proposals: vec![],
            aggregates: vec![],
        });
        assert!((o.coverage() - 0.75).abs() < 1e-12);
    }
}
