//! Dense-oracle equivalence harness for the frontier kernel.
//!
//! The frontier worklist ([`bftbcast_net::Worklist`]) is an *optimization*:
//! per-wave cost drops from `O(n)` to `O(front)`, but every observable —
//! outcomes, per-node probes, per-wave decided/sent counters — must stay
//! bit-identical to visiting every node. Each engine has one step loop;
//! [`ScanMode::Dense`] feeds it every node instead of the touched set,
//! and makes the engine check its incremental bookkeeping (the
//! strategy view, the slot engine's termination counters) against a
//! rescan. [`DenseOracle`] enforces the claim mechanically: it takes two
//! identically configured engines, pins one to [`ScanMode::Dense`] and
//! one to [`ScanMode::Frontier`], and drives them **in lockstep**,
//! asserting after every single step that
//!
//! * both report the same "more work remains" flag,
//! * both report the same [`EngineOutcome`] (partial outcomes included,
//!   so a divergence is caught at the *first* wave it appears, not at the
//!   end of the run),
//! * every node's [`Probe`](crate::engine::Probe) matches (tallies,
//!   decided-neighbor counts, accepted value).
//!
//! Any mismatch panics with the step number and, for probes, the node id
//! plus both sides' values — exactly what a property-test shrinker needs.
//!
//! # Example
//!
//! ```
//! use bftbcast_net::Grid;
//! use bftbcast_protocols::{CountingProtocol, Params};
//! use bftbcast_sim::engine::{CountingDrive, CountingEngine};
//! use bftbcast_sim::oracle::DenseOracle;
//! use bftbcast_sim::CountingSim;
//!
//! let build = || {
//!     let grid = Grid::new(15, 15, 1).unwrap();
//!     let params = Params::new(1, 1, 10);
//!     let proto = CountingProtocol::protocol_b(&grid, params);
//!     let sim = CountingSim::new(grid, proto, 0, &[7, 31], params.mf);
//!     Box::new(CountingEngine::new(sim, params.mf, CountingDrive::Oracle))
//! };
//! let outcome = DenseOracle::new(build(), build()).run();
//! assert!(outcome.success());
//! ```

use bftbcast_net::ScanMode;

use crate::engine::{EngineOutcome, SimEngine};

/// Lockstep differential runner: a frontier engine checked against the
/// same engine fed every node, after every step.
///
/// Construct it from two engines built from the *same* configuration
/// (same grid, protocol, adversary, seed). The harness owns scan-mode
/// selection — whatever mode the inputs carried is overwritten.
pub struct DenseOracle {
    frontier: Box<dyn SimEngine>,
    dense: Box<dyn SimEngine>,
    probe_stride: usize,
    steps: usize,
}

impl DenseOracle {
    /// Wraps two identically configured engines and prepares both; the
    /// first runs in [`ScanMode::Frontier`], the second in
    /// [`ScanMode::Dense`]. Every node is probed after every step.
    pub fn new(frontier: Box<dyn SimEngine>, dense: Box<dyn SimEngine>) -> Self {
        Self::with_probe_stride(frontier, dense, 1)
    }

    /// Like [`DenseOracle::new`], but probes only every `stride`-th node
    /// per step (step and outcome checks stay exhaustive). Use for big
    /// grids where `O(n)` probing per step dominates the test itself;
    /// `stride` is clamped to at least 1.
    pub fn with_probe_stride(
        mut frontier: Box<dyn SimEngine>,
        mut dense: Box<dyn SimEngine>,
        stride: usize,
    ) -> Self {
        frontier.set_scan_mode(ScanMode::Frontier);
        dense.set_scan_mode(ScanMode::Dense);
        frontier.prepare();
        dense.prepare();
        let oracle = DenseOracle {
            frontier,
            dense,
            probe_stride: stride.max(1),
            steps: 0,
        };
        // Initial state must already agree (step 0 = "after prepare").
        oracle.check_states();
        oracle
    }

    /// Advances both engines by one step and cross-checks everything.
    /// Returns whether more work remains. Panics on any divergence.
    pub fn step(&mut self) -> bool {
        let more_frontier = self.frontier.step();
        let more_dense = self.dense.step();
        self.steps += 1;
        assert_eq!(
            more_frontier, more_dense,
            "step {}: frontier engine reports more={more_frontier}, dense oracle more={more_dense}",
            self.steps
        );
        self.check_states();
        more_frontier
    }

    /// Runs both engines to completion in lockstep and returns the
    /// (verified equal) final outcome. Panics on any divergence.
    pub fn run(&mut self) -> EngineOutcome {
        while self.step() {}
        self.frontier.outcome()
    }

    /// Number of lockstep steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The frontier-mode engine under test.
    pub fn frontier(&self) -> &dyn SimEngine {
        self.frontier.as_ref()
    }

    /// The dense-mode reference engine.
    pub fn dense(&self) -> &dyn SimEngine {
        self.dense.as_ref()
    }

    fn check_states(&self) {
        assert_eq!(
            self.frontier.outcome(),
            self.dense.outcome(),
            "step {}: frontier outcome diverged from dense oracle",
            self.steps
        );
        let n = self.frontier.topology().node_count();
        assert_eq!(
            n,
            self.dense.topology().node_count(),
            "engines were built over different grids"
        );
        for u in (0..n).step_by(self.probe_stride) {
            let f = self.frontier.probe(u);
            let d = self.dense.probe(u);
            assert_eq!(
                f, d,
                "step {}: probe({u}) diverged (frontier vs dense)",
                self.steps
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountingSim;
    use crate::crash::CrashBehavior;
    use crate::engine::{CountingDrive, CountingEngine, SlotEngine};
    use crate::slot::{ReactiveAdversary, SlotConfig};
    use bftbcast_net::Grid;
    use bftbcast_protocols::reactive::ReactiveConfig;
    use bftbcast_protocols::{CountingProtocol, Params};

    fn counting_engine(drive: CountingDrive) -> Box<dyn SimEngine> {
        let grid = Grid::new(21, 21, 2).unwrap();
        let params = Params::new(2, 1, 12);
        let proto = CountingProtocol::protocol_b(&grid, params);
        let sim = CountingSim::new(grid, proto, 0, &[50, 199, 340], params.mf);
        Box::new(CountingEngine::new(sim, params.mf, drive))
    }

    #[test]
    fn counting_oracle_drive_matches_dense() {
        let mut oracle = DenseOracle::new(
            counting_engine(CountingDrive::Oracle),
            counting_engine(CountingDrive::Oracle),
        );
        let outcome = oracle.run();
        assert!(oracle.steps() > 1);
        assert_eq!(outcome, oracle.dense().outcome());
    }

    #[test]
    fn counting_majority_drive_matches_dense() {
        DenseOracle::new(
            counting_engine(CountingDrive::Majority { quorum: 5 }),
            counting_engine(CountingDrive::Majority { quorum: 5 }),
        )
        .run();
    }

    #[test]
    fn counting_greedy_attack_matches_dense() {
        DenseOracle::new(
            counting_engine(CountingDrive::Greedy),
            counting_engine(CountingDrive::Greedy),
        )
        .run();
    }

    #[test]
    fn counting_chaos_attack_matches_dense() {
        DenseOracle::new(
            counting_engine(CountingDrive::Chaos(0xC0FFEE)),
            counting_engine(CountingDrive::Chaos(0xC0FFEE)),
        )
        .run();
    }

    #[test]
    fn crash_engine_matches_dense() {
        let build = || -> Box<dyn SimEngine> {
            let grid = Grid::new(19, 19, 2).unwrap();
            let params = Params::new(2, 1, 12);
            let proto = CountingProtocol::protocol_b(&grid, params);
            let sim = CountingSim::new(grid, proto, 0, &[300, 77], params.mf)
                .with_crash_nodes(&[40, 41], CrashBehavior::Immediate)
                .with_crash_nodes(&[160], CrashBehavior::AfterCopies(1));
            Box::new(CountingEngine::new(sim, params.mf, CountingDrive::Oracle))
        };
        DenseOracle::new(build(), build()).run();
    }

    #[test]
    fn slot_engine_matches_dense() {
        let build = || -> Box<dyn SimEngine> {
            let grid = Grid::new(15, 15, 1).unwrap();
            let config = SlotConfig {
                reactive: ReactiveConfig::paper(225, 1, 1, 1 << 16, 8),
                t: 1,
                mf: 6,
                good_budget: None,
                adversary: ReactiveAdversary::Mixed,
                max_rounds: 40_000,
                seed: 0xD15EA5E,
            };
            Box::new(SlotEngine::new(grid, 0, &[33, 101], config))
        };
        DenseOracle::new(build(), build()).run();
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn harness_catches_mismatched_configurations() {
        // Different adversary placements must trip the lockstep check.
        let grid = Grid::new(15, 15, 1).unwrap();
        let params = Params::new(1, 1, 10);
        let build = |bad: &[usize]| -> Box<dyn SimEngine> {
            let proto = CountingProtocol::protocol_b(&grid, params);
            let sim = CountingSim::new(grid.clone(), proto, 0, bad, params.mf);
            Box::new(CountingEngine::new(sim, params.mf, CountingDrive::Oracle))
        };
        DenseOracle::new(build(&[7]), build(&[7, 31, 60, 90])).run();
    }
}
