//! [`SimEngine`] wrapper over the message-level runtime.

use bftbcast_net::{Grid, NodeId, Topology, Value};
use bftbcast_sim::engine::{EngineOutcome, Probe, SimEngine};

use crate::sim::{RbcConfig, RbcSim};

/// [`SimEngine`] over [`RbcSim`]; each step is one delivery wave.
///
/// Like the slot engine, the simulator owns a seeded RNG, so `prepare`
/// rebuilds it from the stored construction parameters (the counting
/// and crash engines instead reset their one simulator in place).
///
/// Probe mapping (the [`Probe`] struct is shared across engines):
/// `tally_true` is echoes received (payload copies for the flood
/// baseline), `tally_wrong` is readies received, `decided_neighbors`
/// counts delivered neighbors, `accepted` is `Value::TRUE` iff the
/// node delivered, `phase` is the protocol progress phase (0 idle,
/// 1 echoed, 2 readied, 3 delivered — so a wave-capped stall shows
/// *where* each node got stuck, not just that it did), and `conflicts`
/// counts equivocation evidence observed at the node. Byzantine nodes
/// answer `None` whatever their behavior.
pub struct RbcEngine {
    grid: Grid,
    source: NodeId,
    bad_nodes: Vec<NodeId>,
    config: RbcConfig,
    live: RbcSim,
    running: bool,
}

impl RbcEngine {
    /// Builds the engine; same arguments as [`RbcSim::new`].
    pub fn new(grid: Grid, source: NodeId, bad_nodes: &[NodeId], config: RbcConfig) -> Self {
        RbcEngine {
            live: RbcSim::new(grid.clone(), source, bad_nodes, config),
            grid,
            source,
            bad_nodes: bad_nodes.to_vec(),
            config,
            running: false,
        }
    }

    /// The live simulator, for inspection beyond [`SimEngine::probe`].
    pub fn sim(&self) -> &RbcSim {
        &self.live
    }
}

impl SimEngine for RbcEngine {
    fn topology(&self) -> &Topology {
        self.live.topology()
    }

    fn prepare(&mut self) {
        self.live = RbcSim::new(self.grid.clone(), self.source, &self.bad_nodes, self.config);
        self.live.begin();
        self.running = true;
    }

    fn step(&mut self) -> bool {
        if !self.running {
            self.prepare();
        }
        self.live.step_wave()
    }

    fn outcome(&self) -> EngineOutcome {
        EngineOutcome::Rbc(self.live.outcome())
    }

    fn probe(&self, u: NodeId) -> Option<Probe> {
        if !self.live.is_good(u) {
            return None;
        }
        let delivered = self.live.delivered(u);
        Some(Probe {
            tally_true: self.live.echoes_received(u),
            tally_wrong: self.live.readies_received(u),
            decided_neighbors: self.live.delivered_neighbors(u),
            accepted: delivered.then_some(Value::TRUE),
            phase: self.live.phase(u),
            conflicts: self.live.conflicts(u),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ByzantineBehavior;
    use crate::schedule::ScheduleKind;
    use crate::sim::RbcProtocol;

    fn config(protocol: RbcProtocol) -> RbcConfig {
        RbcConfig {
            protocol,
            t: 2,
            payload_bits: 4096,
            max_waves: 10_000,
            seed: 7,
            schedule: ScheduleKind::Seeded,
            behavior: ByzantineBehavior::Mute,
        }
    }

    fn engine(protocol: RbcProtocol) -> RbcEngine {
        let grid = Grid::new(15, 15, 1).unwrap();
        let bad = vec![grid.id_at(3, 3), grid.id_at(10, 11)];
        RbcEngine::new(grid, 0, &bad, config(protocol))
    }

    #[test]
    fn engine_matches_direct_run_per_protocol() {
        for protocol in [
            RbcProtocol::Counting,
            RbcProtocol::Bracha,
            RbcProtocol::Ctrbc,
        ] {
            let mut e = engine(protocol);
            let stepped = e.run_to_completion();
            let stepped = stepped.as_rbc().expect("rbc outcome");

            let grid = Grid::new(15, 15, 1).unwrap();
            let bad = vec![grid.id_at(3, 3), grid.id_at(10, 11)];
            let mut direct = RbcSim::new(grid, 0, &bad, config(protocol));
            direct.begin();
            while direct.step_wave() {}
            assert_eq!(*stepped, direct.outcome(), "{protocol:?}");
        }
    }

    #[test]
    fn prepare_resets_for_a_fresh_identical_run() {
        let mut e = engine(RbcProtocol::Bracha);
        let first = e.run_to_completion();
        let second = e.run_to_completion();
        assert_eq!(first, second, "runs must be independent");
    }

    #[test]
    fn step_without_prepare_self_prepares() {
        let mut e = engine(RbcProtocol::Counting);
        assert!(e.step(), "first wave exists");
        while e.step() {}
        assert!(e.outcome().success());
    }

    #[test]
    fn probes_report_delivery_and_tallies() {
        let mut e = engine(RbcProtocol::Bracha);
        e.run_to_completion();
        let grid = Grid::new(15, 15, 1).unwrap();
        assert_eq!(e.probe(grid.id_at(3, 3)), None, "byzantine nodes are mute");
        let probe = e.probe(grid.id_at(7, 2)).expect("good node");
        assert_eq!(probe.accepted, Some(Value::TRUE));
        assert_eq!(probe.tally_true, 223, "echoes from every good node");
        assert_eq!(probe.tally_wrong, 223, "readies from every good node");
        assert!(probe.decided_neighbors >= 6);
        assert_eq!(probe.phase, 3, "delivered nodes sit in phase 3");
        assert_eq!(probe.conflicts, 0, "mute adversary leaves no evidence");
    }

    #[test]
    fn stalled_runs_are_diagnosable_through_probe_phases() {
        // Two waves cannot finish Bracha on a 15x15 torus: the run
        // stalls at the cap. The probes must say where each node got
        // stuck instead of reporting a bare stall.
        let grid = Grid::new(15, 15, 1).unwrap();
        let bad = vec![grid.id_at(3, 3), grid.id_at(10, 11)];
        let mut cfg = config(RbcProtocol::Bracha);
        cfg.max_waves = 2;
        let mut e = RbcEngine::new(grid.clone(), 0, &bad, cfg);
        let out = e.run_to_completion();
        let out = out.as_rbc().expect("rbc outcome");
        assert!(!out.is_reliable(), "{out:?}");
        let phases: Vec<u64> = (0..225)
            .filter_map(|u| e.probe(u))
            .map(|p| p.phase)
            .collect();
        assert_eq!(phases.len(), 223, "every good node answers");
        assert!(
            phases.iter().any(|&p| p >= 1),
            "the source neighborhood reached the echo phase"
        );
        assert!(phases.contains(&0), "far nodes are still idle at the stall");
        let undelivered = phases.iter().filter(|&&p| p < 3).count();
        assert_eq!(
            undelivered,
            out.good_nodes - out.delivered,
            "phase counters account for every undelivered node"
        );
    }

    #[test]
    fn outcome_is_final_after_completion() {
        let mut e = engine(RbcProtocol::Ctrbc);
        e.run_to_completion();
        let waves = e.outcome().as_rbc().unwrap().waves;
        assert!(!e.step());
        assert!(!e.step());
        assert_eq!(e.outcome().as_rbc().unwrap().waves, waves);
    }
}
