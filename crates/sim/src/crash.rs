//! Crash-stop faults and the hybrid crash + Byzantine engine.
//!
//! Bhandari and Vaidya \[2\] analyze the crash-stop variant of the radio
//! broadcast problem alongside the Byzantine one: a crash-faulty node
//! behaves honestly (receives, accepts, relays) until it *stops*, after
//! which it sends nothing — it never forges a value and never causes a
//! collision. In the message-budget setting of this paper the crash
//! model is interesting for two reasons:
//!
//! * **Budgets collapse.** With no forged copies in the network, one
//!   correct copy is proof: the acceptance threshold drops from
//!   `t·mf + 1` to 1 and the sufficient per-node budget from `2·m0` to
//!   1 (see [`crash_only_protocol`]). The entire message-cost apparatus
//!   of Theorems 1–3 is a price paid for *forgery*, not for failure —
//!   the crash engine quantifies that price (EXP-X5).
//!
//! * **The threshold moves.** Crash faults block broadcast only by
//!   *disconnection*: a region of stopped nodes thick enough that no
//!   good node beyond it has a good neighbor before it. On the L∞ torus
//!   the cheapest such barrier is a full stripe of height `r`, which
//!   puts `r(2r+1)` faulty nodes in the worst neighborhood — double the
//!   Byzantine threshold `½·r(2r+1)` of Koo \[13\] and exactly the
//!   locally-bounded budget-model bound `t < r(2r+1)` of §1.2.
//!
//! The engine also runs a **hybrid** fault load: `crash` nodes (stop
//! after an adversary-chosen number of honest relays) *plus* Byzantine
//! nodes attacked through the same per-receiver oracle accounting as
//! [`CountingSim::run_oracle`](crate::CountingSim::run_oracle). The
//! acceptance threshold then depends only on the Byzantine part
//! (`t_b·mf + 1`), while completeness depends on both.
//!
//! # Example
//!
//! ```
//! use bftbcast_net::Grid;
//! use bftbcast_sim::crash::{crash_only_protocol, CrashBehavior, HybridSim};
//!
//! let grid = Grid::new(15, 15, 1).unwrap();
//! // Crash faults only: budget 1 per node is enough.
//! let protocol = crash_only_protocol(&grid);
//! let faulty: Vec<usize> = vec![grid.id_at(3, 3), grid.id_at(9, 9)];
//! let mut sim = HybridSim::new(grid, protocol, 0)
//!     .with_crash_nodes(&faulty, CrashBehavior::Immediate);
//! let out = sim.run(0);
//! assert!(out.is_reliable());
//! ```

use bftbcast_net::{Grid, NodeId, ScanMode, Topology, Value, Worklist};
use bftbcast_protocols::CountingProtocol;

use crate::metrics::CountingOutcome;

/// When a crash-stop node stops relaying.
///
/// The adversary schedules crashes; the worst case for completeness is
/// [`CrashBehavior::Immediate`] (the node contributes nothing), which is
/// what the impossibility constructions use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashBehavior {
    /// The node crashes before relaying anything — the worst case.
    Immediate,
    /// The node relays up to this many copies honestly, then stops.
    AfterCopies(u64),
    /// The node completes its relay quota and crashes afterwards (its
    /// crash is unobservable; included so sweeps can span the benign
    /// end of the spectrum).
    AfterQuota,
}

impl CrashBehavior {
    /// Copies a crash node with relay quota `quota` actually sends.
    fn copies_sent(self, quota: u64) -> u64 {
        match self {
            CrashBehavior::Immediate => 0,
            CrashBehavior::AfterCopies(k) => k.min(quota),
            CrashBehavior::AfterQuota => quota,
        }
    }
}

/// The crash-only protocol: with no forgery possible, one correct copy
/// is proof, so the source sends one copy, every node relays one copy,
/// and the acceptance threshold is 1.
pub fn crash_only_protocol(grid: &Grid) -> CountingProtocol {
    let n = grid.node_count();
    CountingProtocol {
        name: "crash-only(m=1)".to_string(),
        source_copies: 1,
        relay_copies: vec![1; n],
        budget: vec![1; n],
        accept_threshold: 1,
    }
}

/// The exact crash-fault threshold on the L∞ torus: a full stripe of
/// height `r` (the cheapest disconnecting barrier) loads the worst
/// neighborhood with `r(2r+1)` faulty nodes, so broadcast tolerates any
/// `t < r(2r+1)` crash faults per neighborhood and fails at
/// `t = r(2r+1)`.
pub fn crash_threshold(r: u32) -> u64 {
    let r = u64::from(r);
    r * (2 * r + 1)
}

/// Wave-expansion engine for hybrid crash + Byzantine fault loads.
///
/// Crash nodes relay honestly until their [`CrashBehavior`] stops them
/// and never attack. Byzantine nodes are driven by the per-receiver
/// oracle accounting of
/// [`CountingSim::run_oracle`](crate::CountingSim::run_oracle): each
/// (Byzantine node, receiver) pair has an independent corruption
/// capacity `mf`, spent only when corrupting can actually hold the
/// receiver below threshold.
#[derive(Debug, Clone)]
pub struct HybridSim {
    topology: Topology,
    protocol: CountingProtocol,
    scan: ScanMode,
    source: NodeId,
    /// `None` = good; `Some(behavior)` = crash-faulty.
    crash: Vec<Option<CrashBehavior>>,
    byzantine: Vec<bool>,
    accepted: Vec<Option<Value>>,
    accepted_wave: Vec<Option<usize>>,
    tally_true: Vec<u64>,
    tally_wrong: Vec<u64>,
    waves: usize,
    good_copies_sent: u64,
    source_copies_sent: u64,
    adversary_spent: u64,
    wrong_accepts: usize,
}

impl HybridSim {
    /// Builds an engine with no faulty nodes; add faults with
    /// [`HybridSim::with_crash_nodes`] and
    /// [`HybridSim::with_byzantine_nodes`].
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or a relay quota exceeds its
    /// node's budget.
    pub fn new(grid: Grid, protocol: CountingProtocol, source: NodeId) -> Self {
        let n = grid.node_count();
        assert!(source < n, "source out of range");
        assert!(
            protocol.quotas_fit_budgets(),
            "protocol quota exceeds budget"
        );
        let mut accepted = vec![None; n];
        accepted[source] = Some(Value::TRUE);
        let mut accepted_wave = vec![None; n];
        accepted_wave[source] = Some(0);
        HybridSim {
            topology: Topology::new(grid),
            protocol,
            scan: ScanMode::default(),
            source,
            crash: vec![None; n],
            byzantine: vec![false; n],
            accepted,
            accepted_wave,
            tally_true: vec![0; n],
            tally_wrong: vec![0; n],
            waves: 0,
            good_copies_sent: 0,
            source_copies_sent: 0,
            adversary_spent: 0,
            wrong_accepts: 0,
        }
    }

    /// Marks `nodes` as crash-faulty with the given stop schedule.
    ///
    /// # Panics
    ///
    /// Panics if a node is the source, out of range, or already faulty.
    pub fn with_crash_nodes(mut self, nodes: &[NodeId], behavior: CrashBehavior) -> Self {
        for &u in nodes {
            self.assert_fresh(u);
            self.crash[u] = Some(behavior);
        }
        self
    }

    /// Marks `nodes` as Byzantine (attacked through the per-receiver
    /// oracle when the run is given a nonzero `mf`).
    ///
    /// # Panics
    ///
    /// Panics if a node is the source, out of range, or already faulty.
    pub fn with_byzantine_nodes(mut self, nodes: &[NodeId]) -> Self {
        for &u in nodes {
            self.assert_fresh(u);
            self.byzantine[u] = true;
        }
        self
    }

    fn assert_fresh(&self, u: NodeId) {
        assert!(u < self.topology.node_count(), "node {u} out of range");
        assert!(u != self.source, "the base station is assumed correct");
        assert!(
            self.crash[u].is_none() && !self.byzantine[u],
            "node {u} already faulty"
        );
    }

    fn is_good(&self, u: NodeId) -> bool {
        self.crash[u].is_none() && !self.byzantine[u]
    }

    /// Whether `u` receives, accepts and relays honestly (good nodes and
    /// not-yet-crashed crash nodes).
    fn is_honest_receiver(&self, u: NodeId) -> bool {
        !self.byzantine[u]
    }

    /// Runs to fixpoint. `mf` is the per-(Byzantine node, receiver)
    /// corruption capacity; pass 0 for a collision-free run.
    ///
    /// Equivalent to [`HybridSim::begin`] followed by
    /// [`HybridSim::step_wave`] until fixpoint — the resumable form the
    /// [`crate::engine::SimEngine`] runtime drives wave by wave.
    pub fn run(&mut self, mf: u64) -> CountingOutcome {
        let mut run = self.begin(mf);
        while self.step_wave(&mut run) {}
        self.outcome()
    }

    /// Starts a run: charges the source transmission, precomputes the
    /// per-receiver Byzantine corruption capacity, and returns the
    /// resumable wave state. Call at most once per engine; drive with
    /// [`HybridSim::step_wave`].
    pub fn begin(&mut self, mf: u64) -> CrashRun {
        let n = self.topology.node_count();
        let mut capacity = vec![0u64; n];
        if mf > 0 {
            for b in 0..n {
                if self.byzantine[b] {
                    for u in self.topology.neighbors_of(b) {
                        if self.is_honest_receiver(u) {
                            capacity[u] += mf;
                        }
                    }
                }
            }
        }
        self.source_copies_sent += self.protocol.source_copies;
        CrashRun {
            capacity,
            wave: vec![(self.source, self.protocol.source_copies)],
            next: Vec::new(),
            incoming: vec![0u64; n],
            touched: Worklist::new(n),
        }
    }

    /// Selects dense or frontier per-wave iteration (see [`ScanMode`]).
    /// Both modes are bit-identical; set before beginning a run.
    pub fn set_scan_mode(&mut self, mode: ScanMode) {
        self.scan = mode;
    }

    /// The active scan mode.
    pub fn scan_mode(&self) -> ScanMode {
        self.scan
    }

    /// Advances a run by one wave. Returns `false` at fixpoint, after
    /// which [`HybridSim::outcome`] and the per-node inspectors are
    /// final.
    pub fn step_wave(&mut self, run: &mut CrashRun) -> bool {
        if run.wave.is_empty() {
            return false;
        }
        self.waves += 1;
        run.next.clear();
        match self.scan {
            ScanMode::Dense => {
                run.incoming.fill(0);
                for &(s, copies) in &run.wave {
                    for u in self.topology.neighbors_of(s) {
                        if self.is_honest_receiver(u) && self.accepted[u].is_none() {
                            run.incoming[u] += copies;
                        }
                    }
                }
                for u in 0..self.topology.node_count() {
                    if run.incoming[u] == 0 {
                        continue;
                    }
                    let incoming = run.incoming[u];
                    self.oracle_corrupt(u, incoming, &mut run.capacity[u]);
                }
                for u in 0..self.topology.node_count() {
                    self.try_accept(u, &mut run.next);
                }
            }
            ScanMode::Frontier => {
                // Only undecided honest receivers adjacent to a sender
                // can change state this wave (see the frontier-kernel
                // notes on [`Worklist`]); `incoming` is zeroed lazily on
                // first touch, and the sorted visit order matches the
                // dense 0..n scan restricted to the touched set.
                run.touched.clear();
                for &(s, copies) in &run.wave {
                    for u in self.topology.neighbors_of(s) {
                        if self.is_honest_receiver(u) && self.accepted[u].is_none() {
                            if run.touched.insert(u) {
                                run.incoming[u] = 0;
                            }
                            run.incoming[u] += copies;
                        }
                    }
                }
                run.touched.sort();
                for i in 0..run.touched.len() {
                    let u = run.touched.item(i);
                    let incoming = run.incoming[u];
                    self.oracle_corrupt(u, incoming, &mut run.capacity[u]);
                }
                for i in 0..run.touched.len() {
                    let u = run.touched.item(i);
                    self.try_accept(u, &mut run.next);
                }
            }
        }
        std::mem::swap(&mut run.wave, &mut run.next);
        true
    }

    /// The per-receiver oracle's corruption rule at one receiver — the
    /// same block-if-winnable accounting as
    /// [`CountingSim::run_oracle`](crate::CountingSim::run_oracle).
    fn oracle_corrupt(&mut self, u: NodeId, incoming: u64, capacity: &mut u64) {
        let total = self.tally_true[u] + incoming;
        let deficit = (total + 1).saturating_sub(self.protocol.accept_threshold);
        let corrupt = if deficit == 0 || deficit > (*capacity).min(incoming) {
            0
        } else {
            deficit
        };
        *capacity -= corrupt;
        self.adversary_spent += corrupt;
        self.tally_true[u] += incoming - corrupt;
        self.tally_wrong[u] += corrupt;
    }

    /// Applies the acceptance rule at one node (good or not-yet-crashed
    /// receiver), scheduling its relay into `next`.
    fn try_accept(&mut self, u: NodeId, next: &mut Vec<(NodeId, u64)>) {
        if !self.is_honest_receiver(u) || self.accepted[u].is_some() {
            return;
        }
        let true_in = self.tally_true[u] >= self.protocol.accept_threshold;
        let wrong_in = self.tally_wrong[u] >= self.protocol.accept_threshold;
        if wrong_in && self.tally_wrong[u] >= self.tally_true[u] {
            self.accepted[u] = Some(Value::FORGED);
            self.accepted_wave[u] = Some(self.waves);
            if self.is_good(u) {
                self.wrong_accepts += 1;
            }
        } else if true_in {
            self.accepted[u] = Some(Value::TRUE);
            self.accepted_wave[u] = Some(self.waves);
            let quota = self.protocol.relay_copies[u];
            let copies = match self.crash[u] {
                None => quota,
                Some(behavior) => behavior.copies_sent(quota),
            };
            if self.is_good(u) {
                self.good_copies_sent += copies;
            }
            if copies > 0 {
                next.push((u, copies));
            }
        }
    }

    /// The aggregate outcome of the run so far (final once
    /// [`HybridSim::step_wave`] has returned `false`). Crash-faulty
    /// nodes are excluded from the good-node counts even when they
    /// accepted before stopping.
    pub fn outcome(&self) -> CountingOutcome {
        let good: Vec<NodeId> = (0..self.topology.node_count())
            .filter(|&u| self.is_good(u))
            .collect();
        CountingOutcome {
            good_nodes: good.len(),
            accepted_true: good
                .iter()
                .filter(|&&u| self.accepted[u] == Some(Value::TRUE))
                .count(),
            wrong_accepts: self.wrong_accepts,
            waves: self.waves,
            good_copies_sent: self.good_copies_sent,
            source_copies_sent: self.source_copies_sent,
            adversary_spent: self.adversary_spent,
        }
    }

    /// The torus.
    pub fn grid(&self) -> &Grid {
        self.topology.grid()
    }

    /// The precomputed neighborhood topology the engine runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The value accepted by `u`, if any.
    pub fn accepted(&self, u: NodeId) -> Option<Value> {
        self.accepted[u]
    }

    /// The wave in which `u` accepted, if it did.
    pub fn accepted_wave(&self, u: NodeId) -> Option<usize> {
        self.accepted_wave[u]
    }

    /// Correct copies delivered to `u` so far.
    pub fn tally_true(&self, u: NodeId) -> u64 {
        self.tally_true[u]
    }

    /// Corrupted copies delivered to `u` so far.
    pub fn tally_wrong(&self, u: NodeId) -> u64 {
        self.tally_wrong[u]
    }

    /// Number of `u`'s neighbors (any fault class) that accepted
    /// `Vtrue`.
    pub fn decided_neighbors(&self, u: NodeId) -> usize {
        self.topology
            .neighbors_of(u)
            .filter(|&v| self.accepted[v] == Some(Value::TRUE))
            .count()
    }
}

/// Resumable state of a hybrid run: the pending wave plus reusable
/// per-wave buffers. Produced by [`HybridSim::begin`], advanced by
/// [`HybridSim::step_wave`].
#[derive(Debug, Clone)]
pub struct CrashRun {
    capacity: Vec<u64>,
    wave: Vec<(NodeId, u64)>,
    next: Vec<(NodeId, u64)>,
    incoming: Vec<u64>,
    touched: Worklist,
}

/// The stripe-of-height-`h` crash placement: all nodes in rows
/// `y0 .. y0 + h` (wrapping). With `h = r` this is the cheapest barrier
/// that disconnects the torus; with `h = r − 1` propagation leaks
/// through. Pair two stripes to isolate a band, as in the Theorem 1
/// experiments.
pub fn crash_stripe(grid: &Grid, y0: u32, h: u32) -> Vec<NodeId> {
    let mut out = Vec::new();
    for dy in 0..h {
        let y = (y0 + dy) % grid.height();
        for x in 0..grid.width() {
            out.push(grid.id_at(x, y));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast_protocols::Params;

    fn grid(r: u32) -> Grid {
        Grid::new(20, 20, r).unwrap()
    }

    #[test]
    fn crash_free_run_completes_with_budget_one() {
        let g = grid(1);
        let proto = crash_only_protocol(&g);
        let mut sim = HybridSim::new(g, proto, 0);
        let out = sim.run(0);
        assert!(out.is_reliable());
        assert_eq!(out.good_copies_sent, 399, "each non-source relays once");
    }

    #[test]
    fn immediate_crashes_below_threshold_do_not_block() {
        // Stripe of height r - 1 = 1 at r = 2: leaks.
        let g = grid(2);
        let dead = crash_stripe(&g, 5, 1);
        let proto = crash_only_protocol(&g);
        let mut sim = HybridSim::new(g, proto, 0).with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run(0);
        assert!(out.is_reliable(), "coverage {}", out.coverage());
    }

    #[test]
    fn stripe_of_height_r_blocks_even_with_crash_faults_only() {
        // Two stripes of height r isolate the band between them.
        let g = grid(2);
        let mut dead = crash_stripe(&g, 5, 2);
        dead.extend(crash_stripe(&g, 15, 2));
        dead.sort_unstable();
        dead.dedup();
        let proto = crash_only_protocol(&g);
        let mut sim =
            HybridSim::new(g.clone(), proto, 0).with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run(0);
        assert!(out.is_correct());
        assert!(!out.is_complete(), "coverage {}", out.coverage());
        // The isolated band (rows 7..15) is exactly the starved set.
        for y in 7..15 {
            for x in 0..g.width() {
                assert_eq!(sim.accepted(g.id_at(x, y)), None, "({x},{y})");
            }
        }
        for x in 0..g.width() {
            assert_eq!(sim.accepted(g.id_at(x, 0)), Some(Value::TRUE));
        }
    }

    #[test]
    fn crash_after_quota_is_invisible() {
        let g = grid(1);
        let dead = crash_stripe(&g, 5, 1);
        let proto = crash_only_protocol(&g);
        let mut sim =
            HybridSim::new(g.clone(), proto, 0).with_crash_nodes(&dead, CrashBehavior::AfterQuota);
        let out = sim.run(0);
        // Crash-after-quota nodes relay fully; every *good* node accepts
        // and so do the crash nodes themselves (they are honest until
        // they stop).
        assert!(out.is_reliable());
        for &u in &dead {
            assert_eq!(sim.accepted(u), Some(Value::TRUE));
        }
    }

    #[test]
    fn after_copies_caps_at_quota() {
        assert_eq!(CrashBehavior::AfterCopies(7).copies_sent(3), 3);
        assert_eq!(CrashBehavior::AfterCopies(2).copies_sent(3), 2);
        assert_eq!(CrashBehavior::Immediate.copies_sent(3), 0);
        assert_eq!(CrashBehavior::AfterQuota.copies_sent(3), 3);
    }

    #[test]
    fn hybrid_load_byzantine_threshold_still_holds() {
        // t_b = 1 Byzantine per neighborhood (lattice-ish corners) plus a
        // leaky crash stripe: protocol B at the Byzantine-only budget
        // still completes, and correctness never breaks.
        let g = grid(2);
        let p = Params::new(2, 1, 5);
        let proto = bftbcast_protocols::CountingProtocol::protocol_b(&g, p);
        let byz: Vec<NodeId> = vec![g.id_at(3, 3), g.id_at(13, 13)];
        let dead = crash_stripe(&g, 9, 1);
        let dead: Vec<NodeId> = dead.into_iter().filter(|u| !byz.contains(u)).collect();
        let mut sim = HybridSim::new(g, proto, 0)
            .with_byzantine_nodes(&byz)
            .with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run(p.mf);
        assert!(out.is_correct());
        assert!(out.is_complete(), "coverage {}", out.coverage());
    }

    #[test]
    fn crash_threshold_formula() {
        assert_eq!(crash_threshold(1), 3);
        assert_eq!(crash_threshold(2), 10);
        assert_eq!(crash_threshold(4), 36);
    }

    #[test]
    #[should_panic(expected = "already faulty")]
    fn double_fault_assignment_panics() {
        let g = grid(1);
        let proto = crash_only_protocol(&g);
        let _ = HybridSim::new(g, proto, 0)
            .with_crash_nodes(&[5], CrashBehavior::Immediate)
            .with_byzantine_nodes(&[5]);
    }

    #[test]
    #[should_panic(expected = "base station is assumed correct")]
    fn source_cannot_crash() {
        let g = grid(1);
        let proto = crash_only_protocol(&g);
        let _ = HybridSim::new(g, proto, 0).with_crash_nodes(&[0], CrashBehavior::Immediate);
    }
}
