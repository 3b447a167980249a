//! The worst-case counting engine.
//!
//! A deterministic wave-expansion simulator implementing the exact
//! per-receiver copy accounting of the paper's proofs:
//!
//! * wave 0: the base station broadcasts `source_copies` copies of
//!   `Vtrue`;
//! * each wave, the adversary strategy is shown the wave's transmissions
//!   and plans collisions/forgeries, which the engine **validates**
//!   (budgets, radio geometry, per-sender copy counts) before applying;
//! * a copy of sender `s` collided by attacker `b` is replaced by a
//!   forged value at every node of `N(b) ∩ N(s)` and delivered intact
//!   everywhere else in `N(s)`; collisions against the same sender
//!   consume distinct copies;
//! * an undecided good node accepts a value once it has received it
//!   `accept_threshold` times; newly accepted nodes relay their quota in
//!   the next wave (spending their budget — the engine panics if a
//!   protocol overdraws, which Lemma-1-style invariants rule out);
//! * fixpoint when a wave produces no new acceptances.
//!
//! After [`CountingSim::run`] the per-node tallies remain inspectable —
//! that is how the Figure 2 experiment extracts the paper's exact
//! numbers (2065 / 1947 / 947).
//!
//! # Two adversary budget models
//!
//! The paper's impossibility arguments (Theorem 1, Figure 2) count a
//! corruption capacity of `t·mf` at **every** receiver simultaneously
//! ("the t bad nodes can corrupt up to tmf messages … delivered to u").
//! A *physical* adversary cannot always realize that: one bad node's
//! budget `mf` is shared across every victim it covers, and a collision
//! corrupts a copy at the common neighbors of one (attacker, sender)
//! pair only. The engine therefore supports both:
//!
//! * [`CountingSim::run`] — **global budgets**: a
//!   [`CorruptionStrategy`] plans physical collisions, each budget unit
//!   spent once, corruption shared only through common-neighbor
//!   geometry;
//! * [`CountingSim::run_oracle`] — **per-receiver budgets**: the
//!   paper's accounting, with an independent capacity `mf` per
//!   (bad node, receiver) pair, spent by a deterministic
//!   block-if-winnable oracle.
//!
//! Possibility results (Theorems 2–3) hold under *both* models (the
//! oracle adversary is strictly stronger). The impossibility
//! constructions stall broadcast under the oracle model exactly as the
//! paper describes; under global budgets they can leak — a reproduction
//! finding quantified in EXPERIMENTS.md (EXP-T1/EXP-F2).

use bftbcast_adversary::{AttackPlan, CorruptionStrategy, WaveView};
use bftbcast_net::{Budget, Grid, NodeId, ScanMode, Topology, Value, Worklist};
use bftbcast_protocols::CountingProtocol;

use crate::metrics::CountingOutcome;

/// The counting engine. Construct with [`CountingSim::new`], run with
/// [`CountingSim::run`], then inspect per-node state.
///
/// All per-wave neighborhood queries route through the [`Topology`]
/// stencil (id runs + window intersection); the naive [`Grid`]
/// iterator never runs inside the wave loop.
#[derive(Debug, Clone)]
pub struct CountingSim {
    topology: Topology,
    protocol: CountingProtocol,
    scan: ScanMode,
    source: NodeId,
    is_good: Vec<bool>,
    bad_nodes: Vec<NodeId>,
    budgets: Vec<Budget>,
    accepted: Vec<Option<Value>>,
    /// Bitset mirror of `is_good[u] && accepted[u].is_none()` — the
    /// frontier kernel's receiver filter. One cache-resident word read
    /// (128 KiB per million nodes) instead of two scattered array
    /// lookups; kept in sync at every acceptance.
    undecided: Vec<u64>,
    accepted_wave: Vec<Option<usize>>,
    tally_true: Vec<u64>,
    tally_wrong: Vec<u64>,
    waves: usize,
    good_copies_sent: u64,
    source_copies_sent: u64,
    adversary_spent: u64,
    wrong_accepts: usize,
}

impl CountingSim {
    /// Builds an engine for one run.
    ///
    /// # Panics
    ///
    /// Panics if `bad_nodes` contains the source, duplicates, or invalid
    /// ids, or if a relay quota exceeds its node's budget.
    pub fn new(
        grid: Grid,
        protocol: CountingProtocol,
        source: NodeId,
        bad_nodes: &[NodeId],
        mf: u64,
    ) -> Self {
        let n = grid.node_count();
        assert!(source < n, "source out of range");
        assert!(
            protocol.quotas_fit_budgets(),
            "protocol quota exceeds budget"
        );
        let mut is_good = vec![true; n];
        for &b in bad_nodes {
            assert!(b < n, "bad node out of range");
            assert!(b != source, "the base station is assumed correct");
            assert!(is_good[b], "duplicate bad node {b}");
            is_good[b] = false;
        }
        let budgets = (0..n)
            .map(|id| {
                if id == source {
                    Budget::unbounded()
                } else if is_good[id] {
                    Budget::limited(protocol.budget[id])
                } else {
                    Budget::limited(mf)
                }
            })
            .collect();
        let mut accepted = vec![None; n];
        accepted[source] = Some(Value::TRUE);
        let mut undecided = vec![0u64; n.div_ceil(64)];
        for u in 0..n {
            if is_good[u] && accepted[u].is_none() {
                undecided[u / 64] |= 1 << (u % 64);
            }
        }
        let mut accepted_wave = vec![None; n];
        accepted_wave[source] = Some(0);
        CountingSim {
            topology: Topology::new(grid),
            protocol,
            scan: ScanMode::default(),
            source,
            is_good,
            bad_nodes: bad_nodes.to_vec(),
            budgets,
            accepted,
            undecided,
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

    /// Runs the engine to fixpoint against the given strategy.
    ///
    /// Equivalent to [`CountingSim::begin_attack`] followed by
    /// [`CountingSim::step_attack`] until fixpoint — the resumable form
    /// the [`crate::engine::SimEngine`] runtime drives wave by wave.
    ///
    /// The wave loop is allocation-free at steady state: wave vectors
    /// are double-buffered, the strategy view's per-node slices are
    /// reused buffers, and deliveries walk [`Topology`] neighborhoods
    /// with window-intersection corruption.
    pub fn run<S: CorruptionStrategy>(&mut self, strategy: &mut S) -> CountingOutcome {
        let mut run = self.begin_attack();
        while self.step_attack(&mut run, strategy) {}
        self.outcome()
    }

    /// Selects dense or frontier per-wave iteration (see [`ScanMode`]).
    /// Both modes are bit-identical in outcomes, tallies and counters —
    /// the flag only changes per-wave cost. Set it before beginning a
    /// run; switching modes mid-run is not supported.
    pub fn set_scan_mode(&mut self, mode: ScanMode) {
        self.scan = mode;
    }

    /// The active scan mode.
    pub fn scan_mode(&self) -> ScanMode {
        self.scan
    }

    /// Starts a strategy-driven (global-budget) run: charges the source
    /// transmission and returns the resumable wave state. Call at most
    /// once per engine; drive with [`CountingSim::step_attack`].
    pub fn begin_attack(&mut self) -> AttackRun {
        let n = self.topology.node_count();
        self.source_copies_sent += self.protocol.source_copies;
        AttackRun {
            wave: vec![(self.source, self.protocol.source_copies)],
            next: Vec::new(),
            // The strategy-view inputs, correct as of "before wave 1".
            // The dense path rebuilds them from scratch each wave; the
            // frontier path keeps them fresh incrementally at the only
            // nodes whose budget/acceptance can change (plan attackers
            // and new acceptors).
            remaining: (0..n).map(|u| self.budgets[u].remaining()).collect(),
            accepted_true: (0..n)
                .map(|u| self.accepted[u] == Some(Value::TRUE))
                .collect(),
            // Per-wave dense sender state, validity stamped by wave
            // number so no per-wave clearing is needed.
            sent: WaveStamped::new(n),
            collided: WaveStamped::new(n),
            common: Vec::with_capacity(self.topology.degree()),
            touched: Worklist::new(n),
        }
    }

    /// Advances a strategy-driven run by one wave. Returns `false` at
    /// fixpoint (no transmissions pending), after which
    /// [`CountingSim::outcome`] and the per-node inspectors are final.
    pub fn step_attack(
        &mut self,
        run: &mut AttackRun,
        strategy: &mut dyn CorruptionStrategy,
    ) -> bool {
        if run.wave.is_empty() {
            return false;
        }
        self.waves += 1;
        if self.scan == ScanMode::Dense {
            // Legacy: rebuild the dense strategy-view inputs from
            // scratch every wave.
            for u in 0..self.topology.node_count() {
                run.remaining[u] = self.budgets[u].remaining();
                run.accepted_true[u] = self.accepted[u] == Some(Value::TRUE);
            }
        }
        let plan = {
            let view = WaveView {
                topology: &self.topology,
                transmissions: &run.wave,
                accepted_true: &run.accepted_true,
                tallies_true: &self.tally_true,
                threshold: self.protocol.accept_threshold,
                bad_nodes: &self.bad_nodes,
                remaining_budget: &run.remaining,
                is_good: &self.is_good,
                relay_quota: &self.protocol.relay_copies,
            };
            strategy.plan(&view)
        };
        self.validate_and_spend(&run.wave, &plan, &mut run.sent, &mut run.collided);
        if self.scan == ScanMode::Frontier {
            // The spend changed budgets only at the plan's attackers.
            for c in &plan.collisions {
                run.remaining[c.attacker] = self.budgets[c.attacker].remaining();
            }
            for f in &plan.forgeries {
                run.remaining[f.attacker] = self.budgets[f.attacker].remaining();
            }
        }
        self.apply_wave(&run.wave, &plan, &mut run.common);
        run.next.clear();
        match self.scan {
            ScanMode::Dense => self.collect_acceptances_into(None, &mut run.next),
            ScanMode::Frontier => {
                // Tallies changed only inside the senders' and forgery
                // attackers' neighborhoods (a collision hits the common
                // neighbors of attacker and sender — already a subset of
                // N(sender)); no other node can newly accept.
                run.touched.clear();
                run.touched
                    .extend_neighborhoods(&self.topology, run.wave.iter().map(|&(s, _)| s));
                run.touched.extend_neighborhoods(
                    &self.topology,
                    plan.forgeries.iter().map(|f| f.attacker),
                );
                run.touched.sort();
                self.collect_acceptances_into(Some(run.touched.as_slice()), &mut run.next);
            }
        }
        if self.scan == ScanMode::Frontier {
            // New TRUE acceptors are exactly the scheduled relayers:
            // they flipped acceptance and spent their relay quota.
            for &(u, _) in &run.next {
                run.accepted_true[u] = true;
                run.remaining[u] = self.budgets[u].remaining();
            }
        }
        std::mem::swap(&mut run.wave, &mut run.next);
        true
    }

    /// Runs the engine to fixpoint under the paper's **per-receiver**
    /// budget accounting (see module docs): every (bad node, receiver)
    /// pair has an independent corruption capacity `mf`. Each wave, for
    /// every undecided receiver the oracle corrupts just enough incoming
    /// copies to hold the receiver below the acceptance threshold — but
    /// only when the remaining capacity at that receiver can actually
    /// close the gap (hopeless fights are skipped, exactly like the
    /// narrative of Figure 2: the four "gray" nodes are let through).
    pub fn run_oracle(&mut self, mf: u64) -> CountingOutcome {
        let mut run = self.begin_oracle(mf);
        while self.step_oracle(&mut run) {}
        self.outcome()
    }

    /// Starts a per-receiver-oracle run (see
    /// [`CountingSim::run_oracle`]): charges the source transmission,
    /// precomputes per-receiver corruption capacity, and returns the
    /// resumable wave state. Call at most once per engine; drive with
    /// [`CountingSim::step_oracle`].
    pub fn begin_oracle(&mut self, mf: u64) -> OracleRun {
        let n = self.topology.node_count();
        // Remaining per-receiver capacity: sum over bad b in N(u) of the
        // per-pair budget.
        let mut capacity = vec![0u64; n];
        for &b in &self.bad_nodes {
            for u in self.topology.neighbors_of(b) {
                if self.is_good[u] {
                    capacity[u] += mf;
                }
            }
        }
        self.source_copies_sent += self.protocol.source_copies;
        OracleRun {
            capacity,
            wave: vec![(self.source, self.protocol.source_copies)],
            next: Vec::new(),
            incoming: vec![0u64; n],
            touched: Worklist::new(n),
        }
    }

    /// Advances an oracle run by one wave. Returns `false` at fixpoint,
    /// after which [`CountingSim::outcome`] and the per-node inspectors
    /// are final.
    pub fn step_oracle(&mut self, run: &mut OracleRun) -> bool {
        if run.wave.is_empty() {
            return false;
        }
        self.waves += 1;
        match self.scan {
            ScanMode::Dense => {
                // Incoming correct copies this wave.
                run.incoming.fill(0);
                for &(s, copies) in &run.wave {
                    for u in self.topology.neighbors_of(s) {
                        if self.is_good[u] && self.accepted[u].is_none() {
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
                run.next.clear();
                self.collect_acceptances_into(None, &mut run.next);
            }
            ScanMode::Frontier => {
                // Only undecided good receivers adjacent to a sender can
                // change state this wave; `touched` collects exactly
                // those, lazily zeroing `incoming` on first touch so no
                // O(n) fill is needed.
                run.touched.clear();
                for &(s, copies) in &run.wave {
                    for u in self.topology.neighbors_of(s) {
                        if self.undecided(u) {
                            if run.touched.insert(u) {
                                run.incoming[u] = 0;
                            }
                            run.incoming[u] += copies;
                        }
                    }
                }
                // Ascending order = the dense 0..n scan restricted to
                // the touched set: identical corrupt/accept order. The
                // dense path's corrupt and accept sweeps are fused into
                // one pass here: both touch only u-local state (plus
                // commutative global counters), so the fused loop lands
                // in the same end state with u's lines still cache-hot.
                run.touched.sort();
                run.next.clear();
                for i in 0..run.touched.len() {
                    let u = run.touched.item(i);
                    let incoming = run.incoming[u];
                    self.oracle_corrupt(u, incoming, &mut run.capacity[u]);
                    self.try_accept(u, &mut run.next);
                }
            }
        }
        std::mem::swap(&mut run.wave, &mut run.next);
        true
    }

    /// The per-receiver oracle's corruption rule at one receiver (see
    /// [`CountingSim::run_oracle`]): hold `u` at `threshold − 1` correct
    /// copies, but never waste capacity on a safe or hopeless fight.
    fn oracle_corrupt(&mut self, u: NodeId, incoming: u64, capacity: &mut u64) {
        let total = self.tally_true[u] + incoming;
        // Keep u at threshold - 1 = t*mf correct copies.
        let deficit = (total + 1).saturating_sub(self.protocol.accept_threshold);
        let corrupt = if deficit == 0 || deficit > (*capacity).min(incoming) {
            0 // safe already, or hopeless: don't waste capacity
        } else {
            deficit
        };
        *capacity -= corrupt;
        self.adversary_spent += corrupt;
        self.tally_true[u] += incoming - corrupt;
        self.tally_wrong[u] += corrupt;
    }

    /// Runs the engine under the per-receiver oracle with **majority**
    /// acceptance instead of the paper's threshold rule: a node accepts
    /// the leading value once it has received `quorum` total copies
    /// (correct or corrupted), ties breaking *against* the node.
    ///
    /// This is the EXP-A3 ablation. Under the threshold rule
    /// (`t·mf + 1` copies of one value) forged copies are harmless — a
    /// wrong value can never reach the threshold, so the adversary's
    /// only lever is suppressing correct copies. Under majority
    /// acceptance a corruption both removes a correct copy *and* adds a
    /// wrong one, so safety needs `quorum ≥ 2·t·mf + 1` — twice the
    /// intake — which is exactly why the paper's protocols accept at
    /// `t·mf + 1` and reserve majority voting for the
    /// `2·t·mf + 1`-copy source step (§3.1).
    pub fn run_majority_oracle(&mut self, mf: u64, quorum: u64) -> CountingOutcome {
        let mut run = self.begin_majority_oracle(mf, quorum);
        while self.step_majority_oracle(&mut run) {}
        self.outcome()
    }

    /// Starts a majority-acceptance oracle run (see
    /// [`CountingSim::run_majority_oracle`]). Call at most once per
    /// engine; drive with [`CountingSim::step_majority_oracle`].
    pub fn begin_majority_oracle(&mut self, mf: u64, quorum: u64) -> MajorityRun {
        let n = self.topology.node_count();
        let mut capacity = vec![0u64; n];
        for &b in &self.bad_nodes {
            for u in self.topology.neighbors_of(b) {
                if self.is_good[u] {
                    capacity[u] += mf;
                }
            }
        }
        self.source_copies_sent += self.protocol.source_copies;
        MajorityRun {
            capacity,
            quorum,
            wave: vec![(self.source, self.protocol.source_copies)],
            next: Vec::new(),
            incoming: vec![0u64; n],
            touched: Worklist::new(n),
        }
    }

    /// Advances a majority-oracle run by one wave; `false` at fixpoint.
    pub fn step_majority_oracle(&mut self, run: &mut MajorityRun) -> bool {
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
                        if self.is_good[u] && self.accepted[u].is_none() {
                            run.incoming[u] += copies;
                        }
                    }
                }
                for u in 0..self.topology.node_count() {
                    if run.incoming[u] == 0 {
                        continue;
                    }
                    let incoming = run.incoming[u];
                    self.majority_corrupt(u, incoming, &mut run.capacity[u]);
                }
                // Majority acceptance at the quorum.
                for u in 0..self.topology.node_count() {
                    self.try_accept_majority(u, run.quorum, &mut run.next);
                }
            }
            ScanMode::Frontier => {
                run.touched.clear();
                for &(s, copies) in &run.wave {
                    for u in self.topology.neighbors_of(s) {
                        if self.undecided(u) {
                            if run.touched.insert(u) {
                                run.incoming[u] = 0;
                            }
                            run.incoming[u] += copies;
                        }
                    }
                }
                // Only touched nodes gained copies, so only they can
                // newly reach the quorum; corrupt and accept fuse into
                // one sorted pass exactly as in the threshold oracle.
                run.touched.sort();
                for i in 0..run.touched.len() {
                    let u = run.touched.item(i);
                    let incoming = run.incoming[u];
                    self.majority_corrupt(u, incoming, &mut run.capacity[u]);
                    self.try_accept_majority(u, run.quorum, &mut run.next);
                }
            }
        }
        std::mem::swap(&mut run.wave, &mut run.next);
        true
    }

    /// The majority oracle's corruption rule at one receiver: every
    /// corruption strictly improves the adversary's majority position,
    /// so spend eagerly.
    fn majority_corrupt(&mut self, u: NodeId, incoming: u64, capacity: &mut u64) {
        let corrupt = (*capacity).min(incoming);
        *capacity -= corrupt;
        self.adversary_spent += corrupt;
        self.tally_true[u] += incoming - corrupt;
        self.tally_wrong[u] += corrupt;
    }

    /// Applies the majority acceptance rule at one node, scheduling a
    /// newly accepted relayer into `next`.
    fn try_accept_majority(&mut self, u: NodeId, quorum: u64, next: &mut Vec<(NodeId, u64)>) {
        if !self.undecided(u) {
            return;
        }
        let total = self.tally_true[u] + self.tally_wrong[u];
        if total < quorum {
            return;
        }
        if self.tally_wrong[u] >= self.tally_true[u] {
            self.accepted[u] = Some(Value::FORGED);
            self.mark_decided(u);
            self.accepted_wave[u] = Some(self.waves);
            self.wrong_accepts += 1;
        } else {
            self.accepted[u] = Some(Value::TRUE);
            self.mark_decided(u);
            self.accepted_wave[u] = Some(self.waves);
            let quota = self.protocol.relay_copies[u];
            self.budgets[u]
                .try_spend(quota)
                .expect("relay quota exceeds good budget");
            self.good_copies_sent += quota;
            next.push((u, quota));
        }
    }

    /// The aggregate outcome of the run so far (final once the driving
    /// `step_*` method has returned `false`).
    pub fn outcome(&self) -> CountingOutcome {
        CountingOutcome {
            good_nodes: self.is_good.iter().filter(|&&g| g).count(),
            accepted_true: self
                .accepted
                .iter()
                .enumerate()
                .filter(|&(id, a)| self.is_good[id] && *a == Some(Value::TRUE))
                .count(),
            wrong_accepts: self.wrong_accepts,
            waves: self.waves,
            good_copies_sent: self.good_copies_sent,
            source_copies_sent: self.source_copies_sent,
            adversary_spent: self.adversary_spent,
        }
    }

    /// Validates the plan against the model and debits budgets.
    ///
    /// # Panics
    ///
    /// Panics on any violation: attacks by good nodes, out-of-range
    /// collisions (`L∞(attacker, sender) > 2r`), over-collided senders,
    /// or budget overdrafts. Strategies are untrusted; violations are
    /// bugs worth crashing on.
    fn validate_and_spend(
        &mut self,
        wave: &[(NodeId, u64)],
        plan: &AttackPlan,
        sent: &mut WaveStamped,
        collided: &mut WaveStamped,
    ) {
        let grid = self.topology.grid();
        for &(s, copies) in wave {
            sent.set(s, copies, self.waves);
        }
        for c in &plan.collisions {
            assert!(!self.is_good[c.attacker], "good node in attack plan");
            let copies_sent = sent
                .get(c.sender, self.waves)
                .expect("collision against a non-transmitting sender");
            assert!(
                grid.linf_distance(c.attacker, c.sender) <= 2 * grid.range(),
                "collision out of radio range"
            );
            let total = collided.get(c.sender, self.waves).unwrap_or(0) + c.copies;
            collided.set(c.sender, total, self.waves);
            assert!(
                total <= copies_sent,
                "more copies collided than sender {} transmitted",
                c.sender
            );
            self.budgets[c.attacker]
                .try_spend(c.copies)
                .expect("adversary over budget");
            self.adversary_spent += c.copies;
        }
        for f in &plan.forgeries {
            assert!(!self.is_good[f.attacker], "good node in attack plan");
            self.budgets[f.attacker]
                .try_spend(f.copies)
                .expect("adversary over budget");
            self.adversary_spent += f.copies;
        }
    }

    /// Delivers one wave of transmissions under the validated plan.
    ///
    /// Deliveries first credit every undecided receiver in `N(sender)`
    /// with the full transmission, then each collision moves its copies
    /// from correct to corrupted at exactly `N(attacker) ∩ N(sender)` —
    /// computed by intersecting the two stencil windows instead of an
    /// `are_neighbors` filter per (receiver, attack) pair.
    fn apply_wave(&mut self, wave: &[(NodeId, u64)], plan: &AttackPlan, common: &mut Vec<NodeId>) {
        for &(sender, copies) in wave {
            for u in self.topology.neighbors_of(sender) {
                if self.is_good[u] && self.accepted[u].is_none() {
                    self.tally_true[u] += copies;
                }
            }
        }
        for c in &plan.collisions {
            common.clear();
            self.topology
                .common_neighbors_into(c.attacker, c.sender, common);
            for &u in common.iter() {
                if self.is_good[u] && self.accepted[u].is_none() {
                    // Validation bounds the collided total per sender by
                    // its transmitted copies, so this never underflows.
                    self.tally_true[u] -= c.copies;
                    self.tally_wrong[u] += c.copies;
                }
            }
        }
        for f in &plan.forgeries {
            for u in self.topology.neighbors_of(f.attacker) {
                if self.is_good[u] && self.accepted[u].is_none() {
                    self.tally_wrong[u] += f.copies;
                }
            }
        }
    }

    /// Applies the acceptance rule and schedules the next wave into
    /// `next` (cleared by the caller; double-buffered across waves).
    ///
    /// `candidates` selects the scan: `None` is the legacy full-grid
    /// pass, `Some(touched)` restricts it to an ascending-sorted touched
    /// set — exact because a node whose tallies did not change this wave
    /// cannot newly cross the threshold (it would have accepted when
    /// they last changed).
    /// Whether `u` is a good node that has not yet accepted a value —
    /// the bitset fast path for the per-wave receiver filter.
    #[inline]
    fn undecided(&self, u: NodeId) -> bool {
        self.undecided[u / 64] >> (u % 64) & 1 != 0
    }

    /// Clears `u`'s bit in the undecided mirror; call exactly where
    /// `accepted[u]` is written.
    #[inline]
    fn mark_decided(&mut self, u: NodeId) {
        self.undecided[u / 64] &= !(1u64 << (u % 64));
    }

    fn collect_acceptances_into(
        &mut self,
        candidates: Option<&[NodeId]>,
        next: &mut Vec<(NodeId, u64)>,
    ) {
        match candidates {
            None => {
                for u in 0..self.topology.node_count() {
                    self.try_accept(u, next);
                }
            }
            Some(touched) => {
                for &u in touched {
                    self.try_accept(u, next);
                }
            }
        }
    }

    /// Applies the threshold acceptance rule at one node, scheduling a
    /// newly accepted relayer into `next`.
    fn try_accept(&mut self, u: NodeId, next: &mut Vec<(NodeId, u64)>) {
        if !self.undecided(u) {
            return;
        }
        let true_in = self.tally_true[u] >= self.protocol.accept_threshold;
        let wrong_in = self.tally_wrong[u] >= self.protocol.accept_threshold;
        if wrong_in && self.tally_wrong[u] >= self.tally_true[u] {
            // A forged value crossed the threshold first: a
            // correctness violation (impossible when t*mf < threshold;
            // kept as a checked invariant).
            self.accepted[u] = Some(Value::FORGED);
            self.mark_decided(u);
            self.accepted_wave[u] = Some(self.waves);
            self.wrong_accepts += 1;
        } else if true_in {
            self.accepted[u] = Some(Value::TRUE);
            self.mark_decided(u);
            self.accepted_wave[u] = Some(self.waves);
            let quota = self.protocol.relay_copies[u];
            self.budgets[u]
                .try_spend(quota)
                .expect("relay quota exceeds good budget");
            self.good_copies_sent += quota;
            next.push((u, quota));
        }
    }

    // ------------------------------------------------------------------
    // Post-run inspection (the Figure 2 trace API).
    // ------------------------------------------------------------------

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

    /// The wave in which `u` accepted (0 for the source), if it did.
    pub fn accepted_wave(&self, u: NodeId) -> Option<usize> {
        self.accepted_wave[u]
    }

    /// Cumulative good-node acceptances per wave — the propagation
    /// profile of the run (index = wave).
    pub fn propagation_profile(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.waves + 1];
        for u in 0..self.topology.node_count() {
            if let Some(w) = self.accepted_wave[u] {
                if self.is_good[u] {
                    counts[w] += 1;
                }
            }
        }
        let mut cumulative = 0;
        counts
            .iter()
            .map(|c| {
                cumulative += c;
                cumulative
            })
            .collect()
    }

    /// Correct copies delivered to `u` so far.
    pub fn tally_true(&self, u: NodeId) -> u64 {
        self.tally_true[u]
    }

    /// Forged copies delivered to `u` so far.
    pub fn tally_wrong(&self, u: NodeId) -> u64 {
        self.tally_wrong[u]
    }

    /// Number of `u`'s neighbors (good or bad) that accepted `Vtrue`.
    pub fn decided_neighbors(&self, u: NodeId) -> usize {
        self.topology
            .neighbors_of(u)
            .filter(|&v| self.accepted[v] == Some(Value::TRUE))
            .count()
    }

    /// Number of `u`'s *good* neighbors that accepted `Vtrue` (the
    /// senders that can feed it correct copies).
    pub fn decided_good_neighbors(&self, u: NodeId) -> usize {
        self.topology
            .neighbors_of(u)
            .filter(|&v| self.is_good[v] && self.accepted[v] == Some(Value::TRUE))
            .count()
    }

    /// Remaining attack budget of a node.
    pub fn remaining_budget(&self, u: NodeId) -> u64 {
        self.budgets[u].remaining()
    }

    /// Whether node `u` is honest.
    pub fn is_good(&self, u: NodeId) -> bool {
        self.is_good[u]
    }
}

/// Resumable state of a strategy-driven run: the pending wave plus the
/// reusable per-wave buffers. Produced by [`CountingSim::begin_attack`],
/// advanced by [`CountingSim::step_attack`].
#[derive(Debug, Clone)]
pub struct AttackRun {
    wave: Vec<(NodeId, u64)>,
    next: Vec<(NodeId, u64)>,
    remaining: Vec<u64>,
    accepted_true: Vec<bool>,
    sent: WaveStamped,
    collided: WaveStamped,
    common: Vec<NodeId>,
    touched: Worklist,
}

/// Resumable state of a per-receiver-oracle run. Produced by
/// [`CountingSim::begin_oracle`], advanced by
/// [`CountingSim::step_oracle`].
#[derive(Debug, Clone)]
pub struct OracleRun {
    capacity: Vec<u64>,
    wave: Vec<(NodeId, u64)>,
    next: Vec<(NodeId, u64)>,
    incoming: Vec<u64>,
    touched: Worklist,
}

impl OracleRun {
    /// Number of senders transmitting in the upcoming wave — the active
    /// frontier the next [`CountingSim::step_oracle`] call will expand.
    /// Scale instrumentation reads this to correlate per-wave cost with
    /// frontier size.
    pub fn front_size(&self) -> usize {
        self.wave.len()
    }
}

/// Resumable state of a majority-acceptance oracle run. Produced by
/// [`CountingSim::begin_majority_oracle`], advanced by
/// [`CountingSim::step_majority_oracle`].
#[derive(Debug, Clone)]
pub struct MajorityRun {
    capacity: Vec<u64>,
    quorum: u64,
    wave: Vec<(NodeId, u64)>,
    next: Vec<(NodeId, u64)>,
    incoming: Vec<u64>,
    touched: Worklist,
}

/// A dense per-node `u64` map whose entries are valid only for one wave
/// (identified by a stamp), so per-wave sender state never needs an
/// O(n) clear or a hash map: stale entries are simply ignored.
#[derive(Debug, Clone)]
struct WaveStamped {
    value: Vec<u64>,
    stamp: Vec<usize>,
}

impl WaveStamped {
    fn new(n: usize) -> Self {
        WaveStamped {
            value: vec![0; n],
            // Wave numbers start at 1, so 0 marks "never written".
            stamp: vec![0; n],
        }
    }

    fn set(&mut self, u: NodeId, v: u64, wave: usize) {
        self.value[u] = v;
        self.stamp[u] = wave;
    }

    fn get(&self, u: NodeId, wave: usize) -> Option<u64> {
        (self.stamp[u] == wave).then(|| self.value[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast_adversary::{Chaos, GreedyFrontier, LatticePlacement, Passive, Placement};
    use bftbcast_net::Grid;
    use bftbcast_protocols::Params;

    fn small() -> (Grid, Params) {
        // 15x15 torus, r = 1, t = 1, mf = 4.
        (Grid::new(15, 15, 1).unwrap(), Params::new(1, 1, 4))
    }

    #[test]
    fn passive_run_reaches_everyone() {
        let (grid, p) = small();
        let proto = CountingProtocol::protocol_b(&grid, p);
        let mut sim = CountingSim::new(grid, proto, 0, &[], p.mf);
        let out = sim.run(&mut Passive);
        assert!(out.is_reliable(), "no adversary, full coverage: {out:?}");
        assert_eq!(out.good_nodes, 225);
        assert!(out.waves >= 7, "15x15 torus with r=1 takes several waves");
    }

    #[test]
    fn protocol_b_survives_greedy_at_2m0() {
        let (grid, p) = small();
        let proto = CountingProtocol::protocol_b(&grid, p);
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        let mut sim = CountingSim::new(grid, proto, 0, &bad, p.mf);
        let out = sim.run(&mut GreedyFrontier::default());
        assert!(out.is_correct());
        assert!(
            out.is_complete(),
            "Theorem 2: m = 2 m0 beats any adversary (coverage {})",
            out.coverage()
        );
    }

    #[test]
    fn protocol_b_survives_per_receiver_oracle_at_2m0() {
        // Theorem 2 is proved against the per-receiver accounting; the
        // oracle is that adversary, strictly stronger than any physical
        // strategy.
        let (grid, p) = small();
        let proto = CountingProtocol::protocol_b(&grid, p);
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        let mut sim = CountingSim::new(grid, proto, 0, &bad, p.mf);
        let out = sim.run_oracle(p.mf);
        assert!(out.is_correct());
        assert!(out.is_complete(), "coverage {}", out.coverage());
    }

    /// Theorem 1's construction on the torus: a single stripe does not
    /// separate a torus, so two stripes (rows 4 and 11) carve out the
    /// band of rows 5–10. Under the paper's per-receiver accounting and
    /// `m = m0 − 1` every band node is starved; at `m = m0` the stripe
    /// adversary loses its grip.
    #[test]
    fn double_stripe_stalls_band_exactly_below_m0() {
        use bftbcast_adversary::StripePlacement;
        let (grid, p) = small();
        let mut bad = StripePlacement::facing_up(4, 1).bad_nodes(&grid);
        bad.extend(StripePlacement::facing_down(11, 1).bad_nodes(&grid));
        assert!(bftbcast_adversary::respects_local_bound(&grid, &bad, 1));

        // m = m0 - 1: the band never decides.
        let m = p.m0() - 1;
        let proto = CountingProtocol::starved(&grid, p, m);
        let mut sim = CountingSim::new(grid.clone(), proto, 0, &bad, p.mf);
        let out = sim.run_oracle(p.mf);
        assert!(out.is_correct());
        assert!(!out.is_complete(), "coverage {}", out.coverage());
        // Every good node in the isolated band is undecided.
        for y in 5..=10u32 {
            for x in 0..grid.width() {
                let id = grid.id_at(x, y);
                if sim.is_good(id) {
                    assert_eq!(sim.accepted(id), None, "({x},{y}) should be starved");
                }
            }
        }

        // Same adversary, m = m0: the stripe cannot hold the frontier.
        let proto = CountingProtocol::starved(&grid, p, p.m0());
        let mut sim = CountingSim::new(grid.clone(), proto, 0, &bad, p.mf);
        let out = sim.run_oracle(p.mf);
        assert!(
            out.is_complete(),
            "m = m0 defeats the stripe: {}",
            out.coverage()
        );
    }

    #[test]
    fn majority_rule_safe_at_double_quorum_unsafe_below() {
        // EXP-A3's core claim, in miniature. Quorum 2*t*mf + 1: the
        // adversary's t*mf corrupted copies can never reach parity, so
        // majority acceptance is safe (but needs twice the intake).
        let (grid, p) = small();
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        let koo = CountingProtocol::koo_baseline(&grid, p);
        let mut sim = CountingSim::new(grid.clone(), koo.clone(), 0, &bad, p.mf);
        let out = sim.run_majority_oracle(p.mf, 2 * p.mf * u64::from(p.t) + 1);
        assert!(out.is_correct(), "wrong accepts: {}", out.wrong_accepts);
        assert!(out.is_complete(), "coverage {}", out.coverage());

        // Quorum t*mf + 1 (the threshold rule's intake) under majority
        // acceptance, with relays sized to that intake: frontier nodes
        // that hear a single relayer receive exactly quorum copies, of
        // which the oracle corrupts t*mf — majority flips, the node
        // accepts a forged value. (The threshold rule is immune at the
        // same intake: `protocol_b_survives_per_receiver_oracle_at_2m0`.)
        let tmf1 = p.mf * u64::from(p.t) + 1;
        let lean = CountingProtocol::starved(&grid, p, tmf1);
        let mut sim = CountingSim::new(grid, lean, 0, &bad, p.mf);
        let out = sim.run_majority_oracle(p.mf, tmf1);
        assert!(
            !out.is_correct(),
            "majority at low quorum must be forgeable"
        );
    }

    #[test]
    fn chaos_never_breaks_correctness() {
        let (grid, p) = small();
        let proto = CountingProtocol::protocol_b(&grid, p);
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        for seed in 0..10u64 {
            let mut sim = CountingSim::new(grid.clone(), proto.clone(), 0, &bad, p.mf);
            let out = sim.run(&mut Chaos::new(seed));
            assert!(out.is_correct(), "seed {seed}: wrong accept");
            assert!(
                out.is_complete(),
                "seed {seed}: chaos is weaker than greedy"
            );
        }
    }

    #[test]
    fn budgets_are_never_exceeded() {
        let (grid, p) = small();
        let proto = CountingProtocol::protocol_b(&grid, p);
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        let mf = p.mf;
        let mut sim = CountingSim::new(grid.clone(), proto.clone(), 0, &bad, mf);
        sim.run(&mut GreedyFrontier::default());
        for u in grid.nodes() {
            if !sim.is_good(u) {
                assert!(sim.remaining_budget(u) <= mf);
            }
        }
    }

    #[test]
    #[should_panic(expected = "base station is assumed correct")]
    fn source_cannot_be_bad() {
        let (grid, p) = small();
        let proto = CountingProtocol::protocol_b(&grid, p);
        let _ = CountingSim::new(grid, proto, 0, &[0], p.mf);
    }

    #[test]
    fn source_neighbors_accept_in_first_wave() {
        let (grid, p) = small();
        let proto = CountingProtocol::protocol_b(&grid, p);
        let mut sim = CountingSim::new(grid.clone(), proto, 0, &[], p.mf);
        sim.run(&mut Passive);
        for v in grid.neighbors(0) {
            assert_eq!(sim.accepted(v), Some(Value::TRUE));
            assert!(sim.tally_true(v) >= p.source_quota());
        }
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use bftbcast_adversary::Passive;
    use bftbcast_net::Grid;
    use bftbcast_protocols::Params;

    #[test]
    fn propagation_profile_is_monotone_and_complete() {
        let grid = Grid::new(15, 15, 1).unwrap();
        let p = Params::new(1, 1, 4);
        let proto = CountingProtocol::protocol_b(&grid, p);
        let mut sim = CountingSim::new(grid.clone(), proto, 0, &[], p.mf);
        let out = sim.run(&mut Passive);
        let profile = sim.propagation_profile();
        assert!(profile.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert_eq!(*profile.last().unwrap(), out.accepted_true);
        // Source at wave 0; its neighbors at wave 1.
        assert_eq!(sim.accepted_wave(0), Some(0));
        for v in grid.neighbors(0) {
            assert_eq!(sim.accepted_wave(v), Some(1));
        }
        // Wave index equals L-infinity distance from the source here.
        for u in grid.nodes() {
            assert_eq!(
                sim.accepted_wave(u).unwrap() as u32,
                grid.linf_distance(0, u),
                "node {u}"
            );
        }
    }
}
