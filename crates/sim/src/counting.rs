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
//!
//! # Three node roles
//!
//! Every node is good, Byzantine (the `bad_nodes` of
//! [`CountingSim::new`]) or crash-stop
//! ([`CountingSim::with_crash_nodes`], see [`crate::crash`]). A crash
//! node receives, is fed by the oracle's per-receiver capacity and
//! accepts exactly like a good node, but relays only
//! [`CrashBehavior`]'s share of its quota, and the outcome counts it as
//! neither good nor bad.
//!
//! # One step loop per drive
//!
//! The oracle drives (threshold and majority acceptance, any node
//! roles) share one gather → corrupt → accept loop over a
//! [`Worklist`] of the receivers the wave reached; the strategy drive
//! has its own. [`ScanMode::Dense`] runs the same loops with every node
//! queued, which checks that skipping the nodes off the front never
//! changes a result.

use bftbcast_adversary::{AttackPlan, CorruptionStrategy, WaveView};
use bftbcast_net::{Grid, NetError, NodeId, ScanMode, Topology, Value, Worklist};
use bftbcast_protocols::CountingProtocol;

use crate::crash::CrashBehavior;
use crate::metrics::CountingOutcome;

/// The counting engine. Construct with [`CountingSim::new`], run with
/// [`CountingSim::run`], then inspect per-node state.
///
/// All per-wave neighborhood queries route through the [`Topology`]
/// stencil (id runs + window intersection); the naive [`Grid`]
/// iterator never runs inside the wave loop.
///
/// Resident per-node state is 29¼ bytes: `honest` (1), `spent` (8),
/// `accepted_wave` (4), the two tallies (16) and two bits for
/// `undecided`/`forged`. The protocol's `relay_copies` and `budget`
/// add 16 more. A run's own buffers ([`OracleRun`], [`AttackRun`]) come
/// on top; [`CountingSim::reset`] refills the state in place for the
/// next run without allocating.
#[derive(Debug, Clone)]
pub struct CountingSim {
    topology: Topology,
    protocol: CountingProtocol,
    scan: ScanMode,
    source: NodeId,
    /// Budget of every bad node; honest nodes take theirs from the
    /// protocol, and the source is unbounded.
    mf: u64,
    /// Good and crash nodes; the rest are Byzantine.
    honest: Vec<bool>,
    bad_nodes: Vec<NodeId>,
    /// The crash-stop nodes and when each stops, sorted by id; `None`
    /// for a sim built without a crash load.
    crash: Option<Vec<(NodeId, CrashBehavior)>>,
    /// Budget units each node has spent; the limit follows from its
    /// role (see [`CountingSim::remaining_budget`]).
    spent: Vec<u64>,
    /// Bitset of honest nodes that have not yet accepted a value — the
    /// frontier kernel's receiver filter, and (with `forged`) the whole
    /// acceptance state: a decided honest node accepted `Vtrue` unless
    /// its `forged` bit is set; bad nodes never accept.
    undecided: Vec<u64>,
    /// Bitset of honest nodes that accepted a forged value.
    forged: Vec<u64>,
    /// Wave of acceptance, [`NOT_ACCEPTED`] while undecided.
    accepted_wave: Vec<u32>,
    tally_true: Vec<u64>,
    tally_wrong: Vec<u64>,
    waves: usize,
    good_copies_sent: u64,
    source_copies_sent: u64,
    adversary_spent: u64,
    /// Good nodes that accepted `Vtrue` (the source included) and
    /// good nodes that accepted a forgery.
    true_accepts: usize,
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
        assert!(u32::try_from(n).is_ok(), "node count exceeds u32");
        let mut honest = vec![true; n];
        for &b in bad_nodes {
            assert!(b < n, "bad node out of range");
            assert!(b != source, "the base station is assumed correct");
            assert!(honest[b], "duplicate bad node {b}");
            honest[b] = false;
        }
        let mut sim = CountingSim {
            topology: Topology::new(grid),
            protocol,
            scan: ScanMode::default(),
            source,
            mf,
            honest,
            bad_nodes: bad_nodes.to_vec(),
            crash: None,
            spent: vec![0; n],
            undecided: vec![0; n.div_ceil(64)],
            forged: vec![0; n.div_ceil(64)],
            accepted_wave: vec![NOT_ACCEPTED; n],
            tally_true: vec![0; n],
            tally_wrong: vec![0; n],
            waves: 0,
            good_copies_sent: 0,
            source_copies_sent: 0,
            adversary_spent: 0,
            true_accepts: 0,
            wrong_accepts: 0,
        };
        sim.init_acceptance();
        sim
    }

    /// Adds a crash load: `nodes` become crash-stop nodes that stop
    /// relaying as `behavior` says (call again for another schedule).
    ///
    /// A sim with a crash load — even an empty one — schedules only
    /// relayers that send copies, as the crash-stop model counts
    /// transmissions; without one, a zero-quota good relayer still
    /// takes a (silent) wave.
    ///
    /// # Panics
    ///
    /// Panics if a node is the source, out of range, or already faulty.
    pub fn with_crash_nodes(mut self, nodes: &[NodeId], behavior: CrashBehavior) -> Self {
        let mut crash = self.crash.take().unwrap_or_default();
        for &u in nodes {
            assert!(u < self.honest.len(), "node {u} out of range");
            assert!(u != self.source, "the base station is assumed correct");
            assert!(self.honest[u], "node {u} already faulty");
            crash.push((u, behavior));
        }
        crash.sort_unstable_by_key(|&(u, _)| u);
        if let Some(pair) = crash.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            panic!("node {} already faulty", pair[0].0);
        }
        self.crash = Some(crash);
        self
    }

    /// Restores the state [`CountingSim::new`] built — no spending, no
    /// acceptances but the source's, zero tallies and counters — so the
    /// same engine can run again. Refills in place without allocating;
    /// the configuration (protocol, node roles, scan mode) is kept.
    pub fn reset(&mut self) {
        self.spent.fill(0);
        self.forged.fill(0);
        self.accepted_wave.fill(NOT_ACCEPTED);
        self.tally_true.fill(0);
        self.tally_wrong.fill(0);
        self.waves = 0;
        self.good_copies_sent = 0;
        self.source_copies_sent = 0;
        self.adversary_spent = 0;
        self.wrong_accepts = 0;
        self.init_acceptance();
    }

    /// Every honest node undecided except the source, which holds
    /// `Vtrue` from wave 0.
    fn init_acceptance(&mut self) {
        self.undecided.fill(0);
        for (u, &honest) in self.honest.iter().enumerate() {
            if honest && u != self.source {
                self.undecided[u / 64] |= 1 << (u % 64);
            }
        }
        self.accepted_wave[self.source] = 0;
        self.true_accepts = 1;
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

    /// Selects frontier or every-node iteration (see [`ScanMode`]).
    /// Both run the same step loops and are bit-identical in outcomes,
    /// tallies and counters; `Dense` also checks the incremental
    /// strategy view after every wave. Set it before beginning a run.
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
            // The strategy-view inputs, correct as of "before wave 1" and
            // kept fresh incrementally at the only nodes whose budget or
            // acceptance can change (plan attackers and new acceptors).
            remaining: (0..n).map(|u| self.remaining_budget(u)).collect(),
            accepted_true: (0..n).map(|u| self.accepted_true(u)).collect(),
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
        let plan = {
            let view = WaveView {
                topology: &self.topology,
                transmissions: &run.wave,
                accepted_true: &run.accepted_true,
                tallies_true: &self.tally_true,
                threshold: self.protocol.accept_threshold,
                bad_nodes: &self.bad_nodes,
                remaining_budget: &run.remaining,
                is_good: &self.honest,
                relay_quota: &self.protocol.relay_copies,
            };
            strategy.plan(&view)
        };
        self.validate_and_spend(&run.wave, &plan, &mut run.sent, &mut run.collided);
        // The spend changed budgets only at the plan's attackers.
        for c in &plan.collisions {
            run.remaining[c.attacker] = self.remaining_budget(c.attacker);
        }
        for f in &plan.forgeries {
            run.remaining[f.attacker] = self.remaining_budget(f.attacker);
        }
        self.apply_wave(&run.wave, &plan, &mut run.common);
        // Tallies changed only inside the senders' and forgery
        // attackers' neighborhoods (a collision hits the common
        // neighbors of attacker and sender — already a subset of
        // N(sender)); no other node can newly accept.
        run.touched.clear();
        let dense = self.queue_all_if_dense(&mut run.touched);
        run.touched
            .extend_neighborhoods(&self.topology, run.wave.iter().map(|&(s, _)| s));
        run.touched
            .extend_neighborhoods(&self.topology, plan.forgeries.iter().map(|f| f.attacker));
        run.touched.sort();
        run.next.clear();
        for i in 0..run.touched.len() {
            let u = run.touched.item(i);
            if self.try_accept(u, &mut run.next) {
                run.accepted_true[u] = self.accepted_true(u);
                run.remaining[u] = self.remaining_budget(u);
            }
        }
        if dense {
            for u in 0..self.topology.node_count() {
                assert_eq!(
                    (run.remaining[u], run.accepted_true[u]),
                    (self.remaining_budget(u), self.accepted_true(u)),
                    "wave {}: stale strategy view at node {u}",
                    self.waves
                );
            }
        }
        std::mem::swap(&mut run.wave, &mut run.next);
        true
    }

    /// Under [`ScanMode::Dense`], queues every node and returns `true`:
    /// the step loops then visit the whole grid, and check what they
    /// keep incrementally against a rescan. The one place a run reads
    /// the scan mode.
    fn queue_all_if_dense(&self, worklist: &mut Worklist) -> bool {
        let dense = self.scan == ScanMode::Dense;
        if dense {
            worklist.insert_all();
        }
        dense
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
        self.begin_oracle_run(mf, None)
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
        while self.step_oracle(&mut run) {}
        self.outcome()
    }

    /// Starts a majority-acceptance oracle run (see
    /// [`CountingSim::run_majority_oracle`]). Call at most once per
    /// engine; drive with [`CountingSim::step_oracle`].
    pub fn begin_majority_oracle(&mut self, mf: u64, quorum: u64) -> OracleRun {
        self.begin_oracle_run(mf, Some(quorum))
    }

    fn begin_oracle_run(&mut self, mf: u64, quorum: Option<u64>) -> OracleRun {
        let n = self.topology.node_count();
        // Remaining per-receiver capacity: sum over bad b in N(u) of the
        // per-pair budget.
        let mut capacity = vec![0u64; n];
        for &b in &self.bad_nodes {
            for u in self.topology.neighbors_of(b) {
                if self.honest[u] {
                    capacity[u] += mf;
                }
            }
        }
        self.source_copies_sent += self.protocol.source_copies;
        OracleRun {
            capacity,
            quorum,
            wave: vec![(self.source, self.protocol.source_copies)],
            next: Vec::new(),
            incoming: vec![0u64; n],
            touched: Worklist::new(n),
        }
    }

    /// Advances an oracle run (threshold or majority acceptance) by one
    /// wave. Returns `false` at fixpoint, after which
    /// [`CountingSim::outcome`] and the per-node inspectors are final.
    pub fn step_oracle(&mut self, run: &mut OracleRun) -> bool {
        if run.wave.is_empty() {
            return false;
        }
        self.waves += 1;
        // Gather: only undecided receivers adjacent to a sender can
        // change state this wave; `touched` collects exactly those.
        // `incoming` is zeroed on a node's first touch, so only the
        // every-node worklist needs an O(n) fill.
        run.touched.clear();
        if self.queue_all_if_dense(&mut run.touched) {
            run.incoming.fill(0);
        }
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
        // Corrupt and accept in ascending id order. Both touch only
        // u-local state (plus commutative global counters), so one
        // fused pass lands in the same end state as two.
        run.touched.sort();
        run.next.clear();
        for i in 0..run.touched.len() {
            let u = run.touched.item(i);
            let incoming = run.incoming[u];
            let capacity = &mut run.capacity[u];
            match run.quorum {
                None => {
                    self.oracle_corrupt(u, incoming, capacity);
                    self.try_accept(u, &mut run.next);
                }
                Some(quorum) => {
                    self.majority_corrupt(u, incoming, capacity);
                    self.try_accept_majority(u, quorum, &mut run.next);
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
        self.corrupt(u, incoming, corrupt, capacity);
    }

    /// The majority oracle's corruption rule at one receiver: every
    /// corruption strictly improves the adversary's majority position,
    /// so spend eagerly.
    fn majority_corrupt(&mut self, u: NodeId, incoming: u64, capacity: &mut u64) {
        self.corrupt(u, incoming, (*capacity).min(incoming), capacity);
    }

    /// Delivers `incoming` copies at `u`, `corrupt` of them forged out
    /// of `u`'s remaining oracle capacity.
    fn corrupt(&mut self, u: NodeId, incoming: u64, corrupt: u64, capacity: &mut u64) {
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
            self.decide(u, Value::FORGED, next);
        } else {
            self.decide(u, Value::TRUE, next);
        }
    }

    /// The aggregate outcome of the run so far (final once the driving
    /// `step_*` method has returned `false`). Crash nodes count as
    /// neither good nor bad, even when they accepted before stopping.
    pub fn outcome(&self) -> CountingOutcome {
        let crash_nodes = self.crash.as_ref().map_or(0, Vec::len);
        CountingOutcome {
            good_nodes: self.honest.len() - self.bad_nodes.len() - crash_nodes,
            accepted_true: self.true_accepts,
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
    /// Panics on any violation: attacks by honest nodes, out-of-range
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
        let reach = 2 * self.topology.grid().range();
        for &(s, copies) in wave {
            sent.set(s, copies, self.waves);
        }
        for c in &plan.collisions {
            assert!(!self.honest[c.attacker], "good node in attack plan");
            let copies_sent = sent
                .get(c.sender, self.waves)
                .expect("collision against a non-transmitting sender");
            assert!(
                self.topology.grid().linf_distance(c.attacker, c.sender) <= reach,
                "collision out of radio range"
            );
            let total = collided.get(c.sender, self.waves).unwrap_or(0) + c.copies;
            collided.set(c.sender, total, self.waves);
            assert!(
                total <= copies_sent,
                "more copies collided than sender {} transmitted",
                c.sender
            );
            self.try_spend(c.attacker, c.copies)
                .expect("adversary over budget");
            self.adversary_spent += c.copies;
        }
        for f in &plan.forgeries {
            assert!(!self.honest[f.attacker], "good node in attack plan");
            self.try_spend(f.attacker, f.copies)
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
                if self.undecided(u) {
                    self.tally_true[u] += copies;
                }
            }
        }
        for c in &plan.collisions {
            common.clear();
            self.topology
                .common_neighbors_into(c.attacker, c.sender, common);
            for &u in common.iter() {
                if self.undecided(u) {
                    // Validation bounds the collided total per sender by
                    // its transmitted copies, so this never underflows.
                    self.tally_true[u] -= c.copies;
                    self.tally_wrong[u] += c.copies;
                }
            }
        }
        for f in &plan.forgeries {
            for u in self.topology.neighbors_of(f.attacker) {
                if self.undecided(u) {
                    self.tally_wrong[u] += f.copies;
                }
            }
        }
    }

    /// Whether `u` is an honest node that has not yet accepted a value
    /// — the bitset fast path for the per-wave receiver filter.
    #[inline]
    fn undecided(&self, u: NodeId) -> bool {
        self.undecided[u / 64] >> (u % 64) & 1 != 0
    }

    /// Whether `u` is an honest (good or crash) node that accepted
    /// `Vtrue`.
    fn accepted_true(&self, u: NodeId) -> bool {
        self.honest[u] && !self.undecided(u) && self.forged[u / 64] >> (u % 64) & 1 == 0
    }

    /// `u`'s stop schedule, if it is a crash node.
    fn crash_behavior(&self, u: NodeId) -> Option<CrashBehavior> {
        let crash = self.crash.as_ref()?;
        let i = crash.binary_search_by_key(&u, |&(c, _)| c).ok()?;
        Some(crash[i].1)
    }

    /// Records that undecided `u` accepts `value` (`Vtrue` or
    /// [`Value::FORGED`]) in the current wave. A `Vtrue` acceptor spends
    /// the copies it relays — its quota, or a crash node's share of it —
    /// and is scheduled into `next`.
    fn decide(&mut self, u: NodeId, value: Value, next: &mut Vec<(NodeId, u64)>) {
        self.undecided[u / 64] &= !(1u64 << (u % 64));
        self.accepted_wave[u] = self.waves as u32;
        let crash = self.crash_behavior(u);
        if value == Value::FORGED {
            self.forged[u / 64] |= 1u64 << (u % 64);
            self.wrong_accepts += usize::from(crash.is_none());
        } else {
            let quota = self.protocol.relay_copies[u];
            let copies = crash.map_or(quota, |behavior| behavior.copies_sent(quota));
            self.try_spend(u, copies)
                .expect("relay quota exceeds good budget");
            if crash.is_none() {
                self.good_copies_sent += copies;
                self.true_accepts += 1;
            }
            if copies > 0 || self.crash.is_none() {
                next.push((u, copies));
            }
        }
    }

    /// `u`'s budget cap: unbounded at the source, the protocol's `m` at
    /// an honest node, `mf` at a bad one.
    fn budget_limit(&self, u: NodeId) -> Option<u64> {
        if u == self.source {
            None
        } else if self.honest[u] {
            Some(self.protocol.budget[u])
        } else {
            Some(self.mf)
        }
    }

    /// Spends `n` of `u`'s budget units; on an overdraft nothing is
    /// spent.
    fn try_spend(&mut self, u: NodeId, n: u64) -> Result<(), NetError> {
        let spent = self.spent[u];
        if let Some(limit) = self.budget_limit(u) {
            if spent + n > limit {
                return Err(NetError::BudgetExceeded {
                    limit,
                    spent,
                    requested: n,
                });
            }
        }
        self.spent[u] = spent + n;
        Ok(())
    }

    /// Applies the threshold acceptance rule at one node, scheduling a
    /// newly accepted relayer into `next`. Returns whether `u` decided.
    ///
    /// Only a node whose tallies changed this wave can newly cross the
    /// threshold (it would have accepted when they last changed), which
    /// is why the step loops may skip every node off the front.
    fn try_accept(&mut self, u: NodeId, next: &mut Vec<(NodeId, u64)>) -> bool {
        if !self.undecided(u) {
            return false;
        }
        let true_in = self.tally_true[u] >= self.protocol.accept_threshold;
        let wrong_in = self.tally_wrong[u] >= self.protocol.accept_threshold;
        if wrong_in && self.tally_wrong[u] >= self.tally_true[u] {
            // A forged value crossed the threshold first: a
            // correctness violation (impossible when t*mf < threshold;
            // kept as a checked invariant).
            self.decide(u, Value::FORGED, next);
        } else if true_in {
            self.decide(u, Value::TRUE, next);
        } else {
            return false;
        }
        true
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

    /// The value accepted by `u` (good or crash node), if any.
    pub fn accepted(&self, u: NodeId) -> Option<Value> {
        if !self.honest[u] || self.undecided(u) {
            None
        } else if self.forged[u / 64] >> (u % 64) & 1 != 0 {
            Some(Value::FORGED)
        } else {
            Some(Value::TRUE)
        }
    }

    /// The wave in which `u` accepted (0 for the source), if it did.
    pub fn accepted_wave(&self, u: NodeId) -> Option<usize> {
        let w = self.accepted_wave[u];
        (w != NOT_ACCEPTED).then_some(w as usize)
    }

    /// Cumulative good-node acceptances per wave — the propagation
    /// profile of the run (index = wave).
    pub fn propagation_profile(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.waves + 1];
        for u in 0..self.topology.node_count() {
            if let Some(w) = self.accepted_wave(u) {
                if self.is_good(u) {
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

    /// Number of `u`'s neighbors that accepted `Vtrue`: good and crash
    /// nodes alike (a crash node may have relayed before stopping), and
    /// never a Byzantine one, since those do not accept.
    pub fn decided_neighbors(&self, u: NodeId) -> usize {
        self.topology
            .neighbors_of(u)
            .filter(|&v| self.accepted_true(v))
            .count()
    }

    /// Remaining attack budget of a node.
    pub fn remaining_budget(&self, u: NodeId) -> u64 {
        self.budget_limit(u)
            .map_or(u64::MAX, |limit| limit - self.spent[u])
    }

    /// Whether node `u` is good: neither Byzantine nor crash-stop.
    pub fn is_good(&self, u: NodeId) -> bool {
        self.honest[u] && self.crash_behavior(u).is_none()
    }
}

/// The `accepted_wave` entry of a node that has not accepted.
const NOT_ACCEPTED: u32 = u32::MAX;

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

/// Resumable state of a per-receiver-oracle run under threshold or
/// majority acceptance. Produced by [`CountingSim::begin_oracle`] or
/// [`CountingSim::begin_majority_oracle`], advanced by
/// [`CountingSim::step_oracle`].
#[derive(Debug, Clone)]
pub struct OracleRun {
    capacity: Vec<u64>,
    /// Majority acceptance at this quorum; `None` is the threshold rule.
    quorum: Option<u64>,
    wave: Vec<(NodeId, u64)>,
    next: Vec<(NodeId, u64)>,
    /// Copies arriving this wave (stale off the touched set).
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

    /// `reset` must erase every trace of a run, checked across two runs
    /// that leave different state behind: a passive run decides every
    /// good node, a low-quorum majority run forges some and strands
    /// others.
    #[test]
    fn reset_restores_the_built_state() {
        let (grid, p) = small();
        let quorum = p.mf * u64::from(p.t) + 1;
        let proto = CountingProtocol::starved(&grid, p, quorum);
        let bad = LatticePlacement::new(1).bad_nodes(&grid);
        let build = || CountingSim::new(grid.clone(), proto.clone(), 0, &bad, p.mf);
        let run = |sim: &mut CountingSim, majority: bool| {
            if majority {
                sim.run_majority_oracle(p.mf, quorum)
            } else {
                sim.run(&mut Passive)
            }
        };
        let state = |sim: &CountingSim| -> Vec<_> {
            grid.nodes()
                .map(|u| {
                    (
                        sim.accepted(u),
                        sim.accepted_wave(u),
                        sim.tally_true(u),
                        sim.tally_wrong(u),
                        sim.remaining_budget(u),
                    )
                })
                .collect()
        };
        let forging = run(&mut build(), true);
        assert!(forging.wrong_accepts > 0 && !forging.is_complete());
        for majority in [false, true] {
            let mut sim = build();
            run(&mut sim, !majority);
            sim.reset();
            let out = run(&mut sim, majority);
            let mut fresh = build();
            assert_eq!(out, run(&mut fresh, majority), "majority {majority}");
            assert_eq!(state(&sim), state(&fresh), "majority {majority}");
        }
    }

    /// A zero-quota relayer sends nothing. Without a crash load it
    /// still takes one silent wave; a sim with a crash load — even an
    /// empty one — schedules only relayers that send copies.
    #[test]
    fn zero_quota_relayers_take_a_wave_only_without_a_crash_load() {
        let (grid, p) = small();
        let proto = CountingProtocol::starved(&grid, p, 0);
        let plain = CountingSim::new(grid.clone(), proto.clone(), 0, &[], p.mf).run_oracle(p.mf);
        let crash = CountingSim::new(grid, proto, 0, &[], p.mf)
            .with_crash_nodes(&[], CrashBehavior::Immediate)
            .run_oracle(p.mf);
        assert_eq!((plain.waves, crash.waves), (2, 1));
        assert_eq!(plain.accepted_true, 9, "the source's neighborhood");
        assert_eq!(plain, CountingOutcome { waves: 2, ..crash });
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
