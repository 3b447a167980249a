//! The slot-level discrete-event engine: protocol **Breactive** (§5).
//!
//! Time advances in *message rounds* (one coded frame = `K·L` sub-bit
//! slots). A TDMA schedule assigns each node a slot class; in round `i`
//! the class `i mod period` transmits. Good nodes run, stacked:
//!
//! 1. the **reactive local broadcast** sender/receiver machines
//!    (`bftbcast-protocols::reactive`): coded frames, NACK on detected
//!    corruption, retransmit on any heard NACK (verified or garbled),
//!    stop after a NACK-free quiet window;
//! 2. **certified propagation** (`bftbcast-protocols::cpa`): commit on a
//!    direct source delivery or `t+1` distinct witnesses, then relay
//!    once via the reactive primitive.
//!
//! Bad nodes spend their (good-nodes-don't-know-it) budget `mf` one
//! action per round: an in-slot forged frame, a forged NACK, or a
//! collision against one in-range transmission, where a collision is a
//! per-sub-bit XOR (see `bftbcast-coding::channel`) that receivers in
//! range of both parties hear. Blind cancellation of `1` bits succeeds
//! with probability `≈2^−L` per bit — the engine plays it out against
//! the sender's real hidden patterns, so undetected corruptions arise
//! (or almost surely don't) exactly as in the paper's model.

use bftbcast_coding::frame::{AttackMask, Frame, FrameKind};
use bftbcast_coding::{channel, segment};
use bftbcast_net::{Budget, Grid, NodeId, ScanMode, Schedule, Topology, Value, Worklist};
use bftbcast_protocols::cpa::CpaState;
use bftbcast_protocols::reactive::{ReactiveConfig, ReactiveSender, SenderAction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::ReactiveOutcome;

/// Adversary behavior in the slot engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactiveAdversary {
    /// No attacks (baseline).
    Passive,
    /// Collide with in-range data frames, injecting signal into one coded
    /// bit: always detected, forces retransmission — the pure DoS play
    /// whose cost Theorem 4's `t·mf + 1` term accounts for.
    Jammer,
    /// Attempt an *undetected* payload flip: cancel the payload's `1`
    /// bits and patch the counter cascade, succeeding only if every
    /// hidden sub-bit pattern is guessed. A *failed* guess leaves every
    /// attacked `1` group non-empty, so the frame decodes exactly as
    /// sent — the attack is silent (no detection, no NACK, no effect).
    /// Success probability is `≈2^{−L·c}` for a `c`-bit cascade patch,
    /// far below the paper's conservative per-bit bound `2^{−L}`
    /// (EXPERIMENTS.md, EXP-T4).
    Canceller,
    /// Broadcast forged NACK frames in its own slots, forcing every
    /// in-range sender to retransmit.
    NackForger,
    /// Broadcast well-formed *data* frames carrying a forged value in
    /// its own slots: every receiver books a bad witness for the forged
    /// value. Certified propagation's `t + 1` distinct-witness rule is
    /// exactly what this must not break.
    WitnessForger,
    /// Uniformly random choice among the four attacks each opportunity.
    Mixed,
}

/// Configuration of one slot-engine run.
#[derive(Debug, Clone, Copy)]
pub struct SlotConfig {
    /// Reactive-primitive parameters (payload bits, sub-bit length,
    /// quiet window).
    pub reactive: ReactiveConfig,
    /// CPA witness bound `t` (commit needs `t+1` distinct witnesses).
    pub t: u32,
    /// Actual per-bad-node budget `mf` (unknown to good nodes).
    pub mf: u64,
    /// Optional message budget for *good* nodes (data + NACK frames).
    /// `None` leaves them unbounded (the measurement mode used to
    /// compare against Theorem 4's closed-form budget); `Some(m)` makes
    /// exhausted nodes fall silent — the failure-injection mode showing
    /// what under-provisioning does.
    pub good_budget: Option<u64>,
    /// Adversary behavior.
    pub adversary: ReactiveAdversary,
    /// Hard cap on message rounds.
    pub max_rounds: u64,
    /// RNG seed (sub-bit patterns and adversary choices).
    pub seed: u64,
}

struct GoodNode {
    cpa: CpaState,
    sender: Option<ReactiveSender>,
    committed_value: Option<Value>,
    pending_nack: bool,
    budget: Budget,
    messages_sent: u64,
    transmitted_this_round: bool,
    heard_nack_this_round: bool,
    /// Data frames decoding to the broadcast value, delivered here.
    tally_true: u64,
    /// Data frames decoding to anything else (forgeries, undetected
    /// cancellations), delivered here.
    tally_wrong: u64,
}

/// The slot-level engine. Build with [`SlotSim::new`], run with
/// [`SlotSim::run`].
pub struct SlotSim {
    topology: Topology,
    schedule: Schedule,
    config: SlotConfig,
    scan: ScanMode,
    source: NodeId,
    is_good: Vec<bool>,
    bad_nodes: Vec<NodeId>,
    bad_budget: Vec<Budget>,
    nodes: Vec<Option<GoodNode>>,
    rng: StdRng,
    /// Nodes whose reactive sender exists; a superset is fine mid-round
    /// (compacted lazily at round end). The frontier advance loop ticks
    /// exactly these instead of scanning the grid.
    live_senders: Worklist,
    /// Nodes whose per-round flags were set this round by a delivery.
    round_touched: Worklist,
    // Incremental termination counters, maintained at every state
    // transition so `finished()` is O(1).
    uncommitted_good: usize,
    busy_senders: usize,
    pending_nacks: usize,
    // Counters.
    rounds: u64,
    data_transmissions: u64,
    nack_transmissions: u64,
    adversary_spent: u64,
    detections: u64,
    undetected_corruptions: u64,
}

/// Resumable state of a slot-engine run (the quiescence tracker).
/// Produced by [`SlotSim::begin_rounds`], advanced by
/// [`SlotSim::step_round`].
#[derive(Debug, Clone, Copy)]
pub struct SlotRun {
    quiet_rounds: u64,
    quiescence: u64,
    /// Latched on any terminating condition so further `step_round`
    /// calls are no-ops and the outcome stays final.
    done: bool,
}

/// One in-flight transmission during a round.
struct Tx {
    sender: NodeId,
    frame: Frame,
    /// Attack masks from colliding bad nodes: `(attacker, masks)`.
    attacks: Vec<(NodeId, Vec<u64>)>,
}

fn value_to_payload(v: Value, k: usize) -> Vec<bool> {
    (0..k).rev().map(|bit| (v.0 >> bit) & 1 == 1).collect()
}

fn payload_to_value(bits: &[bool]) -> Value {
    Value(bits.iter().fold(0u64, |acc, &b| (acc << 1) | u64::from(b)))
}

impl SlotSim {
    /// Builds a run. The schedule uses spatial reuse when the torus
    /// dimensions allow it and falls back to one-slot-per-node otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `bad_nodes` contains the source or duplicates, or if
    /// the payload width cannot hold `Value::TRUE`.
    pub fn new(grid: Grid, source: NodeId, bad_nodes: &[NodeId], config: SlotConfig) -> Self {
        assert!(config.reactive.k >= 1 && config.reactive.k <= 63);
        let schedule =
            Schedule::spatial_reuse(&grid).unwrap_or_else(|_| Schedule::exclusive(&grid));
        let n = grid.node_count();
        let mut is_good = vec![true; n];
        for &b in bad_nodes {
            assert!(b != source, "the base station is assumed correct");
            assert!(is_good[b], "duplicate bad node {b}");
            is_good[b] = false;
        }
        let good_budget = || match config.good_budget {
            Some(m) => Budget::limited(m),
            None => Budget::unbounded(),
        };
        let mut nodes: Vec<Option<GoodNode>> = (0..n)
            .map(|id| {
                is_good[id].then(|| GoodNode {
                    cpa: CpaState::new(config.t),
                    sender: None,
                    committed_value: None,
                    pending_nack: false,
                    budget: good_budget(),
                    messages_sent: 0,
                    transmitted_this_round: false,
                    heard_nack_this_round: false,
                    tally_true: 0,
                    tally_wrong: 0,
                })
            })
            .collect();
        // The source is committed from the start and relays immediately.
        let src = nodes[source].as_mut().expect("source must be good");
        src.committed_value = Some(Value::TRUE);
        let sender = ReactiveSender::new(&config.reactive);
        let busy_senders = usize::from(!sender.is_done());
        src.sender = Some(sender);
        let mut live_senders = Worklist::new(n);
        live_senders.insert(source);
        let uncommitted_good = is_good.iter().filter(|&&g| g).count() - 1;
        SlotSim {
            rng: StdRng::seed_from_u64(config.seed),
            bad_budget: (0..n)
                .map(|id| {
                    if is_good[id] {
                        Budget::limited(0)
                    } else {
                        Budget::limited(config.mf)
                    }
                })
                .collect(),
            topology: Topology::new(grid),
            schedule,
            config,
            scan: ScanMode::default(),
            source,
            is_good,
            bad_nodes: bad_nodes.to_vec(),
            nodes,
            live_senders,
            round_touched: Worklist::new(n),
            uncommitted_good,
            busy_senders,
            pending_nacks: 0,
            rounds: 0,
            data_transmissions: 0,
            nack_transmissions: 0,
            adversary_spent: 0,
            detections: 0,
            undetected_corruptions: 0,
        }
    }

    /// Runs until every good node committed and every sender finished its
    /// quiet window, the network goes permanently quiet (budget
    /// exhaustion can strand uncommitted nodes), or `max_rounds`
    /// elapsed.
    pub fn run(&mut self) -> ReactiveOutcome {
        let mut run = self.begin_rounds();
        while self.step_round(&mut run) {}
        self.outcome()
    }

    /// Starts a run, returning the resumable round state (the
    /// quiescence tracker). Call at most once per engine; drive with
    /// [`SlotSim::step_round`].
    pub fn begin_rounds(&mut self) -> SlotRun {
        SlotRun {
            quiet_rounds: 0,
            // Once nobody transmits for a full schedule cycle plus the
            // NACK quiet window, no state can change again.
            quiescence: u64::from(self.schedule.period())
                + u64::from(self.config.reactive.quiet_window)
                + 1,
            done: false,
        }
    }

    /// Advances the engine by one message round. Returns `false` once
    /// the run is over: every good node committed and went quiet, the
    /// network is permanently quiescent, or `max_rounds` elapsed —
    /// after which [`SlotSim::outcome`] is final and further calls are
    /// no-ops.
    pub fn step_round(&mut self, run: &mut SlotRun) -> bool {
        if run.done || self.rounds >= self.config.max_rounds {
            run.done = true;
            return false;
        }
        let slot = (self.rounds % u64::from(self.schedule.period())) as u32;
        let transmissions_before = self.data_transmissions + self.nack_transmissions;
        self.step(slot);
        self.rounds += 1;
        if self.finished() {
            run.done = true;
            return false;
        }
        if self.data_transmissions + self.nack_transmissions == transmissions_before {
            run.quiet_rounds += 1;
            if run.quiet_rounds >= run.quiescence {
                run.done = true;
                return false;
            }
        } else {
            run.quiet_rounds = 0;
        }
        true
    }

    /// Selects frontier or every-node iteration (see [`ScanMode`]).
    /// Both run the same round loop and are bit-identical; `Dense` also
    /// checks the termination counters every round. Set before the
    /// first round.
    pub fn set_scan_mode(&mut self, mode: ScanMode) {
        self.scan = mode;
    }

    /// The active scan mode.
    pub fn scan_mode(&self) -> ScanMode {
        self.scan
    }

    fn finished(&self) -> bool {
        self.uncommitted_good == 0 && self.busy_senders == 0 && self.pending_nacks == 0
    }

    fn step(&mut self, slot: u32) {
        let mut txs: Vec<Tx> = Vec::new();

        // --- Good transmitters of this slot class.
        for id in self.schedule.nodes_in_slot(slot).collect::<Vec<_>>() {
            let Some(node) = self.nodes[id].as_mut() else {
                continue;
            };
            node.transmitted_this_round = false;
            if node.pending_nack {
                node.pending_nack = false;
                self.pending_nacks -= 1;
                if node.budget.try_spend(1).is_err() {
                    continue; // exhausted: falls silent
                }
                node.messages_sent += 1;
                self.nack_transmissions += 1;
                let frame = Frame::nack(
                    self.config.reactive.k,
                    self.config.reactive.subbit,
                    &mut self.rng,
                );
                txs.push(Tx {
                    sender: id,
                    frame,
                    attacks: Vec::new(),
                });
            } else if node
                .sender
                .as_ref()
                .is_some_and(|s| s.action() == SenderAction::Transmit)
            {
                if node.budget.try_spend(1).is_err() {
                    // A Transmit-action sender is never done, so this
                    // drop always retires an active sender.
                    node.sender = None; // exhausted: gives up relaying
                    self.busy_senders -= 1;
                    continue;
                }
                let value = node.committed_value.expect("sender without value");
                node.messages_sent += 1;
                node.transmitted_this_round = true;
                self.data_transmissions += 1;
                let payload = value_to_payload(value, self.config.reactive.k);
                let frame = Frame::data(&payload, self.config.reactive.subbit, &mut self.rng);
                txs.push(Tx {
                    sender: id,
                    frame,
                    attacks: Vec::new(),
                });
            }
        }

        // --- Bad nodes: one action per round each. (Index loop: no
        // per-round clone of the bad-node list, and each id appears at
        // most once so no separate "already acted" tracking is needed.)
        for i in 0..self.bad_nodes.len() {
            let b = self.bad_nodes[i];
            if self.bad_budget[b].remaining() == 0 {
                continue;
            }
            if self.act_bad_node(b, slot, &mut txs) {
                self.bad_budget[b].try_spend(1).expect("checked above");
                self.adversary_spent += 1;
            }
        }

        // --- Delivery.
        self.deliver(&txs);

        // --- Advance sender state machines. Every node holding a
        // sender is in `live_senders` (inserted at creation, compacted
        // below), so ticking those covers every possible `on_round_end`
        // effect; the rest of the touched set only needs its per-round
        // flags cleared. Untouched senderless nodes have both flags
        // false already.
        let dense = self.scan == ScanMode::Dense;
        if dense {
            self.live_senders.insert_all();
        }
        for i in 0..self.live_senders.len() {
            let id = self.live_senders.item(i);
            self.advance_node(id);
        }
        for i in 0..self.round_touched.len() {
            let id = self.round_touched.item(i);
            if let Some(node) = self.nodes[id].as_mut() {
                node.heard_nack_this_round = false;
                node.transmitted_this_round = false;
            }
        }
        self.round_touched.clear();
        let nodes = &self.nodes;
        self.live_senders
            .retain(|id| nodes[id].as_ref().is_some_and(|n| n.sender.is_some()));
        if dense {
            // The termination counters against the three clauses of
            // `finished()`, rescanned.
            let good = self.nodes.iter().flatten();
            let rescan = (
                good.clone().filter(|g| g.committed_value.is_none()).count(),
                good.clone()
                    .filter(|g| g.sender.as_ref().is_some_and(|s| !s.is_done()))
                    .count(),
                good.filter(|g| g.pending_nack).count(),
            );
            assert_eq!(
                (self.uncommitted_good, self.busy_senders, self.pending_nacks),
                rescan,
                "round {}: termination counters (uncommitted, busy, pending) drifted",
                self.rounds
            );
        }
    }

    /// Clears one node's per-round flags and ticks its sender state
    /// machine, maintaining `busy_senders` across the active→done
    /// transition (senders never reactivate once done).
    fn advance_node(&mut self, id: NodeId) {
        let Some(node) = self.nodes[id].as_mut() else {
            return;
        };
        let transmitted = node.transmitted_this_round;
        let heard_nack = node.heard_nack_this_round;
        node.heard_nack_this_round = false;
        node.transmitted_this_round = false;
        if let Some(sender) = node.sender.as_mut() {
            let was_done = sender.is_done();
            sender.on_round_end(transmitted, heard_nack);
            if !was_done && sender.is_done() {
                self.busy_senders -= 1;
            }
        }
    }

    /// Picks and stages one action for bad node `b`; returns whether a
    /// budget unit was committed.
    fn act_bad_node(&mut self, b: NodeId, slot: u32, txs: &mut Vec<Tx>) -> bool {
        let kind = match self.config.adversary {
            ReactiveAdversary::Passive => return false,
            ReactiveAdversary::Mixed => match self.rng.random_range(0..4u8) {
                0 => ReactiveAdversary::Jammer,
                1 => ReactiveAdversary::Canceller,
                2 => ReactiveAdversary::WitnessForger,
                _ => ReactiveAdversary::NackForger,
            },
            k => k,
        };
        match kind {
            ReactiveAdversary::NackForger | ReactiveAdversary::WitnessForger => {
                // Only in its own slot (an off-slot standalone frame would
                // be a collision against someone — handled by the other
                // arms).
                if self.schedule.slot_of(b) != slot {
                    return false;
                }
                let frame = if kind == ReactiveAdversary::NackForger {
                    Frame::nack(
                        self.config.reactive.k,
                        self.config.reactive.subbit,
                        &mut self.rng,
                    )
                } else {
                    let payload = value_to_payload(Value::FORGED, self.config.reactive.k);
                    Frame::data(&payload, self.config.reactive.subbit, &mut self.rng)
                };
                txs.push(Tx {
                    sender: b,
                    frame,
                    attacks: Vec::new(),
                });
                true
            }
            ReactiveAdversary::Jammer | ReactiveAdversary::Canceller => {
                // Find an in-range good data transmission to collide with.
                let grid = self.topology.grid();
                let target = txs.iter_mut().find(|tx| {
                    self.is_good[tx.sender]
                        && grid.linf_distance(tx.sender, b) <= 2 * grid.range()
                        && tx
                            .frame
                            .decode_and_verify(self.config.reactive.subbit)
                            .is_ok_and(|d| d.kind == FrameKind::Data)
                });
                let Some(tx) = target else {
                    return false;
                };
                let mask = if kind == ReactiveAdversary::Jammer {
                    // Inject one u into a random coded bit: guaranteed
                    // detection, guaranteed retransmission.
                    let bit = self.rng.random_range(0..tx.frame.coded_bits());
                    AttackMask::new(tx.frame.coded_bits())
                        .inject_one(bit)
                        .into_masks()
                } else {
                    Self::cancellation_mask(&tx.frame, self.config.reactive, &mut self.rng)
                };
                tx.attacks.push((b, mask));
                true
            }
            ReactiveAdversary::Passive | ReactiveAdversary::Mixed => unreachable!(),
        }
    }

    /// Builds the Canceller's mask: the XOR between the sender's coded
    /// bits and the coded bits of the tampered message (one payload `1`
    /// flipped to `0`). Bits that must *rise* get a deterministic
    /// injection; bits that must *fall* get a blind pattern guess.
    fn cancellation_mask(frame: &Frame, cfg: ReactiveConfig, rng: &mut StdRng) -> Vec<u64> {
        let decoded = frame
            .decode_and_verify(cfg.subbit)
            .expect("canceller targets verified frames");
        let mut bits = Vec::with_capacity(decoded.payload.len() + Frame::HEADER_BITS);
        bits.push(true); // sentinel
        bits.push(false); // data kind
        bits.extend_from_slice(&decoded.payload);
        let current = segment::encode(&bits).expect("payload length checked");

        // Tamper: flip the first payload 1-bit to 0 (the first
        // HEADER_BITS positions are framing).
        let Some(flip) = bits.iter().skip(Frame::HEADER_BITS).position(|&b| b) else {
            return vec![0; frame.coded_bits()]; // nothing to cancel
        };
        let mut tampered_bits = bits.clone();
        tampered_bits[flip + Frame::HEADER_BITS] = false;
        let target = segment::encode(&tampered_bits).expect("same length");

        let mut mask = AttackMask::new(frame.coded_bits());
        for (i, (&cur, &tgt)) in current.iter().zip(&target).enumerate() {
            match (cur, tgt) {
                (false, true) => mask = mask.inject_one(i),
                (true, false) => mask = mask.cancel_attempt(i, cfg.subbit, rng),
                _ => {}
            }
        }
        mask.into_masks()
    }

    /// Delivers every transmission to every receiver in range, applying
    /// the attack masks of attackers covering that receiver.
    fn deliver(&mut self, txs: &[Tx]) {
        for tx in txs {
            let true_value = if self.is_good[tx.sender] {
                self.nodes[tx.sender]
                    .as_ref()
                    .and_then(|n| n.committed_value)
            } else {
                None
            };
            // Index-based walk over the stencil, so `self` stays free
            // for the mutations below (no per-transmission Vec of
            // receivers).
            for p in 0..self.topology.degree() {
                let u = self.topology.neighbor(tx.sender, p);
                if !self.is_good[u] {
                    continue;
                }
                let masks: Vec<Vec<u64>> = tx
                    .attacks
                    .iter()
                    .filter(|(b, _)| self.topology.contains(*b, u))
                    .map(|(_, m)| m.clone())
                    .collect();
                let heard = channel::superpose(&tx.frame, &masks);
                match heard.decode_and_verify(self.config.reactive.subbit) {
                    Ok(decoded) => match decoded.kind {
                        FrameKind::Data => {
                            let value = payload_to_value(&decoded.payload);
                            if let Some(tv) = true_value {
                                if value != tv {
                                    self.undetected_corruptions += 1;
                                }
                            }
                            let node = self.nodes[u].as_mut().expect("good node");
                            if value == Value::TRUE {
                                node.tally_true += 1;
                            } else {
                                node.tally_wrong += 1;
                            }
                            self.deliver_value(u, tx.sender, value);
                        }
                        FrameKind::Nack => {
                            let node = self.nodes[u].as_mut().expect("good node");
                            node.heard_nack_this_round = true;
                            self.round_touched.insert(u);
                        }
                    },
                    Err(_) => {
                        self.detections += 1;
                        let node = self.nodes[u].as_mut().expect("good node");
                        // A garbled frame triggers a NACK, and — like a
                        // corrupt NACK — signals failure to any listening
                        // sender.
                        let newly_pending = !node.pending_nack;
                        node.pending_nack = true;
                        node.heard_nack_this_round = true;
                        if newly_pending {
                            self.pending_nacks += 1;
                        }
                        self.round_touched.insert(u);
                    }
                }
            }
        }
    }

    fn deliver_value(&mut self, u: NodeId, from: NodeId, value: Value) {
        let node = self.nodes[u].as_mut().expect("good node");
        if node.committed_value.is_some() {
            return; // already committed (e.g. the source at startup)
        }
        if let Some(committed) = node.cpa.on_deliver(from, value, from == self.source) {
            node.committed_value = Some(committed);
            let sender = ReactiveSender::new(&self.config.reactive);
            let busy = !sender.is_done();
            node.sender = Some(sender);
            self.uncommitted_good -= 1;
            if busy {
                self.busy_senders += 1;
            }
            self.live_senders.insert(u);
        }
    }

    /// The aggregate outcome of the run so far (final once
    /// [`SlotSim::step_round`] has returned `false`).
    pub fn outcome(&self) -> ReactiveOutcome {
        let good_nodes = self.is_good.iter().filter(|&&g| g).count();
        let mut committed_true = 0;
        let mut committed_wrong = 0;
        let mut max_node_messages = 0;
        let mut uncommitted = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            match node.committed_value {
                Some(Value::TRUE) => committed_true += 1,
                Some(_) => committed_wrong += 1,
                None => uncommitted.push(id),
            }
            max_node_messages = max_node_messages.max(node.messages_sent);
        }
        let k = self.config.reactive.k;
        let coded_bits = segment::coded_len(k + Frame::HEADER_BITS).expect("k >= 1") as u64;
        ReactiveOutcome {
            good_nodes,
            committed_true,
            committed_wrong,
            rounds: self.rounds,
            data_transmissions: self.data_transmissions,
            nack_transmissions: self.nack_transmissions,
            max_node_messages,
            subbits_per_message: coded_bits * self.config.reactive.subbit.len() as u64,
            adversary_spent: self.adversary_spent,
            detections: self.detections,
            undetected_corruptions: self.undetected_corruptions,
            uncommitted,
        }
    }

    /// The committed value at a node (post-run inspection).
    pub fn committed(&self, u: NodeId) -> Option<Value> {
        self.nodes[u].as_ref().and_then(|n| n.committed_value)
    }

    /// Per-node delivery tallies `(true, wrong)`: data frames delivered
    /// at `u` decoding to the broadcast value vs anything else. `None`
    /// for Byzantine nodes (they keep no honest state).
    pub fn tallies(&self, u: NodeId) -> Option<(u64, u64)> {
        self.nodes[u]
            .as_ref()
            .map(|n| (n.tally_true, n.tally_wrong))
    }

    /// Neighbors of `u` that committed the broadcast value.
    pub fn committed_neighbors(&self, u: NodeId) -> usize {
        self.topology
            .neighbors_of(u)
            .filter(|&v| self.committed(v) == Some(Value::TRUE))
            .count()
    }

    /// The precomputed neighborhood topology the engine runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Messages (data + NACK) transmitted by a good node so far.
    pub fn messages_sent(&self, u: NodeId) -> u64 {
        self.nodes[u].as_ref().map_or(0, |n| n.messages_sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast_adversary::{Placement, RandomPlacement};

    fn config(adversary: ReactiveAdversary, mf: u64, seed: u64) -> SlotConfig {
        SlotConfig {
            reactive: ReactiveConfig::paper(225, 1, 1, 1 << 16, 8),
            t: 1,
            mf,
            good_budget: None,
            adversary,
            max_rounds: 40_000,
            seed,
        }
    }

    fn grid() -> Grid {
        Grid::new(15, 15, 1).unwrap()
    }

    #[test]
    fn value_payload_roundtrip() {
        for v in [Value::TRUE, Value(0), Value(0x2a)] {
            let p = value_to_payload(v, 8);
            assert_eq!(payload_to_value(&p), v);
        }
    }

    #[test]
    fn passive_run_commits_everyone() {
        let mut sim = SlotSim::new(grid(), 0, &[], config(ReactiveAdversary::Passive, 0, 1));
        let out = sim.run();
        assert!(out.is_reliable(), "uncommitted: {:?}", out.uncommitted);
        assert_eq!(out.nack_transmissions, 0);
        assert_eq!(out.detections, 0);
        // Without attacks every node transmits its data frame exactly once.
        assert_eq!(out.data_transmissions, 225);
    }

    #[test]
    fn jammer_forces_retransmissions_but_not_failure() {
        let g = grid();
        let bad = RandomPlacement {
            count: 10,
            t: 1,
            seed: 3,
            source: 0,
        }
        .bad_nodes(&g);
        let mut sim = SlotSim::new(g, 0, &bad, config(ReactiveAdversary::Jammer, 6, 2));
        let out = sim.run();
        assert!(out.is_reliable(), "uncommitted: {:?}", out.uncommitted);
        assert!(out.detections > 0, "jamming must be detected");
        assert!(out.nack_transmissions > 0);
        assert!(out.data_transmissions > out.good_nodes as u64);
        assert!(out.adversary_spent <= 10 * 6);
    }

    #[test]
    fn nack_forger_is_pure_dos() {
        let g = grid();
        let bad = RandomPlacement {
            count: 8,
            t: 1,
            seed: 5,
            source: 0,
        }
        .bad_nodes(&g);
        let mut sim = SlotSim::new(g, 0, &bad, config(ReactiveAdversary::NackForger, 5, 7));
        let out = sim.run();
        assert!(out.is_reliable());
        assert!(
            out.data_transmissions > out.good_nodes as u64,
            "forged NACKs must cause retransmissions"
        );
        assert_eq!(out.undetected_corruptions, 0);
    }

    #[test]
    fn canceller_rarely_beats_the_code() {
        let g = grid();
        let bad = RandomPlacement {
            count: 10,
            t: 1,
            seed: 11,
            source: 0,
        }
        .bad_nodes(&g);
        let mut total_undetected = 0;
        for seed in 0..3u64 {
            let mut sim = SlotSim::new(
                g.clone(),
                0,
                &bad,
                config(ReactiveAdversary::Canceller, 8, seed),
            );
            let out = sim.run();
            total_undetected += out.undetected_corruptions;
            assert!(
                out.committed_true + out.committed_wrong >= out.good_nodes - 2,
                "near-complete coverage expected"
            );
        }
        // L = 2*8 + 0 + 16 = 32 sub-bits; a cancellation needs several
        // simultaneous 2^-32 guesses. Zero successes expected.
        assert_eq!(total_undetected, 0);
    }

    #[test]
    fn budgets_cap_adversary_spend() {
        let g = grid();
        let bad = RandomPlacement {
            count: 10,
            t: 1,
            seed: 3,
            source: 0,
        }
        .bad_nodes(&g);
        let n_bad = bad.len() as u64;
        let mut sim = SlotSim::new(g, 0, &bad, config(ReactiveAdversary::Mixed, 4, 9));
        let out = sim.run();
        assert!(out.adversary_spent <= 4 * n_bad);
        assert!(out.is_reliable());
    }

    #[test]
    #[should_panic(expected = "base station is assumed correct")]
    fn source_cannot_be_bad() {
        let _ = SlotSim::new(grid(), 0, &[0], config(ReactiveAdversary::Passive, 0, 1));
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use bftbcast_protocols::reactive::ReactiveConfig;

    fn budgeted_config(good_budget: Option<u64>, mf: u64) -> SlotConfig {
        SlotConfig {
            reactive: ReactiveConfig::paper(225, 1, 1, 1 << 16, 8),
            t: 1,
            mf,
            good_budget,
            adversary: ReactiveAdversary::Jammer,
            max_rounds: 5_000,
            seed: 5,
        }
    }

    fn grid15() -> Grid {
        Grid::new(15, 15, 1).unwrap()
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let bad = vec![grid15().id_at(7, 7)];
        let mut unbounded = SlotSim::new(grid15(), 0, &bad, budgeted_config(None, 4));
        let mut capped = SlotSim::new(grid15(), 0, &bad, budgeted_config(Some(10_000), 4));
        let a = unbounded.run();
        let b = capped.run();
        assert!(a.is_reliable() && b.is_reliable());
        assert_eq!(a.data_transmissions, b.data_transmissions);
    }

    #[test]
    fn starved_good_budget_breaks_completeness() {
        // One message per good node is not enough under jamming: the
        // jammed frames can never be retransmitted, and NACKs cannot be
        // sent at all once the single unit is spent.
        let g = grid15();
        let bad = bftbcast_adversary::Placement::bad_nodes(
            &bftbcast_adversary::RandomPlacement {
                count: 12,
                t: 1,
                seed: 9,
                source: 0,
            },
            &g,
        );
        let mut sim = SlotSim::new(g, 0, &bad, budgeted_config(Some(1), 12));
        let out = sim.run();
        assert!(
            !out.is_reliable(),
            "a one-message budget should not survive 12 jammers"
        );
        // Correctness still holds: nobody commits a forged value.
        assert_eq!(out.committed_wrong, 0);
    }

    #[test]
    fn theorem4_budget_in_messages_suffices() {
        // Theorem 4's 2(t*mf + 1) message-count term, enforced as a hard
        // cap, still yields reliability.
        let g = grid15();
        let mf = 4u64;
        let bad = bftbcast_adversary::Placement::bad_nodes(
            &bftbcast_adversary::RandomPlacement {
                count: 12,
                t: 1,
                seed: 9,
                source: 0,
            },
            &g,
        );
        let cap = 2 * (mf + 1); // t = 1
        let mut sim = SlotSim::new(g, 0, &bad, budgeted_config(Some(cap), mf));
        let out = sim.run();
        assert!(out.is_reliable(), "uncommitted: {:?}", out.uncommitted);
        assert!(out.max_node_messages <= cap);
    }
}

#[cfg(test)]
mod witness_forger_tests {
    use super::*;
    use bftbcast_adversary::{Placement, RandomPlacement};
    use bftbcast_protocols::reactive::ReactiveConfig;

    fn cfg(adversary: ReactiveAdversary, t: u32, mf: u64, seed: u64) -> SlotConfig {
        SlotConfig {
            reactive: ReactiveConfig::paper(225, 1, t, 1 << 16, 16),
            t,
            mf,
            good_budget: None,
            adversary,
            max_rounds: 60_000,
            seed,
        }
    }

    #[test]
    fn witness_forgers_cannot_corrupt_cpa() {
        // 16-bit Value::FORGED truncates to 0x0BAD & 0xFFFF: still a wrong
        // value; t = 1 bad witness < t + 1 = 2 required.
        let g = Grid::new(15, 15, 1).unwrap();
        let bad = RandomPlacement {
            count: 14,
            t: 1,
            seed: 21,
            source: 0,
        }
        .bad_nodes(&g);
        for seed in 0..3u64 {
            let mut sim = SlotSim::new(
                g.clone(),
                0,
                &bad,
                cfg(ReactiveAdversary::WitnessForger, 1, 6, seed),
            );
            let out = sim.run();
            assert_eq!(out.committed_wrong, 0, "seed {seed}");
            assert!(out.is_reliable(), "seed {seed}: {:?}", out.uncommitted);
        }
    }

    #[test]
    fn mixed_adversary_with_forgers_stays_safe() {
        let g = Grid::new(15, 15, 1).unwrap();
        let bad = RandomPlacement {
            count: 14,
            t: 1,
            seed: 22,
            source: 0,
        }
        .bad_nodes(&g);
        let mut sim = SlotSim::new(g, 0, &bad, cfg(ReactiveAdversary::Mixed, 1, 8, 4));
        let out = sim.run();
        assert_eq!(out.committed_wrong, 0);
        assert!(out.is_reliable(), "{:?}", out.uncommitted);
    }
}
