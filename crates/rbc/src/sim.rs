//! The message-passing runtime and the three protocols it hosts.
//!
//! [`RbcSim`] is an explicit message-level simulator over the
//! [`Topology`] stencil: every directed edge has a FIFO queue, a **wave**
//! delivers everything queued at wave start, and sends made while
//! handling a message are queued for the next wave. Messages are
//! flooded — every node relays each distinct message id once to all
//! neighbors — so the classic fully-connected broadcast protocols run
//! unchanged on the r-neighborhood torus, and quorums count over the
//! global node count.
//!
//! Three protocols share the runtime (selected by [`RbcProtocol`]):
//!
//! * **Counting flood** — the message-level analogue of the paper's
//!   single-value relay: the source floods the payload, every good node
//!   delivers on first receipt and relays once. The baseline the two
//!   RBC protocols are compared against — and the one that visibly
//!   loses agreement to an equivocator.
//! * **Bracha** — send/echo/ready reliable broadcast: echo after the
//!   source's SEND, ready at `⌈(n+t+1)/2⌉` echoes (or `t+1` readies,
//!   the amplification step), deliver at `2t+1` readies. Every ECHO and
//!   READY carries the full payload.
//! * **CTRBC** — coded reliable broadcast: the payload is split
//!   round-robin into `k = t+1` fragments, each protected by the
//!   [`bftbcast_coding::segment`] cascade and committed under a
//!   [`crate::merkle`] root. Echoes carry one fragment plus its sibling
//!   proof instead of the whole payload — the bandwidth win the sweep
//!   measures — and delivery reconstructs and re-verifies the payload
//!   from the k fragments.
//!
//! Two adversary axes compose with the protocol:
//!
//! * the **delivery schedule** ([`crate::schedule`]) decides node
//!   processing order, per-message deferral (bounded by
//!   [`MAX_DEFER_WAVES`]) and in-batch consumption order, and
//! * the **Byzantine behavior** ([`crate::behavior`]) decides what
//!   faulty nodes actively do — from PR 9's mute model to
//!   equivocators that send conflicting payload *variants* to
//!   disjoint id halves of the network.
//!
//! Every message therefore carries a payload variant tag (0 = the
//! genuine broadcast, 1 = the equivocated payload, which is the
//! bitwise complement so no extra RNG draws perturb seeded runs).
//! Honest vote counting is per variant with first-wins origin
//! attribution: a second vote by the same origin under the other
//! variant is equivocation evidence and increments the node's
//! `conflicts` counter instead of counting. Under the default
//! `seeded` schedule and `mute` behavior the runtime is bit-identical
//! to PR 9 — the pinned `rbc-compare.scn` goldens prove it.

use std::collections::VecDeque;

use bftbcast_coding::segment;
use bftbcast_net::{Grid, NodeId, Topology};
use bftbcast_sim::metrics::RbcOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::behavior::ByzantineBehavior;
use crate::merkle::{self, MerkleTree};
use crate::schedule::{DeliverySchedule, MsgClass, MsgView, ScheduleKind, MAX_DEFER_WAVES};

/// Message-kind tag bits charged to every message on the wire.
const TAG_BITS: u64 = 16;
/// Fragment-index bits in CTRBC send/echo messages.
const INDEX_BITS: u64 = 16;
/// Bits per hash value (Merkle root or one proof sibling).
const HASH_BITS: u64 = 64;

/// Which protocol an [`RbcSim`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RbcProtocol {
    /// Single-value flood baseline (deliver on first receipt).
    Counting,
    /// Bracha send/echo/ready with full-payload echoes.
    #[default]
    Bracha,
    /// Erasure-coded RBC: fragment echoes under a Merkle commitment.
    Ctrbc,
}

impl RbcProtocol {
    /// Canonical lower-case name, shared by the `.scn` and JSON codecs.
    pub fn name(self) -> &'static str {
        match self {
            RbcProtocol::Counting => "counting",
            RbcProtocol::Bracha => "bracha",
            RbcProtocol::Ctrbc => "ctrbc",
        }
    }

    /// Inverse of [`RbcProtocol::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "counting" => Some(RbcProtocol::Counting),
            "bracha" => Some(RbcProtocol::Bracha),
            "ctrbc" => Some(RbcProtocol::Ctrbc),
            _ => None,
        }
    }
}

/// Full configuration of one [`RbcSim`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbcConfig {
    /// The protocol to run.
    pub protocol: RbcProtocol,
    /// Global fault bound: quorums are `⌈(n+t+1)/2⌉`, `t+1`, `2t+1`,
    /// and CTRBC splits into `t+1` fragments.
    pub t: u32,
    /// Broadcast payload size in bits. CTRBC needs at least `2(t+1)`
    /// bits so every fragment meets the segment cascade's minimum.
    pub payload_bits: u32,
    /// Hard cap on delivery waves (the run also ends when no messages
    /// are in flight).
    pub max_waves: u64,
    /// Seed for the payload content and per-wave scheduling order.
    pub seed: u64,
    /// Delivery schedule the network plays (default: `seeded`, PR 9's
    /// per-wave seeded permutation).
    pub schedule: ScheduleKind,
    /// What Byzantine nodes actively do (default: `mute`).
    pub behavior: ByzantineBehavior,
}

/// Message identity — the unit of per-node relay dedup and of
/// tallying. The trailing `u8` is the payload variant the message
/// vouches for: 0 for the genuine broadcast, 1 for an equivocator's
/// conflicting payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgId {
    /// Flood baseline payload.
    Payload(u8),
    /// Bracha SEND from the source.
    Send(u8),
    /// Bracha ECHO originated by this node.
    Echo(u32, u8),
    /// Bracha READY originated by this node.
    Ready(u32, u8),
    /// CTRBC fragment `i` disseminated by the source.
    CtSend(u32, u8),
    /// CTRBC fragment echo originated by this node.
    CtEcho(u32, u8),
    /// CTRBC ready originated by this node.
    CtReady(u32, u8),
}

impl MsgId {
    fn variant(self) -> u8 {
        match self {
            MsgId::Payload(v) | MsgId::Send(v) => v,
            MsgId::Echo(_, v)
            | MsgId::Ready(_, v)
            | MsgId::CtSend(_, v)
            | MsgId::CtEcho(_, v)
            | MsgId::CtReady(_, v) => v,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    id: MsgId,
    bits: u64,
    /// Wave the message was queued (schedules may hold it up to
    /// [`MAX_DEFER_WAVES`] waves past its `born + 1` arrival).
    born: u64,
}

#[derive(Clone)]
struct NodeState {
    /// Relay-dedup bitmap over the message-id space.
    seen: Vec<u64>,
    /// Distinct nodes whose ECHO this node has received, per variant.
    echoers: [Vec<u64>; 2],
    echo_count: [u32; 2],
    /// Distinct nodes whose READY this node has received, per variant.
    readiers: [Vec<u64>; 2],
    ready_count: [u32; 2],
    /// Flood baseline: payload copies delivered (duplicates included).
    copies: u64,
    /// Variant this node echoed, if it has.
    echoed: Option<u8>,
    /// Variant this node sent READY for, if it has.
    readied: Option<u8>,
    /// Variant this node delivered, if it has.
    delivered: Option<u8>,
    /// First variant (payload/root) this node saw — messages under the
    /// other variant are counted as conflicts.
    bound: Option<u8>,
    /// Equivocation evidence observed: cross-variant messages and
    /// double votes by one origin.
    conflicts: u64,
    /// CTRBC: fragment indices held with a valid proof, per variant.
    frags: [Vec<bool>; 2],
    frags_held: [usize; 2],
    /// Equivocator bookkeeping: attack already launched.
    attacked: bool,
    /// Stale-replay bookkeeping: the first message ever received.
    stale: Option<Msg>,
}

impl NodeState {
    fn new(id_words: usize, node_words: usize, k: usize) -> Self {
        NodeState {
            seen: vec![0; id_words],
            echoers: [vec![0; node_words], vec![0; node_words]],
            echo_count: [0; 2],
            readiers: [vec![0; node_words], vec![0; node_words]],
            ready_count: [0; 2],
            copies: 0,
            echoed: None,
            readied: None,
            delivered: None,
            bound: None,
            conflicts: 0,
            frags: [vec![false; k], vec![false; k]],
            frags_held: [0; 2],
            attacked: false,
            stale: None,
        }
    }
}

/// One CTRBC fragment as the source disseminates it.
struct Fragment {
    /// Segment-cascade-coded fragment bits.
    coded: Vec<bool>,
    /// Raw fragment length (the cascade's `k` parameter).
    payload_len: usize,
    /// Sibling path under the commitment root.
    proof: Vec<u64>,
}

struct FragmentSet {
    root: u64,
    frags: Vec<Fragment>,
}

/// The message-level reliable-broadcast simulator. See the module docs
/// for the runtime and protocol semantics.
pub struct RbcSim {
    topo: Topology,
    source: NodeId,
    bad: Vec<bool>,
    good_nodes: usize,
    cfg: RbcConfig,
    k: usize,
    echo_quorum: u32,
    rng: StdRng,
    schedule: Box<dyn DeliverySchedule>,
    /// Receiver-id threshold equivocators and selective senders split
    /// the network at (`< split` is the "variant 0" side).
    split: NodeId,
    /// Message-id slots per variant (variant 1 ids live one stride up).
    id_stride: usize,
    /// Per directed edge: messages deliverable this wave. Edge
    /// `u·degree + p` holds what `u` sent to its `p`-th neighbor.
    cur: Vec<VecDeque<Msg>>,
    /// Per directed edge: messages queued for the next wave.
    nxt: Vec<VecDeque<Msg>>,
    /// Messages currently queued in `nxt`.
    pending: u64,
    nodes: Vec<NodeState>,
    order: Vec<NodeId>,
    /// Scratch buffer for one receiver's wave batch.
    batch: Vec<Msg>,
    /// Payload per variant; variant 1 is the bitwise complement, so
    /// building it draws no RNG and seeded runs are unperturbed.
    payloads: [Vec<bool>; 2],
    /// Fragment sets per variant; variant 1 exists only under the
    /// `equivocate` behavior.
    fragsets: [Option<FragmentSet>; 2],
    messages: u64,
    wire_bits: u64,
    waves: u64,
    echoes_sent: u64,
    readies_sent: u64,
}

impl RbcSim {
    /// Builds a run on `grid` with the broadcast source and Byzantine
    /// set. Call [`RbcSim::begin`] to inject the source's messages,
    /// then [`RbcSim::step_wave`] to fixpoint.
    ///
    /// # Panics
    ///
    /// Panics if CTRBC is selected with a payload shorter than
    /// `2(t+1)` bits (every fragment needs the segment cascade's
    /// two-bit minimum) — the spec layer validates this before
    /// construction.
    pub fn new(grid: Grid, source: NodeId, bad_nodes: &[NodeId], cfg: RbcConfig) -> Self {
        let topo = Topology::new(grid);
        let n = topo.node_count();
        let mut bad = vec![false; n];
        for &u in bad_nodes {
            bad[u] = true;
        }
        let good_nodes = bad.iter().filter(|&&b| !b).count();
        let k = cfg.t as usize + 1;
        let echo_quorum = u32::try_from((n as u64 + u64::from(cfg.t) + 2) / 2)
            .expect("quorum fits u32 for any simulable torus");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let payload: Vec<bool> = (0..cfg.payload_bits).map(|_| rng.random()).collect();
        let payload1: Vec<bool> = payload.iter().map(|&b| !b).collect();
        let fragset = match cfg.protocol {
            RbcProtocol::Ctrbc => Some(Self::split_payload(&payload, k)),
            _ => None,
        };
        let fragset1 = match (cfg.protocol, cfg.behavior) {
            (RbcProtocol::Ctrbc, ByzantineBehavior::Equivocate) => {
                Some(Self::split_payload(&payload1, k))
            }
            _ => None,
        };
        let edges = n * topo.degree();
        let id_stride = 1 + 3 * n;
        let id_words = (2 * id_stride).div_ceil(64);
        let node_words = n.div_ceil(64);
        RbcSim {
            source,
            bad,
            good_nodes,
            cfg,
            k,
            echo_quorum,
            rng,
            schedule: cfg.schedule.build(n, cfg.seed),
            split: n / 2,
            id_stride,
            cur: vec![VecDeque::new(); edges],
            nxt: vec![VecDeque::new(); edges],
            pending: 0,
            nodes: vec![NodeState::new(id_words, node_words, k); n],
            order: (0..n).collect(),
            batch: Vec::new(),
            payloads: [payload, payload1],
            fragsets: [fragset, fragset1],
            topo,
            messages: 0,
            wire_bits: 0,
            waves: 0,
            echoes_sent: 0,
            readies_sent: 0,
        }
    }

    /// Round-robin split into `k` fragments, each segment-coded and
    /// committed under one Merkle root.
    fn split_payload(payload: &[bool], k: usize) -> FragmentSet {
        assert!(
            payload.len() >= 2 * k,
            "CTRBC needs at least 2(t+1) = {} payload bits, got {}",
            2 * k,
            payload.len()
        );
        let mut raw: Vec<Vec<bool>> = vec![Vec::new(); k];
        for (j, &bit) in payload.iter().enumerate() {
            raw[j % k].push(bit);
        }
        let coded: Vec<(Vec<bool>, usize)> = raw
            .iter()
            .map(|frag| {
                let c = segment::encode(frag).expect("fragment length checked above");
                (c, frag.len())
            })
            .collect();
        let leaves: Vec<u64> = coded.iter().map(|(c, _)| merkle::leaf_hash(c)).collect();
        let tree = MerkleTree::new(&leaves);
        let frags = coded
            .into_iter()
            .enumerate()
            .map(|(i, (coded, payload_len))| Fragment {
                coded,
                payload_len,
                proof: tree.proof(i),
            })
            .collect();
        FragmentSet {
            root: tree.root(),
            frags,
        }
    }

    /// The topology the run uses.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Whether `u` is outside the Byzantine set.
    pub fn is_good(&self, u: NodeId) -> bool {
        !self.bad[u]
    }

    /// Whether node `u` has delivered the broadcast (any variant).
    pub fn delivered(&self, u: NodeId) -> bool {
        self.nodes[u].delivered.is_some()
    }

    /// The payload variant `u` delivered: 0 is the genuine broadcast,
    /// 1 an equivocated payload. Two good nodes delivering different
    /// variants is an agreement violation.
    pub fn delivered_variant(&self, u: NodeId) -> Option<u8> {
        self.nodes[u].delivered
    }

    /// Protocol progress phase at `u`: 0 = nothing sent, 1 = echoed,
    /// 2 = readied, 3 = delivered. The flood baseline only uses 0/3.
    pub fn phase(&self, u: NodeId) -> u64 {
        let st = &self.nodes[u];
        if st.delivered.is_some() {
            3
        } else if st.readied.is_some() {
            2
        } else if st.echoed.is_some() {
            1
        } else {
            0
        }
    }

    /// Equivocation evidence observed at `u`: messages under the
    /// non-bound variant plus double votes by a single origin.
    pub fn conflicts(&self, u: NodeId) -> u64 {
        self.nodes[u].conflicts
    }

    /// Whether the run ran out of in-flight messages (as opposed to
    /// hitting the wave cap).
    pub fn quiescent(&self) -> bool {
        self.pending == 0
    }

    /// Echo-phase tally at `u`: distinct ECHO origins received over
    /// both variants (the flood baseline reports payload copies
    /// instead — its only message kind).
    pub fn echoes_received(&self, u: NodeId) -> u64 {
        match self.cfg.protocol {
            RbcProtocol::Counting => self.nodes[u].copies,
            _ => u64::from(self.nodes[u].echo_count[0] + self.nodes[u].echo_count[1]),
        }
    }

    /// Distinct READY origins received at `u`, over both variants.
    pub fn readies_received(&self, u: NodeId) -> u64 {
        u64::from(self.nodes[u].ready_count[0] + self.nodes[u].ready_count[1])
    }

    /// Neighbors of `u` that have delivered.
    pub fn delivered_neighbors(&self, u: NodeId) -> usize {
        self.topo
            .neighbors_of(u)
            .filter(|&w| self.nodes[w].delivered.is_some())
            .count()
    }

    /// Injects the source's initial messages. A mute Byzantine source
    /// broadcasts nothing; other behaviors attack or participate.
    pub fn begin(&mut self) {
        let s = self.source;
        if self.bad[s] {
            match self.cfg.behavior {
                ByzantineBehavior::Mute => {}
                ByzantineBehavior::Equivocate => self.begin_equivocating(s),
                // A selective sender's begin is masked inside
                // `broadcast`; a stale-replayer starts honestly and
                // only replays on receipt.
                ByzantineBehavior::SelectiveSend | ByzantineBehavior::StaleReplay => {
                    self.begin_honest(s)
                }
            }
            return;
        }
        self.begin_honest(s);
    }

    fn begin_honest(&mut self, s: NodeId) {
        match self.cfg.protocol {
            RbcProtocol::Counting => {
                self.nodes[s].delivered = Some(0);
                self.nodes[s].copies = 1;
                self.mark_seen(s, MsgId::Payload(0));
                let bits = TAG_BITS + u64::from(self.cfg.payload_bits);
                self.broadcast(
                    s,
                    Msg {
                        id: MsgId::Payload(0),
                        bits,
                        born: 0,
                    },
                );
            }
            RbcProtocol::Bracha => {
                self.mark_seen(s, MsgId::Send(0));
                let bits = TAG_BITS + u64::from(self.cfg.payload_bits);
                self.broadcast(
                    s,
                    Msg {
                        id: MsgId::Send(0),
                        bits,
                        born: 0,
                    },
                );
                // The source handles its own SEND.
                self.origin_echo(s, 0);
                self.bracha_progress(s);
            }
            RbcProtocol::Ctrbc => {
                for i in 0..self.k {
                    self.mark_seen(s, MsgId::CtSend(i as u32, 0));
                    self.nodes[s].frags[0][i] = true;
                    let msg = Msg {
                        id: MsgId::CtSend(i as u32, 0),
                        bits: self.frag_bits(i, 0),
                        born: 0,
                    };
                    self.broadcast(s, msg);
                }
                self.nodes[s].frags_held[0] = self.k;
                self.origin_ct_echo(s, 0);
                self.ct_progress(s);
            }
        }
    }

    /// An equivocating source: both payload variants go out, each to
    /// its own id half of the neighborhood.
    fn begin_equivocating(&mut self, s: NodeId) {
        self.nodes[s].attacked = true;
        match self.cfg.protocol {
            RbcProtocol::Counting => {
                let bits = TAG_BITS + u64::from(self.cfg.payload_bits);
                self.mark_seen(s, MsgId::Payload(0));
                self.mark_seen(s, MsgId::Payload(1));
                self.broadcast_split(
                    s,
                    Msg {
                        id: MsgId::Payload(0),
                        bits,
                        born: 0,
                    },
                    Msg {
                        id: MsgId::Payload(1),
                        bits,
                        born: 0,
                    },
                );
            }
            RbcProtocol::Bracha => {
                let bits = TAG_BITS + u64::from(self.cfg.payload_bits);
                self.mark_seen(s, MsgId::Send(0));
                self.mark_seen(s, MsgId::Send(1));
                self.broadcast_split(
                    s,
                    Msg {
                        id: MsgId::Send(0),
                        bits,
                        born: 0,
                    },
                    Msg {
                        id: MsgId::Send(1),
                        bits,
                        born: 0,
                    },
                );
            }
            RbcProtocol::Ctrbc => {
                for i in 0..self.k {
                    self.mark_seen(s, MsgId::CtSend(i as u32, 0));
                    self.mark_seen(s, MsgId::CtSend(i as u32, 1));
                    let a = Msg {
                        id: MsgId::CtSend(i as u32, 0),
                        bits: self.frag_bits(i, 0),
                        born: 0,
                    };
                    let b = Msg {
                        id: MsgId::CtSend(i as u32, 1),
                        bits: self.frag_bits(i, 1),
                        born: 0,
                    };
                    self.broadcast_split(s, a, b);
                }
            }
        }
    }

    /// Delivers one wave: everything queued at wave start reaches its
    /// receiver unless the schedule defers it; the schedule also picks
    /// the node processing order and in-batch consumption order.
    /// Returns `false` once nothing is in flight or the wave cap is
    /// reached.
    pub fn step_wave(&mut self) -> bool {
        if self.pending == 0 || self.waves >= self.cfg.max_waves {
            return false;
        }
        std::mem::swap(&mut self.cur, &mut self.nxt);
        self.pending = 0;
        self.waves += 1;
        let wave = self.waves;
        let mut order = std::mem::take(&mut self.order);
        self.schedule.order_nodes(wave, &mut self.rng, &mut order);
        let defers = self.schedule.defers();
        let ranks = self.schedule.ranks();
        let mut batch = std::mem::take(&mut self.batch);
        let deg = self.topo.degree();
        for &u in &order {
            batch.clear();
            for (p, v) in self.topo.neighbors_of(u).enumerate() {
                // v's edge to u: by the stencil's mirror symmetry, u is
                // v's neighbor degree − 1 − p.
                let e = v * deg + (deg - 1 - p);
                while let Some(msg) = self.cur[e].pop_front() {
                    // The bounded-asynchrony contract: a schedule may
                    // hold a message at most MAX_DEFER_WAVES extra
                    // waves; anything older is force-delivered.
                    if defers
                        && wave - msg.born <= MAX_DEFER_WAVES
                        && self.schedule.defer(wave, u, &Self::view(&msg))
                    {
                        self.nxt[e].push_back(msg);
                        self.pending += 1;
                        continue;
                    }
                    batch.push(msg);
                }
            }
            if ranks && batch.len() > 1 {
                let schedule = &mut self.schedule;
                batch.sort_by_key(|m| schedule.rank(wave, u, &Self::view(m)));
            }
            for &msg in &batch {
                self.messages += 1;
                self.wire_bits += msg.bits;
                if self.bad[u] {
                    self.byz_handle(u, msg);
                } else {
                    self.handle(u, msg);
                }
            }
        }
        self.order = order;
        self.batch = batch;
        true
    }

    /// The run's aggregate result so far.
    pub fn outcome(&self) -> RbcOutcome {
        let delivered = (0..self.nodes.len())
            .filter(|&u| !self.bad[u] && self.nodes[u].delivered.is_some())
            .count();
        RbcOutcome {
            good_nodes: self.good_nodes,
            delivered,
            messages: self.messages,
            wire_bits: self.wire_bits,
            waves: self.waves,
            echoes_sent: self.echoes_sent,
            readies_sent: self.readies_sent,
        }
    }

    // -- runtime plumbing ---------------------------------------------

    fn view(msg: &Msg) -> MsgView {
        let (class, origin) = match msg.id {
            MsgId::Payload(_) => (MsgClass::Payload, None),
            MsgId::Send(_) => (MsgClass::Send, None),
            MsgId::CtSend(_, _) => (MsgClass::Fragment, None),
            MsgId::Echo(o, _) | MsgId::CtEcho(o, _) => (MsgClass::Echo, Some(o as usize)),
            MsgId::Ready(o, _) | MsgId::CtReady(o, _) => (MsgClass::Ready, Some(o as usize)),
        };
        MsgView {
            class,
            origin,
            variant: msg.id.variant(),
            born: msg.born,
        }
    }

    fn id_index(&self, id: MsgId) -> usize {
        let n = self.nodes.len();
        let (slot, v) = match id {
            MsgId::Payload(v) | MsgId::Send(v) => (0, v),
            MsgId::Echo(o, v) => (1 + o as usize, v),
            MsgId::CtSend(i, v) => (1 + i as usize, v),
            MsgId::Ready(o, v) | MsgId::CtEcho(o, v) => (1 + n + o as usize, v),
            MsgId::CtReady(o, v) => (1 + 2 * n + o as usize, v),
        };
        v as usize * self.id_stride + slot
    }

    /// Marks `id` seen at `u`; `true` if it was new.
    fn mark_seen(&mut self, u: NodeId, id: MsgId) -> bool {
        let i = self.id_index(id);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let word = &mut self.nodes[u].seen[w];
        let new = *word & b == 0;
        *word |= b;
        new
    }

    /// Binds `u` to the first variant it sees; later cross-variant
    /// messages count as equivocation evidence.
    fn note_variant(&mut self, u: NodeId, v: u8) {
        let st = &mut self.nodes[u];
        match st.bound {
            None => st.bound = Some(v),
            Some(b) if b != v => st.conflicts += 1,
            Some(_) => {}
        }
    }

    fn note_echoer(&mut self, u: NodeId, origin: NodeId, v: u8) {
        let (w, b) = (origin / 64, 1u64 << (origin % 64));
        let vi = v as usize;
        let st = &mut self.nodes[u];
        if st.echoers[vi][w] & b != 0 {
            return;
        }
        if st.echoers[1 - vi][w] & b != 0 {
            // Same origin under the other variant: a double vote is
            // equivocation evidence, never a second count.
            st.conflicts += 1;
            return;
        }
        st.echoers[vi][w] |= b;
        st.echo_count[vi] += 1;
    }

    fn note_readier(&mut self, u: NodeId, origin: NodeId, v: u8) {
        let (w, b) = (origin / 64, 1u64 << (origin % 64));
        let vi = v as usize;
        let st = &mut self.nodes[u];
        if st.readiers[vi][w] & b != 0 {
            return;
        }
        if st.readiers[1 - vi][w] & b != 0 {
            st.conflicts += 1;
            return;
        }
        st.readiers[vi][w] |= b;
        st.ready_count[vi] += 1;
    }

    /// Queues `msg` on every out-edge of `u` for the next wave. A
    /// Byzantine selective sender only reaches its lower-id-half
    /// neighbors.
    fn broadcast(&mut self, u: NodeId, msg: Msg) {
        let msg = Msg {
            born: self.waves,
            ..msg
        };
        let deg = self.topo.degree();
        let off = u * deg;
        if self.bad[u] && self.cfg.behavior == ByzantineBehavior::SelectiveSend {
            for (p, w) in self.topo.neighbors_of(u).enumerate() {
                if w >= self.split {
                    continue;
                }
                self.nxt[off + p].push_back(msg);
                self.pending += 1;
            }
            return;
        }
        for e in off..off + deg {
            self.nxt[e].push_back(msg);
        }
        self.pending += deg as u64;
    }

    /// Split broadcast: neighbors below the id split get `a`, the rest
    /// get `b`. All equivocators coordinate on the same split.
    fn broadcast_split(&mut self, u: NodeId, a: Msg, b: Msg) {
        let born = self.waves;
        let off = u * self.topo.degree();
        for (p, w) in self.topo.neighbors_of(u).enumerate() {
            let msg = if w < self.split { a } else { b };
            self.nxt[off + p].push_back(Msg { born, ..msg });
            self.pending += 1;
        }
    }

    /// Wire size of CTRBC fragment `i` (send or echo): tag, index,
    /// root, coded fragment, sibling proof.
    fn frag_bits(&self, i: usize, v: u8) -> u64 {
        let set = self.fragsets[v as usize].as_ref().expect("ctrbc only");
        let frag = &set.frags[i];
        TAG_BITS
            + INDEX_BITS
            + HASH_BITS
            + frag.coded.len() as u64
            + frag.proof.len() as u64 * HASH_BITS
    }

    // -- protocol state machines --------------------------------------

    fn handle(&mut self, u: NodeId, msg: Msg) {
        if let MsgId::Payload(_) = msg.id {
            self.nodes[u].copies += 1;
        }
        if !self.mark_seen(u, msg.id) {
            return; // duplicate copy: already relayed and tallied
        }
        self.broadcast(u, msg); // flood: relay each id once
        self.note_variant(u, msg.id.variant());
        match msg.id {
            MsgId::Payload(v) => {
                if self.nodes[u].delivered.is_none() {
                    self.nodes[u].delivered = Some(v);
                }
            }
            MsgId::Send(v) => {
                if self.nodes[u].echoed.is_none() {
                    self.origin_echo(u, v);
                }
                self.bracha_progress(u);
            }
            MsgId::Echo(o, v) => {
                self.note_echoer(u, o as usize, v);
                self.bracha_progress(u);
            }
            MsgId::Ready(o, v) => {
                self.note_readier(u, o as usize, v);
                self.bracha_progress(u);
            }
            MsgId::CtSend(i, v) => {
                self.hold_frag(u, i as usize, v);
                self.ct_progress(u);
            }
            MsgId::CtEcho(o, v) => {
                self.note_echoer(u, o as usize, v);
                self.hold_frag(u, o as usize % self.k, v);
                self.ct_progress(u);
            }
            MsgId::CtReady(o, v) => {
                self.note_readier(u, o as usize, v);
                self.ct_progress(u);
            }
        }
    }

    /// Dispatches a message received by a Byzantine node to its
    /// behavior.
    fn byz_handle(&mut self, u: NodeId, msg: Msg) {
        match self.cfg.behavior {
            ByzantineBehavior::Mute => {}
            // Honest state machine; `broadcast` masks every send down
            // to the lower id half.
            ByzantineBehavior::SelectiveSend => self.handle(u, msg),
            ByzantineBehavior::Equivocate => {
                if !self.mark_seen(u, msg.id) {
                    return;
                }
                self.broadcast(u, msg);
                if !self.nodes[u].attacked {
                    self.nodes[u].attacked = true;
                    self.launch_equivocation(u);
                }
            }
            ByzantineBehavior::StaleReplay => {
                if !self.mark_seen(u, msg.id) {
                    return;
                }
                self.broadcast(u, msg);
                match self.nodes[u].stale {
                    None => self.nodes[u].stale = Some(msg),
                    Some(stale) => self.broadcast(u, stale),
                }
            }
        }
    }

    /// A non-source equivocator's attack, launched on its first
    /// received message: conflicting votes — variant 0 to the lower id
    /// half, variant 1 to the upper half. CTRBC fragments carry valid
    /// proofs under the equivocated payload's own Merkle root; only
    /// root-binding at the receivers defeats them.
    fn launch_equivocation(&mut self, u: NodeId) {
        let o = u as u32;
        let pay = TAG_BITS + u64::from(self.cfg.payload_bits);
        match self.cfg.protocol {
            RbcProtocol::Counting => {
                self.mark_seen(u, MsgId::Payload(0));
                self.mark_seen(u, MsgId::Payload(1));
                self.broadcast_split(
                    u,
                    Msg {
                        id: MsgId::Payload(0),
                        bits: pay,
                        born: 0,
                    },
                    Msg {
                        id: MsgId::Payload(1),
                        bits: pay,
                        born: 0,
                    },
                );
            }
            RbcProtocol::Bracha => {
                for (a, b) in [
                    (MsgId::Echo(o, 0), MsgId::Echo(o, 1)),
                    (MsgId::Ready(o, 0), MsgId::Ready(o, 1)),
                ] {
                    self.mark_seen(u, a);
                    self.mark_seen(u, b);
                    self.broadcast_split(
                        u,
                        Msg {
                            id: a,
                            bits: pay,
                            born: 0,
                        },
                        Msg {
                            id: b,
                            bits: pay,
                            born: 0,
                        },
                    );
                }
            }
            RbcProtocol::Ctrbc => {
                let i = u % self.k;
                let (ea, eb) = (MsgId::CtEcho(o, 0), MsgId::CtEcho(o, 1));
                self.mark_seen(u, ea);
                self.mark_seen(u, eb);
                let a = Msg {
                    id: ea,
                    bits: self.frag_bits(i, 0),
                    born: 0,
                };
                let b = Msg {
                    id: eb,
                    bits: self.frag_bits(i, 1),
                    born: 0,
                };
                self.broadcast_split(u, a, b);
                let ready = TAG_BITS + HASH_BITS;
                let (ra, rb) = (MsgId::CtReady(o, 0), MsgId::CtReady(o, 1));
                self.mark_seen(u, ra);
                self.mark_seen(u, rb);
                self.broadcast_split(
                    u,
                    Msg {
                        id: ra,
                        bits: ready,
                        born: 0,
                    },
                    Msg {
                        id: rb,
                        bits: ready,
                        born: 0,
                    },
                );
            }
        }
    }

    fn origin_echo(&mut self, u: NodeId, v: u8) {
        self.nodes[u].echoed = Some(v);
        if !self.bad[u] {
            self.echoes_sent += 1;
        }
        let id = MsgId::Echo(u as u32, v);
        self.mark_seen(u, id);
        self.note_echoer(u, u, v);
        let bits = TAG_BITS + u64::from(self.cfg.payload_bits);
        self.broadcast(u, Msg { id, bits, born: 0 });
    }

    fn origin_ready(&mut self, u: NodeId, v: u8) {
        self.nodes[u].readied = Some(v);
        if !self.bad[u] {
            self.readies_sent += 1;
        }
        let id = MsgId::Ready(u as u32, v);
        self.mark_seen(u, id);
        self.note_readier(u, u, v);
        // Classic Bracha: READY carries the message.
        let bits = TAG_BITS + u64::from(self.cfg.payload_bits);
        self.broadcast(u, Msg { id, bits, born: 0 });
    }

    fn bracha_progress(&mut self, u: NodeId) {
        let amp = self.cfg.t + 1;
        let deliver = 2 * self.cfg.t + 1;
        for v in 0..2u8 {
            let vi = v as usize;
            let st = &self.nodes[u];
            if st.readied.is_none()
                && (st.echo_count[vi] >= self.echo_quorum || st.ready_count[vi] >= amp)
            {
                self.origin_ready(u, v);
            }
            let st = &self.nodes[u];
            if st.delivered.is_none() && st.ready_count[vi] >= deliver {
                self.nodes[u].delivered = Some(v);
            }
        }
    }

    /// Verifies fragment `i`'s sibling proof against variant `v`'s
    /// commitment root and stores it. An equivocated fragment carries
    /// a *valid* proof under its own root — the verification here is
    /// the per-delivery work CTRBC pays, while cross-variant defense
    /// comes from root-binding in the vote counting.
    fn hold_frag(&mut self, u: NodeId, i: usize, v: u8) {
        let vi = v as usize;
        if self.nodes[u].frags[vi][i] {
            return;
        }
        let set = self.fragsets[vi].as_ref().expect("ctrbc only");
        let leaf = merkle::leaf_hash(&set.frags[i].coded);
        if !merkle::verify(leaf, i, &set.frags[i].proof, set.root) {
            return; // forged fragment: reject
        }
        self.nodes[u].frags[vi][i] = true;
        self.nodes[u].frags_held[vi] += 1;
    }

    fn origin_ct_echo(&mut self, u: NodeId, v: u8) {
        self.nodes[u].echoed = Some(v);
        if !self.bad[u] {
            self.echoes_sent += 1;
        }
        let id = MsgId::CtEcho(u as u32, v);
        self.mark_seen(u, id);
        self.note_echoer(u, u, v);
        let msg = Msg {
            id,
            bits: self.frag_bits(u % self.k, v),
            born: 0,
        };
        self.broadcast(u, msg);
    }

    fn origin_ct_ready(&mut self, u: NodeId, v: u8) {
        self.nodes[u].readied = Some(v);
        if !self.bad[u] {
            self.readies_sent += 1;
        }
        let id = MsgId::CtReady(u as u32, v);
        self.mark_seen(u, id);
        self.note_readier(u, u, v);
        let bits = TAG_BITS + HASH_BITS; // root only
        self.broadcast(u, Msg { id, bits, born: 0 });
    }

    fn ct_progress(&mut self, u: NodeId) {
        let amp = self.cfg.t + 1;
        let deliver = 2 * self.cfg.t + 1;
        for v in 0..2u8 {
            let vi = v as usize;
            if self.nodes[u].echoed.is_none() && self.nodes[u].frags[vi][u % self.k] {
                self.origin_ct_echo(u, v);
            }
            let st = &self.nodes[u];
            if st.readied.is_none()
                && ((st.echo_count[vi] >= self.echo_quorum && st.frags_held[vi] == self.k)
                    || st.ready_count[vi] >= amp)
            {
                self.origin_ct_ready(u, v);
            }
            let st = &self.nodes[u];
            if st.delivered.is_none()
                && st.ready_count[vi] >= deliver
                && st.frags_held[vi] == self.k
            {
                self.reconstruct_and_deliver(u, v);
            }
        }
    }

    /// Reconstructs variant `v`'s payload from the k held fragments:
    /// segment cascade per fragment, round-robin interleave, root
    /// recomputation against the commitment — delivery fails closed if
    /// anything mismatches.
    fn reconstruct_and_deliver(&mut self, u: NodeId, v: u8) {
        let set = self.fragsets[v as usize].as_ref().expect("ctrbc only");
        let mut parts = Vec::with_capacity(self.k);
        for frag in &set.frags {
            match segment::verify(&frag.coded, frag.payload_len) {
                Ok(bits) => parts.push(bits),
                Err(_) => return,
            }
        }
        let leaves: Vec<u64> = set
            .frags
            .iter()
            .map(|f| merkle::leaf_hash(&f.coded))
            .collect();
        if MerkleTree::new(&leaves).root() != set.root {
            return;
        }
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut rebuilt = Vec::with_capacity(total);
        for j in 0..total {
            rebuilt.push(parts[j % self.k][j / self.k]);
        }
        debug_assert_eq!(
            rebuilt, self.payloads[v as usize],
            "reconstruction is lossless"
        );
        self.nodes[u].delivered = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn run(grid: Grid, bad: &[NodeId], cfg: RbcConfig) -> RbcSim {
        let mut sim = RbcSim::new(grid, 0, bad, cfg);
        sim.begin();
        while sim.step_wave() {}
        sim
    }

    #[test]
    fn counting_flood_delivers_everyone() {
        let sim = run(
            Grid::new(15, 15, 1).unwrap(),
            &[],
            config(RbcProtocol::Counting),
        );
        let o = sim.outcome();
        assert!(o.is_reliable(), "{o:?}");
        assert_eq!(o.good_nodes, 225);
        assert_eq!(o.echoes_sent, 0);
        assert_eq!(o.readies_sent, 0);
        // Every node relays once to its 8 neighbors.
        assert_eq!(o.messages, 225 * 8);
        assert!(o.waves >= 7, "15x15 r=1 takes several waves: {o:?}");
    }

    #[test]
    fn bracha_delivers_with_byzantine_nodes_mute() {
        let grid = Grid::new(15, 15, 1).unwrap();
        let bad = vec![grid.id_at(3, 3), grid.id_at(10, 11)];
        let sim = run(grid, &bad, config(RbcProtocol::Bracha));
        let o = sim.outcome();
        assert!(o.is_reliable(), "{o:?}");
        assert_eq!(o.good_nodes, 223);
        assert_eq!(o.echoes_sent, 223, "every good node echoes once");
        assert_eq!(o.readies_sent, 223);
        assert!(!sim.delivered(bad[0]), "mute nodes never deliver");
    }

    #[test]
    fn ctrbc_delivers_and_beats_bracha_on_wire_bits() {
        let grid = Grid::new(15, 15, 1).unwrap();
        let bad = vec![grid.id_at(3, 3), grid.id_at(10, 11)];
        let bracha = run(grid.clone(), &bad, config(RbcProtocol::Bracha)).outcome();
        let ctrbc = run(grid, &bad, config(RbcProtocol::Ctrbc)).outcome();
        assert!(bracha.is_reliable(), "{bracha:?}");
        assert!(ctrbc.is_reliable(), "{ctrbc:?}");
        assert!(
            ctrbc.wire_bits < bracha.wire_bits,
            "fragment echoes must beat full-payload echoes: {} vs {}",
            ctrbc.wire_bits,
            bracha.wire_bits
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let grid = Grid::new(12, 12, 1).unwrap();
        let bad = vec![grid.id_at(5, 5)];
        let a = run(grid.clone(), &bad, config(RbcProtocol::Ctrbc)).outcome();
        let b = run(grid, &bad, config(RbcProtocol::Ctrbc)).outcome();
        assert_eq!(a, b);
    }

    #[test]
    fn wave_cap_stops_partial_runs() {
        let mut cfg = config(RbcProtocol::Bracha);
        cfg.max_waves = 2;
        let sim = run(Grid::new(15, 15, 1).unwrap(), &[], cfg);
        let o = sim.outcome();
        assert_eq!(o.waves, 2);
        assert!(!o.is_reliable(), "two waves cannot finish: {o:?}");
        assert!(!sim.quiescent(), "a capped run still has mail in flight");
    }

    #[test]
    fn byzantine_source_broadcasts_nothing() {
        let grid = Grid::new(9, 9, 1).unwrap();
        let sim = run(grid, &[0], config(RbcProtocol::Bracha));
        let o = sim.outcome();
        assert_eq!(o.messages, 0);
        assert_eq!(o.delivered, 0);
        assert_eq!(o.waves, 0);
    }

    #[test]
    fn quorum_unreachable_blocks_delivery_safely() {
        // 5x5, t = 2: echo quorum = ceil((25+3)/2) = 14 distinct
        // echoers. Mute 13 of 25 nodes: only 12 good nodes remain, so
        // no one can assemble an echo quorum and nobody delivers.
        let grid = Grid::new(5, 5, 2).unwrap();
        let bad: Vec<NodeId> = (12..25).collect();
        let sim = run(grid, &bad, config(RbcProtocol::Bracha));
        let o = sim.outcome();
        assert_eq!(o.delivered, 0, "{o:?}");
        assert_eq!(o.readies_sent, 0);
        assert!(o.messages > 0, "sends and echoes still flooded");
    }

    #[test]
    fn phases_track_protocol_progress() {
        let mut cfg = config(RbcProtocol::Bracha);
        cfg.max_waves = 1;
        let sim = run(Grid::new(9, 9, 1).unwrap(), &[], cfg);
        // After one wave only the source's neighborhood has echoed.
        assert_eq!(sim.phase(0), 1, "source echoed, no quorum yet");
        assert_eq!(sim.phase(40), 0, "far node has seen nothing");
        let done = run(
            Grid::new(9, 9, 1).unwrap(),
            &[],
            config(RbcProtocol::Bracha),
        );
        for u in 0..81 {
            assert_eq!(done.phase(u), 3, "complete run delivers node {u}");
            assert_eq!(done.delivered_variant(u), Some(0));
            assert_eq!(done.conflicts(u), 0, "honest runs see no conflicts");
        }
    }

    #[test]
    fn what_is_delivered_is_schedule_invariant_under_mute() {
        let grid = Grid::new(9, 9, 1).unwrap();
        let bad = vec![grid.id_at(2, 2), grid.id_at(6, 5)];
        let baseline = run(grid.clone(), &bad, config(RbcProtocol::Bracha));
        let base_out = baseline.outcome();
        for schedule in ScheduleKind::ALL {
            let mut cfg = config(RbcProtocol::Bracha);
            cfg.schedule = schedule;
            let sim = run(grid.clone(), &bad, cfg);
            let o = sim.outcome();
            assert!(sim.quiescent(), "{schedule:?} must drain");
            assert_eq!(o.delivered, base_out.delivered, "{schedule:?}");
            assert_eq!(o.messages, base_out.messages, "{schedule:?}");
            assert_eq!(o.wire_bits, base_out.wire_bits, "{schedule:?}");
            for u in 0..81 {
                assert_eq!(
                    sim.delivered_variant(u),
                    baseline.delivered_variant(u),
                    "{schedule:?} node {u}"
                );
            }
        }
    }

    #[test]
    fn equivocators_within_budget_cannot_break_bracha() {
        let grid = Grid::new(5, 5, 2).unwrap();
        for schedule in ScheduleKind::ALL {
            let mut cfg = config(RbcProtocol::Bracha);
            cfg.schedule = schedule;
            cfg.behavior = ByzantineBehavior::Equivocate;
            // t = 2 equivocators: exactly at budget.
            let sim = run(grid.clone(), &[7, 18], cfg);
            let o = sim.outcome();
            assert_eq!(o.delivered, o.good_nodes, "{schedule:?}: {o:?}");
            for u in 0..25 {
                if sim.is_good(u) {
                    assert_eq!(sim.delivered_variant(u), Some(0), "{schedule:?} node {u}");
                }
            }
        }
    }

    #[test]
    fn equivocation_is_observed_as_conflicts() {
        let grid = Grid::new(5, 5, 2).unwrap();
        let mut cfg = config(RbcProtocol::Bracha);
        cfg.behavior = ByzantineBehavior::Equivocate;
        let sim = run(grid, &[7, 18], cfg);
        let total: u64 = (0..25)
            .filter(|&u| sim.is_good(u))
            .map(|u| sim.conflicts(u))
            .sum();
        assert!(total > 0, "split-brain votes must leave evidence");
    }

    #[test]
    fn selective_send_only_starves_but_never_splits() {
        let grid = Grid::new(5, 5, 2).unwrap();
        let mut cfg = config(RbcProtocol::Ctrbc);
        cfg.behavior = ByzantineBehavior::SelectiveSend;
        let sim = run(grid, &[7, 18], cfg);
        let o = sim.outcome();
        assert_eq!(o.delivered, o.good_nodes, "{o:?}");
        for u in 0..25 {
            if sim.is_good(u) {
                assert_eq!(sim.delivered_variant(u), Some(0));
            }
        }
    }

    #[test]
    fn stale_replay_inflates_traffic_without_breaking_agreement() {
        let grid = Grid::new(5, 5, 2).unwrap();
        let mute = run(grid.clone(), &[7, 18], config(RbcProtocol::Bracha)).outcome();
        let mut cfg = config(RbcProtocol::Bracha);
        cfg.behavior = ByzantineBehavior::StaleReplay;
        let sim = run(grid, &[7, 18], cfg);
        let o = sim.outcome();
        assert_eq!(o.delivered, o.good_nodes, "{o:?}");
        assert!(
            o.messages > mute.messages,
            "replays cost traffic: {} vs {}",
            o.messages,
            mute.messages
        );
    }
}
