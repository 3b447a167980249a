//! Execution engine for source-neighborhood agreement (faulty base
//! station).
//!
//! Runs the three-phase propose/echo/confirm protocol of
//! [`bftbcast_protocols::agreement`] on the torus under the paper's
//! per-receiver corruption accounting, with a possibly-Byzantine source
//! ([`SourceBehavior`]) and colluding bad nodes inside the source's
//! neighborhood that try to **split** the good members between two
//! values ([`SplitAttack`]).
//!
//! The radio model does the heavy lifting: every propose-phase copy is
//! heard identically by all of `N(source)`, so divergence among good
//! members is manufactured exclusively by selective collisions, whose
//! per-receiver capacity is `mf` per (bad node, receiver) pair — the
//! same accounting as
//! [`CountingSim::run_oracle`](crate::CountingSim::run_oracle) — shared
//! across all three phases (the attack chooses the schedule).
//!
//! # Example
//!
//! ```
//! use bftbcast_net::Grid;
//! use bftbcast_protocols::agreement::AgreementConfig;
//! use bftbcast_protocols::Params;
//! use bftbcast_sim::agreement::{AgreementSim, SourceBehavior, SplitAttack};
//!
//! let grid = Grid::new(21, 21, 2).unwrap();
//! let params = Params::new(2, 1, 10);
//! let cfg = AgreementConfig::paper_margins(params);
//! let source = grid.id_at(10, 10);
//!
//! // A correct source against colluders: validity holds.
//! let bad = vec![grid.id_at(9, 10)];
//! let mut sim = AgreementSim::new(grid, cfg, source, &bad);
//! let out = sim.run(SourceBehavior::Correct, SplitAttack::strongest());
//! assert!(out.validity_holds());
//! assert!(out.agreement_holds());
//! ```

use bftbcast_net::{Grid, NodeId, Topology, Value};
use bftbcast_protocols::agreement::{
    aggregate, confirm, propose, AgreementConfig, CONFLICT, DEFAULT_VALUE,
};

/// What the (possibly faulty) base station transmits in the propose
/// phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceBehavior {
    /// A correct source: `source_copies` copies of `Vtrue`.
    Correct,
    /// A Byzantine source splitting its transmissions among arbitrary
    /// values (counts may sum to less than `source_copies`: a faulty
    /// source may also stay partly silent).
    Split(Vec<(Value, u64)>),
    /// A Byzantine source that sends nothing.
    Silent,
}

impl SourceBehavior {
    /// An even two-value split of the configured copy count — the
    /// equivocation that maximizes ambiguity at the receivers.
    pub fn even_split(cfg: &AgreementConfig, a: Value, b: Value) -> Self {
        let half = cfg.source_copies / 2;
        SourceBehavior::Split(vec![(a, half), (b, cfg.source_copies - half)])
    }

    pub(crate) fn transmissions(&self, cfg: &AgreementConfig) -> Vec<(Value, u64)> {
        match self {
            SourceBehavior::Correct => vec![(Value::TRUE, cfg.source_copies)],
            SourceBehavior::Split(split) => split.clone(),
            SourceBehavior::Silent => Vec::new(),
        }
    }
}

/// The colluders' plan for splitting the neighborhood.
///
/// The attack partitions the source's good members into two camps by
/// the sign of their x-offset from the source and steers camp A toward
/// `value_a` and camp B toward `value_b`. At each receiver and phase it
/// spends part of the (shared) per-receiver capacity; within a phase,
/// half the spend injects forged copies of the camp value and half
/// converts copies of rival values (including [`CONFLICT`] evidence in
/// the confirm phase — suppressing conflict is the strongest splitting
/// move) into the camp value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitAttack {
    /// Value pushed on the western camp.
    pub value_a: Value,
    /// Value pushed on the eastern camp.
    pub value_b: Value,
    /// Fraction of per-receiver capacity spent in the propose phase.
    pub phase1_fraction: f64,
    /// Fraction of the *remaining* capacity spent in the echo phase
    /// (the rest is saved for the confirm phase).
    pub echo_fraction: f64,
}

impl SplitAttack {
    /// A strong default schedule: enough propose-phase spend to flip
    /// proposals, most capacity held back to suppress conflict evidence
    /// in the confirm phase. (EXP-X4 sweeps the full schedule grid; the
    /// splitting points cluster around this shape.)
    pub fn strongest() -> Self {
        SplitAttack {
            value_a: Value(2),
            value_b: Value(3),
            phase1_fraction: 0.4,
            echo_fraction: 0.2,
        }
    }

    fn favored(&self, camp_a: bool) -> Value {
        if camp_a {
            self.value_a
        } else {
            self.value_b
        }
    }
}

/// Per-node outcome of an agreement run.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementOutcome {
    /// `(node, decided value)` for every good member of `N(source)`.
    pub decisions: Vec<(NodeId, Value)>,
    /// Whether the run used a correct source.
    pub source_correct: bool,
    /// Per-node proposals after phase 1 (diagnostic).
    pub proposals: Vec<(NodeId, Value)>,
    /// Per-node aggregates after phase 2 (diagnostic; [`CONFLICT`]
    /// marks ambiguous views).
    pub aggregates: Vec<(NodeId, Value)>,
}

impl AgreementOutcome {
    /// Validity: with a correct source, every good member decided
    /// `Vtrue`. Vacuously true for a faulty source.
    pub fn validity_holds(&self) -> bool {
        !self.source_correct || self.decisions.iter().all(|&(_, v)| v == Value::TRUE)
    }

    /// Agreement: no two good members decided *different non-default*
    /// values (defaulting alongside a decided value is the permitted
    /// faulty-source outcome; see the protocol docs).
    pub fn agreement_holds(&self) -> bool {
        self.decided_values().len() <= 1
    }

    /// The distinct non-default values decided.
    pub fn decided_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = self
            .decisions
            .iter()
            .map(|&(_, v)| v)
            .filter(|&v| v != DEFAULT_VALUE)
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// Number of good members that defaulted.
    pub fn default_count(&self) -> usize {
        self.decisions
            .iter()
            .filter(|&&(_, v)| v == DEFAULT_VALUE)
            .count()
    }

    /// Number of good members whose phase-2 view was ambiguous.
    pub fn conflicted_count(&self) -> usize {
        self.aggregates
            .iter()
            .filter(|&&(_, v)| v == CONFLICT)
            .count()
    }
}

/// The agreement engine. One instance runs one propose/echo/confirm
/// execution.
#[derive(Debug, Clone)]
pub struct AgreementSim {
    topology: Topology,
    cfg: AgreementConfig,
    source: NodeId,
    members: Vec<NodeId>,
    is_bad: Vec<bool>,
    /// Remaining per-receiver corruption capacity (`mf` per (bad
    /// neighbor, receiver) pair, shared across phases).
    capacity: Vec<u64>,
}

impl AgreementSim {
    /// Builds an engine for the neighborhood of `source` with the given
    /// colluding bad nodes (which must all lie inside `N(source)`; bad
    /// nodes elsewhere cannot touch this phase and are rejected to
    /// catch mis-specified experiments).
    ///
    /// # Panics
    ///
    /// Panics if a bad node is the source itself, outside `N(source)`,
    /// duplicated, or if the bad count exceeds the configured `t`.
    pub fn new(grid: Grid, cfg: AgreementConfig, source: NodeId, bad: &[NodeId]) -> Self {
        let topology = Topology::new(grid);
        let members: Vec<NodeId> = topology.neighbors_of(source).collect();
        let mut is_bad = vec![false; topology.node_count()];
        for &b in bad {
            assert!(
                b != source,
                "the source's faults are modeled by SourceBehavior"
            );
            assert!(
                topology.contains(source, b),
                "colluder {b} is outside the source neighborhood"
            );
            assert!(!is_bad[b], "duplicate bad node {b}");
            is_bad[b] = true;
        }
        assert!(
            bad.len() <= cfg.params.t as usize,
            "{} colluders exceed the local bound t = {}",
            bad.len(),
            cfg.params.t
        );
        let mut capacity = vec![0u64; topology.node_count()];
        for &b in bad {
            for u in topology.neighbors_of(b) {
                if !is_bad[u] {
                    capacity[u] += cfg.params.mf;
                }
            }
        }
        AgreementSim {
            topology,
            cfg,
            source,
            members,
            is_bad,
            capacity,
        }
    }

    /// Replaces the margins (ablations).
    pub fn with_config(mut self, cfg: AgreementConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The precomputed neighborhood topology the engine runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The protocol configuration this engine runs.
    pub fn config(&self) -> &AgreementConfig {
        &self.cfg
    }

    /// The good members of the source neighborhood.
    pub fn good_members(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|&u| !self.is_bad[u])
            .collect()
    }

    fn camp_a(&self, u: NodeId) -> bool {
        // Signed x-offset on the torus: west (or on-column) is camp A.
        let grid = self.topology.grid();
        let w = i64::from(grid.width());
        let sx = i64::from(grid.coord_of(self.source).x);
        let ux = i64::from(grid.coord_of(u).x);
        let mut dx = ux - sx;
        if dx > w / 2 {
            dx -= w;
        }
        if dx < -(w / 2) {
            dx += w;
        }
        dx <= 0
    }

    /// Runs all three phases and reports every good member's decision.
    ///
    /// Equivalent to [`AgreementSim::propose_phase`],
    /// [`AgreementSim::echo_phase`] and [`AgreementSim::confirm_phase`]
    /// in sequence — the phase-stepped form the
    /// [`crate::engine::SimEngine`] runtime drives.
    pub fn run(&mut self, source: SourceBehavior, attack: SplitAttack) -> AgreementOutcome {
        let transmissions = self.validate_inputs(&source, attack);
        let source_correct = source == SourceBehavior::Correct;
        let proposals = self.propose_phase(&transmissions, attack);
        let aggregates = self.echo_phase(&proposals, attack);
        let decisions = self.confirm_phase(&aggregates, attack);
        AgreementOutcome {
            decisions,
            source_correct,
            proposals,
            aggregates,
        }
    }

    /// Validates the attack fractions and source transmissions,
    /// returning the latter.
    ///
    /// # Panics
    ///
    /// Panics on fractions outside `[0, 1]` or a source proposing the
    /// distinguished [`DEFAULT_VALUE`] / [`CONFLICT`] tokens.
    pub(crate) fn validate_inputs(
        &self,
        source: &SourceBehavior,
        attack: SplitAttack,
    ) -> Vec<(Value, u64)> {
        assert!(
            (0.0..=1.0).contains(&attack.phase1_fraction)
                && (0.0..=1.0).contains(&attack.echo_fraction),
            "attack fractions outside [0, 1]"
        );
        let transmissions = source.transmissions(&self.cfg);
        assert!(
            transmissions
                .iter()
                .all(|&(v, _)| v != DEFAULT_VALUE && v != CONFLICT),
            "distinguished tokens cannot be proposed by the source"
        );
        transmissions
    }

    /// Phase 1: every good member tallies the source's propose-phase
    /// copies under the attack's phase-1 corruption spend and forms its
    /// proposal.
    pub fn propose_phase(
        &mut self,
        transmissions: &[(Value, u64)],
        attack: SplitAttack,
    ) -> Vec<(NodeId, Value)> {
        let good: Vec<NodeId> = self.good_members();
        let mut proposals: Vec<(NodeId, Value)> = Vec::with_capacity(good.len());
        for &u in &good {
            let budget = (self.capacity[u] as f64 * attack.phase1_fraction).floor() as u64;
            let favored = attack.favored(self.camp_a(u));
            let mut tallies = transmissions.to_vec();
            let spent = corrupt_towards(&mut tallies, favored, budget);
            self.capacity[u] -= spent;
            proposals.push((u, propose(&tallies)));
        }
        proposals
    }

    /// Phase 2: every good member aggregates the audible proposal
    /// echoes under the attack's echo-phase spend.
    pub fn echo_phase(
        &mut self,
        proposals: &[(NodeId, Value)],
        attack: SplitAttack,
    ) -> Vec<(NodeId, Value)> {
        let good: Vec<NodeId> = self.good_members();
        let quota = self.cfg.echo_quota;
        good.iter()
            .map(|&u| {
                let favored = attack.favored(self.camp_a(u));
                let mut tallies = self.audible_tallies(u, proposals, quota);
                let budget = (self.capacity[u] as f64 * attack.echo_fraction).floor() as u64;
                let spent = spend_inject_and_corrupt(&mut tallies, favored, budget);
                self.capacity[u] -= spent;
                (u, aggregate(&tallies, self.cfg.echo_margin))
            })
            .collect()
    }

    /// Phase 3: every good member confirms from the audible aggregates,
    /// the colluders spending all remaining per-receiver capacity.
    pub fn confirm_phase(
        &mut self,
        aggregates: &[(NodeId, Value)],
        attack: SplitAttack,
    ) -> Vec<(NodeId, Value)> {
        let good: Vec<NodeId> = self.good_members();
        let quota = self.cfg.echo_quota;
        let tmf = u64::from(self.cfg.params.t) * self.cfg.params.mf;
        good.iter()
            .map(|&u| {
                let favored = attack.favored(self.camp_a(u));
                let mut tallies = self.audible_tallies(u, aggregates, quota);
                let budget = self.capacity[u];
                let spent = spend_inject_and_corrupt(&mut tallies, favored, budget);
                self.capacity[u] -= spent;
                let conflict_tally = tallies
                    .iter()
                    .find(|&&(v, _)| v == CONFLICT)
                    .map_or(0, |&(_, n)| n);
                (
                    u,
                    confirm(&tallies, conflict_tally, self.cfg.echo_margin, tmf + 1),
                )
            })
            .collect()
    }

    /// Runs the **proven vector mode** (see
    /// [`bftbcast_protocols::agreement::decide_vector`]): the propose
    /// phase is followed by every member reliably broadcasting its
    /// proposal to the whole neighborhood — directly within radio range
    /// (`2·t·mf + 1` copies, whose majority the `t·mf` corruption
    /// capacity can never flip) and through `t + 1` agreeing relay
    /// witnesses beyond it. Good members' entries therefore arrive
    /// *identically* at every member; Byzantine members' entries are
    /// adversary-controlled per receiver (modeled as the camp value).
    /// Decisions use plurality with margin `t + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `t` exceeds
    /// [`bftbcast_protocols::agreement::proven_max_t`] (opposite corners
    /// would lack relay witnesses).
    pub fn run_proven(&mut self, source: SourceBehavior, attack: SplitAttack) -> AgreementOutcome {
        use bftbcast_protocols::agreement::proven_max_t;
        assert!(
            u64::from(self.cfg.params.t) <= proven_max_t(self.cfg.params.r),
            "t = {} exceeds the proven-mode bound {} at r = {}",
            self.cfg.params.t,
            proven_max_t(self.cfg.params.r),
            self.cfg.params.r
        );
        let source_correct = source == SourceBehavior::Correct;
        let transmissions = source.transmissions(&self.cfg);

        // Phase 1: propose, exactly as in the cheap mode.
        let proposals = self.propose_phase(&transmissions, attack);
        // Phase 2: vector exchange.
        let decisions = self.vector_phase(&proposals, attack);

        AgreementOutcome {
            decisions,
            source_correct,
            aggregates: proposals.clone(),
            proposals,
        }
    }

    /// The proven mode's vector-exchange phase: good entries arrive
    /// identically at every member; each Byzantine member contributes
    /// one receiver-controlled entry. Decisions use plurality with
    /// margin `t + 1` ([`bftbcast_protocols::agreement::decide_vector`]).
    pub fn vector_phase(
        &self,
        proposals: &[(NodeId, Value)],
        attack: SplitAttack,
    ) -> Vec<(NodeId, Value)> {
        use bftbcast_protocols::agreement::decide_vector;
        let byz_count = self.members.iter().filter(|&&m| self.is_bad[m]).count();
        self.good_members()
            .iter()
            .map(|&u| {
                let favored = attack.favored(self.camp_a(u));
                let mut entries: Vec<Value> = proposals.iter().map(|&(_, p)| p).collect();
                entries.extend((0..byz_count).map(|_| favored));
                (u, decide_vector(&entries, self.cfg.params.t))
            })
            .collect()
    }

    /// Tallies of the phase messages audible to `u` (its own plus those
    /// of members within radio range). [`DEFAULT_VALUE`] holders stay
    /// silent; [`CONFLICT`] is transmitted like any value.
    fn audible_tallies(
        &self,
        u: NodeId,
        messages: &[(NodeId, Value)],
        quota: u64,
    ) -> Vec<(Value, u64)> {
        let mut tallies: Vec<(Value, u64)> = Vec::new();
        for &(w, v) in messages {
            if v == DEFAULT_VALUE {
                continue;
            }
            if w == u || self.topology.contains(u, w) {
                bump(&mut tallies, v, quota);
            }
        }
        tallies
    }
}

/// Spends up to `budget`: half injecting forged copies of `favored`,
/// half converting rival copies (any value but `favored`, including the
/// conflict token) into `favored`. Returns the capacity spent.
fn spend_inject_and_corrupt(tallies: &mut Vec<(Value, u64)>, favored: Value, budget: u64) -> u64 {
    let inject = budget / 2;
    bump(tallies, favored, inject);
    inject + corrupt_towards(tallies, favored, budget - inject)
}

/// Converts up to `budget` copies of rival values into `favored`, taking
/// from the strongest rival first. Returns the capacity actually spent.
fn corrupt_towards(tallies: &mut Vec<(Value, u64)>, favored: Value, budget: u64) -> u64 {
    let mut spent = 0u64;
    while spent < budget {
        let Some(rival) = tallies
            .iter_mut()
            .filter(|(v, n)| *v != favored && *n > 0)
            .max_by_key(|(_, n)| *n)
        else {
            break;
        };
        let take = (budget - spent).min(rival.1);
        rival.1 -= take;
        spent += take;
        bump(tallies, favored, take);
    }
    spent
}

fn bump(tallies: &mut Vec<(Value, u64)>, v: Value, by: u64) {
    if by == 0 {
        return;
    }
    if let Some(e) = tallies.iter_mut().find(|(w, _)| *w == v) {
        e.1 += by;
    } else {
        tallies.push((v, by));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast_protocols::Params;

    fn setup(r: u32, t: u32, mf: u64, bad: &[(i64, i64)]) -> AgreementSim {
        let side = 6 * r + 3;
        let grid = Grid::new(side, side, r).unwrap();
        let c = side / 2;
        let source = grid.id_at(c, c);
        let bad: Vec<NodeId> = bad
            .iter()
            .map(|&(dx, dy)| {
                let w = grid.wrap(i64::from(c) + dx, i64::from(c) + dy);
                grid.id_of(w)
            })
            .collect();
        let cfg = AgreementConfig::paper_margins(Params::new(r, t, mf));
        AgreementSim::new(grid, cfg, source, &bad)
    }

    fn attack_grid() -> Vec<SplitAttack> {
        let mut out = Vec::new();
        for p1 in [0.0, 0.25, 0.4, 0.5, 0.75, 1.0] {
            for pe in [0.0, 0.2, 0.5, 1.0] {
                out.push(SplitAttack {
                    value_a: Value(2),
                    value_b: Value(3),
                    phase1_fraction: p1,
                    echo_fraction: pe,
                });
            }
        }
        out
    }

    #[test]
    fn correct_source_no_colluders_everyone_decides_true() {
        let mut sim = setup(2, 1, 10, &[]);
        let out = sim.run(SourceBehavior::Correct, SplitAttack::strongest());
        assert!(out.validity_holds());
        assert!(out.agreement_holds());
        assert_eq!(out.default_count(), 0);
        assert_eq!(out.decided_values(), vec![Value::TRUE]);
    }

    #[test]
    fn correct_source_survives_full_collusion() {
        for &(r, t, mf) in &[(1u32, 1u32, 5u64), (2, 1, 10), (2, 2, 10), (3, 2, 50)] {
            let colluders: Vec<(i64, i64)> = (0..t).map(|i| (i64::from(i) - 1, 1)).collect();
            let base = setup(r, t, mf, &colluders);
            for attack in attack_grid() {
                let mut sim = base.clone();
                let out = sim.run(SourceBehavior::Correct, attack);
                assert!(
                    out.validity_holds(),
                    "r={r} t={t} mf={mf} attack={attack:?}: decided {:?}, {} defaults",
                    out.decided_values(),
                    out.default_count()
                );
                assert!(out.agreement_holds());
            }
        }
    }

    #[test]
    fn silent_source_defaults_everywhere() {
        let mut sim = setup(2, 1, 10, &[(1, 1)]);
        let out = sim.run(SourceBehavior::Silent, SplitAttack::strongest());
        assert!(out.agreement_holds());
        assert_eq!(out.decided_values(), Vec::<Value>::new());
        assert_eq!(out.default_count(), out.decisions.len());
    }

    #[test]
    fn proven_mode_never_splits() {
        // The headline property (EXP-X4): in the proven vector mode, an
        // even split plus full collusion produces defaults and/or one
        // agreed value — never two camps deciding different values.
        for &(r, t, mf) in &[(1u32, 1u32, 5u64), (2, 1, 10), (2, 2, 20), (3, 2, 50)] {
            let colluders: Vec<(i64, i64)> = (0..t).map(|i| (i64::from(i) - 1, 1)).collect();
            let base = setup(r, t, mf, &colluders);
            let cfg = base.cfg;
            for attack in attack_grid() {
                let mut sim = base.clone();
                let behavior = SourceBehavior::even_split(&cfg, Value(2), Value(3));
                let out = sim.run_proven(behavior, attack);
                assert!(
                    out.agreement_holds(),
                    "split r={r} t={t} mf={mf} attack={attack:?}: {:?}",
                    out.decided_values()
                );
            }
        }
    }

    #[test]
    fn proven_mode_validity_under_full_collusion() {
        for &(r, t, mf) in &[(1u32, 1u32, 5u64), (2, 1, 10), (2, 2, 10)] {
            let colluders: Vec<(i64, i64)> = (0..t).map(|i| (i64::from(i) - 1, 1)).collect();
            let base = setup(r, t, mf, &colluders);
            for attack in attack_grid() {
                let mut sim = base.clone();
                let out = sim.run_proven(SourceBehavior::Correct, attack);
                assert!(out.validity_holds(), "r={r} t={t} mf={mf} {attack:?}");
                assert_eq!(out.default_count(), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the proven-mode bound")]
    fn proven_mode_rejects_oversized_t() {
        // proven_max_t(1) = 1, so t = 2 must be rejected (regardless of
        // how many colluders are actually placed).
        let mut sim = setup(1, 2, 5, &[(1, 1)]);
        let _ = sim.run_proven(SourceBehavior::Correct, SplitAttack::strongest());
    }

    #[test]
    fn cheap_mode_is_splittable_in_a_window() {
        // The reproduction finding charted by EXP-X4: the cheap
        // three-phase mode *can* be split when the colluders hold back
        // capacity to suppress marginal conflict evidence in the
        // confirm phase. (Found by this engine; the proven mode exists
        // because of it.)
        let base = setup(2, 1, 10, &[(-1, 1)]);
        let cfg = base.cfg;
        let mut split_found = false;
        for attack in attack_grid() {
            let mut sim = base.clone();
            let behavior = SourceBehavior::even_split(&cfg, Value(2), Value(3));
            let out = sim.run(behavior, attack);
            // Correctness never breaks: decided values are always ones
            // the source actually sent.
            for v in out.decided_values() {
                assert!(v == Value(2) || v == Value(3));
            }
            if !out.agreement_holds() {
                split_found = true;
            }
        }
        assert!(
            split_found,
            "expected at least one splitting schedule at r=2 t=1 mf=10"
        );
    }

    #[test]
    fn cheap_mode_survives_at_r1() {
        // At r = 1 the neighborhood has no "far corners" (everyone
        // hears everyone except opposite corners' tiny gap), and the
        // sweep finds no split.
        let base = setup(1, 1, 5, &[(0, 1)]);
        let cfg = base.cfg;
        for attack in attack_grid() {
            let mut sim = base.clone();
            let behavior = SourceBehavior::even_split(&cfg, Value(2), Value(3));
            let out = sim.run(behavior, attack);
            assert!(
                out.agreement_holds(),
                "{attack:?}: {:?}",
                out.decided_values()
            );
        }
    }

    #[test]
    fn equivocation_produces_conflict_evidence() {
        // Members with a full-width view must notice an even split.
        let mut sim = setup(2, 1, 20, &[(0, 1)]);
        let cfg = sim.cfg;
        let behavior = SourceBehavior::even_split(&cfg, Value(2), Value(3));
        let out = sim.run(behavior, SplitAttack::strongest());
        assert!(out.conflicted_count() > 0, "no member noticed the split");
    }

    #[test]
    fn proposals_do_diverge_after_phase_one() {
        // The propose phase alone is splittable — divergent proposals
        // are real, which is why the later phases exist.
        let mut sim = setup(2, 1, 20, &[(0, 1)]);
        let cfg = sim.cfg;
        let behavior = SourceBehavior::even_split(&cfg, Value(2), Value(3));
        let out = sim.run(behavior, SplitAttack::strongest());
        let mut proposal_values: Vec<Value> = out
            .proposals
            .iter()
            .map(|&(_, v)| v)
            .filter(|&v| v != DEFAULT_VALUE)
            .collect();
        proposal_values.sort_unstable();
        proposal_values.dedup();
        assert!(
            proposal_values.len() > 1,
            "expected divergent proposals, got {proposal_values:?}"
        );
    }

    #[test]
    #[should_panic(expected = "outside the source neighborhood")]
    fn distant_colluders_are_rejected() {
        let grid = Grid::new(15, 15, 1).unwrap();
        let cfg = AgreementConfig::paper_margins(Params::new(1, 1, 5));
        let source = grid.id_at(7, 7);
        let far = grid.id_at(0, 0);
        let _ = AgreementSim::new(grid, cfg, source, &[far]);
    }

    #[test]
    #[should_panic(expected = "exceed the local bound")]
    fn too_many_colluders_are_rejected() {
        let grid = Grid::new(15, 15, 1).unwrap();
        let cfg = AgreementConfig::paper_margins(Params::new(1, 1, 5));
        let source = grid.id_at(7, 7);
        let bad = vec![grid.id_at(6, 7), grid.id_at(8, 7)];
        let _ = AgreementSim::new(grid, cfg, source, &bad);
    }
}
