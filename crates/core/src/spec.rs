//! The canonical construction surface: one typed [`EngineSpec`] that
//! every entry point — `.scn` files, CLI flags, the wire protocol, and
//! embedding Rust code — converges on.
//!
//! An [`EngineSpec`] is a *validated* engine configuration: engine
//! kind, topology, fault parameters, placement, protocol, adversary,
//! seeds, and probe cells. It is produced by the fluent
//! [`SpecBuilder`], by [`EngineSpec::from_scn`] /
//! [`EngineSpec::from_json`], or by expanding a [`ScenarioFile`] with
//! [`ScenarioFile::specs`](crate::scenario_file::ScenarioFile::specs) —
//! and consumed by [`EngineSpec::build_engine`], which every layer
//! (the batch runner, the server job queue, embedders) uses to
//! construct the actual [`SimEngine`].
//!
//! # Identity is the cache key
//!
//! Both codecs are **lossless**, and they and
//! [`crate::cache::point_key`] are driven by one field table (the
//! crate's `fields` module): two specs are the same configuration
//! exactly when [`EngineSpec::cache_key`] agrees, regardless of which
//! surface they came through. A scenario submitted as `.scn` text and
//! the same configuration submitted as spec JSON therefore hit the
//! same store entries (see `crates/server`). The spec `name` — like a
//! sweep label — is presentation, not configuration, and never reaches
//! the key.
//!
//! # Example
//!
//! ```
//! use bftbcast::sim::engine::SimEngine;
//! use bftbcast::spec::EngineSpec;
//!
//! let mut engine = EngineSpec::counting(15, 15, 1)
//!     .faults(1, 50)
//!     .lattice()
//!     .build()
//!     .unwrap();
//! assert!(engine.run_to_completion().success());
//!
//! // The same configuration, as a validated value with an identity:
//! let spec = EngineSpec::counting(15, 15, 1)
//!     .faults(1, 50)
//!     .lattice()
//!     .finish()
//!     .unwrap();
//! assert_eq!(EngineSpec::from_json(&spec.to_json()).unwrap(), spec);
//! assert_eq!(EngineSpec::from_scn(&spec.to_scn()).unwrap(), spec);
//! assert_eq!(
//!     EngineSpec::from_json(&spec.to_json()).unwrap().cache_key(),
//!     spec.cache_key()
//! );
//! ```

use bftbcast_net::{Cross, NodeId};
use bftbcast_protocols::reactive::ReactiveConfig;
use bftbcast_protocols::CountingProtocol;
use bftbcast_rbc::{RbcConfig, RbcEngine, RbcProtocol};
use bftbcast_sim::crash::{crash_only_protocol, crash_stripe, CrashBehavior};
use bftbcast_sim::engine::{
    AgreementEngine, AgreementMode, CountingDrive, CountingEngine, SimEngine, SlotEngine,
};
use bftbcast_sim::slot::SlotConfig;

use crate::cache;
use crate::fields::{self, invalid, Doc, Draft};
use crate::json::Json;
use crate::scenario::ScenarioError;
use crate::scenario_file::{
    AdversarySpec, AgreementSpec, CrashNodesSpec, CrashSpec, EngineKind, PlacementSpec, PointSpec,
    ProtocolSpec, RbcSpec, ReactiveSpec, ScenarioFile, SourceSpec,
};

// ---------------------------------------------------------------------
// EngineSpec
// ---------------------------------------------------------------------

/// One validated engine configuration — see the [module docs](self).
///
/// Construction always validates (builder [`SpecBuilder::finish`],
/// codecs, [`EngineSpec::from_parts`]), so holding an `EngineSpec`
/// means [`EngineSpec::build_engine`] can only fail on placement-level
/// errors that need the actual grid (local-bound violations).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    name: String,
    engine: EngineKind,
    point: PointSpec,
    probes: Vec<(u32, u32)>,
}

impl EngineSpec {
    /// Starts a counting-engine spec on a `width`×`height` torus with
    /// radio range `r`.
    pub fn counting(width: u32, height: u32, r: u32) -> SpecBuilder {
        SpecBuilder::new(EngineKind::Counting, width, height, r)
    }

    /// Starts a crash/hybrid-engine spec.
    pub fn crash(width: u32, height: u32, r: u32) -> SpecBuilder {
        SpecBuilder::new(EngineKind::Crash, width, height, r)
    }

    /// Starts a slot-engine (`Breactive`) spec.
    pub fn slot(width: u32, height: u32, r: u32) -> SpecBuilder {
        SpecBuilder::new(EngineKind::Slot, width, height, r)
    }

    /// Starts an agreement-engine spec.
    pub fn agreement(width: u32, height: u32, r: u32) -> SpecBuilder {
        SpecBuilder::new(EngineKind::Agreement, width, height, r)
    }

    /// Starts a message-level rbc-engine spec.
    pub fn rbc(width: u32, height: u32, r: u32) -> SpecBuilder {
        SpecBuilder::new(EngineKind::Rbc, width, height, r)
    }

    /// Starts a spec for any engine kind.
    pub fn builder(engine: EngineKind, width: u32, height: u32, r: u32) -> SpecBuilder {
        SpecBuilder::new(engine, width, height, r)
    }

    /// Assembles and validates a spec from already-resolved parts (the
    /// path [`ScenarioFile::specs`] and the batch runner use). The
    /// point's sweep label is cleared — labels are presentation, and a
    /// spec's identity is its cache key.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for any configuration the `.scn` grammar would
    /// reject: cross-field violations (a crash engine without a crash
    /// load, a majority protocol off the counting engine, …),
    /// inapplicable sections carrying non-default values, cells off the
    /// torus, out-of-range fractions.
    pub fn from_parts(
        name: String,
        engine: EngineKind,
        mut point: PointSpec,
        probes: Vec<(u32, u32)>,
    ) -> Result<EngineSpec, ScenarioError> {
        point.label.clear();
        validate(&name, engine, &point, &probes)?;
        Ok(EngineSpec {
            name,
            engine,
            point,
            probes,
        })
    }

    /// The spec's display name (presentation only — never part of
    /// [`EngineSpec::cache_key`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which engine this spec builds.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The fully-resolved configuration point.
    pub fn point(&self) -> &PointSpec {
        &self.point
    }

    /// Probe cells reported after a run.
    pub fn probes(&self) -> &[(u32, u32)] {
        &self.probes
    }

    /// The spec's content-addressed identity:
    /// [`crate::cache::point_key`] over every field the engines read.
    /// Equal keys ⇔ same configuration, whichever surface (builder,
    /// `.scn`, JSON, wire) produced it.
    pub fn cache_key(&self) -> u64 {
        cache::point_key(self.engine, &self.point, &self.probes)
    }

    /// Builds the configured engine.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] from scenario construction — in practice only
    /// placement-level failures that need the actual grid (local-bound
    /// violations, invalid torus/range combinations).
    pub fn build_engine(&self) -> Result<Box<dyn SimEngine>, ScenarioError> {
        build_engine_impl(self.engine, &self.point)
    }
}

/// The one validator every entry path runs — `SpecBuilder`, JSON,
/// `.scn` parsing (the base document and every sweep-axis value) and
/// `run --set`. Everything that would otherwise surface as an engine
/// assert at run time — on a `sweep()` worker thread, aborting the
/// batch — fails here with a [`ScenarioError`] instead.
pub(crate) fn validate(
    name: &str,
    engine: EngineKind,
    point: &PointSpec,
    probes: &[(u32, u32)],
) -> Result<(), ScenarioError> {
    use EngineKind::{Agreement, Counting, Crash, Rbc, Slot};
    if name
        .chars()
        .any(|c| (c as u32) < 0x20 && c != '\n' && c != '\t')
    {
        return Err(invalid("name", "control characters are not representable"));
    }
    // Inapplicable configuration must be at its defaults: documents
    // cannot spell it, and the codecs omit it.
    if let Some(what) = fields::off_default(engine, point) {
        return Err(invalid(what, fields::not_on(engine)));
    }
    if engine == Crash && point.crash.is_none() {
        return Err(invalid(
            "crash",
            "the crash engine needs a crash fault load",
        ));
    }
    match point.protocol {
        ProtocolSpec::CrashOnly if engine != Crash => {
            return Err(invalid(
                "protocol.kind",
                "crash_only applies to the crash engine only",
            ))
        }
        ProtocolSpec::Majority { .. } if engine != Counting => {
            return Err(invalid(
                "protocol.kind",
                "majority applies to the counting engine only",
            ))
        }
        ProtocolSpec::Majority { .. } if point.adversary != AdversarySpec::Oracle => {
            return Err(invalid(
                "adversary",
                "the majority protocol is driven by the per-receiver oracle only",
            ))
        }
        _ => {}
    }
    let (w, h) = (point.width, point.height);
    let on_torus =
        |what: &str, cells: &[(u32, u32)]| match cells.iter().find(|&&(x, y)| x >= w || y >= h) {
            Some((x, y)) => Err(invalid(
                what,
                format!("cell ({x}, {y}) is off the {w}x{h} torus"),
            )),
            None => Ok(()),
        };
    on_torus("source", &[point.source])?;
    for &(x, y) in probes {
        check_probe_cell(x, y, w, h)?;
    }
    match point.placement {
        PlacementSpec::Explicit(ref cells) => on_torus("placement.nodes", cells)?,
        PlacementSpec::Lattice { offset } => {
            // The placement asserts this; a point must fail here instead.
            let lattice = bftbcast_adversary::LatticePlacement { t: point.t, offset };
            if let Some(why) = lattice.misfit(w, h, point.r) {
                return Err(invalid("placement", why));
            }
        }
        _ => {}
    }
    if let Some(CrashSpec {
        nodes: CrashNodesSpec::Explicit(cells),
        ..
    }) = &point.crash
    {
        on_torus("crash.nodes", cells)?;
    }
    let rate = match point.placement {
        PlacementSpec::Bernoulli { p } => p,
        _ => 0.0,
    };
    for (what, fraction) in [
        ("placement.p", rate),
        ("agreement.p1", point.agreement.p1),
        ("agreement.pe", point.agreement.pe),
    ] {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(invalid(what, "fractions must lie in [0, 1]"));
        }
    }
    if engine == Slot && !(1..=63).contains(&point.reactive.k) {
        return Err(invalid(
            "reactive.k",
            "payload width must lie in 1..=63 bits",
        ));
    }
    if engine == Rbc {
        let rbc = &point.rbc;
        if !(1..=1_048_576).contains(&rbc.payload) {
            return Err(invalid(
                "rbc.payload",
                "payload must lie in 1..=1048576 bits",
            ));
        }
        let floor = 2 * (u64::from(point.t) + 1);
        if rbc.protocol == RbcProtocol::Ctrbc && u64::from(rbc.payload) < floor {
            return Err(invalid(
                "rbc.payload",
                format!(
                    "ctrbc splits the payload into t+1 fragments and needs at least \
                     2(t+1) = {floor} payload bits at t = {}",
                    point.t
                ),
            ));
        }
        if rbc.max_waves == 0 {
            return Err(invalid("rbc.max_waves", "at least one wave is required"));
        }
    }
    if engine == Agreement && point.agreement.mode == AgreementMode::Proven {
        use bftbcast_protocols::agreement::proven_max_t;
        if u64::from(point.t) > proven_max_t(point.r) {
            return Err(invalid(
                "agreement.mode",
                format!(
                    "proven mode requires t <= {} at r = {}",
                    proven_max_t(point.r),
                    point.r
                ),
            ));
        }
    }
    Ok(())
}

/// The one off-torus check for probe cells, shared by the validator and
/// the batch runner's pre-run backstop — so the error text (naming the
/// cell and the torus) can never diverge between layers.
pub(crate) fn check_probe_cell(
    x: u32,
    y: u32,
    width: u32,
    height: u32,
) -> Result<(), ScenarioError> {
    if x >= width || y >= height {
        return Err(invalid(
            "probes.nodes",
            format!("probe ({x}, {y}) is off the {width}x{height} torus"),
        ));
    }
    Ok(())
}

/// Builds the right engine for one fully-resolved point (shared by
/// [`EngineSpec::build_engine`] and, through it, the batch runner).
fn build_engine_impl(
    engine: EngineKind,
    point: &PointSpec,
) -> Result<Box<dyn SimEngine>, ScenarioError> {
    let scenario = point.build_scenario()?;
    let grid = scenario.grid();
    let params = scenario.params();
    let protocol = |spec: ProtocolSpec| -> CountingProtocol {
        match spec {
            ProtocolSpec::B => CountingProtocol::protocol_b(grid, params),
            ProtocolSpec::Koo => CountingProtocol::koo_baseline(grid, params),
            ProtocolSpec::Heter => {
                let cross = Cross::paper_scale(0, 0, params.r);
                CountingProtocol::heterogeneous(grid, params, &cross)
            }
            ProtocolSpec::Starved { m } => CountingProtocol::starved(grid, params, m),
            // Mirrors Scenario::run_majority: send quota = quorum.
            ProtocolSpec::Majority { quorum } => CountingProtocol::starved(grid, params, quorum),
            ProtocolSpec::CrashOnly => crash_only_protocol(grid),
        }
    };
    Ok(match engine {
        EngineKind::Counting => {
            let drive = match (point.adversary, point.protocol) {
                (AdversarySpec::Oracle, ProtocolSpec::Majority { quorum }) => {
                    CountingDrive::Majority { quorum }
                }
                (AdversarySpec::Oracle, _) => CountingDrive::Oracle,
                (AdversarySpec::Greedy, _) => CountingDrive::Greedy,
                (AdversarySpec::Chaos, _) => CountingDrive::Chaos(point.seed),
                (AdversarySpec::Passive, _) => CountingDrive::Passive,
            };
            let sim = scenario.counting_sim(protocol(point.protocol));
            Box::new(CountingEngine::new(sim, params.mf, drive))
        }
        EngineKind::Crash => {
            let spec = point.crash.as_ref().expect("validated at construction");
            let mut dead: Vec<NodeId> = match &spec.nodes {
                CrashNodesSpec::Stripe { y0, height } => crash_stripe(grid, *y0, *height),
                CrashNodesSpec::Explicit(cells) => {
                    cells.iter().map(|&(x, y)| grid.id_at(x, y)).collect()
                }
            };
            // Crash nodes must not overlap the source or the Byzantine
            // set; the declarative layer filters rather than panics.
            dead.retain(|u| *u != scenario.source() && !scenario.bad_nodes().contains(u));
            let sim = scenario
                .counting_sim(protocol(point.protocol))
                .with_crash_nodes(&dead, spec.behavior);
            Box::new(CountingEngine::new(sim, params.mf, CountingDrive::Oracle))
        }
        EngineKind::Slot => {
            let config = SlotConfig {
                reactive: ReactiveConfig::paper(
                    grid.node_count(),
                    grid.range(),
                    params.t,
                    point.reactive.mmax,
                    point.reactive.k,
                ),
                t: params.t,
                mf: params.mf,
                good_budget: point.reactive.budget,
                adversary: point.reactive.adversary,
                max_rounds: point.reactive.max_rounds,
                seed: point.seed,
            };
            Box::new(SlotEngine::new(
                grid.clone(),
                scenario.source(),
                scenario.bad_nodes(),
                config,
            ))
        }
        EngineKind::Agreement => {
            use bftbcast_net::Value;
            use bftbcast_sim::agreement::{SourceBehavior, SplitAttack};
            let sim = scenario.agreement_sim();
            let behavior = match point.agreement.source {
                SourceSpec::Correct => SourceBehavior::Correct,
                SourceSpec::Split => SourceBehavior::even_split(sim.config(), Value(2), Value(3)),
                SourceSpec::Silent => SourceBehavior::Silent,
            };
            let attack = SplitAttack {
                value_a: Value(2),
                value_b: Value(3),
                phase1_fraction: point.agreement.p1,
                echo_fraction: point.agreement.pe,
            };
            Box::new(AgreementEngine::new(
                sim,
                behavior,
                attack,
                point.agreement.mode,
            ))
        }
        EngineKind::Rbc => {
            let config = RbcConfig {
                protocol: point.rbc.protocol,
                t: params.t,
                payload_bits: point.rbc.payload,
                max_waves: point.rbc.max_waves,
                seed: point.seed,
                schedule: point.rbc.schedule,
                behavior: point.rbc.behavior,
            };
            Box::new(RbcEngine::new(
                grid.clone(),
                scenario.source(),
                scenario.bad_nodes(),
                config,
            ))
        }
    })
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Fluent construction of an [`EngineSpec`] — the embedding surface.
///
/// Every setter is infallible; [`SpecBuilder::finish`] (or
/// [`SpecBuilder::build`], which goes straight to the engine) runs the
/// full grammar validation in one place.
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    name: String,
    engine: EngineKind,
    point: PointSpec,
    probes: Vec<(u32, u32)>,
}

impl SpecBuilder {
    fn new(engine: EngineKind, width: u32, height: u32, r: u32) -> Self {
        SpecBuilder {
            name: "spec".to_string(),
            engine,
            point: PointSpec::new(width, height, r),
            probes: Vec::new(),
        }
    }

    /// Display name (reported in every output row; not part of the
    /// cache key).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Local bound `t` and per-bad-node budget `mf`.
    pub fn faults(mut self, t: u32, mf: u64) -> Self {
        self.point.t = t;
        self.point.mf = mf;
        self
    }

    /// Base-station cell (default `(0, 0)`).
    pub fn source(mut self, x: u32, y: u32) -> Self {
        self.point.source = (x, y);
        self
    }

    /// Run seed (chaos adversary, random/Bernoulli placement, slot
    /// RNG).
    pub fn seed(mut self, seed: u64) -> Self {
        self.point.seed = seed;
        self
    }

    /// Byzantine placement, explicitly.
    pub fn placement(mut self, placement: PlacementSpec) -> Self {
        self.point.placement = placement;
        self
    }

    /// Figure 2's lattice placement at the default offset.
    pub fn lattice(self) -> Self {
        self.placement(PlacementSpec::Lattice { offset: 1 })
    }

    /// Lattice placement at an explicit residue-class offset (41
    /// reproduces Figure 2's positions).
    pub fn lattice_offset(self, offset: u32) -> Self {
        self.placement(PlacementSpec::Lattice { offset })
    }

    /// Theorem 1's stripe placement: `(y0, t, victims_above)` per
    /// stripe.
    pub fn stripes(self, stripes: &[(u32, u32, bool)]) -> Self {
        self.placement(PlacementSpec::Stripes(stripes.to_vec()))
    }

    /// Random placement honoring the local bound (uses the run seed).
    pub fn random_bad(self, count: usize) -> Self {
        self.placement(PlacementSpec::Random { count })
    }

    /// Probabilistic iid corruption at rate `p` (uses the run seed).
    pub fn bernoulli(self, p: f64) -> Self {
        self.placement(PlacementSpec::Bernoulli { p })
    }

    /// An explicit list of Byzantine `(x, y)` cells.
    pub fn bad_cells(self, cells: &[(u32, u32)]) -> Self {
        self.placement(PlacementSpec::Explicit(cells.to_vec()))
    }

    /// Protocol under test, explicitly.
    pub fn protocol(mut self, protocol: ProtocolSpec) -> Self {
        self.point.protocol = protocol;
        self
    }

    /// Protocol B (Theorem 2, `m = 2·m0`) — the default.
    pub fn protocol_b(self) -> Self {
        self.protocol(ProtocolSpec::B)
    }

    /// The Koo PODC'06 baseline.
    pub fn koo(self) -> Self {
        self.protocol(ProtocolSpec::Koo)
    }

    /// `Bheter` with the paper-scale cross at the origin.
    pub fn heterogeneous(self) -> Self {
        self.protocol(ProtocolSpec::Heter)
    }

    /// Budget-starved protocol B variant at `m` copies per node.
    pub fn starved(self, m: u64) -> Self {
        self.protocol(ProtocolSpec::Starved { m })
    }

    /// Majority acceptance at this quorum (counting engine, oracle
    /// adversary only).
    pub fn majority(self, quorum: u64) -> Self {
        self.protocol(ProtocolSpec::Majority { quorum })
    }

    /// The crash-only protocol (crash engine only).
    pub fn crash_only(self) -> Self {
        self.protocol(ProtocolSpec::CrashOnly)
    }

    /// Counting-engine adversary, explicitly.
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.point.adversary = adversary;
        self
    }

    /// The frontier-starving greedy adversary.
    pub fn greedy(self) -> Self {
        self.adversary(AdversarySpec::Greedy)
    }

    /// The seeded random adversary (also sets the run seed).
    pub fn chaos(self, seed: u64) -> Self {
        self.seed(seed).adversary(AdversarySpec::Chaos)
    }

    /// No attacks.
    pub fn passive(self) -> Self {
        self.adversary(AdversarySpec::Passive)
    }

    /// Crash fault load, explicitly (crash engine).
    pub fn crash_load(mut self, crash: CrashSpec) -> Self {
        self.point.crash = Some(crash);
        self
    }

    /// Crash every node in rows `y0 .. y0 + height` (wrapping).
    pub fn crash_stripe(self, y0: u32, height: u32) -> Self {
        let behavior = self
            .point
            .crash
            .as_ref()
            .map_or(CrashBehavior::Immediate, |c| c.behavior);
        self.crash_load(CrashSpec {
            nodes: CrashNodesSpec::Stripe { y0, height },
            behavior,
        })
    }

    /// Crash an explicit list of `(x, y)` cells.
    pub fn crash_cells(self, cells: &[(u32, u32)]) -> Self {
        let behavior = self
            .point
            .crash
            .as_ref()
            .map_or(CrashBehavior::Immediate, |c| c.behavior);
        self.crash_load(CrashSpec {
            nodes: CrashNodesSpec::Explicit(cells.to_vec()),
            behavior,
        })
    }

    /// When crash nodes stop relaying (defaults to
    /// [`CrashBehavior::Immediate`]).
    pub fn crash_behavior(mut self, behavior: CrashBehavior) -> Self {
        let nodes = self
            .point
            .crash
            .take()
            .map_or(CrashNodesSpec::Stripe { y0: 0, height: 1 }, |c| c.nodes);
        self.point.crash = Some(CrashSpec { nodes, behavior });
        self
    }

    /// Slot-engine configuration (slot engine).
    pub fn reactive(mut self, reactive: ReactiveSpec) -> Self {
        self.point.reactive = reactive;
        self
    }

    /// Agreement-engine configuration (agreement engine).
    pub fn agreement_config(mut self, agreement: AgreementSpec) -> Self {
        self.point.agreement = agreement;
        self
    }

    /// Message-level RBC configuration (rbc engine).
    pub fn rbc_config(mut self, rbc: RbcSpec) -> Self {
        self.point.rbc = rbc;
        self
    }

    /// Replaces the probe-cell list.
    pub fn probes(mut self, cells: &[(u32, u32)]) -> Self {
        self.probes = cells.to_vec();
        self
    }

    /// Appends one probe cell.
    pub fn probe(mut self, x: u32, y: u32) -> Self {
        self.probes.push((x, y));
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Exactly [`EngineSpec::from_parts`]'s.
    pub fn finish(self) -> Result<EngineSpec, ScenarioError> {
        EngineSpec::from_parts(self.name, self.engine, self.point, self.probes)
    }

    /// Validates the spec and builds the configured engine in one step.
    ///
    /// # Errors
    ///
    /// [`SpecBuilder::finish`]'s validation errors, then
    /// [`EngineSpec::build_engine`]'s construction errors.
    pub fn build(self) -> Result<Box<dyn SimEngine>, ScenarioError> {
        self.finish()?.build_engine()
    }
}

// ---------------------------------------------------------------------
// Codecs, all driven by the field table (crate::fields)
// ---------------------------------------------------------------------

impl EngineSpec {
    fn doc(&self) -> Doc<'_> {
        Doc {
            name: &self.name,
            engine: self.engine,
            point: &self.point,
            probes: &self.probes,
        }
    }

    /// Renders the spec as one line of canonical JSON — the wire form
    /// (`{"cmd":"submit","spec":{...}}`) and the `bftbcast spec`
    /// interchange form. Fields are in ascending name order, with the
    /// names of [`crate::cache::point_key`]'s record; fields that do
    /// not apply to the engine are omitted (they are at their defaults
    /// by construction).
    pub fn to_json(&self) -> String {
        fields::to_json(&self.doc())
    }

    /// Parses a spec from canonical JSON text.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for malformed JSON, otherwise exactly
    /// [`EngineSpec::from_json_value`].
    pub fn from_json(text: &str) -> Result<EngineSpec, ScenarioError> {
        let doc = Json::parse(text).map_err(|message| ScenarioError::Parse { line: 1, message })?;
        EngineSpec::from_json_value(&doc)
    }

    /// Parses a spec from an already-parsed JSON value (the server's
    /// inline-submit path).
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for unknown/missing/mistyped fields or any
    /// validation failure — the decoder and validator of the `.scn`
    /// grammar.
    pub fn from_json_value(doc: &Json) -> Result<EngineSpec, ScenarioError> {
        let mut d = Draft::new("spec");
        fields::decode_json(doc, &mut d)?;
        EngineSpec::from_parts(d.name, d.engine, d.point, d.probes)
    }

    /// Renders the spec as a canonical, sweep-free `.scn` document
    /// (every resolved value spelled out explicitly; sections that do
    /// not apply to the engine omitted).
    pub fn to_scn(&self) -> String {
        fields::to_scn(&self.doc())
    }

    /// Parses a spec from a sweep-free `.scn` document.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioFile::parse`] error, or
    /// [`ScenarioError::Invalid`] when the document carries a `[sweep]`
    /// section expanding to more than one point (a spec is exactly one
    /// configuration — expand sweeps through [`ScenarioFile::specs`]).
    pub fn from_scn(text: &str) -> Result<EngineSpec, ScenarioError> {
        let file = ScenarioFile::parse(text)?;
        let mut specs = file.specs()?;
        if specs.len() != 1 {
            return Err(invalid(
                "spec",
                format!(
                    "document expands to {} sweep points; a spec is exactly one configuration",
                    specs.len()
                ),
            ));
        }
        Ok(specs.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast_rbc::{ByzantineBehavior, ScheduleKind};
    use bftbcast_sim::slot::ReactiveAdversary;

    fn f2_spec() -> EngineSpec {
        EngineSpec::counting(45, 45, 4)
            .name("f2")
            .faults(1, 1000)
            .lattice_offset(41)
            .starved(59)
            .probes(&[(0, 5), (5, 1)])
            .finish()
            .unwrap()
    }

    #[test]
    fn builder_builds_the_figure2_engine() {
        let spec = f2_spec();
        let mut engine = spec.build_engine().unwrap();
        let outcome = engine.run_to_completion();
        let o = outcome.as_counting().unwrap();
        assert_eq!(o.accepted_true, 84, "stall at 84 decided nodes");
        let grid = engine.topology().grid();
        let p = engine.probe(grid.id_at(5, 1)).unwrap();
        assert_eq!(p.intake(), 1947);
        assert_eq!(p.tally_wrong, 947);
    }

    #[test]
    fn spec_key_matches_the_scenario_file_path() {
        let text = f2_spec().to_scn();
        let file = ScenarioFile::parse(&text).unwrap();
        let specs = file.specs().unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0], f2_spec());
        assert_eq!(specs[0].cache_key(), f2_spec().cache_key());
    }

    #[test]
    fn json_and_scn_round_trip_all_engines() {
        let crash = EngineSpec::crash(20, 20, 2)
            .name("hybrid")
            .faults(1, 10)
            .lattice()
            .crash_stripe(9, 2)
            .crash_behavior(CrashBehavior::AfterCopies(3))
            .finish()
            .unwrap();
        let slot = EngineSpec::slot(15, 15, 1)
            .name("reactive")
            .faults(1, 4)
            .random_bad(8)
            .seed(42)
            .reactive(ReactiveSpec {
                k: 10,
                mmax: 1 << 12,
                adversary: ReactiveAdversary::Mixed,
                budget: Some(500),
                max_rounds: 10_000,
            })
            .probe(3, 3)
            .finish()
            .unwrap();
        let agreement = EngineSpec::agreement(15, 15, 2)
            .name("x4")
            .faults(1, 10)
            .source(7, 7)
            .bad_cells(&[(6, 8)])
            .agreement_config(AgreementSpec {
                mode: AgreementMode::Cheap,
                source: SourceSpec::Split,
                p1: 0.3,
                pe: 0.7,
            })
            .finish()
            .unwrap();
        let rbc = EngineSpec::rbc(15, 15, 1)
            .name("broadcast")
            .faults(2, 1)
            .bad_cells(&[(3, 3), (10, 11)])
            .seed(7)
            .rbc_config(RbcSpec {
                protocol: RbcProtocol::Ctrbc,
                payload: 4096,
                max_waves: 10_000,
                schedule: ScheduleKind::Gst,
                behavior: ByzantineBehavior::Equivocate,
            })
            .probe(7, 2)
            .finish()
            .unwrap();
        for spec in [f2_spec(), crash, slot, agreement, rbc] {
            let via_json = EngineSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(via_json, spec, "JSON round trip");
            let via_scn = EngineSpec::from_scn(&spec.to_scn()).unwrap();
            assert_eq!(via_scn, spec, "scn round trip");
            assert_eq!(via_json.cache_key(), spec.cache_key());
            assert_eq!(via_scn.cache_key(), spec.cache_key());
        }
    }

    #[test]
    fn json_field_order_is_irrelevant_but_fields_are_not() {
        let spec = f2_spec();
        // Hand-permuted field order: same spec, same key.
        let shuffled = concat!(
            "{\"probes\":[[0,5],[5,1]],\"engine\":\"counting\",",
            "\"placement\":{\"offset\":41,\"kind\":\"lattice\"},",
            "\"seed\":0,\"mf\":1000,\"t\":1,\"r\":4,\"height\":45,\"width\":45,",
            "\"source_y\":0,\"source_x\":0,\"name\":\"f2\",",
            "\"protocol\":{\"m\":59,\"kind\":\"starved\"},\"adversary\":\"oracle\"}",
        );
        let parsed = EngineSpec::from_json(shuffled).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.cache_key(), spec.cache_key());
        // A single changed field flips the key.
        let tweaked =
            EngineSpec::from_json(&spec.to_json().replace("\"mf\":1000", "\"mf\":999")).unwrap();
        assert_ne!(tweaked.cache_key(), spec.cache_key());
        // The name alone never does.
        let renamed =
            EngineSpec::from_json(&spec.to_json().replace("\"name\":\"f2\"", "\"name\":\"zz\""))
                .unwrap();
        assert_eq!(renamed.cache_key(), spec.cache_key());
    }

    #[test]
    fn unknown_and_mistyped_json_fields_are_rejected() {
        let spec = f2_spec();
        for bad in [
            spec.to_json().replace("\"mf\"", "\"mf_typo\""),
            spec.to_json()
                .replace("\"engine\":\"counting\"", "\"engine\":\"teleport\""),
            spec.to_json().replace("\"width\":45", "\"width\":\"45\""),
            "[1,2,3]".to_string(),
            "{\"width\":15,\"height\":15}".to_string(), // r missing
        ] {
            assert!(EngineSpec::from_json(&bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn cross_field_violations_fail_at_finish() {
        // A crash engine without a crash load.
        assert!(EngineSpec::crash(15, 15, 1).lattice().finish().is_err());
        // Majority off the counting engine / off the oracle.
        assert!(EngineSpec::crash(15, 15, 1)
            .crash_stripe(5, 1)
            .majority(9)
            .finish()
            .is_err());
        assert!(EngineSpec::counting(15, 15, 1)
            .majority(9)
            .greedy()
            .finish()
            .is_err());
        // Inapplicable sections carrying non-default values.
        assert!(EngineSpec::slot(15, 15, 1).starved(5).finish().is_err());
        assert!(EngineSpec::slot(15, 15, 1).greedy().finish().is_err());
        assert!(EngineSpec::counting(15, 15, 1)
            .reactive(ReactiveSpec {
                k: 9,
                ..ReactiveSpec::default()
            })
            .finish()
            .is_err());
        // Probe off the torus.
        assert!(EngineSpec::counting(15, 15, 1)
            .probe(99, 0)
            .finish()
            .is_err());
        // Slot payload width out of range.
        assert!(EngineSpec::slot(15, 15, 1)
            .reactive(ReactiveSpec {
                k: 100,
                ..ReactiveSpec::default()
            })
            .finish()
            .is_err());
        // A non-default rbc section off the rbc engine.
        assert!(EngineSpec::counting(15, 15, 1)
            .rbc_config(RbcSpec {
                payload: 128,
                ..RbcSpec::default()
            })
            .finish()
            .is_err());
        // CTRBC payload below the 2(t+1) fragment floor.
        assert!(EngineSpec::rbc(15, 15, 1)
            .faults(2, 1)
            .rbc_config(RbcSpec {
                protocol: RbcProtocol::Ctrbc,
                payload: 4,
                ..RbcSpec::default()
            })
            .finish()
            .is_err());
    }

    #[test]
    fn rbc_spec_builds_a_running_engine() {
        let spec = EngineSpec::rbc(15, 15, 1)
            .faults(1, 1)
            .bad_cells(&[(3, 3)])
            .seed(7)
            .finish()
            .unwrap();
        let mut engine = spec.build_engine().unwrap();
        let outcome = engine.run_to_completion();
        let o = outcome.as_rbc().unwrap();
        assert!(o.is_reliable(), "{o:?}");
        assert_eq!(o.good_nodes, 224);
    }

    #[test]
    fn sweep_documents_are_not_single_specs() {
        let err = EngineSpec::from_scn(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[protocol]\nkind = \"starved\"\nm = 1\n",
            "[sweep]\nm = [5, 6]\n",
        ))
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
    }

    #[test]
    fn scn_rendering_escapes_names() {
        let spec = EngineSpec::counting(15, 15, 1)
            .name("a \"quoted\"\nname # not a comment")
            .finish()
            .unwrap();
        let round = EngineSpec::from_scn(&spec.to_scn()).unwrap();
        assert_eq!(round.name(), spec.name());
        let via_json = EngineSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(via_json, spec);
    }
}
