//! Typed scenario files: the declarative layer over [`crate::scn`].
//!
//! A `*.scn` file describes one workload — topology, fault assumption,
//! bad-node placement, engine, protocol, adversary — plus optional
//! **sweep axes** that expand the file into a grid of runs and
//! **probes** that report per-node tallies (the Figure 2 trace
//! workflow). [`ScenarioFile::parse`] validates the whole document
//! eagerly — unknown sections/keys, inapplicable combinations, and bad
//! sweep ranges are all rejected with a [`ScenarioError`] before
//! anything runs — and [`ScenarioFile::points`] expands the sweep into
//! fully-resolved [`PointSpec`]s for the batch runner
//! ([`crate::batch`]).
//!
//! # Grammar
//!
//! Sections and keys (all optional unless noted; see
//! `docs/ARCHITECTURE.md` for the commented walk-through):
//!
//! | section | keys | notes |
//! |---------|------|-------|
//! | top level | `name`, `engine`, `seed` | engine: `counting` (default) \| `crash` \| `slot` \| `agreement` \| `rbc` |
//! | `[topology]` | `side` or `width`+`height`, `r` (required) | the torus |
//! | `[faults]` | `t`, `mf` | local bound and per-node budget |
//! | `[source]` | `x`, `y` | base-station cell |
//! | `[placement]` | `kind` + kind-specific keys | Byzantine placement |
//! | `[protocol]` | `kind`, `m`, `quorum` | counting/crash engines |
//! | `[adversary]` | `kind` | counting engine only |
//! | `[crash]` | `kind`, `y0`, `height`, `nodes`, `behavior`, `after` | crash engine only |
//! | `[reactive]` | `k`, `mmax`, `adversary`, `budget`, `max_rounds` | slot engine only |
//! | `[agreement]` | `mode`, `source`, `p1`, `pe` | agreement engine only |
//! | `[rbc]` | `protocol`, `payload`, `max_waves`, `schedule`, `behavior` | rbc engine only |
//! | `[probes]` | `nodes = [[x, y], ...]` | any engine (see [`bftbcast_sim::engine::Probe`]) |
//! | `[sweep]` | one key per axis | values: array, or `"a..b"` / `"a..=b"` range string; the `protocol` axis takes name strings |
//!
//! Sweep axes override the base document per point; the cartesian
//! product is taken in file order (later axes vary fastest).

use bftbcast_rbc::{ByzantineBehavior, RbcProtocol, ScheduleKind};
use bftbcast_sim::crash::CrashBehavior;
use bftbcast_sim::engine::AgreementMode;
use bftbcast_sim::slot::ReactiveAdversary;

use crate::scenario::{Scenario, ScenarioError};
use crate::scn::{self, ScnSection, ScnValue};

/// Which engine a scenario file drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The worst-case counting engine (Theorems 1–3, Figure 2).
    Counting,
    /// The hybrid crash + Byzantine engine.
    Crash,
    /// The slot-level `Breactive` engine (Section 5).
    Slot,
    /// Source-neighborhood agreement (faulty base station).
    Agreement,
    /// Message-level reliable broadcast (flood/Bracha/CTRBC).
    Rbc,
}

impl EngineKind {
    /// The grammar's name for this engine.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Counting => "counting",
            EngineKind::Crash => "crash",
            EngineKind::Slot => "slot",
            EngineKind::Agreement => "agreement",
            EngineKind::Rbc => "rbc",
        }
    }

    /// The inverse of [`EngineKind::name`] — shared by the `.scn` and
    /// JSON codecs so both grammars accept exactly the same names.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "counting" => EngineKind::Counting,
            "crash" => EngineKind::Crash,
            "slot" => EngineKind::Slot,
            "agreement" => EngineKind::Agreement,
            "rbc" => EngineKind::Rbc,
            _ => return None,
        })
    }
}

/// Byzantine placement, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementSpec {
    /// No bad nodes.
    None,
    /// Figure 2's lattice: exactly `t` bad nodes per neighborhood.
    Lattice {
        /// Residue-class offset (41 reproduces Figure 2's positions).
        offset: u32,
    },
    /// Theorem 1's stripes: `(y0, t, victims_above)` per stripe.
    Stripes(Vec<(u32, u32, bool)>),
    /// Random placement honoring the local bound (uses the run seed).
    Random {
        /// How many bad nodes to place.
        count: usize,
    },
    /// Probabilistic iid corruption (may violate the local bound — the
    /// event the analysis quantifies; uses the run seed).
    Bernoulli {
        /// Per-node corruption rate.
        p: f64,
    },
    /// An explicit list of `(x, y)` cells.
    Explicit(Vec<(u32, u32)>),
}

/// Protocol under test (counting-family engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Protocol B (Theorem 2, `m = 2·m0`).
    B,
    /// The Koo PODC'06 baseline (`m = 2·t·mf + 1`).
    Koo,
    /// Bheter (Theorem 3) with the paper-scale cross at the origin.
    Heter,
    /// Budget-starved variant: `m` copies per node, all relayed.
    Starved {
        /// Per-node copy budget.
        m: u64,
    },
    /// Majority acceptance at this quorum (the EXP-A3 ablation; oracle
    /// adversary only).
    Majority {
        /// Total copies needed to decide.
        quorum: u64,
    },
    /// The crash-only protocol (budget 1, threshold 1; crash engine
    /// only).
    CrashOnly,
}

/// Adversary model (counting engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarySpec {
    /// The paper's per-receiver budget accounting.
    Oracle,
    /// Physical global budgets, frontier-starving greedy.
    Greedy,
    /// Physical global budgets, seeded random actions.
    Chaos,
    /// No attacks.
    Passive,
}

impl AdversarySpec {
    /// The grammar's name for this adversary (also the cache-key
    /// spelling in [`crate::cache::point_key`]).
    pub fn name(self) -> &'static str {
        match self {
            AdversarySpec::Oracle => "oracle",
            AdversarySpec::Greedy => "greedy",
            AdversarySpec::Chaos => "chaos",
            AdversarySpec::Passive => "passive",
        }
    }

    /// The inverse of [`AdversarySpec::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "oracle" => AdversarySpec::Oracle,
            "greedy" => AdversarySpec::Greedy,
            "chaos" => AdversarySpec::Chaos,
            "passive" => AdversarySpec::Passive,
            _ => return None,
        })
    }
}

/// Crash-node selection (crash engine).
#[derive(Debug, Clone, PartialEq)]
pub enum CrashNodesSpec {
    /// All nodes in rows `y0 .. y0 + height` (wrapping).
    Stripe {
        /// First row.
        y0: u32,
        /// Stripe height.
        height: u32,
    },
    /// An explicit list of `(x, y)` cells.
    Explicit(Vec<(u32, u32)>),
}

/// Crash-fault load (crash engine).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    /// Which nodes crash.
    pub nodes: CrashNodesSpec,
    /// When they stop relaying.
    pub behavior: CrashBehavior,
}

/// Slot-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactiveSpec {
    /// Payload width in bits.
    pub k: usize,
    /// Loose budget bound known to good nodes.
    pub mmax: u64,
    /// Adversary behavior.
    pub adversary: ReactiveAdversary,
    /// Optional hard cap on good-node messages.
    pub budget: Option<u64>,
    /// Hard cap on message rounds.
    pub max_rounds: u64,
}

impl Default for ReactiveSpec {
    fn default() -> Self {
        ReactiveSpec {
            k: 8,
            mmax: 1 << 16,
            adversary: ReactiveAdversary::Jammer,
            budget: None,
            max_rounds: 2_000_000,
        }
    }
}

/// Message-level RBC engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbcSpec {
    /// Protocol family to run (flood baseline, Bracha, or CTRBC).
    pub protocol: RbcProtocol,
    /// Broadcast payload size in bits.
    pub payload: u32,
    /// Hard cap on delivery waves.
    pub max_waves: u64,
    /// Delivery schedule the network plays (seeded, fifo,
    /// delay_quorum, targeted_reorder, gst).
    pub schedule: ScheduleKind,
    /// What Byzantine nodes actively do (mute, equivocate,
    /// selective_send, stale_replay).
    pub behavior: ByzantineBehavior,
}

impl Default for RbcSpec {
    fn default() -> Self {
        RbcSpec {
            protocol: RbcProtocol::Bracha,
            payload: 64,
            max_waves: 100_000,
            schedule: ScheduleKind::Seeded,
            behavior: ByzantineBehavior::Mute,
        }
    }
}

/// Source behavior in the agreement engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSpec {
    /// A correct source.
    Correct,
    /// A Byzantine source splitting evenly between two values.
    Split,
    /// A Byzantine source that stays silent.
    Silent,
}

impl SourceSpec {
    /// The grammar's name for this source behavior.
    pub fn name(self) -> &'static str {
        match self {
            SourceSpec::Correct => "correct",
            SourceSpec::Split => "split",
            SourceSpec::Silent => "silent",
        }
    }

    /// The inverse of [`SourceSpec::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "correct" => SourceSpec::Correct,
            "split" => SourceSpec::Split,
            "silent" => SourceSpec::Silent,
            _ => return None,
        })
    }
}

/// Agreement-engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementSpec {
    /// Cheap three-phase or proven vector mode.
    pub mode: AgreementMode,
    /// Source behavior.
    pub source: SourceSpec,
    /// Colluders' propose-phase capacity fraction.
    pub p1: f64,
    /// Colluders' echo-phase capacity fraction (of the remainder).
    pub pe: f64,
}

impl Default for AgreementSpec {
    fn default() -> Self {
        // SplitAttack::strongest()'s schedule.
        AgreementSpec {
            mode: AgreementMode::Cheap,
            source: SourceSpec::Correct,
            p1: 0.4,
            pe: 0.2,
        }
    }
}

/// One fully-resolved run: the base document with one sweep-point's
/// overrides applied.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Torus width.
    pub width: u32,
    /// Torus height.
    pub height: u32,
    /// Radio range.
    pub r: u32,
    /// Local bound `t`.
    pub t: u32,
    /// Per-bad-node budget `mf`.
    pub mf: u64,
    /// Base-station cell.
    pub source: (u32, u32),
    /// Run seed (chaos adversary, random/Bernoulli placement, slot
    /// RNG).
    pub seed: u64,
    /// Byzantine placement.
    pub placement: PlacementSpec,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Counting-engine adversary.
    pub adversary: AdversarySpec,
    /// Crash-fault load (crash engine).
    pub crash: Option<CrashSpec>,
    /// Slot-engine configuration.
    pub reactive: ReactiveSpec,
    /// Agreement-engine configuration.
    pub agreement: AgreementSpec,
    /// Message-level RBC engine configuration.
    pub rbc: RbcSpec,
    /// `(axis, rendered value)` for this sweep point, in axis order.
    pub label: Vec<(String, String)>,
}

impl PointSpec {
    /// Builds the [`Scenario`] (torus + faults + Byzantine placement)
    /// for this point.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Net`] / [`ScenarioError::LocalBoundViolated`]
    /// exactly as [`crate::ScenarioBuilder::build`].
    pub fn build_scenario(&self) -> Result<Scenario, ScenarioError> {
        let mut b = Scenario::builder(self.width, self.height, self.r)
            .faults(self.t, self.mf)
            .source(self.source.0, self.source.1);
        b = match &self.placement {
            PlacementSpec::None => b,
            PlacementSpec::Lattice { offset } => b.lattice_placement_with_offset(*offset),
            PlacementSpec::Stripes(stripes) => b.stripe_placement(stripes),
            PlacementSpec::Random { count } => b.random_placement(*count, self.seed),
            PlacementSpec::Bernoulli { p } => b.bernoulli_placement(*p, self.seed),
            PlacementSpec::Explicit(cells) => {
                let grid = bftbcast_net::Grid::new(self.width, self.height, self.r)?;
                let ids = cells.iter().map(|&(x, y)| grid.id_at(x, y)).collect();
                b.explicit_placement(ids)
            }
        };
        b.build()
    }
}

/// A sweep-axis value: integer, float, or a canonical name (the rbc
/// `protocol` axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// An integer point.
    Int(i64),
    /// A float point (fraction axes only).
    Float(f64),
    /// A named point, interned to the grammar's canonical spelling
    /// (name axes only).
    Name(&'static str),
}

impl AxisValue {
    fn render(self) -> String {
        match self {
            AxisValue::Int(i) => i.to_string(),
            AxisValue::Float(f) => format!("{f}"),
            AxisValue::Name(s) => s.to_string(),
        }
    }

    fn as_u64(self, what: &str) -> Result<u64, ScenarioError> {
        match self {
            AxisValue::Int(i) if i >= 0 => Ok(i as u64),
            _ => Err(invalid(what, "expected a non-negative integer")),
        }
    }

    fn as_f64(self, what: &str) -> Result<f64, ScenarioError> {
        match self {
            AxisValue::Int(i) => Ok(i as f64),
            AxisValue::Float(f) => Ok(f),
            AxisValue::Name(_) => Err(invalid(what, "expected a number")),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Axis {
    name: String,
    values: Vec<AxisValue>,
}

/// A parsed, validated scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Scenario name (reported in every output row).
    pub name: String,
    /// Which engine the file drives.
    pub engine: EngineKind,
    /// Probe cells `(x, y)` reported per point (counting/crash).
    pub probes: Vec<(u32, u32)>,
    base: PointSpec,
    sweep: Vec<Axis>,
}

fn invalid(what: &str, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid {
        what: what.to_string(),
        message: message.into(),
    }
}

fn check_keys(section: &ScnSection, allowed: &[&str]) -> Result<(), ScenarioError> {
    for (key, _, _) in &section.entries {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::UnknownKey {
                section: section.name.clone(),
                key: key.clone(),
            });
        }
    }
    Ok(())
}

fn get_str<'a>(section: &'a ScnSection, key: &str) -> Result<Option<&'a str>, ScenarioError> {
    match section.get(key) {
        None => Ok(None),
        Some(ScnValue::Str(s)) => Ok(Some(s)),
        Some(other) => Err(invalid(
            &format!("{}.{key}", section_name(section)),
            format!("expected a string, found {}", other.kind()),
        )),
    }
}

fn get_int(section: &ScnSection, key: &str) -> Result<Option<i64>, ScenarioError> {
    match section.get(key) {
        None => Ok(None),
        Some(ScnValue::Int(i)) => Ok(Some(*i)),
        Some(ScnValue::BigInt(n)) => Err(invalid(
            &format!("{}.{key}", section_name(section)),
            format!("integer {n} is out of range for this field"),
        )),
        Some(other) => Err(invalid(
            &format!("{}.{key}", section_name(section)),
            format!("expected an integer, found {}", other.kind()),
        )),
    }
}

fn get_f64(section: &ScnSection, key: &str) -> Result<Option<f64>, ScenarioError> {
    match section.get(key) {
        None => Ok(None),
        Some(ScnValue::Float(f)) => Ok(Some(*f)),
        Some(ScnValue::Int(i)) => Ok(Some(*i as f64)),
        Some(other) => Err(invalid(
            &format!("{}.{key}", section_name(section)),
            format!("expected a number, found {}", other.kind()),
        )),
    }
}

fn get_u32(section: &ScnSection, key: &str) -> Result<Option<u32>, ScenarioError> {
    match get_int(section, key)? {
        None => Ok(None),
        Some(i) => u32::try_from(i).map(Some).map_err(|_| {
            invalid(
                &format!("{}.{key}", section_name(section)),
                "expected a non-negative 32-bit integer",
            )
        }),
    }
}

fn get_u64(section: &ScnSection, key: &str) -> Result<Option<u64>, ScenarioError> {
    // Full-range u64 fields: i64-range literals and BigInt literals
    // (above i64::MAX) are both valid.
    if let Some(ScnValue::BigInt(n)) = section.get(key) {
        return Ok(Some(*n));
    }
    match get_int(section, key)? {
        None => Ok(None),
        Some(i) => u64::try_from(i).map(Some).map_err(|_| {
            invalid(
                &format!("{}.{key}", section_name(section)),
                "expected a non-negative integer",
            )
        }),
    }
}

fn section_name(section: &ScnSection) -> &str {
    if section.name.is_empty() {
        "top level"
    } else {
        &section.name
    }
}

/// Parses `[[x, y], ...]` coordinate lists.
fn get_cells(section: &ScnSection, key: &str) -> Result<Vec<(u32, u32)>, ScenarioError> {
    let what = format!("{}.{key}", section_name(section));
    let Some(value) = section.get(key) else {
        return Err(invalid(&what, "missing coordinate list"));
    };
    let ScnValue::Array(items) = value else {
        return Err(invalid(&what, "expected an array of [x, y] pairs"));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let ScnValue::Array(pair) = item else {
            return Err(invalid(&what, "each entry must be an [x, y] pair"));
        };
        let [ScnValue::Int(x), ScnValue::Int(y)] = pair.as_slice() else {
            return Err(invalid(&what, "each entry must be two integers"));
        };
        let (Ok(x), Ok(y)) = (u32::try_from(*x), u32::try_from(*y)) else {
            return Err(invalid(&what, "coordinates must be non-negative"));
        };
        out.push((x, y));
    }
    Ok(out)
}

/// Parses a sweep axis value list: an array of numbers or a range
/// string `"a..b"` (half-open) / `"a..=b"` (inclusive).
fn axis_values(name: &str, value: &ScnValue) -> Result<Vec<AxisValue>, ScenarioError> {
    let what = format!("sweep.{name}");
    let values = match value {
        ScnValue::Array(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(match item {
                    ScnValue::Int(i) => AxisValue::Int(*i),
                    ScnValue::Float(f) => AxisValue::Float(*f),
                    // The protocol/schedule/behavior axes hold names,
                    // not numbers; intern each to its canonical
                    // spelling here so AxisValue stays Copy.
                    ScnValue::Str(s) if name == "protocol" => {
                        let p = RbcProtocol::from_name(s).ok_or_else(|| {
                            invalid(
                                &what,
                                format!("unknown protocol {s:?} (counting|bracha|ctrbc)"),
                            )
                        })?;
                        AxisValue::Name(p.name())
                    }
                    ScnValue::Str(s) if name == "schedule" => {
                        let k = ScheduleKind::from_name(s).ok_or_else(|| {
                            invalid(
                                &what,
                                format!(
                                    "unknown schedule {s:?} \
                                     (seeded|fifo|delay_quorum|targeted_reorder|gst)"
                                ),
                            )
                        })?;
                        AxisValue::Name(k.name())
                    }
                    ScnValue::Str(s) if name == "behavior" => {
                        let b = ByzantineBehavior::from_name(s).ok_or_else(|| {
                            invalid(
                                &what,
                                format!(
                                    "unknown behavior {s:?} \
                                     (mute|equivocate|selective_send|stale_replay)"
                                ),
                            )
                        })?;
                        AxisValue::Name(b.name())
                    }
                    ScnValue::BigInt(n) => {
                        return Err(invalid(
                            &what,
                            format!("axis value {n} is above the sweepable range (i64)"),
                        ))
                    }
                    other => {
                        return Err(invalid(
                            &what,
                            format!("axis arrays hold numbers, found {}", other.kind()),
                        ))
                    }
                });
            }
            out
        }
        ScnValue::Str(range) => {
            let (lo, hi, inclusive) = if let Some((lo, hi)) = range.split_once("..=") {
                (lo, hi, true)
            } else if let Some((lo, hi)) = range.split_once("..") {
                (lo, hi, false)
            } else {
                return Err(invalid(
                    &what,
                    format!("range {range:?} must look like \"a..b\" or \"a..=b\""),
                ));
            };
            let parse = |s: &str| -> Result<i64, ScenarioError> {
                s.trim()
                    .parse()
                    .map_err(|_| invalid(&what, format!("range bound {s:?} is not an integer")))
            };
            let lo = parse(lo)?;
            let hi = parse(hi)?;
            let hi = if inclusive { hi + 1 } else { hi };
            if lo >= hi {
                return Err(invalid(&what, format!("range {range:?} is empty")));
            }
            (lo..hi).map(AxisValue::Int).collect()
        }
        other => {
            return Err(invalid(
                &what,
                format!(
                    "expected an array of numbers or a range string, found {}",
                    other.kind()
                ),
            ))
        }
    };
    if values.is_empty() {
        return Err(invalid(&what, "axis has no values"));
    }
    Ok(values)
}

/// Applies one axis override to a [`PointSpec`] — the shared vocabulary
/// of `[sweep]` axes and `run --set key=value` overrides.
pub(crate) fn apply_axis(
    spec: &mut PointSpec,
    name: &str,
    value: AxisValue,
) -> Result<(), ScenarioError> {
    let what = format!("sweep.{name}");
    match name {
        "m" => match &mut spec.protocol {
            ProtocolSpec::Starved { m } => *m = value.as_u64(&what)?,
            _ => {
                return Err(invalid(
                    &what,
                    "sweeping m requires protocol kind = \"starved\"",
                ))
            }
        },
        "quorum" => match &mut spec.protocol {
            ProtocolSpec::Majority { quorum } => *quorum = value.as_u64(&what)?,
            _ => {
                return Err(invalid(
                    &what,
                    "sweeping quorum requires protocol kind = \"majority\"",
                ))
            }
        },
        "t" => {
            spec.t = u32::try_from(value.as_u64(&what)?)
                .map_err(|_| invalid(&what, "t out of range"))?;
        }
        "mf" => spec.mf = value.as_u64(&what)?,
        "seed" => spec.seed = value.as_u64(&what)?,
        "count" => match &mut spec.placement {
            PlacementSpec::Random { count } => *count = value.as_u64(&what)? as usize,
            _ => {
                return Err(invalid(
                    &what,
                    "sweeping count requires placement kind = \"random\"",
                ))
            }
        },
        "p" => match &mut spec.placement {
            PlacementSpec::Bernoulli { p } => *p = value.as_f64(&what)?,
            _ => {
                return Err(invalid(
                    &what,
                    "sweeping p requires placement kind = \"bernoulli\"",
                ))
            }
        },
        "k" => spec.reactive.k = value.as_u64(&what)? as usize,
        "mmax" => spec.reactive.mmax = value.as_u64(&what)?,
        "p1" => spec.agreement.p1 = value.as_f64(&what)?,
        "pe" => spec.agreement.pe = value.as_f64(&what)?,
        "protocol" => match value {
            AxisValue::Name(s) => {
                spec.rbc.protocol = RbcProtocol::from_name(s).ok_or_else(|| {
                    invalid(
                        &what,
                        format!("unknown protocol {s:?} (counting|bracha|ctrbc)"),
                    )
                })?;
            }
            _ => {
                return Err(invalid(
                    &what,
                    "protocol axis values are names: [\"counting\", \"bracha\", \"ctrbc\"]",
                ))
            }
        },
        "payload" => {
            spec.rbc.payload = u32::try_from(value.as_u64(&what)?)
                .map_err(|_| invalid(&what, "payload out of range"))?;
        }
        "schedule" => match value {
            AxisValue::Name(s) => {
                spec.rbc.schedule = ScheduleKind::from_name(s).ok_or_else(|| {
                    invalid(
                        &what,
                        format!(
                            "unknown schedule {s:?} \
                             (seeded|fifo|delay_quorum|targeted_reorder|gst)"
                        ),
                    )
                })?;
            }
            _ => {
                return Err(invalid(
                    &what,
                    "schedule axis values are names: [\"seeded\", \"fifo\", \
                     \"delay_quorum\", \"targeted_reorder\", \"gst\"]",
                ))
            }
        },
        "behavior" => match value {
            AxisValue::Name(s) => {
                spec.rbc.behavior = ByzantineBehavior::from_name(s).ok_or_else(|| {
                    invalid(
                        &what,
                        format!(
                            "unknown behavior {s:?} \
                             (mute|equivocate|selective_send|stale_replay)"
                        ),
                    )
                })?;
            }
            _ => {
                return Err(invalid(
                    &what,
                    "behavior axis values are names: [\"mute\", \"equivocate\", \
                     \"selective_send\", \"stale_replay\"]",
                ))
            }
        },
        other => {
            return Err(invalid(
                &format!("sweep.{other}"),
                "unknown axis (known: m, quorum, t, mf, seed, count, p, k, mmax, p1, pe, \
                 protocol, payload, schedule, behavior)",
            ))
        }
    }
    if matches!(name, "p" | "p1" | "pe") {
        let v = value.as_f64(&what)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(invalid(&what, "fractions must lie in [0, 1]"));
        }
    }
    Ok(())
}

/// The one authoritative off-torus check for probe cells, shared by
/// the `.scn` parser, the spec validator ([`crate::spec`]), and the
/// batch runner's pre-run backstop — so the error text (naming the
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

/// Cross-field validation of a fully-resolved point: everything that
/// would otherwise surface as an engine assert at run time — on a
/// `sweep()` worker thread, aborting the batch — fails here with a
/// [`ScenarioError`] instead. Called on the base document and on every
/// sweep-axis value at parse time.
pub(crate) fn validate_point(spec: &PointSpec, engine: EngineKind) -> Result<(), ScenarioError> {
    let (w, h) = (spec.width, spec.height);
    let check_cell = |what: &str, x: u32, y: u32| -> Result<(), ScenarioError> {
        if x >= w || y >= h {
            return Err(invalid(
                what,
                format!("cell ({x}, {y}) is off the {w}x{h} torus"),
            ));
        }
        Ok(())
    };
    check_cell("source", spec.source.0, spec.source.1)?;
    if let PlacementSpec::Explicit(cells) = &spec.placement {
        for &(x, y) in cells {
            check_cell("placement.nodes", x, y)?;
        }
    }
    if let PlacementSpec::Lattice { offset } = spec.placement {
        // The placement asserts this; a point must fail here instead.
        let lattice = bftbcast_adversary::LatticePlacement { t: spec.t, offset };
        if let Some(why) = lattice.misfit(w, h, spec.r) {
            return Err(invalid("placement", why));
        }
    }
    if let PlacementSpec::Bernoulli { p } = spec.placement {
        if !(0.0..=1.0).contains(&p) {
            return Err(invalid("placement.p", "rate must lie in [0, 1]"));
        }
    }
    if let Some(crash) = &spec.crash {
        if let CrashNodesSpec::Explicit(cells) = &crash.nodes {
            for &(x, y) in cells {
                check_cell("crash.nodes", x, y)?;
            }
        }
    }
    if engine == EngineKind::Slot && !(1..=63).contains(&spec.reactive.k) {
        return Err(invalid(
            "reactive.k",
            "payload width must lie in 1..=63 bits",
        ));
    }
    if engine == EngineKind::Rbc {
        if !(1..=1_048_576).contains(&spec.rbc.payload) {
            return Err(invalid(
                "rbc.payload",
                "payload must lie in 1..=1048576 bits",
            ));
        }
        let floor = 2 * (u64::from(spec.t) + 1);
        if spec.rbc.protocol == RbcProtocol::Ctrbc && u64::from(spec.rbc.payload) < floor {
            return Err(invalid(
                "rbc.payload",
                format!(
                    "ctrbc splits the payload into t+1 fragments and needs at least \
                     2(t+1) = {floor} payload bits at t = {}",
                    spec.t
                ),
            ));
        }
        if spec.rbc.max_waves == 0 {
            return Err(invalid("rbc.max_waves", "at least one wave is required"));
        }
    }
    if engine == EngineKind::Agreement && spec.agreement.mode == AgreementMode::Proven {
        use bftbcast_protocols::agreement::proven_max_t;
        if u64::from(spec.t) > proven_max_t(spec.r) {
            return Err(invalid(
                "agreement.mode",
                format!(
                    "proven mode requires t <= {} at r = {}",
                    proven_max_t(spec.r),
                    spec.r
                ),
            ));
        }
    }
    Ok(())
}

const SECTIONS: &[&str] = &[
    "",
    "topology",
    "faults",
    "source",
    "placement",
    "protocol",
    "adversary",
    "crash",
    "reactive",
    "agreement",
    "rbc",
    "probes",
    "sweep",
];

impl ScenarioFile {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for malformed text,
    /// [`ScenarioError::UnknownKey`] for sections/keys outside the
    /// grammar, [`ScenarioError::Invalid`] for bad field values, bad
    /// sweep ranges, or engine/section mismatches.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let doc = scn::parse(text)?;
        for section in &doc.sections {
            if !SECTIONS.contains(&section.name.as_str()) {
                return Err(ScenarioError::UnknownKey {
                    section: section.name.clone(),
                    key: String::new(),
                });
            }
        }
        let empty = ScnSection {
            name: String::new(),
            line: 0,
            entries: Vec::new(),
        };
        let top = doc.section("").unwrap_or(&empty);
        check_keys(top, &["name", "engine", "seed"])?;
        let name = get_str(top, "name")?.unwrap_or("scenario").to_string();
        let engine_name = get_str(top, "engine")?.unwrap_or("counting");
        let engine = EngineKind::from_name(engine_name).ok_or_else(|| {
            invalid(
                "engine",
                format!("unknown engine {engine_name:?} (counting|crash|slot|agreement|rbc)"),
            )
        })?;
        let seed = get_u64(top, "seed")?.unwrap_or(0);

        // Engine/section applicability: a typo'd or misplaced section
        // must fail loudly, not silently no-op.
        for (section, engines) in [
            ("adversary", &[EngineKind::Counting][..]),
            ("crash", &[EngineKind::Crash][..]),
            ("reactive", &[EngineKind::Slot][..]),
            ("agreement", &[EngineKind::Agreement][..]),
            ("rbc", &[EngineKind::Rbc][..]),
            ("protocol", &[EngineKind::Counting, EngineKind::Crash][..]),
        ] {
            if doc.section(section).is_some() && !engines.contains(&engine) {
                return Err(invalid(
                    section,
                    format!(
                        "section [{section}] does not apply to engine = \"{}\"",
                        engine.name()
                    ),
                ));
            }
        }

        // [topology] — required.
        let topo = doc
            .section("topology")
            .ok_or_else(|| invalid("topology", "missing required section [topology]"))?;
        check_keys(topo, &["side", "width", "height", "r"])?;
        let r = get_u32(topo, "r")?.ok_or_else(|| invalid("topology.r", "radio range required"))?;
        let (width, height) = match (
            get_u32(topo, "side")?,
            get_u32(topo, "width")?,
            get_u32(topo, "height")?,
        ) {
            (Some(side), None, None) => (side, side),
            (None, Some(w), Some(h)) => (w, h),
            _ => return Err(invalid("topology", "give either side, or width and height")),
        };

        // [faults]
        let (t, mf) = match doc.section("faults") {
            None => (1, 1),
            Some(s) => {
                check_keys(s, &["t", "mf"])?;
                (
                    get_u32(s, "t")?.unwrap_or(1),
                    get_u64(s, "mf")?.unwrap_or(1),
                )
            }
        };

        // [source]
        let source = match doc.section("source") {
            None => (0, 0),
            Some(s) => {
                check_keys(s, &["x", "y"])?;
                (get_u32(s, "x")?.unwrap_or(0), get_u32(s, "y")?.unwrap_or(0))
            }
        };

        // [placement]
        let placement = match doc.section("placement") {
            None => PlacementSpec::None,
            Some(s) => {
                check_keys(s, &["kind", "offset", "stripes", "count", "p", "nodes"])?;
                match get_str(s, "kind")?.unwrap_or("none") {
                    "none" => PlacementSpec::None,
                    "lattice" => PlacementSpec::Lattice {
                        offset: get_u32(s, "offset")?.unwrap_or(1),
                    },
                    "stripes" => {
                        let what = "placement.stripes";
                        let Some(ScnValue::Array(items)) = s.get("stripes") else {
                            return Err(invalid(what, "expected stripes = [[y0, t, above], ...]"));
                        };
                        let mut stripes = Vec::with_capacity(items.len());
                        for item in items {
                            let ScnValue::Array(triple) = item else {
                                return Err(invalid(what, "each stripe is [y0, t, above]"));
                            };
                            let [ScnValue::Int(y0), ScnValue::Int(st), ScnValue::Bool(above)] =
                                triple.as_slice()
                            else {
                                return Err(invalid(
                                    what,
                                    "each stripe is [int y0, int t, bool victims_above]",
                                ));
                            };
                            let (Ok(y0), Ok(st)) = (u32::try_from(*y0), u32::try_from(*st)) else {
                                return Err(invalid(what, "stripe numbers must be non-negative"));
                            };
                            stripes.push((y0, st, *above));
                        }
                        PlacementSpec::Stripes(stripes)
                    }
                    "random" => PlacementSpec::Random {
                        count: get_u64(s, "count")?
                            .ok_or_else(|| invalid("placement.count", "random needs count"))?
                            as usize,
                    },
                    "bernoulli" => PlacementSpec::Bernoulli {
                        p: get_f64(s, "p")?
                            .ok_or_else(|| invalid("placement.p", "bernoulli needs p"))?,
                    },
                    "explicit" => PlacementSpec::Explicit(get_cells(s, "nodes")?),
                    other => {
                        return Err(invalid(
                            "placement.kind",
                            format!(
                                "unknown kind {other:?} \
                                 (none|lattice|stripes|random|bernoulli|explicit)"
                            ),
                        ))
                    }
                }
            }
        };

        // [protocol]
        let protocol = match doc.section("protocol") {
            None => ProtocolSpec::B,
            Some(s) => {
                check_keys(s, &["kind", "m", "quorum"])?;
                match get_str(s, "kind")?.unwrap_or("b") {
                    "b" => ProtocolSpec::B,
                    "koo" => ProtocolSpec::Koo,
                    "heter" => ProtocolSpec::Heter,
                    "starved" => ProtocolSpec::Starved {
                        m: get_u64(s, "m")?
                            .ok_or_else(|| invalid("protocol.m", "starved needs m"))?,
                    },
                    "majority" => ProtocolSpec::Majority {
                        quorum: get_u64(s, "quorum")?
                            .ok_or_else(|| invalid("protocol.quorum", "majority needs quorum"))?,
                    },
                    "crash_only" => ProtocolSpec::CrashOnly,
                    other => {
                        return Err(invalid(
                            "protocol.kind",
                            format!(
                                "unknown kind {other:?} \
                                 (b|koo|heter|starved|majority|crash_only)"
                            ),
                        ))
                    }
                }
            }
        };
        if protocol == ProtocolSpec::CrashOnly && engine != EngineKind::Crash {
            return Err(invalid(
                "protocol.kind",
                "crash_only applies to the crash engine only",
            ));
        }
        if matches!(protocol, ProtocolSpec::Majority { .. }) && engine != EngineKind::Counting {
            return Err(invalid(
                "protocol.kind",
                "majority applies to the counting engine only",
            ));
        }

        // [adversary]
        let adversary = match doc.section("adversary") {
            None => AdversarySpec::Oracle,
            Some(s) => {
                check_keys(s, &["kind"])?;
                let kind = get_str(s, "kind")?.unwrap_or("oracle");
                AdversarySpec::from_name(kind).ok_or_else(|| {
                    invalid(
                        "adversary.kind",
                        format!("unknown kind {kind:?} (oracle|greedy|chaos|passive)"),
                    )
                })?
            }
        };
        if matches!(protocol, ProtocolSpec::Majority { .. }) && adversary != AdversarySpec::Oracle {
            return Err(invalid(
                "adversary.kind",
                "the majority protocol is driven by the per-receiver oracle only",
            ));
        }

        // [crash]
        let crash = match doc.section("crash") {
            None => None,
            Some(s) => {
                check_keys(s, &["kind", "y0", "height", "nodes", "behavior", "after"])?;
                let nodes = match get_str(s, "kind")?.unwrap_or("stripe") {
                    "stripe" => CrashNodesSpec::Stripe {
                        y0: get_u32(s, "y0")?
                            .ok_or_else(|| invalid("crash.y0", "stripe needs y0"))?,
                        height: get_u32(s, "height")?.unwrap_or(1),
                    },
                    "explicit" => CrashNodesSpec::Explicit(get_cells(s, "nodes")?),
                    other => {
                        return Err(invalid(
                            "crash.kind",
                            format!("unknown kind {other:?} (stripe|explicit)"),
                        ))
                    }
                };
                let behavior = match (get_str(s, "behavior")?, get_u64(s, "after")?) {
                    (None, None) | (Some("immediate"), None) => CrashBehavior::Immediate,
                    (Some("after_quota"), None) => CrashBehavior::AfterQuota,
                    (None, Some(n)) => CrashBehavior::AfterCopies(n),
                    (Some(other), None) => {
                        return Err(invalid(
                            "crash.behavior",
                            format!("unknown behavior {other:?} (immediate|after_quota|after = N)"),
                        ))
                    }
                    (Some(_), Some(_)) => {
                        return Err(invalid(
                            "crash.behavior",
                            "give either behavior or after, not both",
                        ))
                    }
                };
                Some(CrashSpec { nodes, behavior })
            }
        };
        if engine == EngineKind::Crash && crash.is_none() {
            return Err(invalid("crash", "the crash engine needs a [crash] section"));
        }

        // [reactive]
        let reactive = match doc.section("reactive") {
            None => ReactiveSpec::default(),
            Some(s) => {
                check_keys(s, &["k", "mmax", "adversary", "budget", "max_rounds"])?;
                let adversary = match get_str(s, "adversary")?.unwrap_or("jammer") {
                    "passive" => ReactiveAdversary::Passive,
                    "jammer" => ReactiveAdversary::Jammer,
                    "canceller" => ReactiveAdversary::Canceller,
                    "nack_forger" => ReactiveAdversary::NackForger,
                    "witness_forger" => ReactiveAdversary::WitnessForger,
                    "mixed" => ReactiveAdversary::Mixed,
                    other => {
                        return Err(invalid(
                            "reactive.adversary",
                            format!(
                                "unknown adversary {other:?} (passive|jammer|canceller|\
                                 nack_forger|witness_forger|mixed)"
                            ),
                        ))
                    }
                };
                let defaults = ReactiveSpec::default();
                ReactiveSpec {
                    k: get_u64(s, "k")?.map_or(defaults.k, |k| k as usize),
                    mmax: get_u64(s, "mmax")?.unwrap_or(defaults.mmax),
                    adversary,
                    budget: get_u64(s, "budget")?,
                    max_rounds: get_u64(s, "max_rounds")?.unwrap_or(defaults.max_rounds),
                }
            }
        };

        // [agreement]
        let agreement = match doc.section("agreement") {
            None => AgreementSpec::default(),
            Some(s) => {
                check_keys(s, &["mode", "source", "p1", "pe"])?;
                let mode = match get_str(s, "mode")?.unwrap_or("cheap") {
                    "cheap" => AgreementMode::Cheap,
                    "proven" => AgreementMode::Proven,
                    other => {
                        return Err(invalid(
                            "agreement.mode",
                            format!("unknown mode {other:?} (cheap|proven)"),
                        ))
                    }
                };
                let source_name = get_str(s, "source")?.unwrap_or("correct");
                let source = SourceSpec::from_name(source_name).ok_or_else(|| {
                    invalid(
                        "agreement.source",
                        format!("unknown source {source_name:?} (correct|split|silent)"),
                    )
                })?;
                let defaults = AgreementSpec::default();
                let p1 = get_f64(s, "p1")?.unwrap_or(defaults.p1);
                let pe = get_f64(s, "pe")?.unwrap_or(defaults.pe);
                for (key, v) in [("p1", p1), ("pe", pe)] {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(invalid(
                            &format!("agreement.{key}"),
                            "fractions must lie in [0, 1]",
                        ));
                    }
                }
                AgreementSpec {
                    mode,
                    source,
                    p1,
                    pe,
                }
            }
        };

        // [rbc]
        let rbc = match doc.section("rbc") {
            None => RbcSpec::default(),
            Some(s) => {
                check_keys(
                    s,
                    &["protocol", "payload", "max_waves", "schedule", "behavior"],
                )?;
                let pname = get_str(s, "protocol")?.unwrap_or("bracha");
                let protocol = RbcProtocol::from_name(pname).ok_or_else(|| {
                    invalid(
                        "rbc.protocol",
                        format!("unknown protocol {pname:?} (counting|bracha|ctrbc)"),
                    )
                })?;
                let sname = get_str(s, "schedule")?.unwrap_or("seeded");
                let schedule = ScheduleKind::from_name(sname).ok_or_else(|| {
                    invalid(
                        "rbc.schedule",
                        format!(
                            "unknown schedule {sname:?} \
                             (seeded|fifo|delay_quorum|targeted_reorder|gst)"
                        ),
                    )
                })?;
                let bname = get_str(s, "behavior")?.unwrap_or("mute");
                let behavior = ByzantineBehavior::from_name(bname).ok_or_else(|| {
                    invalid(
                        "rbc.behavior",
                        format!(
                            "unknown behavior {bname:?} \
                             (mute|equivocate|selective_send|stale_replay)"
                        ),
                    )
                })?;
                let defaults = RbcSpec::default();
                RbcSpec {
                    protocol,
                    payload: get_u32(s, "payload")?.unwrap_or(defaults.payload),
                    max_waves: get_u64(s, "max_waves")?.unwrap_or(defaults.max_waves),
                    schedule,
                    behavior,
                }
            }
        };

        // [probes]
        let probes = match doc.section("probes") {
            None => Vec::new(),
            Some(s) => {
                check_keys(s, &["nodes"])?;
                get_cells(s, "nodes")?
            }
        };
        for &(x, y) in &probes {
            check_probe_cell(x, y, width, height)?;
        }

        let base = PointSpec {
            width,
            height,
            r,
            t,
            mf,
            source,
            seed,
            placement,
            protocol,
            adversary,
            crash,
            reactive,
            agreement,
            rbc,
            label: Vec::new(),
        };

        validate_point(&base, engine)?;

        // [sweep] — validate every axis value against the base spec now
        // so a bad axis fails at parse time, not mid-batch.
        let mut sweep = Vec::new();
        if let Some(s) = doc.section("sweep") {
            for (key, value, _) in &s.entries {
                // An axis the engine never reads would silently yield N
                // identical rows — reject it like a misplaced section.
                let applies = match key.as_str() {
                    "k" | "mmax" => engine == EngineKind::Slot,
                    "p1" | "pe" => engine == EngineKind::Agreement,
                    "protocol" | "payload" | "schedule" | "behavior" => engine == EngineKind::Rbc,
                    _ => true,
                };
                if !applies {
                    return Err(invalid(
                        &format!("sweep.{key}"),
                        format!("axis does not apply to engine = \"{}\"", engine.name()),
                    ));
                }
                let values = axis_values(key, value)?;
                for &v in &values {
                    let mut probe_spec = base.clone();
                    apply_axis(&mut probe_spec, key, v)?;
                    validate_point(&probe_spec, engine)?;
                }
                sweep.push(Axis {
                    name: key.clone(),
                    values,
                });
            }
        }

        Ok(ScenarioFile {
            name,
            engine,
            probes,
            base,
            sweep,
        })
    }

    /// The base configuration (sweep overrides not applied).
    pub fn base(&self) -> &PointSpec {
        &self.base
    }

    /// Wraps one validated [`EngineSpec`](crate::spec::EngineSpec) as a
    /// single-point scenario file — the adapter that lets every
    /// `ScenarioFile` consumer (the batch runner, the server job queue)
    /// run a spec submitted as JSON through exactly the same code path
    /// (and therefore exactly the same store keys) as `.scn` text.
    pub fn from_spec(spec: &crate::spec::EngineSpec) -> ScenarioFile {
        ScenarioFile {
            name: spec.name().to_string(),
            engine: spec.engine(),
            probes: spec.probes().to_vec(),
            base: spec.point().clone(),
            sweep: Vec::new(),
        }
    }

    /// A copy of this file narrowed to one expanded sweep point: the
    /// point becomes the base document (its sweep label retained, so
    /// result rows still carry the axis values) and the sweep is
    /// dropped. `None` when `index` is out of range. The report layer
    /// renders single-point map figures through this instead of
    /// re-running the whole sweep.
    pub fn single_point(&self, index: usize) -> Option<ScenarioFile> {
        let point = self.points().into_iter().nth(index)?;
        Some(ScenarioFile {
            name: self.name.clone(),
            engine: self.engine,
            probes: self.probes.clone(),
            base: point,
            sweep: Vec::new(),
        })
    }

    /// Expands the file into one validated
    /// [`EngineSpec`](crate::spec::EngineSpec) per sweep point (the
    /// sweep labels are presentation and are dropped — a spec's
    /// identity is its cache key).
    ///
    /// # Errors
    ///
    /// None in practice for parse-produced files (everything was
    /// validated at parse time); hand-mutated files surface the usual
    /// [`ScenarioError`]s.
    pub fn specs(&self) -> Result<Vec<crate::spec::EngineSpec>, ScenarioError> {
        self.points()
            .into_iter()
            .map(|mut point| {
                point.label.clear();
                crate::spec::EngineSpec::from_parts(
                    self.name.clone(),
                    self.engine,
                    point,
                    self.probes.clone(),
                )
            })
            .collect()
    }

    /// Overrides one field by sweep-axis name (the `run --set
    /// key=value` path), then re-validates the base and every sweep
    /// point against the change. An override **pins** the field: a
    /// `[sweep]` axis over the same key is dropped (otherwise the
    /// sweep would silently reapply its values over the override at
    /// every point).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] for an unknown axis, a value of the
    /// wrong shape, or an override that makes the base or any sweep
    /// point invalid.
    pub fn override_base(&mut self, key: &str, value: AxisValue) -> Result<(), ScenarioError> {
        apply_axis(&mut self.base, key, value)?;
        validate_point(&self.base, self.engine)?;
        self.sweep.retain(|axis| axis.name != key);
        for axis in &self.sweep {
            for &v in &axis.values {
                let mut probe_spec = self.base.clone();
                apply_axis(&mut probe_spec, &axis.name, v)?;
                validate_point(&probe_spec, self.engine)?;
            }
        }
        Ok(())
    }

    /// Expands the sweep axes into fully-resolved points (cartesian
    /// product in file order, later axes varying fastest). A file with
    /// no `[sweep]` section yields one point.
    pub fn points(&self) -> Vec<PointSpec> {
        let total: usize = self.sweep.iter().map(|a| a.values.len()).product();
        let mut out = Vec::with_capacity(total);
        let mut indices = vec![0usize; self.sweep.len()];
        loop {
            let mut spec = self.base.clone();
            for (axis, &i) in self.sweep.iter().zip(&indices) {
                let v = axis.values[i];
                apply_axis(&mut spec, &axis.name, v).expect("validated at parse time");
                spec.label.push((axis.name.clone(), v.render()));
            }
            out.push(spec);
            // Odometer increment, last axis fastest.
            let mut done = true;
            for i in (0..indices.len()).rev() {
                indices[i] += 1;
                if indices[i] < self.sweep[i].values.len() {
                    done = false;
                    break;
                }
                indices[i] = 0;
            }
            if done || self.sweep.is_empty() {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F2: &str = concat!(
        "name = \"f2\"\n",
        "engine = \"counting\"\n",
        "[topology]\n",
        "width = 45\n",
        "height = 45\n",
        "r = 4\n",
        "[faults]\n",
        "t = 1\n",
        "mf = 1000\n",
        "[placement]\n",
        "kind = \"lattice\"\n",
        "offset = 41\n",
        "[protocol]\n",
        "kind = \"starved\"\n",
        "m = 59\n",
        "[adversary]\n",
        "kind = \"oracle\"\n",
        "[probes]\n",
        "nodes = [[0, 5], [5, 1]]\n",
    );

    #[test]
    fn parses_the_figure2_file() {
        let f = ScenarioFile::parse(F2).unwrap();
        assert_eq!(f.name, "f2");
        assert_eq!(f.engine, EngineKind::Counting);
        assert_eq!(f.probes, vec![(0, 5), (5, 1)]);
        let points = f.points();
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!((p.width, p.height, p.r), (45, 45, 4));
        assert_eq!((p.t, p.mf), (1, 1000));
        assert_eq!(p.protocol, ProtocolSpec::Starved { m: 59 });
        assert_eq!(p.placement, PlacementSpec::Lattice { offset: 41 });
        let s = p.build_scenario().unwrap();
        assert_eq!(s.params().m0(), 58);
    }

    #[test]
    fn sweep_expands_cartesian_last_axis_fastest() {
        let f = ScenarioFile::parse(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[protocol]\nkind = \"starved\"\nm = 1\n",
            "[sweep]\nm = [5, 6]\nseed = \"0..3\"\n",
        ))
        .unwrap();
        let points = f.points();
        assert_eq!(points.len(), 6);
        assert_eq!(
            points[0].label,
            vec![
                ("m".to_string(), "5".to_string()),
                ("seed".to_string(), "0".to_string())
            ]
        );
        assert_eq!(points[1].label[1].1, "1");
        assert_eq!(points[3].label[0].1, "6");
        assert_eq!(points[5].protocol, ProtocolSpec::Starved { m: 6 });
        assert_eq!(points[5].seed, 2);
    }

    #[test]
    fn unknown_sections_keys_and_axes_are_rejected() {
        let base = "[topology]\nside = 15\nr = 1\n";
        let err = ScenarioFile::parse(&format!("{base}[teleport]\nx = 1\n")).unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownKey { .. }), "{err}");
        let err = ScenarioFile::parse("[topology]\nside = 15\nr = 1\nwarp = 9\n").unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnknownKey { ref section, ref key }
                if section == "topology" && key == "warp"),
            "{err}"
        );
        let err = ScenarioFile::parse(&format!("{base}[sweep]\nwarp = [1]\n")).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
    }

    #[test]
    fn bad_sweep_ranges_are_rejected() {
        let base = "[topology]\nside = 15\nr = 1\n[sweep]\n";
        for sweep in [
            "seed = \"5..2\"\n",
            "seed = \"1..1\"\n",
            "seed = \"a..b\"\n",
            "seed = []\n",
            "seed = 3\n",
            "seed = [1.5]\n", // seed is an integer axis
            "m = [5]\n",      // m without a starved protocol
        ] {
            let err = ScenarioFile::parse(&format!("{base}{sweep}")).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{sweep:?} gave {err}"
            );
        }
    }

    #[test]
    fn inclusive_ranges_and_float_axes() {
        let f = ScenarioFile::parse(concat!(
            "engine = \"agreement\"\n",
            "[topology]\nside = 15\nr = 2\n",
            "[agreement]\nsource = \"split\"\n",
            "[sweep]\np1 = [0.0, 0.5, 1.0]\npe = \"0..=1\"\n",
        ))
        .unwrap();
        let points = f.points();
        assert_eq!(points.len(), 6);
        assert_eq!(points[4].agreement.p1, 1.0);
        assert_eq!(points[1].agreement.pe, 1.0);
    }

    #[test]
    fn engine_section_mismatches_are_rejected() {
        let base = "[topology]\nside = 15\nr = 1\n";
        for (engine, section) in [
            ("counting", "[crash]\ny0 = 5\n"),
            ("counting", "[reactive]\nk = 8\n"),
            ("slot", "[adversary]\nkind = \"oracle\"\n"),
            ("slot", "[protocol]\nkind = \"b\"\n"),
            ("crash", "[agreement]\nmode = \"cheap\"\n"),
            ("counting", "[rbc]\npayload = 64\n"),
            ("rbc", "[protocol]\nkind = \"b\"\n"),
            ("rbc", "[adversary]\nkind = \"oracle\"\n"),
        ] {
            let text = format!("engine = \"{engine}\"\n{base}{section}");
            let err = ScenarioFile::parse(&text).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn off_torus_cells_and_bad_rates_are_rejected_at_parse_time() {
        for text in [
            // Source off the torus.
            "[topology]\nside = 15\nr = 1\n[source]\nx = 99\ny = 0\n",
            // Explicit placement cell off the torus.
            "[topology]\nside = 15\nr = 1\n[placement]\nkind = \"explicit\"\nnodes = [[0, 20]]\n",
            // Explicit crash cell off the torus.
            concat!(
                "engine = \"crash\"\n[topology]\nside = 15\nr = 1\n",
                "[crash]\nkind = \"explicit\"\nnodes = [[20, 0]]\n",
            ),
            // Probe off the torus.
            "[topology]\nside = 15\nr = 1\n[probes]\nnodes = [[99, 0]]\n",
            // Bernoulli rate outside [0, 1], fixed and swept.
            "[topology]\nside = 15\nr = 1\n[placement]\nkind = \"bernoulli\"\np = 1.5\n",
            concat!(
                "[topology]\nside = 15\nr = 1\n",
                "[placement]\nkind = \"bernoulli\"\np = 0.1\n[sweep]\np = [0.1, 1.5]\n",
            ),
            // Slot payload width outside the engine's 1..=63 bound.
            "engine = \"slot\"\n[topology]\nside = 15\nr = 1\n[reactive]\nk = 100\n",
            concat!(
                "engine = \"slot\"\n[topology]\nside = 15\nr = 1\n",
                "[reactive]\nk = 8\n[sweep]\nk = [8, 100]\n",
            ),
            // Sweep axes the engine never reads.
            "[topology]\nside = 15\nr = 1\n[sweep]\np1 = [0.0, 0.5]\n",
            "[topology]\nside = 15\nr = 1\n[sweep]\nmmax = [1, 2]\n",
            "[topology]\nside = 15\nr = 1\n[sweep]\nprotocol = [\"bracha\"]\n",
            "[topology]\nside = 15\nr = 1\n[sweep]\npayload = [64, 128]\n",
            // Proven-mode t bound, fixed and reached via a t sweep.
            concat!(
                "engine = \"agreement\"\n[topology]\nside = 9\nr = 1\n[faults]\nt = 2\n",
                "[agreement]\nmode = \"proven\"\n",
            ),
            concat!(
                "engine = \"agreement\"\n[topology]\nside = 9\nr = 1\n[faults]\nt = 1\n",
                "[agreement]\nmode = \"proven\"\n[sweep]\nt = [1, 2]\n",
            ),
        ] {
            let err = ScenarioFile::parse(text).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{text:?} gave {err}"
            );
        }
    }

    #[test]
    fn crash_engine_requires_crash_section() {
        let err =
            ScenarioFile::parse("engine = \"crash\"\n[topology]\nside = 15\nr = 1\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
    }

    #[test]
    fn local_bound_violations_surface_from_point_builds() {
        let f = ScenarioFile::parse(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[placement]\nkind = \"explicit\"\nnodes = [[1, 1], [2, 1], [3, 1]]\n",
        ))
        .unwrap();
        let err = f.points()[0].build_scenario().unwrap_err();
        assert!(
            matches!(err, ScenarioError::LocalBoundViolated { .. }),
            "{err}"
        );
    }

    #[test]
    fn override_base_pins_fields_and_drops_matching_sweep_axes() {
        let parse = || {
            ScenarioFile::parse(concat!(
                "[topology]\nside = 15\nr = 1\n",
                "[protocol]\nkind = \"starved\"\nm = 1\n",
                "[sweep]\nm = [5, 6]\nseed = \"0..3\"\n",
            ))
            .unwrap()
        };
        // Overriding a swept key pins it: the m axis is dropped, the
        // seed axis survives.
        let mut f = parse();
        f.override_base("m", AxisValue::Int(9)).unwrap();
        let points = f.points();
        assert_eq!(points.len(), 3, "only the seed axis remains");
        for p in &points {
            assert_eq!(p.protocol, ProtocolSpec::Starved { m: 9 });
            assert_eq!(p.label.len(), 1, "no m label: {:?}", p.label);
        }
        // Overriding a non-swept key leaves the sweep intact.
        let mut f = parse();
        f.override_base("mf", AxisValue::Int(7)).unwrap();
        assert_eq!(f.points().len(), 6);
        assert!(f.points().iter().all(|p| p.mf == 7));
        // Unknown keys and wrong shapes are named errors.
        let mut f = parse();
        assert!(f.override_base("warp", AxisValue::Int(1)).is_err());
        assert!(f.override_base("m", AxisValue::Int(-1)).is_err());
    }

    #[test]
    fn defaults_fill_in() {
        let f = ScenarioFile::parse("[topology]\nside = 15\nr = 1\n").unwrap();
        let p = &f.points()[0];
        assert_eq!(f.name, "scenario");
        assert_eq!(p.protocol, ProtocolSpec::B);
        assert_eq!(p.adversary, AdversarySpec::Oracle);
        assert_eq!((p.t, p.mf, p.seed), (1, 1, 0));
        assert_eq!(p.placement, PlacementSpec::None);
        assert_eq!(p.rbc, RbcSpec::default());
        assert_eq!(p.rbc.protocol, RbcProtocol::Bracha);
    }

    #[test]
    fn rbc_engine_parses_with_protocol_and_payload_sweeps() {
        let f = ScenarioFile::parse(concat!(
            "engine = \"rbc\"\nseed = 7\n",
            "[topology]\nside = 15\nr = 1\n",
            "[faults]\nt = 2\n",
            "[rbc]\nprotocol = \"ctrbc\"\npayload = 4096\nmax_waves = 500\n",
            "[sweep]\nprotocol = [\"counting\", \"bracha\", \"ctrbc\"]\npayload = [64, 4096]\n",
        ))
        .unwrap();
        assert_eq!(f.engine, EngineKind::Rbc);
        let points = f.points();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].rbc.protocol, RbcProtocol::Counting);
        assert_eq!(points[0].rbc.payload, 64);
        assert_eq!(points[0].rbc.max_waves, 500);
        assert_eq!(points[5].rbc.protocol, RbcProtocol::Ctrbc);
        assert_eq!(points[5].rbc.payload, 4096);
        assert_eq!(
            points[0].label,
            vec![
                ("protocol".to_string(), "counting".to_string()),
                ("payload".to_string(), "64".to_string()),
            ]
        );
    }

    #[test]
    fn rbc_payload_bounds_are_validated_per_point() {
        let base = "engine = \"rbc\"\n[topology]\nside = 15\nr = 1\n";
        for text in [
            // Zero-width payload.
            format!("{base}[rbc]\npayload = 0\n"),
            // Above the cap.
            format!("{base}[rbc]\npayload = 2000000\n"),
            // CTRBC needs >= 2(t+1) payload bits: 4 < 6 at t = 2.
            format!("{base}[faults]\nt = 2\n[rbc]\nprotocol = \"ctrbc\"\npayload = 4\n"),
            // Same bound reached through a t sweep.
            format!(
                "{base}[faults]\nt = 1\n[rbc]\nprotocol = \"ctrbc\"\npayload = 4\n\
                 [sweep]\nt = [1, 2]\n"
            ),
            // ... or a protocol sweep over a small fixed payload.
            format!(
                "{base}[faults]\nt = 2\n[rbc]\npayload = 4\n\
                 [sweep]\nprotocol = [\"bracha\", \"ctrbc\"]\n"
            ),
            // No waves at all.
            format!("{base}[rbc]\nmax_waves = 0\n"),
            // Unknown protocol name, fixed and swept.
            format!("{base}[rbc]\nprotocol = \"gossip\"\n"),
            format!("{base}[sweep]\nprotocol = [\"gossip\"]\n"),
            // Numbers in the protocol axis, names in a numeric axis.
            format!("{base}[sweep]\nprotocol = [1, 2]\n"),
            format!("{base}[sweep]\npayload = [\"bracha\"]\n"),
        ] {
            let err = ScenarioFile::parse(&text).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{text:?} gave {err}"
            );
        }
    }
}
