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

pub use crate::fields::axis_names;
use crate::fields::{self, apply_axis, invalid, Draft};
use crate::scenario::{Scenario, ScenarioError};
use crate::scn::{self, ScnValue};
use crate::spec::{validate, EngineSpec};

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
        fields::Named::name(&self)
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
    /// The grammar's defaults on a `width`×`height` torus with radio
    /// range `r`.
    pub(crate) fn new(width: u32, height: u32, r: u32) -> PointSpec {
        PointSpec {
            width,
            height,
            r,
            t: 1,
            mf: 1,
            source: (0, 0),
            seed: 0,
            placement: PlacementSpec::None,
            protocol: ProtocolSpec::B,
            adversary: AdversarySpec::Oracle,
            crash: None,
            reactive: ReactiveSpec::default(),
            agreement: AgreementSpec::default(),
            rbc: RbcSpec::default(),
            label: Vec::new(),
        }
    }

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

/// A sweep-axis value: one value of a `[sweep]` axis array (an
/// integer, a float, or a name for the rbc `protocol`, `schedule` and
/// `behavior` axes), or a `run --set` override.
pub type AxisValue = ScnValue;

/// How a sweep point's label shows an axis value.
fn render(value: &AxisValue) -> String {
    match value {
        ScnValue::Str(s) => s.clone(),
        ScnValue::Float(f) => f.to_string(),
        ScnValue::Int(i) => i.to_string(),
        other => unreachable!("axis values are numbers or names, not {}", other.kind()),
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

/// Parses a sweep axis value list: an array of values or a range
/// string `"a..b"` (half-open) / `"a..=b"` (inclusive).
fn axis_values(name: &str, value: &ScnValue) -> Result<Vec<AxisValue>, ScenarioError> {
    let what = format!("sweep.{name}");
    let values = match value {
        ScnValue::Array(items) => items
            .iter()
            .map(|item| match item {
                ScnValue::Int(_) | ScnValue::Float(_) | ScnValue::Str(_) => Ok(item.clone()),
                ScnValue::BigInt(n) => Err(invalid(
                    &what,
                    format!("axis value {n} is above the sweepable range (i64)"),
                )),
                other => Err(invalid(
                    &what,
                    format!("axis arrays hold numbers or names, found {}", other.kind()),
                )),
            })
            .collect::<Result<Vec<_>, _>>()?,
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
            (lo..hi).map(ScnValue::Int).collect()
        }
        other => {
            return Err(invalid(
                &what,
                format!(
                    "expected an array of values or a range string, found {}",
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
        let mut file = Draft::new("scenario");
        fields::decode_scn(&doc, &mut file, "sweep")?;
        let mut file = ScenarioFile {
            name: file.name,
            engine: file.engine,
            probes: file.probes,
            base: file.point,
            sweep: Vec::new(),
        };
        file.check(&file.base)?;
        // Every axis value is validated against the base now, so a bad
        // axis fails at parse time, not mid-batch.
        for (key, value, _) in doc.section("sweep").map_or(&[][..], |s| &s.entries) {
            let values = axis_values(key, value)?;
            for v in &values {
                file.check(&file.apply(file.base.clone(), key, v)?)?;
            }
            file.sweep.push(Axis {
                name: key.clone(),
                values,
            });
        }
        Ok(file)
    }

    /// Applies one axis value to `point`.
    fn apply(
        &self,
        point: PointSpec,
        axis: &str,
        value: &AxisValue,
    ) -> Result<PointSpec, ScenarioError> {
        let mut d = Draft::of(self.engine, point, "");
        apply_axis(&mut d, axis, value)?;
        Ok(d.point)
    }

    /// Validates one resolved point of this file.
    fn check(&self, point: &PointSpec) -> Result<(), ScenarioError> {
        validate(&self.name, self.engine, point, &self.probes)
    }

    /// The base configuration (sweep overrides not applied).
    pub fn base(&self) -> &PointSpec {
        &self.base
    }

    /// Wraps one validated [`EngineSpec`] as a single-point scenario
    /// file — the adapter that lets every `ScenarioFile` consumer (the
    /// batch runner, the server job queue) run a spec submitted as JSON
    /// through exactly the same code path (and therefore exactly the
    /// same store keys) as `.scn` text.
    pub fn from_spec(spec: &EngineSpec) -> ScenarioFile {
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

    /// Expands the file into one validated [`EngineSpec`] per sweep
    /// point (the sweep labels are presentation and are dropped — a
    /// spec's identity is its cache key).
    ///
    /// # Errors
    ///
    /// None in practice for parse-produced files (everything was
    /// validated at parse time); hand-mutated files surface the usual
    /// [`ScenarioError`]s.
    pub fn specs(&self) -> Result<Vec<EngineSpec>, ScenarioError> {
        self.points()
            .into_iter()
            .map(|point| {
                EngineSpec::from_parts(self.name.clone(), self.engine, point, self.probes.clone())
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
    /// [`ScenarioError::Invalid`] for an unknown axis, an axis that
    /// does not apply to the engine, a value of the wrong shape, or an
    /// override that makes the base or any sweep point invalid.
    pub fn override_base(&mut self, key: &str, value: AxisValue) -> Result<(), ScenarioError> {
        let base = self.apply(self.base.clone(), key, &value)?;
        self.check(&base)?;
        for axis in self.sweep.iter().filter(|axis| axis.name != key) {
            for v in &axis.values {
                self.check(&self.apply(base.clone(), &axis.name, v)?)?;
            }
        }
        self.base = base;
        self.sweep.retain(|axis| axis.name != key);
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
            let mut d = Draft::of(self.engine, self.base.clone(), "");
            for (axis, &i) in self.sweep.iter().zip(&indices) {
                let v = &axis.values[i];
                apply_axis(&mut d, &axis.name, v).expect("validated at parse time");
                d.point.label.push((axis.name.clone(), render(v)));
            }
            out.push(d.point);
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
