//! The field table: every spec field listed once, driving both
//! decoders, all three encoders and the sweep-axis vocabulary.
//!
//! [`TABLE`] holds one [`Entry`] per field of an
//! [`EngineSpec`](crate::spec::EngineSpec) — a scalar row, or a nested
//! record with a table of its own. Each row carries its name, a getter
//! and a setter generated from one place expression by [`row!`], and
//! the facts that differ between the forms:
//!
//! * **Order.** Every level lists its entries in ascending name order,
//!   the order [`CanonWriter`] requires. All three sinks stream in that
//!   order, so the cache key is written with no allocation per field.
//! * **Forms.** A row appears in the cache key, the JSON form and the
//!   `.scn` form unless it is restricted ([`Entry::only`]): the display
//!   `name` never reaches the key, the JSON `version` is JSON-only, and
//!   the key's `budget_set` flag is key-only.
//! * **`.scn` spelling.** JSON and the key nest records and keep the
//!   top level flat (`width`, `t`, `source_x`, …). A `.scn` document
//!   keeps each top-level record in its own `[section]`, flattens
//!   records nested deeper into their parent's section, and places
//!   top-level scalars where [`Entry::scn`] says (`[topology] width`,
//!   `[source] x`, `[adversary] kind`, …).
//! * **Engines.** An entry that applies to some engines only is omitted
//!   from JSON and `.scn` on the others, and rejected there when a
//!   document spells it ([`off_default`] holds specs built in code to
//!   its default). The key writes every entry.
//! * **Variants.** A record holding an enum (`placement`, `protocol`,
//!   the crash `nodes` and `behavior`) has a tag row (`kind`) that picks
//!   the variant; the other rows of the record belong to one variant
//!   each. A document that omits the tag gets the first variant that
//!   every field it gives belongs to (`after = 3` alone means
//!   `after_copies`).
//!
//! Adding a field is one row here. Adding a sweep axis is one row
//! flagged [`Entry::axis`]: the `[sweep]` grammar, `run --set`, the
//! help text and the "known axes" error all read the axis list from
//! the table.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::OnceLock;

use bftbcast_rbc::{ByzantineBehavior, RbcProtocol, ScheduleKind};
use bftbcast_sim::crash::CrashBehavior;
use bftbcast_sim::engine::AgreementMode;
use bftbcast_sim::slot::ReactiveAdversary;
use bftbcast_store::CanonWriter;

use crate::cache::CACHE_SCHEMA_VERSION;
use crate::json::{Json, Object};
use crate::scenario::ScenarioError;
use crate::scenario_file::{
    AdversarySpec, CrashNodesSpec, CrashSpec, EngineKind, PlacementSpec, PointSpec, ProtocolSpec,
    SourceSpec,
};
use crate::scn::{ScnDoc, ScnSection, ScnValue};

pub(crate) fn invalid(what: &str, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid {
        what: what.to_string(),
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------

/// An enum spelled by a canonical name in every form.
pub(crate) trait Named: Clone + 'static {
    /// Every variant in grammar order, each holding its payload's
    /// defaults. The first is the default.
    const ALL: &'static [Self];
    /// The variant's canonical name.
    fn name(&self) -> &'static str;
}

/// Switches `place` to the `i`-th variant; `false` past the last.
fn variant<E: Named>(place: &mut E, i: usize) -> bool {
    E::ALL.get(i).map(|v| *place = v.clone()).is_some()
}

/// Implements [`Named`]: either from `"name" => variant` pairs, or
/// from a type's own `ALL` list and `name()`.
macro_rules! named {
    ($ty:ident { $($name:literal => $variant:expr),+ $(,)? }) => {
        impl Named for $ty {
            const ALL: &'static [Self] = &[$($variant),+];
            fn name(&self) -> &'static str {
                let same = |v: &Self| std::mem::discriminant(v) == std::mem::discriminant(self);
                [$($name),+][Self::ALL.iter().position(same).expect("ALL lists every variant")]
            }
        }
    };
    ($ty:ident: $all:expr) => {
        impl Named for $ty {
            const ALL: &'static [Self] = $all;
            fn name(&self) -> &'static str {
                $ty::name(*self)
            }
        }
    };
}

named!(EngineKind {
    "counting" => EngineKind::Counting,
    "crash" => EngineKind::Crash,
    "slot" => EngineKind::Slot,
    "agreement" => EngineKind::Agreement,
    "rbc" => EngineKind::Rbc,
});
named!(PlacementSpec {
    "none" => PlacementSpec::None,
    "lattice" => PlacementSpec::Lattice { offset: 1 },
    "stripes" => PlacementSpec::Stripes(Vec::new()),
    "random" => PlacementSpec::Random { count: 0 },
    "bernoulli" => PlacementSpec::Bernoulli { p: 0.0 },
    "explicit" => PlacementSpec::Explicit(Vec::new()),
});
named!(ProtocolSpec {
    "b" => ProtocolSpec::B,
    "koo" => ProtocolSpec::Koo,
    "heter" => ProtocolSpec::Heter,
    "starved" => ProtocolSpec::Starved { m: 0 },
    "majority" => ProtocolSpec::Majority { quorum: 0 },
    "crash_only" => ProtocolSpec::CrashOnly,
});
named!(AdversarySpec {
    "oracle" => AdversarySpec::Oracle,
    "greedy" => AdversarySpec::Greedy,
    "chaos" => AdversarySpec::Chaos,
    "passive" => AdversarySpec::Passive,
});
named!(CrashNodesSpec {
    "stripe" => CrashNodesSpec::Stripe { y0: 0, height: 1 },
    "explicit" => CrashNodesSpec::Explicit(Vec::new()),
});
named!(CrashBehavior {
    "immediate" => CrashBehavior::Immediate,
    "after_quota" => CrashBehavior::AfterQuota,
    "after_copies" => CrashBehavior::AfterCopies(0),
});
named!(ReactiveAdversary {
    "passive" => ReactiveAdversary::Passive,
    "jammer" => ReactiveAdversary::Jammer,
    "canceller" => ReactiveAdversary::Canceller,
    "nack_forger" => ReactiveAdversary::NackForger,
    "witness_forger" => ReactiveAdversary::WitnessForger,
    "mixed" => ReactiveAdversary::Mixed,
});
named!(AgreementMode {
    "cheap" => AgreementMode::Cheap,
    "proven" => AgreementMode::Proven,
});
named!(SourceSpec {
    "correct" => SourceSpec::Correct,
    "split" => SourceSpec::Split,
    "silent" => SourceSpec::Silent,
});
named!(RbcProtocol: &[RbcProtocol::Counting, RbcProtocol::Bracha, RbcProtocol::Ctrbc]);
named!(ScheduleKind: &ScheduleKind::ALL);
named!(ByzantineBehavior: &ByzantineBehavior::ALL);

// ---------------------------------------------------------------------
// Values in and out
// ---------------------------------------------------------------------

/// A field value on its way out: what every sink writes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Out<'a> {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
    /// An optional integer: `null` in JSON, absent in `.scn`.
    Opt(Option<u64>),
    Cells(&'a [(u32, u32)]),
    Stripes(&'a [(u32, u32, bool)]),
}

trait Put {
    fn out(&self) -> Out<'_>;
}

impl Put for u64 {
    fn out(&self) -> Out<'_> {
        Out::U64(*self)
    }
}

impl Put for u32 {
    fn out(&self) -> Out<'_> {
        Out::U64(u64::from(*self))
    }
}

impl Put for usize {
    fn out(&self) -> Out<'_> {
        Out::U64(*self as u64)
    }
}

impl Put for f64 {
    fn out(&self) -> Out<'_> {
        Out::F64(*self)
    }
}

impl Put for Option<u64> {
    fn out(&self) -> Out<'_> {
        Out::Opt(*self)
    }
}

impl Put for str {
    fn out(&self) -> Out<'_> {
        Out::Str(self)
    }
}

impl Put for [(u32, u32)] {
    fn out(&self) -> Out<'_> {
        Out::Cells(self)
    }
}

impl Put for [(u32, u32, bool)] {
    fn out(&self) -> Out<'_> {
        Out::Stripes(self)
    }
}

impl<E: Named> Put for E {
    fn out(&self) -> Out<'_> {
        Out::Str(self.name())
    }
}

/// A field value on its way in: one value of a `.scn` or JSON document,
/// or a sweep-axis value.
pub(crate) trait Raw {
    /// The value's type, for error messages.
    fn kind(&self) -> &'static str;
    fn u64(&self) -> Option<u64> {
        None
    }
    fn f64(&self) -> Option<f64> {
        None
    }
    fn str(&self) -> Option<&str> {
        None
    }
    fn bool(&self) -> Option<bool> {
        None
    }
    fn is_null(&self) -> bool {
        false
    }
    fn items(&self) -> Option<Vec<&dyn Raw>> {
        None
    }
}

impl Raw for ScnValue {
    fn kind(&self) -> &'static str {
        ScnValue::kind(self)
    }
    fn u64(&self) -> Option<u64> {
        match *self {
            ScnValue::Int(i) => u64::try_from(i).ok(),
            ScnValue::BigInt(n) => Some(n),
            _ => None,
        }
    }
    fn f64(&self) -> Option<f64> {
        match *self {
            ScnValue::Float(f) => Some(f),
            ScnValue::Int(i) => Some(i as f64),
            _ => None,
        }
    }
    fn str(&self) -> Option<&str> {
        match self {
            ScnValue::Str(s) => Some(s),
            _ => None,
        }
    }
    fn bool(&self) -> Option<bool> {
        match *self {
            ScnValue::Bool(b) => Some(b),
            _ => None,
        }
    }
    fn items(&self) -> Option<Vec<&dyn Raw>> {
        match self {
            ScnValue::Array(items) => Some(items.iter().map(|v| v as &dyn Raw).collect()),
            _ => None,
        }
    }
}

impl Raw for Json {
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
    fn u64(&self) -> Option<u64> {
        self.as_u64()
    }
    fn f64(&self) -> Option<f64> {
        self.as_f64()
    }
    fn str(&self) -> Option<&str> {
        self.as_str()
    }
    fn bool(&self) -> Option<bool> {
        self.as_bool()
    }
    fn is_null(&self) -> bool {
        *self == Json::Null
    }
    fn items(&self) -> Option<Vec<&dyn Raw>> {
        self.as_array()
            .map(|items| items.iter().map(|v| v as &dyn Raw).collect())
    }
}

/// Typed reading of a [`Raw`] value; the error says what was expected.
trait Take: Sized {
    fn take(v: &dyn Raw) -> Result<Self, String>;
}

fn expected(what: &str, v: &dyn Raw) -> String {
    format!("expected {what}, found {}", v.kind())
}

fn u32_of(v: &dyn Raw) -> Option<u32> {
    v.u64().and_then(|n| u32::try_from(n).ok())
}

/// Reads an array of fixed-shape arrays, one `T` per item.
fn tuples<T>(
    v: &dyn Raw,
    shape: &str,
    item: impl Fn(&[&dyn Raw]) -> Option<T>,
) -> Result<Vec<T>, String> {
    v.items()
        .and_then(|items| {
            items
                .iter()
                .map(|i| i.items().and_then(|t| item(&t)))
                .collect()
        })
        .ok_or_else(|| format!("expected {shape}"))
}

impl Take for u64 {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        v.u64().ok_or_else(|| expected("a non-negative integer", v))
    }
}

impl Take for u32 {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        u32_of(v).ok_or_else(|| expected("a non-negative 32-bit integer", v))
    }
}

impl Take for usize {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        v.u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| expected("a non-negative integer", v))
    }
}

impl Take for f64 {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        v.f64().ok_or_else(|| expected("a number", v))
    }
}

impl Take for Option<u64> {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        if v.is_null() {
            Ok(None)
        } else {
            u64::take(v).map(Some)
        }
    }
}

impl Take for String {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        v.str()
            .map(str::to_string)
            .ok_or_else(|| expected("a string", v))
    }
}

impl Take for Vec<(u32, u32)> {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        tuples(v, "an array of [x, y] cells", |t| match t {
            [x, y] => Some((u32_of(*x)?, u32_of(*y)?)),
            _ => None,
        })
    }
}

impl Take for Vec<(u32, u32, bool)> {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        tuples(v, "an array of [y0, t, above] stripes", |s| match s {
            [y0, t, above] => Some((u32_of(*y0)?, u32_of(*t)?, above.bool()?)),
            _ => None,
        })
    }
}

impl<E: Named> Take for E {
    fn take(v: &dyn Raw) -> Result<Self, String> {
        let name = v.str().ok_or_else(|| expected("a name", v))?;
        E::ALL
            .iter()
            .find(|e| e.name() == name)
            .cloned()
            .ok_or_else(|| {
                let names: Vec<&str> = E::ALL.iter().map(Named::name).collect();
                format!("unknown name {name:?} ({})", names.join("|"))
            })
    }
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

/// A spec's parts as the encoders read them.
pub(crate) struct Doc<'a> {
    pub name: &'a str,
    pub engine: EngineKind,
    pub point: &'a PointSpec,
    pub probes: &'a [(u32, u32)],
}

/// A spec's parts as the decoders and the sweep axes write them.
pub(crate) struct Draft {
    pub name: String,
    pub engine: EngineKind,
    pub point: PointSpec,
    pub probes: Vec<(u32, u32)>,
}

impl Draft {
    /// The grammar's defaults, named `name`; the torus is left for the
    /// document to give.
    pub fn new(name: &str) -> Draft {
        Draft::of(EngineKind::Counting, PointSpec::new(0, 0, 0), name)
    }

    pub fn of(engine: EngineKind, point: PointSpec, name: &str) -> Draft {
        Draft {
            name: name.to_string(),
            engine,
            point,
            probes: Vec::new(),
        }
    }

    fn doc(&self) -> Doc<'_> {
        Doc {
            name: &self.name,
            engine: self.engine,
            point: &self.point,
            probes: &self.probes,
        }
    }
}

type Get = for<'a> fn(&'a Doc<'a>) -> Option<Out<'a>>;
/// Whether an optional record is in the spec, and how to create it.
type Optional = (fn(&Doc) -> bool, fn(&mut Draft));
/// `None` when the field does not belong to the current variant.
type Set = fn(&mut Draft, &dyn Raw) -> Option<Result<(), String>>;

/// Forms an entry appears in.
const KEY: u8 = 1;
const JSON: u8 = 2;
const SCN: u8 = 4;
/// Other flags.
const REQUIRED: u8 = 8;
const AXIS: u8 = 16;
const TAG: u8 = 32;

const fn engine_bit(engine: EngineKind) -> u8 {
    1 << engine as u8
}

const EVERY_ENGINE: u8 = 0xff;

/// One field (or nested record) of the table — see the module docs.
pub(crate) struct Entry {
    name: &'static str,
    body: Body,
    /// Tags only: switches the record's enum to its `i`-th variant.
    variant: Option<fn(&mut Draft, usize) -> bool>,
    /// Optional records only: whether the spec has the record, and how
    /// a document that spells it creates it.
    optional: Option<Optional>,
    /// Entries that apply to some engines only: whether two points hold
    /// the same value.
    same: Option<fn(&PointSpec, &PointSpec) -> bool>,
    /// `.scn` spelling: section and key, when they differ from the
    /// record's section and the entry's name.
    scn_section: Option<&'static str>,
    scn_key: Option<&'static str>,
    /// A `.scn` key read in place of this one when it is absent.
    scn_alias: Option<&'static str>,
    engines: u8,
    flags: u8,
}

enum Body {
    Field { get: Get, set: Set },
    Record(&'static [Entry]),
}

impl Entry {
    const fn new(name: &'static str, body: Body) -> Entry {
        Entry {
            name,
            body,
            variant: None,
            optional: None,
            same: None,
            scn_section: None,
            scn_key: None,
            scn_alias: None,
            engines: EVERY_ENGINE,
            flags: KEY | JSON | SCN,
        }
    }

    const fn field(name: &'static str, get: Get, set: Set) -> Entry {
        Entry::new(name, Body::Field { get, set })
    }

    const fn record(name: &'static str, entries: &'static [Entry]) -> Entry {
        Entry::new(name, Body::Record(entries))
    }

    /// Decoded before the other fields of its level: the engine, or a
    /// variant tag.
    const fn first(mut self) -> Entry {
        self.flags |= TAG;
        self
    }

    const fn tag(mut self, variant: fn(&mut Draft, usize) -> bool) -> Entry {
        self.variant = Some(variant);
        self.first()
    }

    const fn optional(mut self, has: fn(&Doc) -> bool, create: fn(&mut Draft)) -> Entry {
        self.optional = Some((has, create));
        self
    }

    /// Where a field sits in a `.scn` document, when that is not its
    /// name in its record's section.
    const fn scn(mut self, section: &'static str, key: &'static str) -> Entry {
        self.scn_section = Some(section);
        self.scn_key = Some(key);
        self
    }

    const fn scn_alias(mut self, key: &'static str) -> Entry {
        self.scn_alias = Some(key);
        self
    }

    /// The engines this entry applies to; off them it must hold its
    /// default, which `same` compares.
    const fn on(
        mut self,
        engines: &[EngineKind],
        same: fn(&PointSpec, &PointSpec) -> bool,
    ) -> Entry {
        let mut mask = 0;
        let mut i = 0;
        while i < engines.len() {
            mask |= engine_bit(engines[i]);
            i += 1;
        }
        self.engines = mask;
        self.same = Some(same);
        self
    }

    const fn only(mut self, forms: u8) -> Entry {
        self.flags = (self.flags & !(KEY | JSON | SCN)) | forms;
        self
    }

    const fn required(mut self) -> Entry {
        self.flags |= REQUIRED;
        self
    }

    const fn axis(mut self) -> Entry {
        self.flags |= AXIS;
        self
    }

    fn applies(&self, engine: EngineKind) -> bool {
        self.engines & engine_bit(engine) != 0
    }

    /// The `.scn` `(section, key)` of this entry inside a record that
    /// maps to `section`.
    fn scn_at(&self, section: &'static str) -> (&'static str, &'static str) {
        (
            self.scn_section.unwrap_or(section),
            self.scn_key.unwrap_or(self.name),
        )
    }

    /// The `.scn` section of this record, nested in one mapping to
    /// `section`: top-level records get their own, deeper ones flatten.
    fn scn_section_in(&self, section: &'static str) -> &'static str {
        if section.is_empty() {
            self.name
        } else {
            section
        }
    }

    /// Whether this field belongs to the variant `d` holds.
    fn belongs(&self, d: &Draft) -> bool {
        matches!(&self.body, Body::Field { get, .. } if get(&d.doc()).is_some())
    }
}

/// A field row from one place expression: `row!(NAME, PATH)` for a
/// plain field, `row!(NAME, PATH, PATTERN => BINDING)` for a field
/// reached by matching `PATH` (an enum variant's payload).
/// `tag!` takes the same forms for a variant tag.
macro_rules! row {
    ($name:literal, $($p:tt).+) => {
        Entry::field(
            $name,
            |c| Some(c.$($p).+.out()),
            |d, v| Some(Take::take(v).map(|x| d.$($p).+ = x)),
        )
    };
    ($name:literal, $($p:tt).+, $pat:pat => $x:ident) => {
        Entry::field(
            $name,
            |c| match &c.$($p).+ { $pat => Some($x.out()), _ => None },
            |d, v| match &mut d.$($p).+ { $pat => Some(Take::take(v).map(|y| *$x = y)), _ => None },
        )
    };
}

macro_rules! tag {
    ($name:literal, $($p:tt).+) => {
        row!($name, $($p).+).tag(|d, i| variant(&mut d.$($p).+, i))
    };
    ($name:literal, $($p:tt).+, $pat:pat => $x:ident) => {
        row!($name, $($p).+, $pat => $x)
            .tag(|d, i| match &mut d.$($p).+ { $pat => variant($x, i), _ => false })
    };
}

use EngineKind::{Agreement, Counting, Crash, Rbc, Slot};

/// Every spec field — see the module docs. Each level is in ascending
/// name order.
pub(crate) static TABLE: &[Entry] = &[
    row!("adversary", point.adversary).scn("adversary", "kind").on(&[Counting], |a, b| a.adversary == b.adversary),
    Entry::record("agreement", &[
        row!("mode", point.agreement.mode),
        row!("p1", point.agreement.p1).axis(),
        row!("pe", point.agreement.pe).axis(),
        row!("source", point.agreement.source),
    ]).on(&[Agreement], |a, b| a.agreement == b.agreement),
    Entry::record("crash", &[
        Entry::record("behavior", &[
            row!("after", point.crash, Some(CrashSpec { behavior: CrashBehavior::AfterCopies(n), .. }) => n).required(),
            tag!("kind", point.crash, Some(CrashSpec { behavior, .. }) => behavior).scn("crash", "behavior"),
        ]),
        Entry::record("nodes", &[
            row!("height", point.crash, Some(CrashSpec { nodes: CrashNodesSpec::Stripe { height, .. }, .. }) => height),
            tag!("kind", point.crash, Some(CrashSpec { nodes, .. }) => nodes),
            row!("nodes", point.crash, Some(CrashSpec { nodes: CrashNodesSpec::Explicit(cells), .. }) => cells).required(),
            row!("y0", point.crash, Some(CrashSpec { nodes: CrashNodesSpec::Stripe { y0, .. }, .. }) => y0).required(),
        ]),
    ])
    .on(&[Crash], |a, b| a.crash == b.crash)
    .optional(|c| c.point.crash.is_some(), |d| {
        d.point.crash = Some(CrashSpec {
            nodes: CrashNodesSpec::ALL[0].clone(),
            behavior: CrashBehavior::ALL[0],
        });
    }),
    row!("engine", engine).first(),
    row!("height", point.height).scn("topology", "height").scn_alias("side").required(),
    row!("mf", point.mf).scn("faults", "mf").axis(),
    row!("name", name).only(JSON | SCN),
    Entry::record("placement", &[
        row!("count", point.placement, PlacementSpec::Random { count } => count).required().axis(),
        tag!("kind", point.placement),
        row!("nodes", point.placement, PlacementSpec::Explicit(cells) => cells).required(),
        row!("offset", point.placement, PlacementSpec::Lattice { offset } => offset),
        row!("p", point.placement, PlacementSpec::Bernoulli { p } => p).required().axis(),
        row!("stripes", point.placement, PlacementSpec::Stripes(stripes) => stripes).required(),
    ]),
    row!("probes", probes).scn("probes", "nodes"),
    Entry::record("protocol", &[
        tag!("kind", point.protocol),
        row!("m", point.protocol, ProtocolSpec::Starved { m } => m).required().axis(),
        row!("quorum", point.protocol, ProtocolSpec::Majority { quorum } => quorum).required().axis(),
    ]).on(&[Counting, Crash], |a, b| a.protocol == b.protocol),
    row!("r", point.r).scn("topology", "r").required(),
    Entry::record("rbc", &[
        row!("behavior", point.rbc.behavior).axis(),
        row!("max_waves", point.rbc.max_waves),
        row!("payload", point.rbc.payload).axis(),
        row!("protocol", point.rbc.protocol).axis(),
        row!("schedule", point.rbc.schedule).axis(),
    ]).on(&[Rbc], |a, b| a.rbc == b.rbc),
    Entry::record("reactive", &[
        row!("adversary", point.reactive.adversary),
        row!("budget", point.reactive.budget),
        Entry::field("budget_set", |c| Some(Out::Bool(c.point.reactive.budget.is_some())), |_, _| None).only(KEY),
        row!("k", point.reactive.k).axis(),
        row!("max_rounds", point.reactive.max_rounds),
        row!("mmax", point.reactive.mmax).axis(),
    ]).on(&[Slot], |a, b| a.reactive == b.reactive),
    row!("seed", point.seed).axis(),
    row!("source_x", point.source.0).scn("source", "x"),
    row!("source_y", point.source.1).scn("source", "y"),
    row!("t", point.t).scn("faults", "t").axis(),
    Entry::field("version", |_| Some(Out::U64(u64::from(CACHE_SCHEMA_VERSION))), |_, v| Some(version(v))).only(JSON),
    row!("width", point.width).scn("topology", "width").scn_alias("side").required(),
];

fn version(v: &dyn Raw) -> Result<(), String> {
    match u64::take(v)? {
        n if n == u64::from(CACHE_SCHEMA_VERSION) => Ok(()),
        n => Err(format!(
            "unsupported spec version {n} (this build speaks {CACHE_SCHEMA_VERSION})"
        )),
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Where an encoder writes: the cache key, JSON or `.scn` text.
pub(crate) trait Sink: Sized {
    /// The form this sink writes ([`KEY`], [`JSON`] or [`SCN`]).
    const FORM: u8;
    fn field(&mut self, e: &Entry, v: Out<'_>);
    fn record(&mut self, e: &Entry, body: impl FnOnce(&mut Self));
}

/// The first top-level entry that does not apply to the engine but
/// holds other than its default value.
pub(crate) fn off_default(engine: EngineKind, point: &PointSpec) -> Option<&'static str> {
    static DEFAULT: OnceLock<PointSpec> = OnceLock::new();
    let default = DEFAULT.get_or_init(|| PointSpec::new(0, 0, 0));
    TABLE
        .iter()
        .find(|e| !e.applies(engine) && e.same.is_some_and(|same| !same(point, default)))
        .map(|e| e.name)
}

/// Streams `doc` into `sink`, level by level in table order. The key
/// writes every entry; JSON and `.scn` skip the ones that do not apply
/// to the engine.
pub(crate) fn encode<S: Sink>(level: &[Entry], doc: &Doc, sink: &mut S) {
    for e in level {
        if e.flags & S::FORM == 0 || (S::FORM != KEY && !e.applies(doc.engine)) {
            continue;
        }
        match &e.body {
            Body::Field { get, .. } => {
                if let Some(v) = get(doc) {
                    sink.field(e, v);
                }
            }
            Body::Record(entries) => {
                if e.optional.is_none_or(|(has, _)| has(doc)) {
                    sink.record(e, |s| encode(entries, doc, s));
                }
            }
        }
    }
}

impl Sink for CanonWriter {
    const FORM: u8 = KEY;

    fn field(&mut self, e: &Entry, v: Out<'_>) {
        const V: u16 = CACHE_SCHEMA_VERSION;
        let name = e.name;
        match v {
            Out::U64(n) => self.u64(name, n),
            Out::F64(x) => self.f64(name, x),
            Out::Bool(b) => self.bool(name, b),
            Out::Str(s) => self.str(name, s),
            Out::Opt(n) => self.u64(name, n.unwrap_or(u64::MAX)),
            Out::Cells(cells) => self.list(name, V, cells, |w, &(x, y)| {
                w.u64("x", u64::from(x)).u64("y", u64::from(y));
            }),
            Out::Stripes(stripes) => self.list(name, V, stripes, |w, &(y0, t, above)| {
                w.bool("above", above)
                    .u64("t", u64::from(t))
                    .u64("y0", u64::from(y0));
            }),
        };
    }

    fn record(&mut self, e: &Entry, body: impl FnOnce(&mut Self)) {
        CanonWriter::record(self, e.name, CACHE_SCHEMA_VERSION, body);
    }
}

/// A list of cells or stripes as nested arrays, `sep` between items.
fn list_text(v: Out<'_>, sep: &str) -> String {
    let items: Vec<String> = match v {
        Out::Cells(cells) => cells
            .iter()
            .map(|&(x, y)| format!("[{x}{sep}{y}]"))
            .collect(),
        Out::Stripes(stripes) => stripes
            .iter()
            .map(|&(y0, t, a)| format!("[{y0}{sep}{t}{sep}{a}]"))
            .collect(),
        _ => unreachable!("only lists are written as arrays"),
    };
    format!("[{}]", items.join(sep))
}

impl Sink for Object {
    const FORM: u8 = JSON;

    fn field(&mut self, e: &Entry, v: Out<'_>) {
        let o = std::mem::take(self);
        let name = e.name;
        *self = match v {
            Out::U64(n) | Out::Opt(Some(n)) => o.u64(name, n),
            Out::F64(x) => o.f64(name, x),
            Out::Bool(b) => o.bool(name, b),
            Out::Str(s) => o.str(name, s),
            Out::Opt(None) => o.raw(name, "null"),
            Out::Cells(_) | Out::Stripes(_) => o.raw(name, list_text(v, ",")),
        };
    }

    fn record(&mut self, e: &Entry, body: impl FnOnce(&mut Self)) {
        *self = std::mem::take(self).object(e.name, |mut o| {
            body(&mut o);
            o
        });
    }
}

/// `.scn` text, one buffer per section in first-use order (the top
/// level first).
struct ScnText {
    sections: Vec<(&'static str, String)>,
    at: &'static str,
}

/// Quotes a string as a `.scn` literal.
fn scn_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Sink for ScnText {
    const FORM: u8 = SCN;

    fn field(&mut self, e: &Entry, v: Out<'_>) {
        let text = match v {
            Out::U64(n) | Out::Opt(Some(n)) => n.to_string(),
            Out::F64(x) => x.to_string(),
            Out::Str(s) => scn_string(s),
            Out::Opt(None) | Out::Bool(_) => return,
            Out::Cells(_) | Out::Stripes(_) => list_text(v, ", "),
        };
        let (section, key) = e.scn_at(self.at);
        let i = match self.sections.iter().position(|(s, _)| *s == section) {
            Some(i) => i,
            None => {
                self.sections.push((section, String::new()));
                self.sections.len() - 1
            }
        };
        let _ = writeln!(self.sections[i].1, "{key} = {text}");
    }

    fn record(&mut self, e: &Entry, body: impl FnOnce(&mut Self)) {
        let outer = self.at;
        self.at = e.scn_section_in(outer);
        body(self);
        self.at = outer;
    }
}

/// The canonical cache key of `doc`.
pub(crate) fn key(doc: &Doc) -> u64 {
    let mut w = CanonWriter::new(CACHE_SCHEMA_VERSION);
    encode(TABLE, doc, &mut w);
    w.content_hash()
}

/// `doc` as one line of canonical JSON.
pub(crate) fn to_json(doc: &Doc) -> String {
    let mut o = Object::new();
    encode(TABLE, doc, &mut o);
    o.finish()
}

/// `doc` as a canonical, sweep-free `.scn` document.
pub(crate) fn to_scn(doc: &Doc) -> String {
    let mut text = ScnText {
        sections: vec![("", String::new())],
        at: "",
    };
    encode(TABLE, doc, &mut text);
    let mut out = String::new();
    for (name, body) in text.sections {
        if !name.is_empty() {
            let _ = writeln!(out, "\n[{name}]");
        }
        out.push_str(&body);
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// One level of a document being decoded: a JSON object, or the `.scn`
/// section a record maps to.
trait Reader: Sized {
    /// The form this reader decodes ([`JSON`] or [`SCN`]).
    const FORM: u8;
    /// The value the document gives for `e`, if any.
    fn get(&self, e: &Entry) -> Result<Option<&dyn Raw>, ScenarioError>;
    /// The level of the nested record `e`, and whether the document
    /// spells it.
    fn record(&self, e: &Entry) -> Result<(Self, bool), ScenarioError>;
    /// How errors name `e`.
    fn path(&self, e: &Entry) -> String;
    /// Rejects keys at this level that no entry of `level` claims. A
    /// `.scn` section holds fields of several levels, so [`decode_scn`]
    /// checks whole sections instead.
    fn check_keys(&self, _level: &[Entry]) -> Result<(), ScenarioError> {
        Ok(())
    }
}

struct JsonLevel<'a> {
    fields: &'a [(String, Json)],
    prefix: String,
}

impl<'a> JsonLevel<'a> {
    fn find(&self, name: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

impl Reader for JsonLevel<'_> {
    const FORM: u8 = JSON;

    fn get(&self, e: &Entry) -> Result<Option<&dyn Raw>, ScenarioError> {
        Ok(self.find(e.name).map(|v| v as &dyn Raw))
    }

    fn record(&self, e: &Entry) -> Result<(Self, bool), ScenarioError> {
        let fields = match self.find(e.name) {
            None => &[][..],
            Some(Json::Obj(fields)) => fields,
            Some(other) => return Err(invalid(&self.path(e), expected("a JSON object", other))),
        };
        let prefix = format!("{}.", self.path(e));
        Ok((JsonLevel { fields, prefix }, self.find(e.name).is_some()))
    }

    fn path(&self, e: &Entry) -> String {
        format!("{}{}", self.prefix, e.name)
    }

    fn check_keys(&self, level: &[Entry]) -> Result<(), ScenarioError> {
        for (key, _) in self.fields {
            if !level.iter().any(|e| e.flags & JSON != 0 && e.name == key) {
                return Err(ScenarioError::UnknownKey {
                    section: match self.prefix.strip_suffix('.') {
                        Some(record) => record.to_string(),
                        None => "spec".to_string(),
                    },
                    key: key.clone(),
                });
            }
        }
        Ok(())
    }
}

struct ScnLevel<'a> {
    doc: &'a ScnDoc,
    /// The section this level's record maps to, with its index.
    section: &'static str,
    here: Option<(usize, &'a ScnSection)>,
    /// Per document section, a bit for each key read so far.
    read: &'a [Cell<u64>],
}

impl<'a> ScnLevel<'a> {
    fn new(doc: &'a ScnDoc, section: &'static str, read: &'a [Cell<u64>]) -> Self {
        let here = ScnLevel::find(doc, section);
        ScnLevel {
            doc,
            section,
            here,
            read,
        }
    }

    fn find(doc: &'a ScnDoc, section: &str) -> Option<(usize, &'a ScnSection)> {
        doc.sections
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == section)
    }
}

impl Reader for ScnLevel<'_> {
    const FORM: u8 = SCN;

    fn get(&self, e: &Entry) -> Result<Option<&dyn Raw>, ScenarioError> {
        let (section, key) = e.scn_at(self.section);
        let here = match e.scn_section {
            Some(section) => ScnLevel::find(self.doc, section),
            None => self.here,
        };
        let Some((at, s)) = here else {
            return Ok(None);
        };
        let read = |key: &str| {
            let i = s.entries.iter().position(|(k, _, _)| k == key)?;
            let bit = 1u64.checked_shl(i as u32).unwrap_or(0);
            self.read[at].set(self.read[at].get() | bit);
            Some(&s.entries[i].1)
        };
        match (read(key), e.scn_alias.and_then(|a| Some((a, read(a)?)))) {
            (Some(_), Some((alias, _))) => Err(invalid(
                section,
                format!("give either {alias} or {key}, not both"),
            )),
            (value, alias) => Ok(value.or(alias.map(|(_, v)| v)).map(|v| v as &dyn Raw)),
        }
    }

    fn record(&self, e: &Entry) -> Result<(Self, bool), ScenarioError> {
        let level = ScnLevel::new(self.doc, e.scn_section_in(self.section), self.read);
        let given = level.here.is_some();
        Ok((level, given))
    }

    fn path(&self, e: &Entry) -> String {
        match e.scn_at(self.section) {
            ("", key) => key.to_string(),
            (section, key) => format!("{section}.{key}"),
        }
    }
}

pub(crate) fn not_on(engine: EngineKind) -> String {
    format!("does not apply to engine = {:?}", engine.name())
}

/// Sets field `e` of `level` from `v`. `engines` are the engines it
/// applies to.
fn put(level: &[Entry], e: &Entry, engines: u8, d: &mut Draft, v: &dyn Raw) -> Result<(), String> {
    let Body::Field { set, .. } = &e.body else {
        unreachable!("only fields are set");
    };
    if engines & engine_bit(d.engine) == 0 {
        return Err(not_on(d.engine));
    }
    set(d, v).unwrap_or_else(|| {
        // The field belongs to another variant than the one the level's
        // tag holds.
        let doc = d.doc();
        let kind = level.iter().find_map(|t| match &t.body {
            Body::Field { get, .. } if t.variant.is_some() => get(&doc),
            _ => None,
        });
        let Some(Out::Str(kind)) = kind else {
            unreachable!("fields outside a variant always apply");
        };
        Err(format!("does not apply to kind = {kind:?}"))
    })
}

fn decode<R: Reader>(level: &[Entry], r: &R, d: &mut Draft) -> Result<(), ScenarioError> {
    r.check_keys(level)?;
    let fields = || level.iter().filter(|e| e.flags & R::FORM != 0);
    // Tags first: they pick the engine and the variants the other
    // fields belong to.
    for e in fields().filter(|e| e.flags & TAG != 0) {
        match (r.get(e)?, e.variant) {
            (Some(v), _) => put(level, e, e.engines, d, v).map_err(|m| invalid(&r.path(e), m))?,
            (None, Some(variant)) => {
                // The first variant every given field belongs to.
                let fits = |d: &Draft| {
                    fields()
                        .filter(|f| f.flags & TAG == 0 && matches!(f.body, Body::Field { .. }))
                        .filter(|f| !matches!(r.get(f), Ok(None)))
                        .all(|f| f.belongs(d))
                };
                let mut i = 0;
                while variant(d, i) && !fits(d) {
                    i += 1;
                }
                if !variant(d, i) {
                    variant(d, 0);
                }
            }
            (None, None) => {}
        }
    }
    for e in fields().filter(|e| e.flags & TAG == 0) {
        match e.body {
            Body::Field { .. } => match r.get(e)? {
                Some(v) => put(level, e, e.engines, d, v).map_err(|m| invalid(&r.path(e), m))?,
                None if e.flags & REQUIRED != 0 && e.belongs(d) => {
                    return Err(invalid(&r.path(e), "missing required field"))
                }
                None => {}
            },
            Body::Record(entries) => {
                let (inner, given) = r.record(e)?;
                if given {
                    if !e.applies(d.engine) {
                        return Err(invalid(&r.path(e), not_on(d.engine)));
                    }
                    if let Some((_, create)) = e.optional {
                        create(d);
                    }
                    decode(entries, &inner, d)?;
                } else if e.optional.is_none() {
                    // Nothing to read: the record keeps its default
                    // variant, whose required fields must still be given.
                    let missing = entries
                        .iter()
                        .find(|f| f.flags & REQUIRED != 0 && f.belongs(d));
                    if let Some(f) = missing {
                        return Err(invalid(&inner.path(f), "missing required field"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Decodes a JSON spec object into `d`.
pub(crate) fn decode_json(v: &Json, d: &mut Draft) -> Result<(), ScenarioError> {
    let Json::Obj(fields) = v else {
        return Err(invalid("spec", expected("a JSON object", v)));
    };
    let level = JsonLevel {
        fields,
        prefix: String::new(),
    };
    decode(TABLE, &level, d)
}

/// Calls `f(field, level, section, engines)` for every field row of
/// `level` and below: the record level holding it, the `.scn` section
/// that record maps to, and the engines the field applies to.
fn each_field(
    level: &'static [Entry],
    section: &'static str,
    engines: u8,
    f: &mut impl FnMut(&'static Entry, &'static [Entry], &'static str, u8),
) {
    for e in level {
        let engines = engines & e.engines;
        match &e.body {
            Body::Field { .. } => f(e, level, section, engines),
            Body::Record(entries) => each_field(entries, e.scn_section_in(section), engines, f),
        }
    }
}

/// Decodes a `.scn` document into `d`. Sections other than `skip` must
/// belong to the grammar and apply to the engine, and their keys must
/// be fields.
pub(crate) fn decode_scn(doc: &ScnDoc, d: &mut Draft, skip: &str) -> Result<(), ScenarioError> {
    let read: Vec<Cell<u64>> = doc.sections.iter().map(|_| Cell::new(0)).collect();
    decode(TABLE, &ScnLevel::new(doc, "", &read), d)?;
    // Every key must be a field the decoder read. A section it read
    // nothing from must still belong to the grammar and apply to the
    // engine.
    for (s, read) in doc
        .sections
        .iter()
        .zip(&read)
        .filter(|(s, _)| s.name != skip)
    {
        let unknown = |key: &str| ScenarioError::UnknownKey {
            section: s.name.clone(),
            key: key.to_string(),
        };
        if read.get() == 0 {
            let (mut known, mut applies) = (false, false);
            each_field(TABLE, "", EVERY_ENGINE, &mut |e, _, section, engines| {
                if e.flags & SCN != 0 && e.scn_at(section).0 == s.name {
                    known = true;
                    applies |= engines & engine_bit(d.engine) != 0;
                }
            });
            if !known {
                return Err(unknown(""));
            }
            if !applies {
                return Err(invalid(&s.name, not_on(d.engine)));
            }
        }
        let unread = |i: usize| i >= 64 || read.get() & 1 << i == 0;
        if let Some((_, (key, _, _))) = s.entries.iter().enumerate().find(|&(i, _)| unread(i)) {
            return Err(unknown(key));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Sweep axes
// ---------------------------------------------------------------------

/// The sweep axes, in table order: each field flagged as an axis, the
/// record level holding it, and the engines it applies to.
type Axes = Vec<(&'static Entry, &'static [Entry], u8)>;

fn axes() -> &'static Axes {
    static AXES: OnceLock<Axes> = OnceLock::new();
    AXES.get_or_init(|| {
        let mut axes = Vec::new();
        each_field(TABLE, "", EVERY_ENGINE, &mut |e, level, _, engines| {
            if e.flags & AXIS != 0 {
                axes.push((e, level, engines));
            }
        });
        axes
    })
}

/// The sweep-axis names (shared by `[sweep]` and `run --set`), in
/// table order.
pub fn axis_names() -> Vec<&'static str> {
    axes().iter().map(|(e, _, _)| e.name).collect()
}

/// Applies one sweep-axis value to `d`.
pub(crate) fn apply_axis(d: &mut Draft, name: &str, value: &dyn Raw) -> Result<(), ScenarioError> {
    let result = match axes().iter().find(|(e, _, _)| e.name == name) {
        Some(&(e, level, engines)) => put(level, e, engines, d, value),
        None => Err(format!("unknown axis (known: {})", axis_names().join(", "))),
    };
    result.map_err(|message| invalid(&format!("sweep.{name}"), message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_file::ReactiveSpec;
    use crate::spec::{validate, EngineSpec};
    use std::mem::discriminant;

    /// Specs that between them give every field of the table in both
    /// text forms.
    fn samples() -> Vec<EngineSpec> {
        let counting = || EngineSpec::counting(15, 15, 1).faults(1, 5).probe(1, 1);
        let crash = || EngineSpec::crash(15, 15, 1);
        [
            counting().lattice().starved(3),
            counting().stripes(&[(2, 1, true)]).majority(4),
            counting().random_bad(3).greedy(),
            counting().bernoulli(0.1),
            counting().bad_cells(&[(1, 2)]),
            crash()
                .crash_stripe(3, 2)
                .crash_behavior(CrashBehavior::AfterCopies(2)),
            crash().crash_cells(&[(1, 1)]),
            EngineSpec::slot(15, 15, 1).reactive(ReactiveSpec {
                budget: Some(9),
                ..ReactiveSpec::default()
            }),
            EngineSpec::agreement(15, 15, 1),
            EngineSpec::rbc(15, 15, 1),
        ]
        .into_iter()
        .map(|b| b.finish().expect("valid sample"))
        .collect()
    }

    /// Calls `f(field, json_path, scn_section)` for every field row.
    fn each_path(
        level: &'static [Entry],
        path: &[&'static str],
        section: &'static str,
        f: &mut impl FnMut(&'static Entry, Vec<&'static str>, &'static str),
    ) {
        for e in level {
            let mut path = path.to_vec();
            path.push(e.name);
            match &e.body {
                Body::Field { .. } => f(e, path, section),
                Body::Record(entries) => each_path(entries, &path, e.scn_section_in(section), f),
            }
        }
    }

    fn json_at<'a>(v: &'a mut Json, path: &[&str]) -> Option<&'a mut Json> {
        let Some((first, rest)) = path.split_first() else {
            return Some(v);
        };
        let Json::Obj(fields) = v else { return None };
        let (_, child) = fields.iter_mut().find(|(k, _)| k == first)?;
        json_at(child, rest)
    }

    fn scn_at<'a>(doc: &'a mut ScnDoc, (section, key): (&str, &str)) -> Option<&'a mut ScnValue> {
        let s = doc.sections.iter_mut().find(|s| s.name == section)?;
        s.entries
            .iter_mut()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| v)
    }

    fn decode_scn_spec(doc: &ScnDoc) -> Result<(), ScenarioError> {
        let mut d = Draft::new("scenario");
        decode_scn(doc, &mut d, "sweep")?;
        validate(&d.name, d.engine, &d.point, &d.probes)
    }

    fn spec_doc(spec: &EngineSpec) -> Doc<'_> {
        Doc {
            name: spec.name(),
            engine: spec.engine(),
            point: spec.point(),
            probes: spec.probes(),
        }
    }

    /// For every field both text forms spell, a wrong-typed value and an
    /// out-of-range value fail to decode in both, with the same error
    /// variant. A new row joins the test by itself (and fails it until
    /// a sample gives the field).
    #[test]
    fn both_forms_reject_every_field_alike() {
        let samples = samples();
        let mut fields = 0;
        each_path(TABLE, &[], "", &mut |e, path, section| {
            if e.flags & (JSON | SCN) != JSON | SCN {
                return;
            }
            fields += 1;
            let Body::Field { get, .. } = &e.body else {
                unreachable!()
            };
            let at = e.scn_at(section);
            let sample = samples.iter().find_map(|spec| {
                let mut json = Json::parse(&spec.to_json()).unwrap();
                let mut scn = crate::scn::parse(&spec.to_scn()).unwrap();
                (json_at(&mut json, &path).is_some() && scn_at(&mut scn, at).is_some())
                    .then_some((json, scn, spec))
            });
            let Some((json, scn, spec)) = sample else {
                panic!("no sample gives {path:?} in both forms");
            };
            let doc = spec_doc(spec);
            let value = get(&doc).expect("the sample gives the field");
            let num = |n: &str| Json::Num(n.to_string());
            let (wrong_json, wrong_scn) = match value {
                Out::Str(_) | Out::Cells(_) | Out::Stripes(_) => (num("7"), ScnValue::Int(7)),
                _ => (Json::Str("x".into()), ScnValue::Str("x".into())),
            };
            let (far_json, far_scn) = match value {
                Out::U64(_) | Out::Opt(_) | Out::Bool(_) => (num("-1"), ScnValue::Int(-1)),
                Out::F64(_) => (num("2.5"), ScnValue::Float(2.5)),
                Out::Str(_) => (Json::Str("\u{1}".into()), ScnValue::Str("\u{1}".into())),
                Out::Cells(_) => (
                    Json::Arr(vec![Json::Arr(vec![num("0"), num("-1")])]),
                    ScnValue::Array(vec![ScnValue::Array(vec![
                        ScnValue::Int(0),
                        ScnValue::Int(-1),
                    ])]),
                ),
                Out::Stripes(_) => (
                    Json::Arr(vec![Json::Arr(vec![num("-1"), num("1"), Json::Bool(true)])]),
                    ScnValue::Array(vec![ScnValue::Array(vec![
                        ScnValue::Int(-1),
                        ScnValue::Int(1),
                        ScnValue::Bool(true),
                    ])]),
                ),
            };
            for (bad_json, bad_scn) in [(wrong_json, wrong_scn), (far_json, far_scn)] {
                let (mut json, mut scn) = (json.clone(), scn.clone());
                *json_at(&mut json, &path).unwrap() = bad_json.clone();
                *scn_at(&mut scn, at).unwrap() = bad_scn.clone();
                let json_err = EngineSpec::from_json_value(&json)
                    .expect_err(&format!("{path:?} = {bad_json:?}"));
                let scn_err = decode_scn_spec(&scn).expect_err(&format!("{at:?} = {bad_scn:?}"));
                assert_eq!(
                    discriminant(&json_err),
                    discriminant(&scn_err),
                    "{path:?}: JSON {json_err} vs .scn {scn_err}"
                );
            }
        });
        assert!(fields > 30, "walked {fields} fields");
    }
}
