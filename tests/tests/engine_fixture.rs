//! Engine results pinned as data: every counting, crash and slot case
//! of the frontier suite's generator, plus every counting and crash
//! point of the committed scenario files, must step through exactly
//! the states recorded in `tests/fixtures/engine_digests.txt`.
//!
//! A state is the engine's outcome and every node's probe; it is
//! digested after `prepare` and after every step. The fixture was
//! written by the engines the kernel replaced (a separate oracle,
//! majority and crash loop, each with a dense full-grid twin), so this
//! suite is what keeps the single step loop honest against them.

use bftbcast::sim::engine::SimEngine;
use bftbcast::spec::EngineSpec;
use bftbcast::{EngineKind, ScenarioFile};
use bftbcast_integration_tests::frontier::{gen_case, CASES};

const FIXTURE: &str = include_str!("../fixtures/engine_digests.txt");

/// Generator streams pinned: counting, crash, slot (agreement has no
/// wave loop to pin).
const KINDS: [u64; 3] = [0, 1, 2];

fn root() -> String {
    format!("{}/..", env!("CARGO_MANIFEST_DIR"))
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of the engine's current state: its outcome (Debug text),
/// then every node's probe field by field.
fn state_digest(engine: &dyn SimEngine) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{:?}", engine.outcome()).as_bytes());
    for u in 0..engine.topology().node_count() {
        match engine.probe(u) {
            None => h.u64(0),
            Some(p) => {
                h.u64(1);
                h.u64(p.tally_true);
                h.u64(p.tally_wrong);
                h.u64(p.decided_neighbors as u64);
                match p.accepted {
                    None => h.u64(0),
                    Some(v) => {
                        h.u64(1);
                        h.u64(v.0);
                    }
                }
                h.u64(p.phase);
                h.u64(p.conflicts);
            }
        }
    }
    h.0
}

/// The state digests of one run — after `prepare`, then after every
/// step — or `None` when the spec's placement is rejected at build.
fn trace(spec: &EngineSpec) -> Option<Vec<u64>> {
    let mut engine = spec.build_engine().ok()?;
    engine.prepare();
    let mut digests = vec![state_digest(engine.as_ref())];
    loop {
        let more = engine.step();
        digests.push(state_digest(engine.as_ref()));
        if !more {
            return Some(digests);
        }
    }
}

/// Every counting and crash point of the committed scenario files, as
/// `(file, point index, spec)`.
fn scenario_points() -> Vec<(String, usize, EngineSpec)> {
    let mut names = Vec::new();
    for dir in ["scenarios", "scenarios/examples"] {
        for entry in std::fs::read_dir(format!("{}/{dir}", root())).expect("scenario dir") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_str().expect("utf-8 file name").to_string();
            if name.ends_with(".scn") {
                names.push(format!("{dir}/{name}"));
            }
        }
    }
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let text = std::fs::read_to_string(format!("{}/{name}", root())).expect("scenario file");
        let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if matches!(file.engine, EngineKind::Counting | EngineKind::Crash) {
            let specs = file.specs().unwrap_or_else(|e| panic!("{name}: {e}"));
            out.extend(
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| (name.clone(), i, s)),
            );
        }
    }
    out
}

/// The spec a fixture line names.
fn spec_of(source: &str, which: &str, files: &[(String, usize, EngineSpec)]) -> EngineSpec {
    if let Some(kind) = source.strip_prefix("frontier/") {
        let kind: u64 = kind.parse().expect("generator kind");
        let seed = u64::from_str_radix(which, 16).expect("case seed");
        return gen_case(kind, seed);
    }
    let index: usize = which.parse().expect("point index");
    files
        .iter()
        .find(|(name, i, _)| name == source && *i == index)
        .unwrap_or_else(|| panic!("{source} lost point {index}"))
        .2
        .clone()
}

/// A run as the fixture records it: an FNV-1a chain over every state
/// digest (which any difference changes), and each state's digest
/// folded to 16 bits (which locate the first step that differs).
fn pinned_form(digests: &[u64]) -> (u64, String) {
    let mut chain = Fnv::new();
    let mut steps = String::with_capacity(4 * digests.len());
    for &d in digests {
        chain.u64(d);
        steps.push_str(&format!(
            "{:04x}",
            (d ^ d >> 16 ^ d >> 32 ^ d >> 48) & 0xffff
        ));
    }
    (chain.0, steps)
}

#[test]
fn every_engine_run_matches_the_pinned_digests() {
    let files = scenario_points();
    let mut per_source = std::collections::BTreeMap::<String, usize>::new();
    for line in FIXTURE.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split(' ').collect();
        let [source, which, chain, steps] = fields[..] else {
            panic!("malformed fixture line {line:?}");
        };
        let spec = spec_of(source, which, &files);
        let digests = trace(&spec).unwrap_or_else(|| panic!("{source} {which}: build failed"));
        let (actual_chain, actual_steps) = pinned_form(&digests);
        if format!("{actual_chain:016x}") != chain {
            let first = (0..steps.len().max(actual_steps.len()) / 4)
                .find(|&i| steps.get(4 * i..4 * i + 4) != actual_steps.get(4 * i..4 * i + 4));
            let at = match first {
                Some(0) => "after prepare".to_string(),
                Some(i) => format!("after step {i}"),
                None => "at a step whose 16-bit digest collides".to_string(),
            };
            panic!(
                "{source} {which}: the state {at} differs from the pinned run \
                 (pinned {} states, now {})",
                steps.len() / 4,
                digests.len()
            );
        }
        *per_source.entry(source.to_string()).or_default() += 1;
    }
    for kind in KINDS {
        assert_eq!(per_source.get(&format!("frontier/{kind}")), Some(&CASES));
    }
    let pinned_points: usize = per_source
        .iter()
        .filter(|(s, _)| !s.starts_with("frontier/"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(pinned_points, files.len(), "every scenario point is pinned");
}
