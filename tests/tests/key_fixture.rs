//! Cache-key stability against a committed fixture: every point of
//! every committed scenario file, plus 256 generated specs, must keep
//! the exact 16-hex key it had when the fixture was written. Keys are
//! the store's addresses, so a drift silently turns warm stores cold.

use bftbcast::cache;
use bftbcast::ScenarioFile;
use bftbcast_integration_tests::gen_spec;

const FIXTURE: &str = include_str!("../fixtures/cache_keys.txt");

fn root() -> String {
    format!("{}/..", env!("CARGO_MANIFEST_DIR"))
}

fn hex(field: &str) -> u64 {
    u64::from_str_radix(field, 16).unwrap_or_else(|e| panic!("bad hex {field:?}: {e}"))
}

#[test]
fn every_cache_key_matches_the_committed_fixture() {
    let mut files: Vec<(String, ScenarioFile)> = Vec::new();
    let (mut scenario_points, mut generated) = (0, 0);
    let mut drift = Vec::new();
    for line in FIXTURE.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split(' ').collect();
        let [source, which, key] = fields[..] else {
            panic!("malformed fixture line {line:?}");
        };
        let pinned = hex(key);
        let (actual, what) = if source == "gen_spec" {
            generated += 1;
            let seed = hex(which);
            (
                gen_spec(seed).cache_key(),
                format!("gen_spec({seed:#018x})"),
            )
        } else {
            scenario_points += 1;
            if files.last().is_none_or(|(name, _)| name != source) {
                let path = format!("{}/{source}", root());
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("reading {path}: {e}"));
                let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{source}: {e}"));
                files.push((source.to_string(), file));
            }
            let file = &files.last().expect("just pushed").1;
            let index: usize = which.parse().expect("point index");
            let point = file
                .points()
                .into_iter()
                .nth(index)
                .unwrap_or_else(|| panic!("{source} lost point {index}"));
            (
                cache::point_key(file.engine, &point, &file.probes),
                format!("{source} point {index}"),
            )
        };
        if actual != pinned {
            drift.push(format!("{what}: pinned {pinned:016x}, now {actual:016x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "cache keys drifted:\n{}",
        drift.join("\n")
    );
    assert_eq!(scenario_points, 195, "every committed scenario point");
    assert_eq!(generated, 256, "every generated spec");
}

/// The fixture covers every committed scenario file, so a new one
/// cannot slip in without its keys being pinned.
#[test]
fn fixture_lists_every_committed_scenario_file() {
    let mut on_disk = Vec::new();
    for dir in ["scenarios", "scenarios/examples"] {
        for entry in std::fs::read_dir(format!("{}/{dir}", root())).expect("scenario dir") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_str().expect("utf-8 file name");
            if name.ends_with(".scn") {
                on_disk.push(format!("{dir}/{name}"));
            }
        }
    }
    on_disk.sort();
    let mut pinned: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split(' ').next())
        .filter(|source| *source != "gen_spec")
        .collect();
    pinned.dedup();
    pinned.sort();
    assert_eq!(pinned, on_disk);
}
