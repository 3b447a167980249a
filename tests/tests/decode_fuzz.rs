//! The `.scn` and JSON decoders never panic. Every generated spec's
//! canonical text, mutated (a byte flipped, the text truncated, a field
//! dropped, a value swapped for one of another type), either decodes —
//! and then re-encodes to a fixpoint with a stable key — or fails with
//! a typed `ScenarioError`.

use bftbcast::json::{self, Json};
use bftbcast::spec::EngineSpec;
use bftbcast::ScenarioError;
use bftbcast_integration_tests::gen_spec;
use proptest::prelude::*;

/// SplitMix64 step: one case seed drives every mutation choice.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: usize) -> usize {
    (next(state) % n.max(1) as u64) as usize
}

/// Values of every JSON type, to swap in for a field's value.
const JSON_VALUES: [&str; 7] = ["null", "true", "-1", "2.5", "\"x\"", "[[1,2]]", "{}"];
/// Values of every `.scn` type, likewise.
const SCN_VALUES: [&str; 7] = ["true", "-1", "2.5", "\"x\"", "[[1, 2]]", "[]", "1e400"];

fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(raw) => raw.clone(),
        Json::Str(s) => json::string(s),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(",")
        ),
        Json::Obj(fields) => format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(k, v)| format!("{}:{}", json::string(k), render(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// The path (child indices) of every object in `v`, depth first.
fn objects(v: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Json> = match v {
        Json::Obj(fields) => {
            out.push(path.clone());
            fields.iter().map(|(_, child)| child).collect()
        }
        Json::Arr(items) => items.iter().collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        objects(child, path, out);
        path.pop();
    }
}

fn at_mut<'a>(v: &'a mut Json, path: &[usize]) -> &'a mut Json {
    let Some((&i, rest)) = path.split_first() else {
        return v;
    };
    match v {
        Json::Obj(fields) => at_mut(&mut fields[i].1, rest),
        Json::Arr(items) => at_mut(&mut items[i], rest),
        _ => unreachable!("paths lead through containers"),
    }
}

/// Mutates text byte-wise: flip one ASCII byte, or truncate.
fn mutate_bytes(text: &str, st: &mut u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if next(st).is_multiple_of(2) {
        let i = pick(st, bytes.len());
        if bytes[i].is_ascii() {
            bytes[i] = b" \"#,.-0123456789:=[]{}aez\n"[pick(st, 25)];
        }
    } else {
        bytes.truncate(pick(st, bytes.len()));
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn mutate_json(text: &str, st: &mut u64) -> String {
    if next(st).is_multiple_of(3) {
        return mutate_bytes(text, st);
    }
    let mut doc = Json::parse(text).expect("canonical JSON parses");
    let mut paths = Vec::new();
    objects(&doc, &mut Vec::new(), &mut paths);
    let Json::Obj(fields) = at_mut(&mut doc, &paths[pick(st, paths.len())]) else {
        unreachable!("paths lead to objects");
    };
    if !fields.is_empty() {
        let i = pick(st, fields.len());
        if next(st).is_multiple_of(2) {
            fields.remove(i);
        } else {
            fields[i].1 = Json::parse(JSON_VALUES[pick(st, JSON_VALUES.len())]).unwrap();
        }
    }
    render(&doc)
}

fn mutate_scn(text: &str, st: &mut u64) -> String {
    if next(st).is_multiple_of(3) {
        return mutate_bytes(text, st);
    }
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let i = pick(st, lines.len());
    if next(st).is_multiple_of(2) {
        lines.remove(i);
    } else if let Some((key, _)) = lines[i].split_once(" = ") {
        lines[i] = format!("{key} = {}", SCN_VALUES[pick(st, SCN_VALUES.len())]);
    }
    lines.join("\n")
}

/// A decoded spec re-encodes to a fixpoint in both forms, keeping its
/// key; an error is a typed `ScenarioError` that renders.
fn check(result: Result<EngineSpec, ScenarioError>) -> Result<(), TestCaseError> {
    match result {
        Ok(spec) => {
            let json = spec.to_json();
            let via_json = EngineSpec::from_json(&json).expect("canonical JSON decodes");
            prop_assert_eq!(&via_json, &spec);
            prop_assert_eq!(via_json.to_json(), json);
            prop_assert_eq!(via_json.cache_key(), spec.cache_key());
            let scn = spec.to_scn();
            let via_scn = EngineSpec::from_scn(&scn).expect("canonical .scn decodes");
            prop_assert_eq!(&via_scn, &spec);
            prop_assert_eq!(via_scn.to_scn(), scn);
            prop_assert_eq!(via_scn.cache_key(), spec.cache_key());
        }
        Err(e) => prop_assert!(!e.to_string().is_empty()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_json_decodes_or_fails_typed(seed in any::<u64>(), mutation in any::<u64>()) {
        let mut st = mutation;
        let text = mutate_json(&gen_spec(seed).to_json(), &mut st);
        check(EngineSpec::from_json(&text))?;
    }

    #[test]
    fn mutated_scn_decodes_or_fails_typed(seed in any::<u64>(), mutation in any::<u64>()) {
        let mut st = mutation;
        let text = mutate_scn(&gen_spec(seed).to_scn(), &mut st);
        check(EngineSpec::from_scn(&text))?;
    }
}
