//! Property tests for the spec layer: `EngineSpec` ⇄ JSON ⇄ `.scn`
//! round-trips are lossless, and the spec's identity — its
//! `cache::point_key` — is stable under representation changes
//! (codec form, JSON field order, display name) while flipping under
//! any single configuration-field change.

use bftbcast::json::Json;
use bftbcast::rbc::{ByzantineBehavior, ScheduleKind};
use bftbcast::spec::EngineSpec;
use bftbcast_integration_tests::gen_spec;
use proptest::prelude::*;

/// Re-renders a parsed JSON value with every object's fields reversed,
/// recursively — a structural permutation of the canonical form.
fn render_reversed(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(raw) => raw.clone(),
        Json::Str(s) => bftbcast::json::string(s),
        Json::Arr(items) => {
            let cells: Vec<String> = items.iter().map(render_reversed).collect();
            format!("[{}]", cells.join(","))
        }
        Json::Obj(fields) => {
            let cells: Vec<String> = fields
                .iter()
                .rev()
                .map(|(k, v)| format!("{}:{}", bftbcast::json::string(k), render_reversed(v)))
                .collect();
            format!("{{{}}}", cells.join(","))
        }
    }
}

/// One single-field mutation of a valid spec, chosen by `which`;
/// returns `None` when the mutation would leave the configuration
/// space (so the case is retried with another field).
fn mutate(spec: &EngineSpec, which: u64) -> Option<EngineSpec> {
    let mut point = spec.point().clone();
    let mut probes = spec.probes().to_vec();
    match which % 7 {
        0 => point.mf = point.mf.wrapping_add(1),
        1 => point.seed = point.seed.wrapping_add(1),
        2 => point.t = if point.t == 1 { 2 } else { 1 },
        3 => point.source = ((point.source.0 + 1) % point.width, point.source.1),
        4 => point.width += 1,
        5 => {
            if probes.is_empty() {
                probes.push((0, 0));
            } else {
                probes.pop();
            }
        }
        6 => {
            // The adversary axes exist only on the rbc engine; any
            // other engine retries with a different field.
            if spec.engine() != bftbcast::scenario_file::EngineKind::Rbc {
                return None;
            }
            point.rbc.schedule = match point.rbc.schedule {
                ScheduleKind::Seeded => ScheduleKind::Gst,
                _ => ScheduleKind::Seeded,
            };
            point.rbc.behavior = match point.rbc.behavior {
                ByzantineBehavior::Mute => ByzantineBehavior::Equivocate,
                _ => ByzantineBehavior::Mute,
            };
        }
        _ => unreachable!(),
    }
    EngineSpec::from_parts(spec.name().to_string(), spec.engine(), point, probes).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// JSON round trip: lossless, and the key survives the codec.
    #[test]
    fn json_round_trip_is_lossless_and_key_stable(seed in any::<u64>()) {
        let spec = gen_spec(seed);
        let json = spec.to_json();
        let back = EngineSpec::from_json(&json)
            .map_err(|e| TestCaseError::Fail(format!("{json}: {e}")))?;
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.cache_key(), spec.cache_key());
        // Canonical output is a fixpoint.
        prop_assert_eq!(back.to_json(), json);
    }

    /// `.scn` round trip: lossless, and the key survives the codec.
    #[test]
    fn scn_round_trip_is_lossless_and_key_stable(seed in any::<u64>()) {
        let spec = gen_spec(seed);
        let scn = spec.to_scn();
        let back = EngineSpec::from_scn(&scn)
            .map_err(|e| TestCaseError::Fail(format!("{scn}: {e}")))?;
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.cache_key(), spec.cache_key());
        prop_assert_eq!(back.to_scn(), scn);
    }

    /// The composed trip — spec → JSON → spec → .scn → spec — lands on
    /// the same value and the same key.
    #[test]
    fn json_then_scn_compose(seed in any::<u64>()) {
        let spec = gen_spec(seed);
        let via_json = EngineSpec::from_json(&spec.to_json()).unwrap();
        let via_both = EngineSpec::from_scn(&via_json.to_scn()).unwrap();
        prop_assert_eq!(&via_both, &spec);
        prop_assert_eq!(via_both.cache_key(), spec.cache_key());
    }

    /// Key stability: JSON field order and the display name are
    /// presentation, never identity.
    #[test]
    fn key_is_permutation_and_name_insensitive(seed in any::<u64>()) {
        let spec = gen_spec(seed);
        let doc = Json::parse(&spec.to_json()).unwrap();
        let reversed = render_reversed(&doc);
        let back = EngineSpec::from_json(&reversed)
            .map_err(|e| TestCaseError::Fail(format!("{reversed}: {e}")))?;
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.cache_key(), spec.cache_key());

        let renamed = EngineSpec::from_parts(
            format!("{}-renamed", spec.name()),
            spec.engine(),
            spec.point().clone(),
            spec.probes().to_vec(),
        )
        .unwrap();
        prop_assert_eq!(renamed.cache_key(), spec.cache_key());
    }

    /// Key sensitivity: changing any single configuration field flips
    /// the key (and the canonical JSON).
    #[test]
    fn key_is_single_field_sensitive(seed in any::<u64>(), which in any::<u64>()) {
        let spec = gen_spec(seed);
        let Some(mutated) = mutate(&spec, which) else {
            prop_assume!(false);
            unreachable!();
        };
        prop_assert_ne!(mutated.cache_key(), spec.cache_key());
        prop_assert_ne!(mutated.to_json(), spec.to_json());
    }
}
