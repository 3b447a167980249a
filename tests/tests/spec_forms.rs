//! The `.scn` and JSON forms share one decoder, one validator and one
//! axis list: the same document is accepted or rejected alike in both,
//! with the same defaults, and every entry path applies the same
//! range rules.

use bftbcast::scenario_file::{AxisValue, PlacementSpec, ProtocolSpec, ScenarioFile};
use bftbcast::sim::crash::CrashBehavior;
use bftbcast::spec::EngineSpec;
use bftbcast::ScenarioError;

fn json(body: &str) -> Result<EngineSpec, ScenarioError> {
    EngineSpec::from_json(&format!("{{\"width\":15,\"height\":15,\"r\":1{body}}}"))
}

fn scn(body: &str) -> Result<EngineSpec, ScenarioError> {
    EngineSpec::from_scn(&format!("{body}\n[topology]\nside = 15\nr = 1\n"))
}

fn is_invalid(result: Result<EngineSpec, ScenarioError>) -> bool {
    matches!(result, Err(ScenarioError::Invalid { .. }))
}

/// Agreement fractions outside [0, 1] are rejected by JSON, the
/// builder and `--set` alike, as the `.scn` grammar always did.
#[test]
fn every_path_rejects_out_of_range_agreement_fractions() {
    for (key, value) in [("p1", "2.5"), ("pe", "-0.5")] {
        let body = format!(",\"engine\":\"agreement\",\"agreement\":{{\"{key}\":{value}}}");
        assert!(is_invalid(json(&body)), "JSON {key} = {value}");
        let body = format!("engine = \"agreement\"\n[agreement]\n{key} = {value}");
        assert!(is_invalid(scn(&body)), ".scn {key} = {value}");
    }
    let builder = |p1: f64, pe: f64| {
        EngineSpec::agreement(15, 15, 1)
            .agreement_config(bftbcast::scenario_file::AgreementSpec {
                p1,
                pe,
                ..Default::default()
            })
            .finish()
    };
    assert!(builder(0.0, 1.0).is_ok());
    assert!(is_invalid(builder(2.5, 0.2)));
    assert!(is_invalid(builder(0.4, -0.5)));
    let mut file =
        ScenarioFile::parse("engine = \"agreement\"\n[topology]\nside = 15\nr = 1\n").unwrap();
    assert!(file.override_base("p1", AxisValue::Float(2.5)).is_err());
    assert!(file.override_base("pe", AxisValue::Float(0.5)).is_ok());
}

/// A section that does not apply to the engine is rejected when the
/// document spells it, even empty or at its defaults, in both forms.
#[test]
fn inapplicable_sections_are_rejected_by_presence_in_both_forms() {
    for body in [
        ",\"rbc\":{}",
        ",\"adversary\":\"oracle\",\"engine\":\"slot\"",
    ] {
        assert!(is_invalid(json(body)), "{body}");
    }
    for body in [
        "[rbc]\n",
        "engine = \"slot\"\n[adversary]\nkind = \"oracle\"\n",
    ] {
        assert!(is_invalid(scn(body)), "{body}");
    }
    // Present and applicable: accepted.
    assert!(json(",\"engine\":\"rbc\",\"rbc\":{}").is_ok());
    assert!(scn("engine = \"rbc\"\n[rbc]\n").is_ok());
}

/// A record without a kind takes the `.scn` defaults in both forms —
/// or, when it gives fields, the first kind they all belong to.
#[test]
fn kinds_default_alike_in_both_forms() {
    let from_json = json(",\"placement\":{},\"protocol\":{}").unwrap();
    let from_scn = scn("[placement]\n[protocol]\n").unwrap();
    assert_eq!(from_json.point().placement, PlacementSpec::None);
    assert_eq!(from_json.point().protocol, ProtocolSpec::B);
    assert_eq!(from_json.cache_key(), from_scn.cache_key());

    let from_json = json(",\"placement\":{\"count\":3},\"protocol\":{\"m\":4}").unwrap();
    let from_scn = scn("[placement]\ncount = 3\n[protocol]\nm = 4\n").unwrap();
    assert_eq!(
        from_json.point().placement,
        PlacementSpec::Random { count: 3 }
    );
    assert_eq!(from_json.point().protocol, ProtocolSpec::Starved { m: 4 });
    assert_eq!(from_json.cache_key(), from_scn.cache_key());

    // `after = N` alone names the after_copies behavior, as `.scn`
    // always spelled it; JSON reads the same fields the same way.
    let crash = ",\"engine\":\"crash\",\"crash\":{\"nodes\":{\"y0\":3},\"behavior\":{\"after\":2}}";
    let from_json = json(crash).unwrap();
    let from_scn = scn("engine = \"crash\"\n[crash]\ny0 = 3\nafter = 2\n").unwrap();
    let behavior = from_json.point().crash.as_ref().unwrap().behavior;
    assert_eq!(behavior, CrashBehavior::AfterCopies(2));
    assert_eq!(from_json.cache_key(), from_scn.cache_key());
}

/// A field of another kind than the one given is an error, not
/// silently ignored.
#[test]
fn fields_of_another_kind_are_rejected_in_both_forms() {
    assert!(is_invalid(json(
        ",\"placement\":{\"kind\":\"lattice\",\"count\":5}"
    )));
    assert!(is_invalid(scn(
        "[placement]\nkind = \"lattice\"\ncount = 5\n"
    )));
    assert!(is_invalid(scn(
        "engine = \"crash\"\n[crash]\ny0 = 3\nbehavior = \"immediate\"\nafter = 2\n"
    )));
    // Required fields of the given kind stay required.
    assert!(is_invalid(json(",\"placement\":{\"kind\":\"random\"}")));
    assert!(is_invalid(scn("[placement]\nkind = \"random\"\n")));
}

/// `--set` checks an axis against the engine before anything runs,
/// and names the axis.
#[test]
fn overrides_check_the_axis_engine_up_front() {
    let mut file = ScenarioFile::parse("[topology]\nside = 15\nr = 1\n").unwrap();
    let err = file
        .override_base("payload", AxisValue::Int(5))
        .unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("payload") && text.contains("does not apply"),
        "{text}"
    );
    let err = file.override_base("warp", AxisValue::Int(5)).unwrap_err();
    for axis in bftbcast::scenario_file::axis_names() {
        assert!(err.to_string().contains(axis), "{err} misses {axis}");
    }
}
