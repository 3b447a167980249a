//! Property tests for the spec layer: `EngineSpec` ⇄ JSON ⇄ `.scn`
//! round-trips are lossless, and the spec's identity — its
//! `cache::point_key` — is stable under representation changes
//! (codec form, JSON field order, display name) while flipping under
//! any single configuration-field change.

use bftbcast::json::Json;
use bftbcast::rbc::{ByzantineBehavior, RbcProtocol, ScheduleKind};
use bftbcast::scenario_file::{
    AdversarySpec, AgreementSpec, CrashNodesSpec, CrashSpec, PlacementSpec, ProtocolSpec, RbcSpec,
    ReactiveSpec, SourceSpec,
};
use bftbcast::sim::crash::CrashBehavior;
use bftbcast::sim::engine::AgreementMode;
use bftbcast::sim::slot::ReactiveAdversary;
use bftbcast::spec::EngineSpec;
use proptest::prelude::*;

/// SplitMix64: one `u64` case seed fans out into every spec field, so
/// the whole configuration space is driven by a single strategy.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

/// A fraction that round-trips exactly through decimal text.
fn frac(state: &mut u64) -> f64 {
    pick(state, 1001) as f64 / 1000.0
}

fn cells(state: &mut u64, w: u32, h: u32, max: u64) -> Vec<(u32, u32)> {
    (0..pick(state, max + 1))
        .map(|_| {
            (
                pick(state, u64::from(w)) as u32,
                pick(state, u64::from(h)) as u32,
            )
        })
        .collect()
}

/// Generates one valid spec covering all five engines and every
/// placement/protocol/adversary/crash/reactive/agreement/rbc variant.
fn gen_spec(mut s: u64) -> EngineSpec {
    let st = &mut s;
    let width = 5 + pick(st, 26) as u32;
    let height = 5 + pick(st, 26) as u32;
    let r = 1 + pick(st, 3) as u32;
    let t = 1 + pick(st, 2) as u32;
    // A lattice placement tiles the torus with (2r+1)-squares and has
    // (2r+1)^2 residue classes, so its sides round up to a multiple of
    // 2r+1 and its offset leaves room for t classes.
    let side = 2 * r + 1;
    let placement_kind = pick(st, 6);
    let (width, height) = if placement_kind == 1 {
        (width.next_multiple_of(side), height.next_multiple_of(side))
    } else {
        (width, height)
    };
    let names = [
        "spec",
        "f2",
        "a \"quoted\" name",
        "tabs\tand\nnewlines",
        "#x",
    ];
    let engine_pick = pick(st, 5);
    let mut b = match engine_pick {
        0 => EngineSpec::counting(width, height, r),
        1 => EngineSpec::crash(width, height, r),
        2 => EngineSpec::slot(width, height, r),
        3 => EngineSpec::agreement(width, height, r),
        _ => EngineSpec::rbc(width, height, r),
    };
    b = b
        .name(names[pick(st, names.len() as u64) as usize])
        .faults(t, next(st))
        .source(
            pick(st, u64::from(width)) as u32,
            pick(st, u64::from(height)) as u32,
        )
        .seed(next(st));
    b = b.placement(match placement_kind {
        0 => PlacementSpec::None,
        1 => PlacementSpec::Lattice {
            offset: pick(st, u64::from(side * side - t) + 1) as u32,
        },
        2 => PlacementSpec::Stripes(
            (0..1 + pick(st, 3))
                .map(|_| {
                    (
                        pick(st, u64::from(height)) as u32,
                        pick(st, 4) as u32,
                        pick(st, 2) == 0,
                    )
                })
                .collect(),
        ),
        3 => PlacementSpec::Random {
            count: pick(st, 50) as usize,
        },
        4 => PlacementSpec::Bernoulli { p: frac(st) },
        _ => PlacementSpec::Explicit(cells(st, width, height, 4)),
    });
    match engine_pick {
        0 => {
            // Counting: any protocol except crash_only; majority pins
            // the oracle adversary.
            b = match pick(st, 5) {
                0 => b.protocol_b(),
                1 => b.koo(),
                2 => b.heterogeneous(),
                3 => b.starved(next(st)),
                _ => b.majority(next(st)),
            };
            if !matches!(
                b.clone().finish().map(|s| s.point().protocol),
                Ok(ProtocolSpec::Majority { .. })
            ) {
                b = b.adversary(
                    [
                        AdversarySpec::Oracle,
                        AdversarySpec::Greedy,
                        AdversarySpec::Chaos,
                        AdversarySpec::Passive,
                    ][pick(st, 4) as usize],
                );
            }
        }
        1 => {
            b = match pick(st, 5) {
                0 => b.protocol_b(),
                1 => b.koo(),
                2 => b.heterogeneous(),
                3 => b.starved(next(st)),
                _ => b.crash_only(),
            };
            let nodes = match pick(st, 2) {
                0 => CrashNodesSpec::Stripe {
                    y0: pick(st, u64::from(height)) as u32,
                    height: 1 + pick(st, 3) as u32,
                },
                _ => CrashNodesSpec::Explicit(cells(st, width, height, 4)),
            };
            let behavior = match pick(st, 3) {
                0 => CrashBehavior::Immediate,
                1 => CrashBehavior::AfterQuota,
                _ => CrashBehavior::AfterCopies(next(st)),
            };
            b = b.crash_load(CrashSpec { nodes, behavior });
        }
        2 => {
            b = b.reactive(ReactiveSpec {
                k: 1 + pick(st, 63) as usize,
                mmax: next(st),
                adversary: [
                    ReactiveAdversary::Passive,
                    ReactiveAdversary::Jammer,
                    ReactiveAdversary::Canceller,
                    ReactiveAdversary::NackForger,
                    ReactiveAdversary::WitnessForger,
                    ReactiveAdversary::Mixed,
                ][pick(st, 6) as usize],
                budget: match pick(st, 2) {
                    0 => None,
                    _ => Some(next(st)),
                },
                max_rounds: next(st),
            });
        }
        3 => {
            // Proven mode's t bound holds at t = 1 for every r >= 1.
            let mode = if t == 1 && pick(st, 2) == 0 {
                AgreementMode::Proven
            } else {
                AgreementMode::Cheap
            };
            b = b.agreement_config(AgreementSpec {
                mode,
                source: [SourceSpec::Correct, SourceSpec::Split, SourceSpec::Silent]
                    [pick(st, 3) as usize],
                p1: frac(st),
                pe: frac(st),
            });
        }
        _ => {
            // Payload stays above CTRBC's 2(t + 1) fragment floor for
            // either value the `t` mutation can flip to.
            b = b.rbc_config(RbcSpec {
                protocol: [
                    RbcProtocol::Counting,
                    RbcProtocol::Bracha,
                    RbcProtocol::Ctrbc,
                ][pick(st, 3) as usize],
                payload: 6 + pick(st, 4096) as u32,
                max_waves: 1 + pick(st, 100_000),
                schedule: ScheduleKind::ALL[pick(st, ScheduleKind::ALL.len() as u64) as usize],
                behavior: ByzantineBehavior::ALL
                    [pick(st, ByzantineBehavior::ALL.len() as u64) as usize],
            });
        }
    }
    b = b.probes(&cells(st, width, height, 3));
    b.finish().expect("generated specs are valid")
}

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
