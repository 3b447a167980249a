//! Shared fixtures for the cross-crate integration tests (in `tests/`).

/// Deterministic seeds used across integration suites so failures are
/// reproducible from the test name alone.
pub const SEEDS: [u64; 4] = [7, 42, 1010, 0xDEADBEEF];

use bftbcast::rbc::{ByzantineBehavior, RbcProtocol, ScheduleKind};
use bftbcast::scenario_file::{
    AdversarySpec, AgreementSpec, CrashNodesSpec, CrashSpec, PlacementSpec, ProtocolSpec, RbcSpec,
    ReactiveSpec, SourceSpec,
};
use bftbcast::sim::crash::CrashBehavior;
use bftbcast::sim::engine::AgreementMode;
use bftbcast::sim::slot::ReactiveAdversary;
use bftbcast::spec::EngineSpec;

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
pub fn gen_spec(mut s: u64) -> EngineSpec {
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
