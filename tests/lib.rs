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
pub fn next(state: &mut u64) -> u64 {
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

/// The random-spec generator of the frontier suites (`frontier_prop`,
/// `engine_fixture`): each case seed draws a torus shape (degenerate
/// wrap shapes included), then a spec over every placement, protocol,
/// adversary and crash variant the engine kind accepts.
pub mod frontier {
    use super::*;

    /// Cases per engine kind.
    pub const CASES: usize = 128;

    /// Distinct random cells (the explicit-placement path feeds engine
    /// constructors that reject duplicate bad nodes).
    fn cells(st: &mut u64, w: u32, h: u32, max: u64) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = (0..pick(st, max + 1))
            .map(|_| (pick(st, u64::from(w)) as u32, pick(st, u64::from(h)) as u32))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Torus dimensions mixing the general case with the degenerate
    /// shapes the frontier kernel must wrap: exact `2r+1` tori (every
    /// neighborhood covers the whole grid minus the seed — `r ≥ dim/2`)
    /// and thin strips with one dimension pinned at the wrap minimum.
    pub fn gen_dims(st: &mut u64) -> (u32, u32, u32) {
        let r = 1 + pick(st, 2) as u32;
        let side = 2 * r + 1;
        match pick(st, 4) {
            0 => (side, side, r),
            1 => (side, side + 8 + pick(st, 20) as u32, r),
            2 => (side + 8 + pick(st, 20) as u32, side, r),
            _ => (side + pick(st, 18) as u32, side + pick(st, 18) as u32, r),
        }
    }

    /// One case of engine `kind`'s stream: the shape, then the spec,
    /// both drawn from `case_seed`.
    pub fn gen_case(kind: u64, case_seed: u64) -> EngineSpec {
        let mut s = case_seed;
        let dims = gen_dims(&mut s);
        gen_spec(kind, dims, &mut s)
    }

    /// One random spec for the given engine kind (0 = counting,
    /// 1 = crash, 2 = slot, 3 = agreement) on the given torus: every
    /// placement variant, every counting adversary/protocol, every
    /// crash behavior, every reactive adversary, every agreement
    /// mode/source.
    pub fn gen_spec(kind: u64, (width, height, r): (u32, u32, u32), st: &mut u64) -> EngineSpec {
        let t = 1 + pick(st, 2) as u32;
        let mut b = match kind {
            0 => EngineSpec::counting(width, height, r),
            1 => EngineSpec::crash(width, height, r),
            2 => EngineSpec::slot(width, height, r),
            _ => EngineSpec::agreement(width, height, r),
        };
        b = b
            .faults(t, 1 + pick(st, 24))
            .source(
                pick(st, u64::from(width)) as u32,
                pick(st, u64::from(height)) as u32,
            )
            .seed(next(st));
        // The lattice construction requires both dims divisible by 2r+1
        // (and an in-range class offset); fall back to no placement
        // elsewhere so every shape still exercises all variants it can.
        let side = 2 * r + 1;
        let lattice_ok = width % side == 0 && height % side == 0;
        b = b.placement(match pick(st, 6) {
            1 if lattice_ok => PlacementSpec::Lattice {
                offset: pick(st, u64::from(side * side - t) + 1) as u32,
            },
            0 | 1 => PlacementSpec::None,
            2 => PlacementSpec::Stripes(vec![(
                pick(st, u64::from(height)) as u32,
                t,
                pick(st, 2) == 0,
            )]),
            3 => PlacementSpec::Random {
                count: pick(st, 8) as usize,
            },
            4 => PlacementSpec::Bernoulli {
                p: pick(st, 30) as f64 / 1000.0,
            },
            _ => PlacementSpec::Explicit(cells(st, width, height, 4)),
        });
        match kind {
            0 => {
                b = match pick(st, 5) {
                    0 => b.protocol_b(),
                    1 => b.koo(),
                    2 => b.heterogeneous(),
                    3 => b.starved(pick(st, 400)),
                    _ => b.majority(1 + pick(st, 24)),
                };
                // Majority pins the oracle adversary; everything else
                // sweeps all four strategies.
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
                    3 => b.starved(pick(st, 400)),
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
                    _ => CrashBehavior::AfterCopies(pick(st, 40)),
                };
                b = b.crash_load(CrashSpec { nodes, behavior });
            }
            2 => {
                b = b.reactive(ReactiveSpec {
                    k: 1 + pick(st, 8) as usize,
                    mmax: 1 + pick(st, 1 << 12),
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
                        _ => Some(1 + pick(st, 1 << 12)),
                    },
                    max_rounds: 2_000 + pick(st, 8_000),
                });
            }
            _ => {
                // Proven mode's t bound holds at t = 1 for every r ≥ 1.
                let mode = if t == 1 && pick(st, 2) == 0 {
                    AgreementMode::Proven
                } else {
                    AgreementMode::Cheap
                };
                b = b.agreement_config(AgreementSpec {
                    mode,
                    source: [SourceSpec::Correct, SourceSpec::Split, SourceSpec::Silent]
                        [pick(st, 3) as usize],
                    p1: pick(st, 1001) as f64 / 1000.0,
                    pe: pick(st, 1001) as f64 / 1000.0,
                });
            }
        }
        b.finish().expect("generated specs are valid")
    }
}
