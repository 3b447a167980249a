//! Schedule-exploration harness for the rbc runtime's adversary axes.
//!
//! The grid: every [`ScheduleKind`] × every [`ByzantineBehavior`] ×
//! three fault budgets × seeded repetitions — ≥ 256 points by default
//! (5 × 4 × 3 × 5 = 300), each a full message-level run with randomly
//! placed Byzantine nodes. Every point is held to the RBC contract:
//!
//! * **agreement + validity** — for Bracha and CTRBC with at most `t`
//!   faults, every good node that delivers, delivers the source's
//!   genuine payload (variant 0), whatever the schedule plays and
//!   whatever the faulty nodes do;
//! * **totality** — at quiescence with a connected good subgraph,
//!   either every good node delivered or none did;
//! * the flood baseline is held to totality only — equivocators are
//!   *expected* to split it, which is the contrast the RBC quorums pay
//!   for.
//!
//! Two cross-cutting checks complete the layer: a metamorphic property
//! (*what* is delivered — and even the message/wire totals — is
//! schedule-invariant under a mute adversary; *when* is not), and a
//! differential check that the default seeded schedule still
//! reproduces `scenarios/rbc-compare.scn`'s pinned goldens
//! bit-identically.
//!
//! The soak dial: `BFTBCAST_RBC_SOAK_SEEDS=N` multiplies the seeds per
//! combination (CI runs 1024 on the release profile).
//!
//! [`ScheduleKind`]: bftbcast::rbc::ScheduleKind
//! [`ByzantineBehavior`]: bftbcast::rbc::ByzantineBehavior

use bftbcast::net::Grid;
use bftbcast::prelude::*;
use bftbcast::rbc::{ByzantineBehavior, RbcConfig, RbcProtocol, RbcSim, ScheduleKind};

/// Seeds per (schedule, behavior, t) combination. 5 × 4 × 3 = 60
/// combinations, so the default 5 seeds explore 300 points; the soak
/// variable spreads its budget across the combinations.
fn seeds_per_combo() -> u64 {
    std::env::var("BFTBCAST_RBC_SOAK_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(5, |n| (n / 60).max(5))
}

/// SplitMix64 — one point seed fans out into placement and payload.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The torus per fault budget, all satisfying `n ≥ 3t + 1` with the
/// echo quorum reachable by good nodes alone: a multi-hop r = 1 torus,
/// the complete 5x5 graph, and a mid-degree 7x7.
fn grid_for(t: u32) -> Grid {
    match t {
        1 => Grid::new(7, 7, 1).unwrap(),
        2 => Grid::new(5, 5, 2).unwrap(),
        _ => Grid::new(7, 7, 2).unwrap(),
    }
}

/// `t` distinct Byzantine nodes, never the source (node 0).
fn place_bad(st: &mut u64, n: usize, t: u32) -> Vec<usize> {
    let mut bad = Vec::new();
    while bad.len() < t as usize {
        let u = 1 + (next(st) % (n as u64 - 1)) as usize;
        if !bad.contains(&u) {
            bad.push(u);
        }
    }
    bad
}

/// Whether the good subgraph is connected (BFS from the good source)
/// — the hypothesis under which totality is asserted.
fn good_subgraph_connected(sim: &RbcSim, n: usize) -> bool {
    let mut seen = vec![false; n];
    let mut queue = vec![0usize];
    seen[0] = true;
    let mut reached = 1;
    while let Some(u) = queue.pop() {
        for w in sim.topology().neighbors_of(u) {
            if !seen[w] && sim.is_good(w) {
                seen[w] = true;
                reached += 1;
                queue.push(w);
            }
        }
    }
    reached == (0..n).filter(|&u| sim.is_good(u)).count()
}

fn run(grid: Grid, bad: &[usize], cfg: RbcConfig) -> RbcSim {
    let mut sim = RbcSim::new(grid, 0, bad, cfg);
    sim.begin();
    while sim.step_wave() {}
    sim
}

/// The full adversary matrix. Every point must drain, and the RBC
/// protocols must hold agreement, validity, and totality against
/// every schedule × behavior combination at budget.
#[test]
fn schedule_behavior_matrix_holds_the_rbc_contract() {
    let seeds = seeds_per_combo();
    let mut points = 0u64;
    for schedule in ScheduleKind::ALL {
        for behavior in ByzantineBehavior::ALL {
            for t in [1u32, 2, 3] {
                for seed in 0..seeds {
                    let grid = grid_for(t);
                    let n = grid.node_count();
                    let mut st = seed
                        ^ (u64::from(t) << 8)
                        ^ ((schedule as u64) << 16)
                        ^ ((behavior as u64) << 24);
                    let bad = place_bad(&mut st, n, t);
                    // Rotate the protocol through the seed axis so all
                    // three share the matrix.
                    let protocol = match seed % 3 {
                        0 => RbcProtocol::Bracha,
                        1 => RbcProtocol::Ctrbc,
                        _ => RbcProtocol::Counting,
                    };
                    let cfg = RbcConfig {
                        protocol,
                        t,
                        payload_bits: 256,
                        max_waves: 10_000,
                        seed: next(&mut st),
                        schedule,
                        behavior,
                    };
                    let sim = run(grid, &bad, cfg);
                    let label = format!("{schedule:?}/{behavior:?} t={t} seed={seed} bad={bad:?}");
                    assert!(sim.quiescent(), "must drain: {label}");
                    let delivered_goods = (0..n)
                        .filter(|&u| sim.is_good(u) && sim.delivered_variant(u).is_some())
                        .count();
                    let goods = (0..n).filter(|&u| sim.is_good(u)).count();
                    let connected = good_subgraph_connected(&sim, n);
                    if protocol != RbcProtocol::Counting {
                        // Agreement + validity: only the genuine
                        // variant is ever delivered at budget.
                        for u in 0..n {
                            if sim.is_good(u) {
                                if let Some(v) = sim.delivered_variant(u) {
                                    assert_eq!(v, 0, "validity: node {u}, {label}");
                                }
                            }
                        }
                    }
                    // Totality (flood included): at quiescence on a
                    // connected good subgraph, delivery is all good
                    // nodes or none.
                    if connected {
                        assert!(
                            delivered_goods == goods || delivered_goods == 0,
                            "totality: {delivered_goods}/{goods} delivered, {label}"
                        );
                        assert_eq!(
                            delivered_goods, goods,
                            "a good source must reach everyone: {label}"
                        );
                    }
                    points += 1;
                }
            }
        }
    }
    assert!(
        points >= 256,
        "the matrix must explore ≥256 points, got {points}"
    );
}

/// Metamorphic property: under a mute adversary, *what* the run
/// produces — per-node delivered variants, total messages, total wire
/// bits — is invariant across every delivery schedule; only *when*
/// (the wave count) may move. At least one point must actually move,
/// or the schedules would be dead code.
#[test]
fn delivery_content_is_schedule_invariant_but_timing_is_not() {
    let mut some_timing_differs = false;
    for t in [1u32, 2, 3] {
        for protocol in [RbcProtocol::Bracha, RbcProtocol::Ctrbc] {
            let grid = grid_for(t);
            let n = grid.node_count();
            let mut st = 0xadd5_c0de ^ u64::from(t);
            let bad = place_bad(&mut st, n, t);
            let cfg = |schedule| RbcConfig {
                protocol,
                t,
                payload_bits: 256,
                max_waves: 10_000,
                seed: 7,
                schedule,
                behavior: ByzantineBehavior::Mute,
            };
            let baseline = run(grid.clone(), &bad, cfg(ScheduleKind::Seeded));
            let base = baseline.outcome();
            for schedule in ScheduleKind::ALL {
                let sim = run(grid.clone(), &bad, cfg(schedule));
                let o = sim.outcome();
                let label = format!("{protocol:?} t={t} {schedule:?}");
                assert_eq!(o.delivered, base.delivered, "{label}");
                assert_eq!(o.messages, base.messages, "{label}");
                assert_eq!(o.wire_bits, base.wire_bits, "{label}");
                for u in 0..n {
                    assert_eq!(
                        sim.delivered_variant(u),
                        baseline.delivered_variant(u),
                        "{label} node {u}"
                    );
                }
                some_timing_differs |= o.waves != base.waves;
            }
        }
    }
    assert!(
        some_timing_differs,
        "deferring schedules must stretch at least one run's wave count"
    );
}

/// Differential check against PR 9: the default schedule (`seeded`)
/// and behavior (`mute`) reproduce `scenarios/rbc-compare.scn`'s
/// pinned goldens bit-identically, and a programmatic run with the
/// axes spelled out explicitly matches the declarative file.
#[test]
fn seeded_schedule_reproduces_the_pinned_rbc_compare_goldens() {
    let path = format!(
        "{}/../scenarios/rbc-compare.scn",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("rbc-compare.scn exists");
    let file = ScenarioFile::parse(&text).expect("rbc-compare parses");
    let report = run_file(&file).expect("rbc-compare runs");
    let golden = [
        ("counting", 1784u64, 7_335_808u64, 9u64),
        ("bracha", 797_448, 3_279_106_176, 20),
        ("ctrbc", 801_016, 681_489_784, 20),
    ];
    for (result, (name, messages, wire_bits, waves)) in report.results.iter().zip(golden) {
        let o = result.outcome.as_rbc().unwrap_or_else(|| panic!("{name}"));
        assert_eq!(o.messages, messages, "{name} messages");
        assert_eq!(o.wire_bits, wire_bits, "{name} wire bits");
        assert_eq!(o.waves, waves, "{name} waves");
    }

    // The same point, constructed directly with the adversary axes
    // explicit instead of defaulted.
    let grid = Grid::new(15, 15, 1).unwrap();
    let bad = vec![grid.id_at(3, 3), grid.id_at(10, 11)];
    let sim = run(
        grid,
        &bad,
        RbcConfig {
            protocol: RbcProtocol::Bracha,
            t: 2,
            payload_bits: 4096,
            max_waves: 10_000,
            seed: 7,
            schedule: ScheduleKind::Seeded,
            behavior: ByzantineBehavior::Mute,
        },
    );
    let o = sim.outcome();
    assert_eq!(
        (o.messages, o.wire_bits, o.waves),
        (797_448, 3_279_106_176, 20),
        "explicit seeded/mute must equal the defaulted golden"
    );
}

/// The contrast the quorums buy: an equivocating *source* is
/// guaranteed to split the flood baseline's agreement down the id
/// halves, while Bracha under the same attack delivers nothing rather
/// than something wrong.
#[test]
fn equivocating_source_splits_the_flood_but_never_bracha() {
    let grid = Grid::new(5, 5, 2).unwrap();
    let cfg = |protocol| RbcConfig {
        protocol,
        t: 1,
        payload_bits: 256,
        max_waves: 10_000,
        seed: 7,
        schedule: ScheduleKind::Seeded,
        behavior: ByzantineBehavior::Equivocate,
    };
    // Byzantine source: node 0 equivocates from the first wave.
    let flood = run(grid.clone(), &[0], cfg(RbcProtocol::Counting));
    let variants: Vec<u8> = (1..25).filter_map(|u| flood.delivered_variant(u)).collect();
    assert!(
        variants.contains(&0) && variants.contains(&1),
        "the flood must split down the id halves: {variants:?}"
    );
    let bracha = run(grid, &[0], cfg(RbcProtocol::Bracha));
    for u in 1..25 {
        assert_eq!(
            bracha.delivered_variant(u),
            None,
            "neither SEND half reaches an echo quorum, so nobody delivers"
        );
    }
}
