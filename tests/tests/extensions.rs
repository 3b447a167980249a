//! Integration tests for the extension systems: faulty-source
//! agreement, crash-stop/hybrid faults, probabilistic placement, the
//! acceptance-rule ablation and SVG rendering — exercised together
//! through the public `bftbcast` API.

use bftbcast::adversary::{respects_local_bound, Placement};
use bftbcast::prelude::*;
use bftbcast::protocols::agreement::proven_member_cost;

/// Agreement feeds broadcast: a correct source's neighborhood agrees on
/// `Vtrue` in both modes, and the agreed value then survives the
/// strongest multi-hop adversary.
#[test]
fn agreement_then_broadcast_end_to_end() {
    let params = Params::new(2, 1, 10);
    let cfg = AgreementConfig::paper_margins(params);
    let grid = Grid::new(15, 15, 2).unwrap();
    let source = grid.id_at(7, 7);
    let colluders = vec![grid.id_at(7, 8)];
    for proven in [false, true] {
        let mut sim = AgreementSim::new(grid.clone(), cfg, source, &colluders);
        let out = if proven {
            sim.run_proven(SourceBehavior::Correct, SplitAttack::strongest())
        } else {
            sim.run(SourceBehavior::Correct, SplitAttack::strongest())
        };
        assert!(out.validity_holds() && out.agreement_holds());
        assert_eq!(out.decided_values(), vec![Value::TRUE]);
    }

    let s = Scenario::builder(20, 20, 2)
        .faults(1, 10)
        .lattice_placement()
        .build()
        .unwrap();
    assert!(s.run_protocol_b(Adversary::PerReceiverOracle).is_reliable());
}

/// The cheap mode's split window and the proven mode's immunity, as a
/// single cross-mode comparison at the documented parameters.
#[test]
fn cheap_splits_where_proven_does_not() {
    let params = Params::new(2, 1, 10);
    let cfg = AgreementConfig::paper_margins(params);
    let grid = Grid::new(15, 15, 2).unwrap();
    let source = grid.id_at(7, 7);
    let colluders = vec![grid.id_at(6, 8)];
    let mut cheap_split = false;
    for p1 in 0..=10 {
        for pe in 0..=10 {
            let attack = SplitAttack {
                value_a: Value(2),
                value_b: Value(3),
                phase1_fraction: f64::from(p1) / 10.0,
                echo_fraction: f64::from(pe) / 10.0,
            };
            let behavior = SourceBehavior::even_split(&cfg, Value(2), Value(3));
            let mut sim = AgreementSim::new(grid.clone(), cfg, source, &colluders);
            if !sim.run(behavior.clone(), attack).agreement_holds() {
                cheap_split = true;
            }
            let mut sim = AgreementSim::new(grid.clone(), cfg, source, &colluders);
            assert!(
                sim.run_proven(behavior, attack).agreement_holds(),
                "proven mode split at ({p1},{pe})"
            );
        }
    }
    assert!(cheap_split, "the split window is a documented finding");
    // And the price of immunity:
    assert!(proven_member_cost(params) > 20 * cfg.member_cost());
}

/// Crash and Byzantine engines agree with the counting engine where
/// they overlap: a Byzantine-only crash-engine run (a crash load with no
/// crash node) matches CountingSim::run_oracle on the same placement.
#[test]
fn hybrid_engine_matches_counting_oracle_on_byzantine_only_loads() {
    let grid = Grid::new(20, 20, 2).unwrap();
    let p = Params::new(2, 1, 20);
    let bad = bftbcast::adversary::LatticePlacement::new(1)
        .bad_nodes(&grid)
        .into_iter()
        .filter(|&u| u != 0)
        .collect::<Vec<_>>();

    let proto = CountingProtocol::protocol_b(&grid, p);
    let mut counting = CountingSim::new(grid.clone(), proto.clone(), 0, &bad, p.mf);
    let a = counting.run_oracle(p.mf);

    let mut hybrid = CountingSim::new(grid, proto, 0, &bad, p.mf)
        .with_crash_nodes(&[], CrashBehavior::Immediate);
    let b = hybrid.run_oracle(p.mf);

    assert_eq!(a.good_nodes, b.good_nodes);
    assert_eq!(a.accepted_true, b.accepted_true);
    assert_eq!(a.waves, b.waves);
    assert_eq!(a.adversary_spent, b.adversary_spent);
}

/// Crash faults below the disconnection threshold cost nothing extra:
/// budget-1 broadcast completes; at the threshold it cannot.
#[test]
fn crash_threshold_is_sharp_on_the_torus() {
    for r in [1u32, 2, 3] {
        let side = (2 * r + 1) * 3;
        let grid = Grid::new(side, side, r).unwrap();
        // Height r-1 leaks (r=1: empty barrier trivially leaks).
        if r > 1 {
            let mut dead = crash_stripe(&grid, side / 3, r - 1);
            dead.extend(crash_stripe(&grid, 2 * side / 3 + r, r - 1));
            dead.sort_unstable();
            dead.dedup();
            let mut sim = CountingSim::new(grid.clone(), crash_only_protocol(&grid), 0, &[], 0)
                .with_crash_nodes(&dead, CrashBehavior::Immediate);
            assert!(
                sim.run_oracle(0).is_complete(),
                "r={r}: height r-1 must leak"
            );
        }
        // Height r blocks.
        let mut dead = crash_stripe(&grid, side / 3, r);
        dead.extend(crash_stripe(&grid, 2 * side / 3 + r, r));
        dead.sort_unstable();
        dead.dedup();
        let mut sim = CountingSim::new(grid.clone(), crash_only_protocol(&grid), 0, &[], 0)
            .with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run_oracle(0);
        assert!(!out.is_complete(), "r={r}: height r must disconnect");
        assert!(out.is_correct(), "crash faults never forge");
    }
}

/// Probabilistic placement composes with the scenario machinery: below
/// the critical rate the local bound holds on most seeds and protocol B
/// stays reliable; correctness holds on every seed regardless.
#[test]
fn bernoulli_corruption_below_critical_rate_is_survivable() {
    let grid = Grid::new(20, 20, 2).unwrap();
    let t = 2u32;
    let p_star = critical_p(400, 2, u64::from(t), 0.99);
    let params = Params::new(2, t, 10);
    let mut reliable = 0;
    for seed in 0..40u64 {
        let bad = BernoulliPlacement {
            p: p_star,
            seed,
            source: 0,
        }
        .bad_nodes(&grid);
        let proto = CountingProtocol::protocol_b(&grid, params);
        let mut sim = bftbcast::sim::CountingSim::new(grid.clone(), proto, 0, &bad, params.mf);
        let out = sim.run_oracle(params.mf);
        assert!(
            out.is_correct(),
            "seed {seed}: correctness must never break"
        );
        if out.is_reliable() {
            reliable += 1;
        }
    }
    assert!(
        reliable >= 36,
        "at p* expect ~99% reliability, got {reliable}/40"
    );
}

/// An overloaded neighborhood (local bound broken) can defeat the
/// provisioned budget — the deterministic guarantee really is
/// conditioned on the bound.
#[test]
fn overloaded_neighborhoods_can_stall_a_provisioned_protocol() {
    let grid = Grid::new(20, 20, 2).unwrap();
    let params = Params::new(2, 1, 10); // provisioned for t = 1
    let mut stalled_with_overload = false;
    for seed in 0..200u64 {
        let bad = BernoulliPlacement {
            p: 0.10,
            seed,
            source: 0,
        }
        .bad_nodes(&grid);
        let overloaded = !respects_local_bound(&grid, &bad, 1);
        let proto = CountingProtocol::protocol_b(&grid, params);
        let mut sim = bftbcast::sim::CountingSim::new(grid.clone(), proto, 0, &bad, params.mf);
        let out = sim.run_oracle(params.mf);
        if overloaded && !out.is_complete() {
            stalled_with_overload = true;
            break;
        }
    }
    assert!(
        stalled_with_overload,
        "10% corruption against a t=1 budget should stall some seed"
    );
}

/// The visualization layer renders real runs: counting-sim heat map and
/// a sweep chart, both well-formed SVG with the expected cell count.
#[test]
fn svg_rendering_from_real_runs() {
    let s = Scenario::builder(15, 15, 1)
        .faults(1, 4)
        .lattice_placement()
        .build()
        .unwrap();
    let proto = CountingProtocol::protocol_b(s.grid(), s.params());
    let mut sim = s.counting_sim(proto);
    let out = sim.run_oracle(s.params().mf);
    assert!(out.is_reliable());
    let svg = GridMap::from_counting_sim(&sim, s.source(), 10).render("t");
    assert_eq!(svg.matches("<rect").count(), 225);
    assert!(svg.contains("#1a1a1a"), "bad nodes must render");

    let mut chart = LineChart::new("coverage", "m", "fraction");
    let pts: Vec<(f64, f64)> = (1..=5)
        .map(|m| {
            let proto = CountingProtocol::starved(s.grid(), s.params(), m);
            let mut sim = s.counting_sim(proto);
            (m as f64, sim.run_oracle(s.params().mf).coverage())
        })
        .collect();
    chart.series("oracle", &pts);
    let svg = chart.render();
    assert!(svg.starts_with("<svg") && svg.contains("</svg>"));
    assert_eq!(svg.matches("<circle").count(), 5);
}

/// The majority-rule ablation end-to-end: same network, three rules,
/// the documented safety ordering.
#[test]
fn acceptance_rule_ordering_holds() {
    let s = Scenario::builder(20, 20, 2)
        .faults(1, 10)
        .lattice_placement()
        .build()
        .unwrap();
    let p = s.params();
    let tmf1 = 11u64;

    let threshold = s.run_protocol_b(Adversary::PerReceiverOracle);
    assert!(threshold.is_reliable());

    let proto = CountingProtocol::starved(s.grid(), p, tmf1);
    let mut sim = s.counting_sim(proto);
    let low = sim.run_majority_oracle(p.mf, tmf1);
    assert!(low.wrong_accepts > 0);

    let proto = CountingProtocol::starved(s.grid(), p, 2 * tmf1 - 1);
    let mut sim = s.counting_sim(proto);
    let high = sim.run_majority_oracle(p.mf, 2 * tmf1 - 1);
    assert!(high.is_correct());
    assert!(high.is_complete());
}
