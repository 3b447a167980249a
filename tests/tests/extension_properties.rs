//! Property-based tests for the extension systems, including an
//! independent cross-validation of the crash engine against plain
//! graph reachability.

use bftbcast::prelude::*;
use bftbcast::protocols::agreement::{self, DEFAULT_VALUE};
use proptest::prelude::*;

/// Independent oracle: BFS over good nodes with L∞ radius `r` hops.
/// With crash-only faults and budget 1 the engine must decide exactly
/// the reachable good set.
fn reachable_good(grid: &Grid, source: NodeId, dead: &[NodeId]) -> Vec<bool> {
    let mut is_dead = vec![false; grid.node_count()];
    for &d in dead {
        is_dead[d] = true;
    }
    let mut seen = vec![false; grid.node_count()];
    let mut queue = std::collections::VecDeque::new();
    seen[source] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in grid.neighbors(u) {
            if !seen[v] && !is_dead[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash engine == BFS reachability, for random crash sets.
    #[test]
    fn crash_engine_matches_graph_reachability(
        seed in any::<u64>(),
        deaths in 1usize..60,
        r in 1u32..3,
    ) {
        let side = 6 * (2 * r + 1);
        let grid = Grid::new(side, side, r).unwrap();
        // Random distinct crash nodes (never the source 0).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut dead: Vec<NodeId> = (0..deaths)
            .map(|_| rng.random_range(1..grid.node_count()))
            .collect();
        dead.sort_unstable();
        dead.dedup();

        let mut sim = CountingSim::new(grid.clone(), crash_only_protocol(&grid), 0, &[], 0)
            .with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run_oracle(0);
        prop_assert!(out.is_correct());

        let reachable = reachable_good(&grid, 0, &dead);
        for u in grid.nodes() {
            if dead.contains(&u) {
                continue;
            }
            let decided = sim.accepted(u) == Some(Value::TRUE);
            prop_assert_eq!(
                decided, reachable[u],
                "node {} decided={} reachable={}", u, decided, reachable[u]
            );
        }
    }

    /// Majority acceptance is safe whenever the quorum is at least
    /// 2*t*mf + 1, for random placements and parameters.
    #[test]
    fn majority_quorum_2tmf1_is_always_safe(
        seed in any::<u64>(),
        t in 1u32..3,
        mf in 1u64..12,
    ) {
        let r = 2u32;
        let side = (2 * r + 1) * 3;
        let s = Scenario::builder(side, side, r)
            .faults(t, mf)
            .random_placement(10, seed)
            .build()
            .unwrap();
        let quorum = 2 * u64::from(t) * mf + 1;
        let proto = CountingProtocol::starved(s.grid(), s.params(), quorum);
        let mut sim = s.counting_sim(proto);
        let out = sim.run_majority_oracle(mf, quorum);
        prop_assert_eq!(out.wrong_accepts, 0, "quorum {} forged", quorum);
    }

    /// `leading_with_margin` always returns a value whose tally is
    /// maximal and leads the runner-up by at least the margin.
    #[test]
    fn leading_with_margin_is_sound(
        tallies in proptest::collection::vec((1u64..8, 0u64..40), 0..8),
        margin in 0u64..10,
    ) {
        // The documented contract: callers pass aggregated tallies
        // (one entry per value).
        let mut agg = std::collections::BTreeMap::new();
        for (v, n) in tallies {
            *agg.entry(v).or_insert(0u64) += n;
        }
        let tallies: Vec<(Value, u64)> =
            agg.into_iter().map(|(v, n)| (Value(v), n)).collect();
        if let Some(winner) = agreement::leading_with_margin(&tallies, margin) {
            let win_tally: u64 = tallies
                .iter()
                .filter(|&&(v, _)| v == winner)
                .map(|&(_, n)| n)
                .next()
                .unwrap_or(0);
            for &(v, n) in &tallies {
                if v != winner {
                    prop_assert!(
                        win_tally >= n + margin.max(1),
                        "winner {winner:?}@{win_tally} vs {v:?}@{n}, margin {margin}"
                    );
                }
            }
        }
    }

    /// The proven-mode decision function never decides a value absent
    /// from the entries, and perturbing up to t entries never yields two
    /// different decided values.
    #[test]
    fn decide_vector_sound_under_perturbation(
        entries in proptest::collection::vec(1u64..5, 1..24),
        t in 0u32..3,
        flips in proptest::collection::vec((0usize..24, 1u64..5), 0..3),
    ) {
        let base: Vec<Value> = entries.iter().map(|&v| Value(v)).collect();
        let a = agreement::decide_vector(&base, t);
        if a != DEFAULT_VALUE {
            prop_assert!(base.contains(&a), "decided a value nobody proposed");
        }
        // Perturb at most t entries.
        let mut other = base.clone();
        for &(idx, v) in flips.iter().take(t as usize) {
            if idx < other.len() {
                other[idx] = Value(v);
            }
        }
        let b = agreement::decide_vector(&other, t);
        if a != DEFAULT_VALUE && b != DEFAULT_VALUE {
            prop_assert_eq!(a, b, "two members decided differently");
        }
    }

    /// Energy model sanity: lifetime is antitone in quota and in message
    /// width.
    #[test]
    fn energy_lifetime_is_antitone(
        quota in 1u64..500,
        bits in 8u64..2048,
    ) {
        use bftbcast::protocols::energy::EnergyModel;
        let m = EnergyModel::mica2_default();
        let base = m.node_ledger(quota, bits);
        let more_msgs = m.node_ledger(quota + 10, bits);
        let more_bits = m.node_ledger(quota, bits + 64);
        prop_assert!(more_msgs.lifetime_broadcasts <= base.lifetime_broadcasts);
        prop_assert!(more_bits.lifetime_broadcasts <= base.lifetime_broadcasts);
        prop_assert!(base.tx_j > 0.0 && base.rx_j > 0.0);
    }

    /// Any run's SVG map is well-formed with exactly one rect per node,
    /// under random placements.
    #[test]
    fn svg_map_is_structurally_sound(seed in any::<u64>(), count in 0usize..20) {
        let s = Scenario::builder(12, 12, 1)
            .faults(2, 3)
            .random_placement(count, seed)
            .build()
            .unwrap();
        let proto = CountingProtocol::protocol_b(s.grid(), s.params());
        let mut sim = s.counting_sim(proto);
        sim.run_oracle(s.params().mf);
        let svg = GridMap::from_counting_sim(&sim, s.source(), 8).render("prop");
        prop_assert_eq!(svg.matches("<rect").count(), 144);
        prop_assert!(svg.starts_with("<svg"));
        prop_assert!(svg.trim_end().ends_with("</svg>"));
    }
}

/// Deterministic companion to the BFS property: the engine and BFS also
/// agree when crash nodes form a barrier (the disconnected case).
#[test]
fn crash_engine_matches_reachability_with_barrier() {
    let grid = Grid::new(20, 20, 2).unwrap();
    let mut dead = crash_stripe(&grid, 6, 2);
    dead.extend(crash_stripe(&grid, 14, 2));
    dead.sort_unstable();
    dead.dedup();
    let mut sim = CountingSim::new(grid.clone(), crash_only_protocol(&grid), 0, &[], 0)
        .with_crash_nodes(&dead, CrashBehavior::Immediate);
    sim.run_oracle(0);
    let reachable = reachable_good(&grid, 0, &dead);
    for u in grid.nodes() {
        if dead.contains(&u) {
            continue;
        }
        assert_eq!(
            sim.accepted(u) == Some(Value::TRUE),
            reachable[u],
            "node {u}"
        );
    }
}
