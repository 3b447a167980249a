//! Crash-stop faults: the counting engine's third node role.
//!
//! Bhandari and Vaidya \[2\] analyze the crash-stop variant of the radio
//! broadcast problem alongside the Byzantine one: a crash-faulty node
//! behaves honestly (receives, accepts, relays) until it *stops*, after
//! which it sends nothing — it never forges a value and never causes a
//! collision. In the message-budget setting of this paper the crash
//! model is interesting for two reasons:
//!
//! * **Budgets collapse.** With no forged copies in the network, one
//!   correct copy is proof: the acceptance threshold drops from
//!   `t·mf + 1` to 1 and the sufficient per-node budget from `2·m0` to
//!   1 (see [`crash_only_protocol`]). The entire message-cost apparatus
//!   of Theorems 1–3 is a price paid for *forgery*, not for failure —
//!   the crash engine quantifies that price (EXP-X5).
//!
//! * **The threshold moves.** Crash faults block broadcast only by
//!   *disconnection*: a region of stopped nodes thick enough that no
//!   good node beyond it has a good neighbor before it. On the L∞ torus
//!   the cheapest such barrier is a full stripe of height `r`, which
//!   puts `r(2r+1)` faulty nodes in the worst neighborhood — double the
//!   Byzantine threshold `½·r(2r+1)` of Koo \[13\] and exactly the
//!   locally-bounded budget-model bound `t < r(2r+1)` of §1.2.
//!
//! Crash-stop nodes are the third node role of the counting engine
//! ([`CountingSim::with_crash_nodes`](crate::CountingSim::with_crash_nodes)), so a **hybrid** fault load is one
//! run: crash nodes (stop after an adversary-chosen number of honest
//! relays) *plus* Byzantine nodes attacked through the per-receiver
//! oracle of
//! [`CountingSim::run_oracle`](crate::CountingSim::run_oracle). The acceptance threshold then
//! depends only on the Byzantine part (`t_b·mf + 1`), while
//! completeness depends on both.
//!
//! # Example
//!
//! ```
//! use bftbcast_net::Grid;
//! use bftbcast_sim::crash::{crash_only_protocol, CrashBehavior};
//! use bftbcast_sim::CountingSim;
//!
//! let grid = Grid::new(15, 15, 1).unwrap();
//! // Crash faults only: budget 1 per node is enough.
//! let protocol = crash_only_protocol(&grid);
//! let faulty: Vec<usize> = vec![grid.id_at(3, 3), grid.id_at(9, 9)];
//! let mut sim = CountingSim::new(grid, protocol, 0, &[], 0)
//!     .with_crash_nodes(&faulty, CrashBehavior::Immediate);
//! let out = sim.run_oracle(0);
//! assert!(out.is_reliable());
//! ```

use bftbcast_net::{Grid, NodeId};
use bftbcast_protocols::CountingProtocol;

/// When a crash-stop node stops relaying.
///
/// The adversary schedules crashes; the worst case for completeness is
/// [`CrashBehavior::Immediate`] (the node contributes nothing), which is
/// what the impossibility constructions use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashBehavior {
    /// The node crashes before relaying anything — the worst case.
    Immediate,
    /// The node relays up to this many copies honestly, then stops.
    AfterCopies(u64),
    /// The node completes its relay quota and crashes afterwards (its
    /// crash is unobservable; included so sweeps can span the benign
    /// end of the spectrum).
    AfterQuota,
}

impl CrashBehavior {
    /// Copies a crash node with relay quota `quota` actually sends.
    pub(crate) fn copies_sent(self, quota: u64) -> u64 {
        match self {
            CrashBehavior::Immediate => 0,
            CrashBehavior::AfterCopies(k) => k.min(quota),
            CrashBehavior::AfterQuota => quota,
        }
    }
}

/// The crash-only protocol: with no forgery possible, one correct copy
/// is proof, so the source sends one copy, every node relays one copy,
/// and the acceptance threshold is 1.
pub fn crash_only_protocol(grid: &Grid) -> CountingProtocol {
    let n = grid.node_count();
    CountingProtocol {
        name: "crash-only(m=1)".to_string(),
        source_copies: 1,
        relay_copies: vec![1; n],
        budget: vec![1; n],
        accept_threshold: 1,
    }
}

/// The exact crash-fault threshold on the L∞ torus: a full stripe of
/// height `r` (the cheapest disconnecting barrier) loads the worst
/// neighborhood with `r(2r+1)` faulty nodes, so broadcast tolerates any
/// `t < r(2r+1)` crash faults per neighborhood and fails at
/// `t = r(2r+1)`.
pub fn crash_threshold(r: u32) -> u64 {
    let r = u64::from(r);
    r * (2 * r + 1)
}

/// The stripe-of-height-`h` crash placement: all nodes in rows
/// `y0 .. y0 + h` (wrapping). With `h = r` this is the cheapest barrier
/// that disconnects the torus; with `h = r − 1` propagation leaks
/// through. Pair two stripes to isolate a band, as in the Theorem 1
/// experiments.
pub fn crash_stripe(grid: &Grid, y0: u32, h: u32) -> Vec<NodeId> {
    let mut out = Vec::new();
    for dy in 0..h {
        let y = (y0 + dy) % grid.height();
        for x in 0..grid.width() {
            out.push(grid.id_at(x, y));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingSim;
    use bftbcast_net::Value;
    use bftbcast_protocols::Params;

    fn grid(r: u32) -> Grid {
        Grid::new(20, 20, r).unwrap()
    }

    #[test]
    fn crash_free_run_completes_with_budget_one() {
        let g = grid(1);
        let proto = crash_only_protocol(&g);
        let mut sim = CountingSim::new(g, proto, 0, &[], 0);
        let out = sim.run_oracle(0);
        assert!(out.is_reliable());
        assert_eq!(out.good_copies_sent, 399, "each non-source relays once");
    }

    #[test]
    fn immediate_crashes_below_threshold_do_not_block() {
        // Stripe of height r - 1 = 1 at r = 2: leaks.
        let g = grid(2);
        let dead = crash_stripe(&g, 5, 1);
        let proto = crash_only_protocol(&g);
        let mut sim =
            CountingSim::new(g, proto, 0, &[], 0).with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run_oracle(0);
        assert!(out.is_reliable(), "coverage {}", out.coverage());
    }

    #[test]
    fn stripe_of_height_r_blocks_even_with_crash_faults_only() {
        // Two stripes of height r isolate the band between them.
        let g = grid(2);
        let mut dead = crash_stripe(&g, 5, 2);
        dead.extend(crash_stripe(&g, 15, 2));
        dead.sort_unstable();
        dead.dedup();
        let proto = crash_only_protocol(&g);
        let mut sim = CountingSim::new(g.clone(), proto, 0, &[], 0)
            .with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run_oracle(0);
        assert!(out.is_correct());
        assert!(!out.is_complete(), "coverage {}", out.coverage());
        // The isolated band (rows 7..15) is exactly the starved set.
        for y in 7..15 {
            for x in 0..g.width() {
                assert_eq!(sim.accepted(g.id_at(x, y)), None, "({x},{y})");
            }
        }
        for x in 0..g.width() {
            assert_eq!(sim.accepted(g.id_at(x, 0)), Some(Value::TRUE));
        }
    }

    #[test]
    fn crash_after_quota_is_invisible() {
        let g = grid(1);
        let dead = crash_stripe(&g, 5, 1);
        let proto = crash_only_protocol(&g);
        let mut sim = CountingSim::new(g.clone(), proto, 0, &[], 0)
            .with_crash_nodes(&dead, CrashBehavior::AfterQuota);
        let out = sim.run_oracle(0);
        // Crash-after-quota nodes relay fully; every *good* node accepts
        // and so do the crash nodes themselves (they are honest until
        // they stop).
        assert!(out.is_reliable());
        for &u in &dead {
            assert_eq!(sim.accepted(u), Some(Value::TRUE));
        }
    }

    #[test]
    fn after_copies_caps_at_quota() {
        assert_eq!(CrashBehavior::AfterCopies(7).copies_sent(3), 3);
        assert_eq!(CrashBehavior::AfterCopies(2).copies_sent(3), 2);
        assert_eq!(CrashBehavior::Immediate.copies_sent(3), 0);
        assert_eq!(CrashBehavior::AfterQuota.copies_sent(3), 3);
    }

    #[test]
    fn hybrid_load_byzantine_threshold_still_holds() {
        // t_b = 1 Byzantine per neighborhood (lattice-ish corners) plus a
        // leaky crash stripe: protocol B at the Byzantine-only budget
        // still completes, and correctness never breaks.
        let g = grid(2);
        let p = Params::new(2, 1, 5);
        let proto = bftbcast_protocols::CountingProtocol::protocol_b(&g, p);
        let byz: Vec<NodeId> = vec![g.id_at(3, 3), g.id_at(13, 13)];
        let dead = crash_stripe(&g, 9, 1);
        let dead: Vec<NodeId> = dead.into_iter().filter(|u| !byz.contains(u)).collect();
        let mut sim = CountingSim::new(g, proto, 0, &byz, p.mf)
            .with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run_oracle(p.mf);
        assert!(out.is_correct());
        assert!(out.is_complete(), "coverage {}", out.coverage());
    }

    /// `reset` must erase a run that decided everyone before one that
    /// starves a band (and the other way round): Theorem 1's double
    /// stripe at `m = m0 − 1` holds the band only when attacking.
    #[test]
    fn reset_restores_the_built_state() {
        use bftbcast_adversary::{Placement, StripePlacement};
        let g = Grid::new(15, 15, 1).unwrap();
        let p = Params::new(1, 1, 4);
        let mut byz = StripePlacement::facing_up(4, 1).bad_nodes(&g);
        byz.extend(StripePlacement::facing_down(11, 1).bad_nodes(&g));
        let proto = bftbcast_protocols::CountingProtocol::starved(&g, p, p.m0() - 1);
        let build = || CountingSim::new(g.clone(), proto.clone(), 0, &byz, p.mf);
        let state = |sim: &CountingSim| -> Vec<_> {
            g.nodes()
                .map(|u| {
                    let tallies = (sim.tally_true(u), sim.tally_wrong(u));
                    (sim.accepted(u), sim.accepted_wave(u), tallies)
                })
                .collect()
        };
        assert!(!build().run_oracle(p.mf).is_complete());
        for (first, second) in [(0, p.mf), (p.mf, 0)] {
            let mut sim = build();
            sim.run_oracle(first);
            sim.reset();
            let out = sim.run_oracle(second);
            let mut fresh = build();
            assert_eq!(out, fresh.run_oracle(second), "mf {second}");
            assert_eq!(state(&sim), state(&fresh), "mf {second}");
        }
    }

    #[test]
    fn crash_threshold_formula() {
        assert_eq!(crash_threshold(1), 3);
        assert_eq!(crash_threshold(2), 10);
        assert_eq!(crash_threshold(4), 36);
    }

    #[test]
    #[should_panic(expected = "already faulty")]
    fn double_fault_assignment_panics() {
        let g = grid(1);
        let proto = crash_only_protocol(&g);
        let _ =
            CountingSim::new(g, proto, 0, &[5], 0).with_crash_nodes(&[5], CrashBehavior::Immediate);
    }

    #[test]
    #[should_panic(expected = "node 5 already faulty")]
    fn double_crash_assignment_panics() {
        let g = grid(1);
        let proto = crash_only_protocol(&g);
        let _ = CountingSim::new(g, proto, 0, &[], 0)
            .with_crash_nodes(&[5, 9], CrashBehavior::Immediate)
            .with_crash_nodes(&[5], CrashBehavior::AfterQuota);
    }

    #[test]
    #[should_panic(expected = "base station is assumed correct")]
    fn source_cannot_crash() {
        let g = grid(1);
        let proto = crash_only_protocol(&g);
        let _ =
            CountingSim::new(g, proto, 0, &[], 0).with_crash_nodes(&[0], CrashBehavior::Immediate);
    }
}
