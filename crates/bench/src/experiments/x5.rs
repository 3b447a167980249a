//! EXP-X5 — the crash-stop fault model (extension).
//!
//! Bhandari–Vaidya analyze crash-stop faults alongside Byzantine ones;
//! this paper's machinery is all priced for *forgery*. The experiment
//! quantifies both deltas on the paper's own torus:
//!
//! * **budget**: with crash faults only, one correct copy is proof —
//!   per-node budget 1 versus the Byzantine `2·m0`;
//! * **threshold**: crash faults block only by disconnection; the
//!   cheapest barrier (a full stripe of height `r`) needs `r(2r+1)`
//!   faults per neighborhood — double the Byzantine collision threshold
//!   `½·r(2r+1)` and at the top of the budget-model bound `t < r(2r+1)`.
//!
//! A hybrid table shows both loads at once: a Byzantine lattice at the
//! paper's `t` plus a leaky crash stripe, handled by protocol B at the
//! Byzantine-only budget.

use bftbcast::adversary::{LatticePlacement, Placement};
use bftbcast::prelude::*;
use bftbcast::sim::crash::{crash_only_protocol, crash_stripe, crash_threshold, CrashBehavior};

use super::torus_side;

/// Coverage of a crash-only run with two stripes of height `h`.
fn stripe_run(r: u32, mult: u32, h: u32) -> CountingOutcome {
    let side = torus_side(r, mult);
    let grid = Grid::new(side, side, r).expect("valid grid");
    let mut dead = crash_stripe(&grid, side / 3, h);
    dead.extend(crash_stripe(&grid, 2 * side / 3 + r, h));
    dead.sort_unstable();
    dead.dedup();
    let proto = crash_only_protocol(&grid);
    let mut sim =
        CountingSim::new(grid, proto, 0, &[], 0).with_crash_nodes(&dead, CrashBehavior::Immediate);
    sim.run_oracle(0)
}

/// Runs the experiment.
pub fn run() -> Vec<Table> {
    let mut thresholds = Table::new(
        "EXP-X5a: crash vs Byzantine — tolerable faults per neighborhood and per-node budget",
        &[
            "r",
            "crash t* = r(2r+1)",
            "byz t* (collision, Koo) = ceil(r(2r+1)/2)",
            "crash budget",
            "byz budget 2m0 (t=1, mf=100)",
        ],
    );
    for r in 1..=4u32 {
        let p = Params::new(r, 1, 100);
        thresholds.row(&[
            r.to_string(),
            crash_threshold(r).to_string(),
            reactive_max_t(r).to_string(),
            "1".to_string(),
            p.sufficient_budget().to_string(),
        ]);
    }

    let mut stripes = Table::new(
        "EXP-X5b: crash stripes — height r-1 leaks, height r disconnects (budget 1 everywhere)",
        &["r", "torus", "stripe h", "coverage", "complete"],
    );
    for &(r, mult) in &[(1u32, 5u32), (2, 4), (3, 3)] {
        let mut heights = vec![r.saturating_sub(1).max(1), r, r + 1];
        heights.dedup();
        for h in heights {
            let out = stripe_run(r, mult, h);
            let side = torus_side(r, mult);
            stripes.row(&[
                r.to_string(),
                format!("{side}x{side}"),
                h.to_string(),
                format!("{:.3}", out.coverage()),
                out.is_complete().to_string(),
            ]);
        }
    }

    let mut hybrid = Table::new(
        "EXP-X5c: hybrid load — Byzantine lattice (t, mf) + leaky crash stripe, protocol B at 2m0",
        &[
            "r",
            "t",
            "mf",
            "crash faults",
            "byz faults",
            "coverage",
            "correct",
        ],
    );
    for &(r, mult, t, mf) in &[(2u32, 4u32, 1u32, 20u64), (2, 4, 2, 10), (3, 3, 1, 50)] {
        let side = torus_side(r, mult);
        let grid = Grid::new(side, side, r).expect("valid grid");
        let p = Params::new(r, t, mf);
        let byz: Vec<NodeId> = LatticePlacement::new(t)
            .bad_nodes(&grid)
            .into_iter()
            .filter(|&u| u != 0)
            .collect();
        let dead: Vec<NodeId> = crash_stripe(&grid, side / 2, r.saturating_sub(1).max(1))
            .into_iter()
            .filter(|u| !byz.contains(u) && *u != 0)
            .collect();
        let proto = CountingProtocol::protocol_b(&grid, p);
        let mut sim = CountingSim::new(grid, proto, 0, &byz, mf)
            .with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run_oracle(mf);
        hybrid.row(&[
            r.to_string(),
            t.to_string(),
            mf.to_string(),
            dead.len().to_string(),
            byz.len().to_string(),
            format!("{:.3}", out.coverage()),
            out.is_correct().to_string(),
        ]);
    }

    vec![thresholds, stripes, hybrid]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_height_r_blocks_and_r_minus_1_leaks() {
        for &(r, mult) in &[(2u32, 4u32), (3, 3)] {
            let leak = stripe_run(r, mult, r - 1);
            assert!(leak.is_complete(), "r={r}: h=r-1 must leak");
            let block = stripe_run(r, mult, r);
            assert!(!block.is_complete(), "r={r}: h=r must disconnect");
            assert!(block.is_correct(), "crash faults never forge");
        }
    }

    #[test]
    fn r1_stripe_of_height_1_blocks() {
        // At r = 1 the minimal barrier is a single row.
        let out = stripe_run(1, 5, 1);
        assert!(!out.is_complete());
    }

    #[test]
    fn hybrid_rows_all_complete_and_correct() {
        for table in run() {
            if table.title().contains("X5c") {
                for row in table.rows() {
                    assert_eq!(row[5], "1.000", "hybrid coverage: {row:?}");
                    assert_eq!(row[6], "true");
                }
            }
        }
    }
}
