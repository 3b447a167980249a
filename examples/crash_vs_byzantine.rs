//! Crash-stop vs Byzantine faults: what forgery actually costs.
//!
//! The paper's entire message-budget apparatus (`m0`, `2·m0`, the
//! `t·mf + 1` threshold) is the price of *forgery*. This example runs
//! the same torus under three fault loads — crash-only, Byzantine-only,
//! and a hybrid — and compares budgets, thresholds and coverage.
//!
//! ```text
//! cargo run --release -p bftbcast-examples --bin crash_vs_byzantine
//! ```

use bftbcast::adversary::{LatticePlacement, Placement};
use bftbcast::prelude::*;
use bftbcast_examples::banner;

fn main() {
    let (r, t, mf) = (2u32, 1u32, 20u64);
    let p = Params::new(r, t, mf);
    let grid = Grid::new(20, 20, r).expect("valid grid");

    banner("what each fault class costs");
    println!(
        "Byzantine (t={t}, mf={mf}): per-node budget 2*m0 = {}, accept on {} copies",
        p.sufficient_budget(),
        p.accept_threshold()
    );
    println!("crash-stop: per-node budget 1, accept on 1 copy");
    println!(
        "tolerable faults/neighborhood: byz < {} (collision model), crash < {}",
        reactive_max_t(r),
        crash_threshold(r)
    );

    banner("crash-only: budget 1 survives heavy losses");
    // A leaky stripe (height r-1) of dead nodes plus scattered crashes.
    let mut dead = crash_stripe(&grid, 9, r - 1);
    dead.extend([grid.id_at(3, 3), grid.id_at(15, 4), grid.id_at(7, 16)]);
    dead.sort_unstable();
    dead.dedup();
    let proto = crash_only_protocol(&grid);
    let mut sim = CountingSim::new(grid.clone(), proto, 0, &[], 0)
        .with_crash_nodes(&dead, CrashBehavior::Immediate);
    let out = sim.run_oracle(0);
    println!(
        "{} crashed nodes, coverage {:.1}%, total good copies sent: {}",
        dead.len(),
        100.0 * out.coverage(),
        out.good_copies_sent
    );

    banner("crash-only: a stripe of height r disconnects");
    let mut barrier = crash_stripe(&grid, 6, r);
    barrier.extend(crash_stripe(&grid, 14, r));
    barrier.sort_unstable();
    barrier.dedup();
    let proto = crash_only_protocol(&grid);
    let mut sim = CountingSim::new(grid.clone(), proto, 0, &[], 0)
        .with_crash_nodes(&barrier, CrashBehavior::Immediate);
    let out = sim.run_oracle(0);
    println!(
        "two height-{r} stripes ({} nodes): coverage {:.1}% — the isolated band is starved, \
         which is why the crash threshold is r(2r+1) = {}",
        barrier.len(),
        100.0 * out.coverage(),
        crash_threshold(r)
    );

    banner("hybrid: Byzantine lattice + crash stripe");
    let byz: Vec<NodeId> = LatticePlacement::new(t)
        .bad_nodes(&grid)
        .into_iter()
        .filter(|&u| u != 0)
        .collect();
    let dead: Vec<NodeId> = crash_stripe(&grid, 9, r - 1)
        .into_iter()
        .filter(|u| !byz.contains(u) && *u != 0)
        .collect();
    let proto = CountingProtocol::protocol_b(&grid, p);
    let mut sim = CountingSim::new(grid, proto, 0, &byz, mf)
        .with_crash_nodes(&dead, CrashBehavior::Immediate);
    let out = sim.run_oracle(mf);
    println!(
        "{} byzantine + {} crashed: protocol B at 2*m0 still delivers \
         coverage {:.1}%, correct={}",
        byz.len(),
        dead.len(),
        100.0 * out.coverage(),
        out.is_correct()
    );
    println!("(the Byzantine part sets the threshold; the crash part only thins the relay supply)");
}
