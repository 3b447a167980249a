//! Pinned golden for the scale sweep's 1024×1024 point.
//!
//! The `scale` experiment (`crates/bench/src/experiments/scale.rs`)
//! sweeps the frontier kernel up to a 4096×4096 torus; its timings are
//! machine-dependent, but everything else about the 1024×1024 point is
//! exactly reproducible: the outcome counters of the broadcast and the
//! per-wave frontier trajectory. This test pins both — the counters
//! directly, and the trajectory as a rendered figure hashed through the
//! report layer ([`figure_hash`]), so any drift in the kernel, the
//! sweep's adversary construction, *or* the SVG renderer shows up as a
//! golden mismatch.
//!
//! [`figure_hash`]: bftbcast::report::figure_hash

use bftbcast::adversary::{AttackPlan, Chaos, CorruptionStrategy, WaveView};
use bftbcast::net::{Grid, NodeId, ScanMode, Topology};
use bftbcast::protocols::{CountingProtocol, Params};
use bftbcast::report::figure_hash;
use bftbcast::sim::CountingSim;
use bftbcast::viz::LineChart;
use bftbcast_bench::experiments::scale;

#[test]
fn scale_1024_point_outcome_and_figure_are_pinned() {
    let (mut sim, mf) = scale::build_sim(1024);
    sim.set_scan_mode(ScanMode::Frontier);
    let mut run = sim.begin_oracle(mf);
    // The per-wave frontier trajectory: `front_size` before each step
    // is the sender set that step expands.
    let mut fronts: Vec<usize> = Vec::new();
    loop {
        fronts.push(run.front_size());
        if !sim.step_oracle(&mut run) {
            break;
        }
    }
    let out = sim.outcome();

    // The broadcast completes: the sparse adversary (spacing 103) never
    // exceeds t = 1 in any neighborhood, so protocol B reaches every
    // good node (1048576 cells minus the 10181 bad ones). The oracle
    // spends nothing: with relay quota 4 and threshold 5, a receiver's
    // first contact is always safe and its second is already hopeless.
    assert_eq!(out.waves, 518);
    assert_eq!(out.good_nodes, 1_038_395);
    assert_eq!(out.accepted_true, 1_038_395);
    assert_eq!(out.wrong_accepts, 0);
    assert_eq!(out.good_copies_sent, 9_345_546);
    assert_eq!(out.source_copies_sent, 9);
    assert_eq!(out.adversary_spent, 0);

    // The frontier grows to the torus midline and shrinks back: one
    // entry per wave plus the initial single-sender front.
    assert_eq!(fronts.len(), 519);
    assert_eq!(fronts[0], 1);
    assert_eq!(fronts.iter().copied().max(), Some(4049));

    // Figure: the frontier grow/shrink trajectory, sampled every 16th
    // wave, rendered and hashed through the report layer.
    let mut chart = LineChart::new(
        "scale-1024: per-wave frontier size",
        "wave",
        "front_senders",
    );
    let points: Vec<(f64, f64)> = fronts
        .iter()
        .enumerate()
        .step_by(16)
        .map(|(w, &f)| (w as f64, f as f64))
        .collect();
    chart.series("front", &points);
    let hash = figure_hash(&chart.render());
    assert_eq!(
        hash, 0x3f9a_5ac7_5f15_82c2,
        "scale-1024 figure drifted (kernel trajectory or SVG renderer changed)"
    );
}

/// The stencil topology holds no per-node or per-pair state, so an
/// 8192² torus at r = 4 (67M nodes, degree 80) answers every query on
/// sampled nodes exactly as the naive grid does — a representation
/// with an `n · degree` adjacency or an `n²`-bit membership table could
/// not be built here at all.
#[test]
fn topology_answers_on_an_8192_torus() {
    let grid = Grid::new(8192, 8192, 4).unwrap();
    let topo = Topology::new(grid.clone());
    let n = grid.node_count();
    // Both seams, the corners, and pseudo-random interior nodes.
    let mut samples: Vec<NodeId> = vec![0, 8191, n - 8192, n - 1, 8192 * 4096 + 3];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..32 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        samples.push((x >> 17) as usize % n);
    }
    let mut common = Vec::new();
    for &u in &samples {
        let naive: Vec<NodeId> = grid.neighbors(u).collect();
        assert_eq!(topo.neighbors_of(u).collect::<Vec<_>>(), naive, "node {u}");
        // Neighbors, nodes just out of range, and a far node.
        let probes =
            naive
                .iter()
                .copied()
                .chain([(u + 5) % n, (u + 5 * 8192) % n, (u + n / 2) % n, u]);
        for v in probes {
            assert_eq!(topo.contains(u, v), grid.are_neighbors(u, v), "({u}, {v})");
            common.clear();
            topo.common_neighbors_into(u, v, &mut common);
            let mut expect = grid.common_neighbors(u, v);
            expect.sort_unstable();
            assert_eq!(common, expect, "common ({u}, {v})");
        }
    }
}

/// Counts the collisions a strategy plans, so the test can tell that
/// the engine's collision path (common neighbors of attacker and
/// sender) actually ran.
struct Counted<S>(S, usize);

impl<S: CorruptionStrategy> CorruptionStrategy for Counted<S> {
    fn plan(&mut self, view: &WaveView<'_>) -> AttackPlan {
        let plan = self.0.plan(view);
        self.1 += plan.collisions.len();
        plan
    }
}

/// Chaos-strategy waves on a 1024² torus: every planned collision
/// goes through the engine's common-neighbor path, a query that needs
/// no `n²`-bit table. One bad node sits in collision range of the
/// source, so the first waves already carry attacks.
#[test]
fn chaos_waves_run_on_the_1024_torus() {
    let grid = Grid::new(1024, 1024, 1).unwrap();
    let p = Params::new(1, 1, 4);
    let proto = CountingProtocol::protocol_b(&grid, p);
    let mut sim = CountingSim::new(grid, proto, 0, &[2, 1024 * 512 + 512], p.mf);
    let mut chaos = Counted(Chaos::new(7), 0);
    let mut run = sim.begin_attack();
    for _ in 0..12 {
        if !sim.step_attack(&mut run, &mut chaos) {
            break;
        }
    }
    assert!(chaos.1 > 0, "chaos planned no collision in 12 waves");
    assert_eq!(sim.outcome().wrong_accepts, 0);
}
