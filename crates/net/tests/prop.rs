//! Property tests for the network substrate: metric axioms, neighborhood
//! structure, schedule safety, region consistency.

use bftbcast_net::{Cross, Disc, Grid, Rect, Region, Schedule, Stripe, Topology};
use proptest::prelude::*;

fn arb_grid() -> impl Strategy<Value = Grid> {
    (1u32..4, 1u32..4, 1u32..4).prop_map(|(r, wm, hm)| {
        let side = 2 * r + 1;
        Grid::new(side * (wm + 1), side * (hm + 1), r).expect("valid grid")
    })
}

/// Any valid torus, sides of every residue mod `2r+1` down to exactly
/// `2r+1`, where a window wraps onto both seams and the per-axis
/// overlap of two windows splits into two arcs. (`arb_grid` keeps
/// divisible sides for `Schedule::spatial_reuse`.)
fn arb_any_grid() -> impl Strategy<Value = Grid> {
    (1u32..4, 0u32..1000, 0u32..1000).prop_map(|(r, wx, hx)| {
        let side = 2 * r + 1;
        let span = 4 * r + 3; // sides in [2r+1, 6r+3]
        Grid::new(side + wx % span, side + hx % span, r).expect("valid grid")
    })
}

/// `Topology` against the naive `Grid` methods on one torus: same
/// neighborhoods in the same order, runs that flatten to them, the
/// edge mirror identity, membership and common neighbors.
fn check_topology(grid: &Grid, seed: u64) -> Result<(), TestCaseError> {
    let topo = Topology::new(grid.clone());
    let n = grid.node_count();
    let deg = grid.neighborhood_size();
    prop_assert_eq!(topo.node_count(), n);
    prop_assert_eq!(topo.degree(), deg);

    // neighbors_of == runs flattened == Grid::neighbors, same order,
    // for every node; neighbor(u, p) indexes it; edges mirror.
    for u in grid.nodes() {
        let naive: Vec<usize> = grid.neighbors(u).collect();
        let fast: Vec<usize> = topo.neighbors_of(u).collect();
        prop_assert_eq!(&fast, &naive, "node {}", u);
        let flat: Vec<usize> = topo.runs(u).flatten().collect();
        prop_assert_eq!(&flat, &naive, "runs of node {}", u);
        prop_assert!(topo.runs(u).all(|run| !run.is_empty()));
        for (p, &v) in naive.iter().enumerate() {
            prop_assert_eq!(topo.neighbor(u, p), v, "node {} position {}", u, p);
            prop_assert_eq!(topo.neighbor(v, deg - 1 - p), u, "mirror of {} -> {}", u, v);
        }
    }

    // contains == are_neighbors on a random pair and all its
    // neighbors (full n x n is covered by the per-node loop above
    // plus symmetry of the construction).
    let a = (seed % n as u64) as usize;
    let b = ((seed / 13) % n as u64) as usize;
    prop_assert_eq!(topo.contains(a, b), grid.are_neighbors(a, b));
    prop_assert_eq!(topo.contains(b, a), grid.are_neighbors(b, a));
    for v in grid.nodes() {
        prop_assert_eq!(
            topo.contains(a, v),
            grid.are_neighbors(a, v),
            "pair ({}, {})",
            a,
            v
        );
    }

    // common_neighbors_into == common_neighbors as a set (the window
    // overlap yields ascending ids; the naive filter follows
    // iteration order), for the random pair and a neighbor of a.
    for b in [b, topo.neighbor(a, (seed % deg as u64) as usize)] {
        let mut fast = Vec::new();
        topo.common_neighbors_into(a, b, &mut fast);
        let mut naive = grid.common_neighbors(a, b);
        naive.sort_unstable();
        prop_assert_eq!(&fast, &naive, "pair ({}, {})", a, b);
        prop_assert_eq!(topo.common_neighbor_count(a, b), naive.len());
    }
    Ok(())
}

proptest! {
    /// The toroidal L∞ distance is a metric.
    #[test]
    fn metric_axioms(grid in arb_grid(), seed in any::<u64>()) {
        let n = grid.node_count();
        let a = (seed % n as u64) as usize;
        let b = ((seed / 7) % n as u64) as usize;
        let c = ((seed / 49) % n as u64) as usize;
        // Identity and symmetry.
        prop_assert_eq!(grid.linf_distance(a, a), 0);
        prop_assert_eq!(grid.linf_distance(a, b), grid.linf_distance(b, a));
        if a != b {
            prop_assert!(grid.linf_distance(a, b) > 0);
        }
        // Triangle inequality.
        prop_assert!(
            grid.linf_distance(a, c) <= grid.linf_distance(a, b) + grid.linf_distance(b, c)
        );
        // The torus diameter bounds every distance.
        prop_assert!(
            grid.linf_distance(a, b) <= grid.width().max(grid.height()) / 2
        );
    }

    /// Neighborhoods have the exact advertised size, exclude the center,
    /// and consist precisely of the nodes within range.
    #[test]
    fn neighborhood_characterization(grid in arb_grid(), seed in any::<u64>()) {
        let u = (seed % grid.node_count() as u64) as usize;
        let nbrs: Vec<_> = grid.neighbors(u).collect();
        prop_assert_eq!(nbrs.len(), grid.neighborhood_size());
        prop_assert!(!nbrs.contains(&u));
        for v in grid.nodes() {
            let in_range = v != u && grid.linf_distance(u, v) <= grid.range();
            prop_assert_eq!(nbrs.contains(&v), in_range, "node {}", v);
        }
    }

    /// Common neighbors are exactly N(a) ∩ N(b), and empty beyond 2r.
    #[test]
    fn common_neighbors_characterization(grid in arb_grid(), seed in any::<u64>()) {
        let n = grid.node_count();
        let a = (seed % n as u64) as usize;
        let b = ((seed / 13) % n as u64) as usize;
        prop_assume!(a != b);
        let common = grid.common_neighbors(a, b);
        if grid.linf_distance(a, b) > 2 * grid.range() {
            prop_assert!(common.is_empty());
        }
        for &u in &common {
            prop_assert!(grid.are_neighbors(a, u) && grid.are_neighbors(b, u));
        }
    }

    /// [`Topology`] agrees *exactly* with the naive [`Grid`] methods
    /// it replaces in the engine hot loops — the naive iterators stay
    /// authoritative as this oracle — on divisible tori and on tori of
    /// any side down to `2r+1`.
    #[test]
    fn topology_matches_grid_oracle(
        grid in arb_grid(),
        any_grid in arb_any_grid(),
        seed in any::<u64>(),
    ) {
        check_topology(&grid, seed)?;
        check_topology(&any_grid, seed)?;
    }

    /// The spatial-reuse schedule never lets same-slot transmitters share
    /// a receiver, and assigns every node exactly one slot in the period.
    #[test]
    fn spatial_reuse_schedule_safety(grid in arb_grid()) {
        let s = Schedule::spatial_reuse(&grid).expect("divisible dims");
        prop_assert_eq!(s.period(), (2 * grid.range() + 1).pow(2));
        prop_assert!(s.verify(&grid));
        let mut seen = 0usize;
        for slot in 0..s.period() {
            seen += s.nodes_in_slot(slot).count();
        }
        prop_assert_eq!(seen, grid.node_count());
    }

    /// Region node lists agree with their `contains` predicate.
    #[test]
    fn regions_consistent(grid in arb_grid(), seed in any::<u64>()) {
        let w = grid.width();
        let h = grid.height();
        let x0 = (seed % u64::from(w)) as u32;
        let y0 = ((seed / 3) % u64::from(h)) as u32;
        let regions: Vec<Box<dyn Region>> = vec![
            Box::new(Rect { x0, y0, w: (w / 2).max(1), h: (h / 2).max(1) }),
            Box::new(Stripe { y0, height: grid.range() }),
            Box::new(Cross { cx: x0, cy: y0, half_len: w / 2, half_width: grid.range() }),
            Box::new(Disc { cx: x0, cy: y0, radius: f64::from(grid.range() * 2) }),
        ];
        for region in &regions {
            let nodes = region.nodes(&grid);
            prop_assert_eq!(nodes.len(), region.len(&grid));
            for id in grid.nodes() {
                prop_assert_eq!(
                    nodes.contains(&id),
                    region.contains(&grid, grid.coord_of(id))
                );
            }
        }
    }

    /// A rect covering the whole torus contains everything; a stripe of
    /// full height likewise.
    #[test]
    fn full_regions_cover(grid in arb_grid()) {
        let all = Rect { x0: 0, y0: 0, w: grid.width(), h: grid.height() };
        prop_assert_eq!(all.len(&grid), grid.node_count());
        let stripe = Stripe { y0: 3 % grid.height(), height: grid.height() };
        prop_assert_eq!(stripe.len(&grid), grid.node_count());
    }
}
