//! Bad-node placement patterns.
//!
//! A placement answers "which nodes did the adversary corrupt". The paper
//! constrains placements only by the local bound — at most `t` bad nodes
//! in any single neighborhood — and its impossibility results are driven
//! by two specific constructions reproduced here exactly.

use bftbcast_net::{Grid, NodeId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A bad-node placement pattern.
pub trait Placement {
    /// The corrupted nodes on the given torus. Must never include the
    /// base station (the engines also enforce this).
    fn bad_nodes(&self, grid: &Grid) -> Vec<NodeId>;
}

/// The maximum number of bad nodes contained in any single (open)
/// neighborhood `N(u)`.
pub fn max_bad_per_neighborhood(grid: &Grid, bad: &[NodeId]) -> usize {
    // Every *distinct* bad node raises the count of the neighborhoods
    // containing it, i.e. N(u) for u in N(b): O(|bad| · deg) without
    // any precompute. Duplicate ids in `bad` count once.
    let n = grid.node_count();
    let mut seen = vec![0u64; n.div_ceil(64)];
    let mut load = vec![0u32; n];
    let mut max = 0;
    for &b in bad {
        let (word, bit) = (b / 64, 1u64 << (b % 64));
        if seen[word] & bit != 0 {
            continue;
        }
        seen[word] |= bit;
        for u in grid.neighbors(b) {
            load[u] += 1;
            max = max.max(load[u]);
        }
    }
    max as usize
}

/// Whether a placement respects the paper's local bound for a given `t`.
pub fn respects_local_bound(grid: &Grid, bad: &[NodeId], t: usize) -> bool {
    max_bad_per_neighborhood(grid, bad) <= t
}

/// Theorem 1's stripe construction (Figure 1): a horizontal stripe of
/// height `r` occupying rows `y0 .. y0+r−1`; within each consecutive
/// width-`2r+1` block of the stripe, `t` positions are corrupted,
/// filling row by row **starting from the stripe row adjacent to the
/// victims** (so that every victim window containing stripe suppliers
/// also contains the block's bad nodes — the invariant the Theorem 1
/// proof relies on: "if u's neighborhood contains any good node from
/// the stripe area, then u's neighborhood must cover exactly t bad
/// nodes").
///
/// With this placement no node on the victim side can collect
/// `t·mf + 1` correct copies when `m < m0` under per-receiver
/// accounting — the engines reproduce that starvation exactly.
#[derive(Debug, Clone, Copy)]
pub struct StripePlacement {
    /// First row of the stripe (the stripe occupies `y0 .. y0+r−1`).
    pub y0: u32,
    /// Bad nodes per block (`t`).
    pub t: u32,
    /// Which side the starved victims are on: `true` when they sit at
    /// rows greater than the stripe (bad nodes fill from row `y0+r−1`
    /// downward), `false` when below (fill from `y0` upward).
    pub victims_above: bool,
}

impl StripePlacement {
    /// A stripe protecting against victims at rows **greater** than the
    /// stripe.
    pub fn facing_up(y0: u32, t: u32) -> Self {
        StripePlacement {
            y0,
            t,
            victims_above: true,
        }
    }

    /// A stripe protecting against victims at rows **less** than the
    /// stripe.
    pub fn facing_down(y0: u32, t: u32) -> Self {
        StripePlacement {
            y0,
            t,
            victims_above: false,
        }
    }
}

impl Placement for StripePlacement {
    fn bad_nodes(&self, grid: &Grid) -> Vec<NodeId> {
        let r = grid.range();
        let block_w = 2 * r + 1;
        assert!(
            self.t <= r * block_w,
            "stripe blocks hold at most r(2r+1) nodes"
        );
        let mut out = Vec::new();
        let blocks = grid.width() / block_w; // trailing partial block left good
        for b in 0..blocks {
            let x0 = b * block_w;
            for idx in 0..self.t {
                let dx = idx % block_w;
                let row_step = idx / block_w; // 0 = row adjacent to victims
                let dy = if self.victims_above {
                    i64::from(r - 1) - i64::from(row_step)
                } else {
                    i64::from(row_step)
                };
                let c = grid.wrap(i64::from(x0 + dx), i64::from(self.y0) + dy);
                out.push(grid.id_of(c));
            }
        }
        out
    }
}

/// Figure 2's lattice construction: bad nodes occupy `t` fixed residue
/// classes modulo `2r+1` in both coordinates, so **every** neighborhood
/// contains *exactly* `t` bad nodes.
///
/// Requires both torus dimensions to be multiples of `2r+1` (otherwise
/// the wrap seam breaks the exact-count property); see
/// [`LatticePlacement::misfit`].
#[derive(Debug, Clone, Copy)]
pub struct LatticePlacement {
    /// Number of residue classes to corrupt (`t`).
    pub t: u32,
    /// Offset of the first corrupted residue class, letting callers
    /// shift the lattice off the base station.
    pub offset: u32,
}

impl LatticePlacement {
    /// The canonical Figure-2 lattice: `t` classes starting away from the
    /// origin class so the base station at `(0, 0)` stays honest.
    pub fn new(t: u32) -> Self {
        LatticePlacement { t, offset: 1 }
    }

    /// Why this lattice cannot tile a `width × height` torus of range
    /// `r`, if it cannot: both sides must be multiples of `2r+1`, and
    /// the `t` classes from `offset` must fit in the `(2r+1)²` residue
    /// classes.
    pub fn misfit(&self, width: u32, height: u32, r: u32) -> Option<String> {
        let side = 2 * u64::from(r) + 1;
        if u64::from(width) % side != 0 || u64::from(height) % side != 0 {
            Some(format!("lattice needs sides divisible by 2r+1 = {side}"))
        } else if u64::from(self.offset) + u64::from(self.t) > side * side {
            let classes = side * side;
            Some(format!("lattice offset + t exceeds {classes} classes"))
        } else {
            None
        }
    }
}

impl Placement for LatticePlacement {
    fn bad_nodes(&self, grid: &Grid) -> Vec<NodeId> {
        if let Some(why) = self.misfit(grid.width(), grid.height(), grid.range()) {
            panic!("{why}");
        }
        let side = 2 * grid.range() + 1;
        let mut out = Vec::new();
        for class in self.offset..self.offset + self.t {
            let cx = class % side;
            let cy = class / side;
            for y in (cy..grid.height()).step_by(side as usize) {
                for x in (cx..grid.width()).step_by(side as usize) {
                    out.push(grid.id_at(x, y));
                }
            }
        }
        out
    }
}

/// A random placement: corrupts nodes uniformly at random, greedily
/// skipping any candidate that would push some neighborhood above the
/// local bound `t`. Deterministic given the seed.
#[derive(Debug, Clone, Copy)]
pub struct RandomPlacement {
    /// Target number of bad nodes (the result may be smaller if the local
    /// bound saturates first).
    pub count: usize,
    /// Local bound to respect.
    pub t: u32,
    /// RNG seed.
    pub seed: u64,
    /// Node the placement must never corrupt (the base station).
    pub source: NodeId,
}

impl Placement for RandomPlacement {
    fn bad_nodes(&self, grid: &Grid) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // `u32` ids halve the shuffled array; the permutation is the same
        // because the shuffle draws its swap indices from the length only.
        let n = u32::try_from(grid.node_count()).expect("node ids fit in u32");
        let mut candidates: Vec<u32> = (0..n).filter(|&v| v as NodeId != self.source).collect();
        candidates.shuffle(&mut rng);
        let topo = Topology::new(grid.clone());
        // neighborhood_load[u] = number of already-picked bad nodes in N(u).
        let mut load = vec![0u32; grid.node_count()];
        let mut out = Vec::new();
        for c in candidates {
            let c = c as NodeId;
            if out.len() == self.count {
                break;
            }
            // Adding c raises the count of every neighborhood containing
            // c, i.e. N(u) for u in N(c).
            if topo.neighbors_of(c).all(|u| load[u] < self.t) {
                for u in topo.neighbors_of(c) {
                    load[u] += 1;
                }
                out.push(c);
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid(r: u32, mult: u32) -> Grid {
        let side = (2 * r + 1) * mult;
        Grid::new(side, side, r).unwrap()
    }

    #[test]
    fn stripe_respects_bound_and_shape() {
        let g = grid(2, 4); // 20x20, r=2
        let p = StripePlacement::facing_up(8, 3);
        let bad = p.bad_nodes(&g);
        assert_eq!(bad.len(), 4 * 3); // 4 blocks x t
                                      // All bad nodes in rows y0..y0+r.
        for &b in &bad {
            let c = g.coord_of(b);
            assert!((8..10).contains(&c.y));
        }
        // A stripe block never exceeds the bound it was built for — but
        // note: a neighborhood can straddle two blocks and see up to 2t/…
        // the paper's construction keeps exactly t per *aligned* block;
        // the local-bound check is the authoritative one:
        assert!(max_bad_per_neighborhood(&g, &bad) >= 3);
    }

    #[test]
    fn stripe_first_block_matches_figure1_order() {
        let g = grid(2, 4);
        let p = StripePlacement::facing_down(0, 7); // 2r+1 = 5: overflows into row 1
        let bad = p.bad_nodes(&g);
        let first: Vec<_> = bad
            .iter()
            .map(|&b| g.coord_of(b))
            .filter(|c| c.x < 5)
            .collect();
        // Left-to-right then top-to-bottom: 5 in row 0, 2 in row 1.
        assert_eq!(first.iter().filter(|c| c.y == 0).count(), 5);
        assert_eq!(first.iter().filter(|c| c.y == 1).count(), 2);
    }

    #[test]
    fn lattice_gives_exactly_t_per_neighborhood() {
        for t in 1..4u32 {
            let g = grid(2, 3); // 15x15, r=2
            let bad = LatticePlacement::new(t).bad_nodes(&g);
            let mut is_bad = vec![false; g.node_count()];
            for &b in &bad {
                is_bad[b] = true;
            }
            for u in g.nodes() {
                let cnt = g.neighbors(u).filter(|&v| is_bad[v]).count();
                // Exactly t unless u itself is bad and sits on a corrupted
                // class (then its own class contributes one fewer).
                let expected = if is_bad[u] {
                    t as usize - 1
                } else {
                    t as usize
                };
                assert_eq!(cnt, expected, "node {u} t={t}");
            }
            // Source at origin stays honest (offset = 1).
            assert!(!is_bad[g.id_at(0, 0)]);
        }
    }

    #[test]
    fn random_placement_deterministic_and_bounded() {
        let g = grid(2, 4);
        let p = RandomPlacement {
            count: 60,
            t: 2,
            seed: 99,
            source: g.id_at(0, 0),
        };
        let a = p.bad_nodes(&g);
        let b = p.bad_nodes(&g);
        assert_eq!(a, b, "same seed, same placement");
        assert!(respects_local_bound(&g, &a, 2));
        assert!(!a.contains(&g.id_at(0, 0)));
        assert!(!a.is_empty());
    }

    /// FNV-1a over the ids as little-endian `u64`s, length first.
    fn placement_hash(bad: &[NodeId]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = std::iter::once(bad.len() as u64).chain(bad.iter().map(|&b| b as u64));
        for byte in words.flat_map(u64::to_le_bytes) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Pins the exact random placement (shuffle order and greedy
    /// acceptance) on the scale benchmark's torus and on a small one,
    /// so a change to the candidate representation cannot move a single
    /// bad cell.
    #[test]
    fn random_placement_is_pinned() {
        let cases = [
            (1024, 1, 10_486, 1, 3, 10_486, 0x88de_7e14_3ec2_40ce),
            (15, 1, 20, 1, 7, 18, 0x11e0_7a5f_84a1_c7d4),
        ];
        for (side, r, count, t, seed, len, pin) in cases {
            let g = Grid::new(side, side, r).unwrap();
            let bad = RandomPlacement {
                count,
                t,
                seed,
                source: 0,
            }
            .bad_nodes(&g);
            assert_eq!(bad.len(), len, "side {side}");
            assert_eq!(placement_hash(&bad), pin, "side {side}");
        }
    }

    #[test]
    fn duplicate_bad_ids_count_once() {
        let g = grid(1, 3);
        assert_eq!(
            max_bad_per_neighborhood(&g, &[5, 5, 5]),
            max_bad_per_neighborhood(&g, &[5])
        );
        assert!(respects_local_bound(&g, &[5, 5], 1));
    }

    #[test]
    fn empty_placement_bound() {
        let g = grid(1, 3);
        assert_eq!(max_bad_per_neighborhood(&g, &[]), 0);
        assert!(respects_local_bound(&g, &[], 0));
    }

    proptest! {
        #[test]
        fn prop_random_placement_respects_bound(
            seed in any::<u64>(), t in 1u32..4, count in 0usize..80
        ) {
            let g = grid(2, 3);
            let p = RandomPlacement { count, t, seed, source: 0 };
            let bad = p.bad_nodes(&g);
            prop_assert!(respects_local_bound(&g, &bad, t as usize));
            prop_assert!(bad.len() <= count);
        }

        #[test]
        fn prop_lattice_respects_bound(t in 1u32..5, mult in 2u32..4) {
            let g = grid(2, mult);
            let bad = LatticePlacement::new(t).bad_nodes(&g);
            prop_assert!(respects_local_bound(&g, &bad, t as usize));
        }
    }
}
