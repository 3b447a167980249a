//! The radius-`r` L∞ stencil of a [`Grid`] as torus arithmetic: the
//! fast path every engine hot loop runs on.
//!
//! Every neighborhood on the paper's torus is the same `(2r+1)² − 1`
//! stencil shifted to its centre, so [`Topology`] stores no per-node or
//! per-pair data, only one wrap table per axis: memory is
//! `O(width + height)` at any `n`. Neighborhoods come out as contiguous
//! id runs ([`Topology::runs`]), edge ids mirror
//! ([`Topology::neighbor`]), membership is a Chebyshev distance check,
//! and common neighbors are the product of two per-axis window
//! overlaps. [`Grid`]'s naive methods stay unchanged as the
//! property-test oracle (`tests/prop.rs`).
//!
//! # Example
//!
//! ```
//! use bftbcast_net::{Grid, Topology};
//!
//! let grid = Grid::new(9, 9, 1).unwrap();
//! let topo = Topology::new(grid);
//!
//! // Degree (2r+1)^2 - 1 = 8, in the same order as the grid. Node 0
//! // sits on both wrap seams, so its stencil rows split into runs.
//! assert_eq!(topo.degree(), 8);
//! let n0: Vec<usize> = topo.neighbors_of(0).collect();
//! assert_eq!(n0, topo.grid().neighbors(0).collect::<Vec<_>>());
//! assert_eq!(topo.runs(0).next(), Some(80..81));
//!
//! // Edge ids mirror: u is its p-th neighbor's neighbor degree-1-p.
//! let w = topo.neighbor(0, 2);
//! assert_eq!(topo.neighbor(w, topo.degree() - 1 - 2), 0);
//!
//! // Membership and intersection agree with the grid.
//! assert!(topo.contains(0, 1));
//! let mut common = Vec::new();
//! topo.common_neighbors_into(0, 1, &mut common);
//! assert_eq!(common.len(), topo.common_neighbor_count(0, 1));
//! for &v in &common {
//!     assert!(topo.grid().are_neighbors(0, v) && topo.grid().are_neighbors(1, v));
//! }
//! ```

use crate::grid::{Grid, NodeId};
use std::ops::Range;

/// The L∞ stencil of a [`Grid`] with per-axis wrap tables; engines
/// route every per-wave/per-slot neighborhood query through it.
#[derive(Debug, Clone)]
pub struct Topology {
    grid: Grid,
    /// `cols[j] == (j − r) mod width` for `j < width + 2r`: column
    /// `x + dx − r` of the torus is `cols[x + dx]`.
    cols: Vec<usize>,
    /// `rows[j] == ((j − r) mod height) · width`: the id of the first
    /// node of row `y + dy − r` is `rows[y + dy]`.
    rows: Vec<NodeId>,
}

/// The coordinates within `r` of both `a` and `b` on an axis of length
/// `axis`: the pairwise meets of their closed windows, each split at
/// the wrap seam into ascending ranges. The meets come out ascending
/// and disjoint (a disjoint pair meets in a range with `start > end`,
/// which is empty).
fn axis_overlap(a: usize, b: usize, r: usize, axis: usize) -> [Range<usize>; 4] {
    let window = |c: usize| {
        let start = (c + axis - r) % axis;
        let end = start + 2 * r + 1;
        if end <= axis {
            [start..end, 0..0]
        } else {
            [0..end - axis, start..axis]
        }
    };
    let (wa, wb) = (window(a), window(b));
    let meet = |i: usize, j: usize| wa[i].start.max(wb[j].start)..wa[i].end.min(wb[j].end);
    [meet(0, 0), meet(0, 1), meet(1, 0), meet(1, 1)]
}

/// The id runs of one neighborhood (see [`Topology::runs`]), walked as
/// window positions `pos ∈ 0..2r+1` per stencil row: column `c0 + pos`,
/// minus the torus width `w` from the wrap seam on (`seam == 2r+1`
/// when the row does not wrap). `rows` holds the row bases not yet
/// started.
struct Runs<'a> {
    rows: &'a [NodeId],
    base: NodeId,
    pos: usize,
    r: usize,
    w: usize,
    c0: usize,
    seam: usize,
}

impl Iterator for Runs<'_> {
    type Item = Range<NodeId>;

    #[inline]
    fn next(&mut self) -> Option<Range<NodeId>> {
        let side = 2 * self.r + 1;
        loop {
            if self.pos == side {
                let (&base, rest) = self.rows.split_first()?;
                (self.base, self.rows, self.pos) = (base, rest, 0);
            }
            let start = self.pos;
            // A run ends at the seam or the row's end; the centre row
            // (r rows still to come) also skips position r, u itself.
            let mut end = if start < self.seam { self.seam } else { side };
            if self.rows.len() == self.r && (start..end).contains(&self.r) {
                if start == self.r {
                    self.pos += 1;
                    continue;
                }
                end = self.r;
            }
            self.pos = end;
            let first = self.base + self.c0 + start - usize::from(start >= self.seam) * self.w;
            return Some(first..first + (end - start));
        }
    }
}

impl Topology {
    /// Builds the wrap tables of `grid` (`O(width + height)`).
    pub fn new(grid: Grid) -> Self {
        let (w, h) = (grid.width() as usize, grid.height() as usize);
        let r = grid.range() as usize;
        // len >= 2r+1 by the Grid invariant, so j + len - r never
        // underflows and one reduction wraps it.
        let cols = (0..w + 2 * r).map(|j| (j + w - r) % w).collect();
        let rows = (0..h + 2 * r).map(|j| (j + h - r) % h * w).collect();
        Topology { grid, cols, rows }
    }

    /// The underlying torus.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.grid.node_count()
    }

    /// The uniform neighborhood size `(2r+1)² − 1`.
    pub fn degree(&self) -> usize {
        self.grid.neighborhood_size()
    }

    /// `(width, height, r)` as `usize`.
    fn dims(&self) -> (usize, usize, usize) {
        let g = &self.grid;
        (g.width() as usize, g.height() as usize, g.range() as usize)
    }

    /// The (open) neighborhood of `u` as contiguous id runs, in
    /// [`Grid::neighbors`] order: one run per stencil row, split where
    /// the row wraps and, on the centre row, around `u` itself.
    #[inline]
    pub fn runs(&self, u: NodeId) -> impl Iterator<Item = Range<NodeId>> + '_ {
        let (w, _, r) = self.dims();
        let side = 2 * r + 1;
        let (x, y) = (u % w, u / w);
        let c0 = self.cols[x];
        Runs {
            rows: &self.rows[y..y + side],
            base: 0,
            pos: side,
            r,
            w,
            c0,
            seam: side.min(w - c0),
        }
    }

    /// The (open) neighborhood of `u`, in exactly [`Grid::neighbors`]
    /// order — the flattened [`Topology::runs`].
    #[inline]
    pub fn neighbors_of(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.runs(u).flatten()
    }

    /// The `p`-th neighbor of `u` in [`Topology::neighbors_of`] order
    /// (`p < degree`). Mirror symmetry of the stencil gives
    /// `neighbor(neighbor(u, p), degree − 1 − p) == u`.
    #[inline]
    pub fn neighbor(&self, u: NodeId, p: usize) -> NodeId {
        debug_assert!(p < self.degree());
        let (w, _, r) = self.dims();
        let side = 2 * r + 1;
        // Stencil cell q in row-major order, skipping the centre cell.
        let q = if p < self.degree() / 2 { p } else { p + 1 };
        self.rows[u / w + q / side] + self.cols[u % w + q % side]
    }

    /// Whether `v ∈ N(u)`: toroidal L∞ distance at most `r` and
    /// `u ≠ v`. Equivalent to [`Grid::are_neighbors`].
    #[inline]
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        debug_assert!(u < self.node_count() && v < self.node_count());
        let (w, h, r) = self.dims();
        let near = |a: usize, b: usize, len: usize| a.abs_diff(b).min(len - a.abs_diff(b)) <= r;
        u != v && near(u % w, v % w, w) && near(u / w, v / w, h)
    }

    /// Appends `N(a) ∩ N(b)` to `out` in ascending id order, without
    /// allocating beyond `out`'s capacity — the fast path replacing
    /// [`Grid::common_neighbors`]. The intersection never includes `a`
    /// or `b` themselves, matching the naive method.
    pub fn common_neighbors_into(&self, a: NodeId, b: NodeId, out: &mut Vec<NodeId>) {
        let (w, h, r) = self.dims();
        let cols = axis_overlap(a % w, b % w, r, w);
        for y in axis_overlap(a / w, b / w, r, h).into_iter().flatten() {
            for xs in &cols {
                let run = y * w + xs.start..y * w + xs.end;
                out.extend(run.filter(|&v| v != a && v != b));
            }
        }
    }

    /// `|N(a) ∩ N(b)|` — the receivers a collision between
    /// transmitters `a` and `b` corrupts.
    pub fn common_neighbor_count(&self, a: NodeId, b: NodeId) -> usize {
        let (w, h, r) = self.dims();
        let len =
            |meets: [Range<usize>; 4]| meets.iter().map(ExactSizeIterator::len).sum::<usize>();
        let area = len(axis_overlap(a % w, b % w, r, w)) * len(axis_overlap(a / w, b / w, r, h));
        // The closed windows' product N[a] ∩ N[b] holds a and b exactly
        // when they are within range of each other (or equal).
        area - usize::from(a == b) - 2 * usize::from(self.contains(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(w: u32, h: u32, r: u32) -> Topology {
        Topology::new(Grid::new(w, h, r).unwrap())
    }

    #[test]
    fn neighbors_match_grid_exactly() {
        for (w, h, r) in [(5, 5, 1), (9, 7, 2), (15, 15, 1), (12, 20, 2), (5, 5, 2)] {
            let t = topo(w, h, r);
            for u in t.grid().nodes() {
                let naive: Vec<NodeId> = t.grid().neighbors(u).collect();
                let fast: Vec<NodeId> = t.neighbors_of(u).collect();
                assert_eq!(fast, naive, "node {u}");
                for (p, &v) in naive.iter().enumerate() {
                    assert_eq!(t.neighbor(u, p), v, "node {u} position {p}");
                }
            }
        }
    }

    #[test]
    fn runs_are_maximal_within_a_row() {
        let t = topo(10, 8, 2);
        // Away from both seams: one run per row, two on the centre row.
        let u = t.grid().id_at(5, 4);
        assert_eq!(t.runs(u).count(), 4 + 2);
        // On the column seam every row splits, the centre row in three.
        let u = t.grid().id_at(1, 4);
        assert_eq!(t.runs(u).count(), 4 * 2 + 3);
        for u in t.grid().nodes() {
            assert!(t.runs(u).all(|run| !run.is_empty()));
            assert_eq!(t.runs(u).map(|run| run.len()).sum::<usize>(), t.degree());
        }
    }

    #[test]
    fn contains_matches_are_neighbors() {
        for (w, h, r) in [(9, 11, 2), (5, 7, 2), (3, 4, 1)] {
            let t = topo(w, h, r);
            for u in t.grid().nodes() {
                for v in t.grid().nodes() {
                    assert_eq!(
                        t.contains(u, v),
                        t.grid().are_neighbors(u, v),
                        "pair ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn common_neighbors_match_naive() {
        let t = topo(12, 12, 2);
        let mut out = Vec::new();
        for &(a, b) in &[(0, 1), (0, 30), (5, 144 - 1), (20, 20), (7, 100)] {
            out.clear();
            t.common_neighbors_into(a, b, &mut out);
            let mut naive = t.grid().common_neighbors(a, b);
            naive.sort_unstable();
            assert_eq!(out, naive, "pair ({a}, {b})");
            assert_eq!(t.common_neighbor_count(a, b), naive.len());
        }
    }

    #[test]
    fn self_intersection_is_whole_neighborhood() {
        let t = topo(9, 9, 1);
        let mut out = Vec::new();
        t.common_neighbors_into(4, 4, &mut out);
        let mut naive: Vec<NodeId> = t.grid().neighbors(4).collect();
        naive.sort_unstable();
        assert_eq!(out, naive);
    }
}
