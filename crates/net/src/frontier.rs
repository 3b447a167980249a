//! The active-frontier worklist: the sparse iteration kernel the wave
//! engines run on.
//!
//! The paper's broadcast dynamics are a thin propagation front expanding
//! over the torus — each wave, only the nodes adjacent to last wave's
//! senders can change state. A full-grid scan per wave therefore wastes
//! `O(n)` work on quiescent cells; at a 4096×4096 torus (~16.7M cells)
//! that waste is the whole runtime. [`Worklist`] is the data structure
//! that makes the sparse iteration exact:
//!
//! * a **bitset of marks** (one word per 64 nodes, in row-major node
//!   order) answers "already queued?" in O(1) and deduplicates inserts;
//! * a **dense item vector** records the queued ids, so clearing is
//!   `O(front)` — only the words actually touched are reset, never the
//!   whole bitset;
//! * [`Worklist::extend_neighborhoods`] unions whole neighborhoods into
//!   the marks with a run-compressed word-OR: each contiguous id run of
//!   [`Topology::runs`] (one per stencil row, split only at the wrap
//!   seam and the centre) becomes one masked OR per 64-bit word instead
//!   of one test-and-set per bit, and because seeds are streamed in
//!   order the mark words for a (2r+1)-row band stay cache-resident
//!   across adjacent seeds — the tiled, cache-blocked intersection of
//!   the frontier kernel.
//!
//! The worklist invariant the engines maintain: **a node enters the
//! worklist iff a neighbor's send/decide state changed this wave.**
//! Engines [`sort`](Worklist::sort) the worklist before applying state
//! transitions so the visit order is ascending node id — a `0..n` scan
//! restricted to the touched set (same iteration order ⇒ same
//! acceptance order, same budget spend order, same next-wave ordering).
//!
//! [`ScanMode`] selects what the one step loop of each engine is fed:
//! `Frontier` (the default) the touched set, `Dense` every node
//! ([`Worklist::insert_all`]). The `DenseOracle` harness in
//! `bftbcast-sim` runs every engine both ways and asserts per-wave state
//! equality — the check that skipping the nodes off the front never
//! changes a result.

use crate::grid::NodeId;
use crate::topology::Topology;

/// Which nodes a wave engine's step loop visits.
///
/// Both modes run the same loop and produce bit-identical outcomes,
/// probes and counters; `Dense` exists so the frontier argument stays
/// testable, and engines also check their incremental bookkeeping
/// against a rescan in it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScanMode {
    /// Every node, every wave — cost `O(n)` per wave regardless of how
    /// small the active front is.
    Dense,
    /// Active-frontier worklist iteration — cost proportional to the
    /// front (the nodes whose neighborhood changed last wave), not the
    /// grid.
    #[default]
    Frontier,
}

/// A bitset-backed worklist over node ids: O(1) dedup on insert,
/// O(front) clear, ascending-order iteration after [`Worklist::sort`].
///
/// See the module docs for the role this plays in the frontier kernel.
#[derive(Debug, Clone, Default)]
pub struct Worklist {
    /// Number of nodes.
    nodes: usize,
    /// One mark bit per node; `marks[u / 64] >> (u % 64) & 1`.
    marks: Vec<u64>,
    /// The queued ids, in insertion order until [`Worklist::sort`];
    /// `u32` halves the buffer a dense run fills with every id.
    items: Vec<u32>,
}

impl Worklist {
    /// An empty worklist over `n` nodes.
    ///
    /// # Panics
    ///
    /// If `n` does not fit in `u32`.
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "node count exceeds u32");
        Worklist {
            nodes: n,
            marks: vec![0; n.div_ceil(64)],
            items: Vec::new(),
        }
    }

    /// Number of queued nodes.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no node is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `u` is queued.
    pub fn contains(&self, u: NodeId) -> bool {
        self.marks[u / 64] >> (u % 64) & 1 != 0
    }

    /// Queues `u`; returns `true` iff it was not already queued.
    pub fn insert(&mut self, u: NodeId) -> bool {
        let word = &mut self.marks[u / 64];
        let bit = 1u64 << (u % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.items.push(u as u32);
        true
    }

    /// The queued ids — insertion order, or ascending after
    /// [`Worklist::sort`].
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.items.iter().map(|&u| u as NodeId)
    }

    /// The `i`-th queued id (by-value accessor so callers can iterate
    /// while mutating other state).
    pub fn item(&self, i: usize) -> NodeId {
        self.items[i] as NodeId
    }

    /// Queues every node not yet queued, in ascending id order.
    pub fn insert_all(&mut self) {
        if self.nodes > 0 {
            self.insert_run(0, self.nodes - 1);
        }
    }

    /// Sorts the queue into ascending id order, so iteration matches a
    /// `0..n` scan restricted to the queued set.
    pub fn sort(&mut self) {
        self.items.sort_unstable();
    }

    /// Unqueues every node; O(front), touching only the mark words of
    /// queued nodes.
    pub fn clear(&mut self) {
        for &u in &self.items {
            self.marks[u as usize / 64] = 0;
        }
        self.items.clear();
    }

    /// Keeps only the queued nodes satisfying `keep`, unmarking the
    /// rest. Preserves queue order.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let marks = &mut self.marks;
        self.items.retain(|&u| {
            let u = u as NodeId;
            if keep(u) {
                true
            } else {
                marks[u / 64] &= !(1u64 << (u % 64));
                false
            }
        });
    }

    /// Unions the neighborhood of every seed into the worklist — the
    /// frontier-expansion kernel.
    ///
    /// Each contiguous id run of [`Topology::runs`] becomes one masked
    /// OR per 64-bit word, and seeds are streamed in order so the mark
    /// words of a neighborhood band stay hot across adjacent seeds.
    pub fn extend_neighborhoods<I>(&mut self, topology: &Topology, seeds: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        for s in seeds {
            for run in topology.runs(s) {
                self.insert_run(run.start, run.end - 1);
            }
        }
    }

    /// Marks the inclusive id range `[start, end]`, pushing the newly
    /// marked ids.
    fn insert_run(&mut self, start: NodeId, end: NodeId) {
        let (w0, w1) = (start / 64, end / 64);
        for w in w0..=w1 {
            let lo = if w == w0 { (start % 64) as u32 } else { 0 };
            let hi = if w == w1 { (end % 64) as u32 } else { 63 };
            // Bits [lo, hi] of word w; hi < 64 so the shift is safe.
            let mask = (u64::MAX << lo) & (u64::MAX >> (63 - hi));
            let mut fresh = mask & !self.marks[w];
            self.marks[w] |= fresh;
            while fresh != 0 {
                let bit = fresh.trailing_zeros();
                self.items.push(w as u32 * 64 + bit);
                fresh &= fresh - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    #[test]
    fn insert_dedups_and_clear_is_sparse() {
        let mut wl = Worklist::new(200);
        assert!(wl.insert(7));
        assert!(!wl.insert(7));
        assert!(wl.insert(130));
        assert!(wl.contains(7));
        assert!(wl.contains(130));
        assert!(!wl.contains(8));
        assert_eq!(wl.len(), 2);
        wl.clear();
        assert!(wl.is_empty());
        assert!(!wl.contains(7));
        assert!(wl.insert(7), "clear must reset marks");
    }

    #[test]
    fn sort_orders_items_ascending() {
        let mut wl = Worklist::new(64);
        for u in [9, 3, 60, 1] {
            wl.insert(u);
        }
        wl.sort();
        assert!(wl.iter().eq([1, 3, 9, 60]));
        assert_eq!(wl.item(2), 9);
    }

    #[test]
    fn retain_unmarks_dropped_nodes() {
        let mut wl = Worklist::new(100);
        for u in [2, 65, 70] {
            wl.insert(u);
        }
        wl.retain(|u| u != 65);
        assert!(wl.iter().eq([2, 70]));
        assert!(!wl.contains(65));
        assert!(wl.insert(65), "retained-out nodes can re-enter");
    }

    #[test]
    fn insert_run_crosses_word_boundaries() {
        let mut wl = Worklist::new(256);
        wl.insert(64); // pre-marked: the run must skip it
        wl.insert_run(60, 130);
        wl.sort();
        assert!(wl.iter().eq(60..=130));
        for u in 60..=130 {
            assert!(wl.contains(u));
        }
        assert!(!wl.contains(59));
        assert!(!wl.contains(131));
    }

    #[test]
    fn insert_all_queues_every_node_once() {
        let mut wl = Worklist::new(130);
        wl.insert(70);
        wl.insert_all();
        assert_eq!(wl.len(), 130);
        wl.sort();
        assert!(wl.iter().eq(0..130));
        assert!(!wl.insert(129), "already queued");
    }

    #[test]
    fn extend_neighborhoods_matches_per_node_inserts() {
        let grid = Grid::new(17, 13, 2).unwrap();
        let topo = Topology::new(grid);
        let seeds = [0usize, 5, 16, 16 * 13 - 1, 100];
        let mut fast = Worklist::new(topo.node_count());
        fast.extend_neighborhoods(&topo, seeds.iter().copied());
        let mut slow = Worklist::new(topo.node_count());
        for &s in &seeds {
            for u in topo.neighbors_of(s) {
                slow.insert(u);
            }
        }
        fast.sort();
        slow.sort();
        assert!(fast.iter().eq(slow.iter()));
    }

    #[test]
    fn extend_neighborhoods_covers_wrap_seams() {
        // Degenerate torus: dims == 2r+1, every neighborhood is the
        // whole grid minus the seed.
        let grid = Grid::new(5, 5, 2).unwrap();
        let topo = Topology::new(grid);
        let mut wl = Worklist::new(25);
        wl.extend_neighborhoods(&topo, [12usize]);
        assert_eq!(wl.len(), 24);
        assert!(!wl.contains(12));
    }
}
