//! Graph workloads: rMat generation, BFS and PageRank (Ligra analogues).
//!
//! The paper runs Ligra's BFS and PageRank over rMat-generated graphs
//! (§8.1). This module builds a real rMat graph in CSR form, lays it out in
//! the workload's virtual address space, and emits the page-access stream the
//! algorithms would generate: offset-array accesses, neighbor-array scans,
//! and random per-vertex state accesses.

use crate::corpus::PageClass;
use crate::{Access, Workload, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// rMat partition probabilities (standard Graph500-style skew).
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;

/// A compressed-sparse-row graph.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    pub offsets: Vec<u64>,
    /// Flattened adjacency lists.
    pub neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn m(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbors of `v`.
    pub fn neighbors_of(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// Edge draws below which a part of the edge stream is not worth a thread
/// of its own.
const MIN_PART_DRAWS: usize = 1 << 20;

/// Generate an rMat graph with `1 << scale` vertices and ~`edge_factor`
/// edges per vertex (duplicates removed, self-loops dropped).
///
/// Supports `scale <= 24` (callers clamp at 20). The output is a pure
/// function of the arguments: large graphs draw their edge stream on one
/// thread per core, and the result does not depend on how many.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    assert!(scale <= 24, "rmat supports scale <= 24, got {scale}");
    let draws = (1usize << scale) * edge_factor;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rmat_in_parts(
        scale,
        edge_factor,
        seed,
        cores.min(draws / MIN_PART_DRAWS).max(1),
    )
}

/// [`rmat`] with the edge stream split into `parts` consecutive runs of
/// draws: the first on the calling thread, each other on a thread of its
/// own.
fn rmat_in_parts(scale: u32, edge_factor: usize, seed: u64, parts: usize) -> CsrGraph {
    let n = 1usize << scale;
    let m_target = n * edge_factor;
    // An edge is packed into a u32 as the low `low_bits` bits of u, then
    // the `scale` bits of v; u's top `bucket_bits` bits pick its bucket.
    let bucket_bits = (2 * scale).saturating_sub(32);
    let low_bits = scale - bucket_bits;
    let chunk = m_target.div_ceil(parts);
    let base = SmallRng::seed_from_u64(seed);
    // Every edge takes exactly `scale` draws, kept or not, so part k's
    // stream starts `k * chunk * scale` draws into the seed's.
    let draw_part = |k: usize| {
        let mut rng = base.clone();
        rng.advance((k * chunk) as u64 * u64::from(scale));
        let edges = chunk.min(m_target.saturating_sub(k * chunk));
        draw_edges(&mut rng, scale, low_bits, edges)
    };
    let mut part_buckets: Vec<Vec<Vec<u32>>> = Vec::with_capacity(parts);
    // ts-lint: allow(thread-hygiene) -- parts merge as a sorted set: same output at any part count
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..parts)
            .map(|k| scope.spawn(move || draw_part(k)))
            .collect();
        part_buckets.push(draw_part(0));
        for handle in handles {
            match handle.join() {
                Ok(buckets) => part_buckets.push(buckets),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    let kept: usize = part_buckets.iter().flatten().map(Vec::len).sum();
    let mut offsets = vec![0u64; n + 1];
    let mut neighbors: Vec<u32> = Vec::with_capacity(kept);
    let low_mask = (1u32 << low_bits) - 1;
    let v_mask = (1u32 << scale) - 1;
    let mut counts = vec![0usize; (1 << low_bits) + 1];
    for bucket in 0..1usize << bucket_bits {
        // Counting sort by u: after the prefix sum, the bucket's i-th
        // adjacency list spans `counts[i]..counts[i + 1]` past `first`.
        counts.fill(0);
        let edges = part_buckets.iter().flat_map(|p| &p[bucket]);
        for &e in edges.clone() {
            counts[(e >> scale) as usize + 1] += 1;
        }
        for i in 0..1 << low_bits {
            counts[i + 1] += counts[i];
        }
        let first = neighbors.len();
        neighbors.resize(first + counts[1 << low_bits], 0);
        let mut next = counts.clone();
        for &e in edges {
            let slot = &mut next[((e >> scale) & low_mask) as usize];
            neighbors[first + *slot] = e & v_mask;
            *slot += 1;
        }
        for p in part_buckets.iter_mut() {
            p[bucket] = Vec::new();
        }
        // Sort and dedup each list, compacting it down to the end of the
        // previous one.
        let mut end = first;
        for i in 0..1usize << low_bits {
            let list = first + counts[i]..first + counts[i + 1];
            neighbors[list.clone()].sort_unstable();
            let mut prev = None;
            for j in list {
                let w = neighbors[j];
                if prev != Some(w) {
                    neighbors[end] = w;
                    end += 1;
                    prev = Some(w);
                }
            }
            offsets[(bucket << low_bits) + i + 1] = end as u64;
        }
        neighbors.truncate(end);
    }
    CsrGraph { offsets, neighbors }
}

/// Draw `edges` rMat edges from `rng`, dropping self-loops, into buckets
/// by u's top bits (see [`rmat_in_parts`] for the packing).
fn draw_edges(rng: &mut SmallRng, scale: u32, low_bits: u32, edges: usize) -> Vec<Vec<u32>> {
    // The f64 sample of a draw `x` is `(x >> 11) * 2^-53`, so `r >= p`
    // holds exactly when `x >= ceil(p * 2^53) << 11`.
    let threshold = |p: f64| ((p * (1u64 << 53) as f64).ceil() as u64) << 11;
    let t1 = threshold(RMAT_A);
    let t2 = threshold(RMAT_A + RMAT_B);
    let t3 = threshold(RMAT_A + RMAT_B + RMAT_C);
    let low_mask = (1u32 << low_bits) - 1;
    let mut buckets = vec![Vec::new(); 1 << (scale - low_bits)];
    for _ in 0..edges {
        let (mut u, mut v) = (0u32, 0u32);
        // One quadrant per level, most significant bit first: quadrant q
        // is the number of thresholds the draw reaches; 0 is upper left,
        // bit 0 of q picks the right half, bit 1 the lower half.
        for _ in 0..scale {
            let x = rng.next_u64();
            let (a, b, c) = (x >= t1, x >= t2, x >= t3);
            u = (u << 1) | u32::from(b);
            v = (v << 1) | u32::from(a ^ b ^ c);
        }
        if u != v {
            buckets[(u >> low_bits) as usize].push(((u & low_mask) << scale) | v);
        }
    }
    buckets
}

/// Address-space layout of a CSR graph plus per-vertex algorithm state.
#[derive(Debug, Clone, Copy)]
struct Layout {
    offsets_base: u64,
    neighbors_base: u64,
    state_base: u64,
    /// Bytes per vertex of algorithm state (ranks, parents, ...).
    state_stride: u64,
    total: u64,
}

impl Layout {
    fn new(g: &CsrGraph, state_stride: u64) -> Layout {
        let align = |x: u64| x.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        let offsets_base = 0;
        let offsets_bytes = align((g.offsets.len() * 8) as u64);
        let neighbors_base = offsets_base + offsets_bytes;
        let neighbors_bytes = align((g.neighbors.len() * 4) as u64);
        let state_base = neighbors_base + neighbors_bytes;
        let state_bytes = align(g.n() as u64 * state_stride);
        Layout {
            offsets_base,
            neighbors_base,
            state_base,
            state_stride,
            total: state_base + state_bytes,
        }
    }

    fn offset_addr(&self, v: u32) -> u64 {
        self.offsets_base + v as u64 * 8
    }

    fn neighbor_addr(&self, idx: u64) -> u64 {
        self.neighbors_base + idx * 4
    }

    fn state_addr(&self, v: u32) -> u64 {
        self.state_base + v as u64 * self.state_stride
    }
}

/// Which graph algorithm drives the access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphAlgo {
    /// Breadth-first search from random roots, restarted on completion.
    Bfs,
    /// Power-iteration PageRank, round after round.
    PageRank,
}

/// A graph-processing workload (BFS or PageRank over rMat).
#[derive(Debug)]
pub struct GraphWorkload {
    name: String,
    description: String,
    graph: CsrGraph,
    layout: Layout,
    algo: GraphAlgo,
    seed: u64,
    rng: SmallRng,
    // BFS state.
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    visited: Vec<bool>,
    rounds_done: u64,
    // PageRank state.
    pr_vertex: u32,
    // Pending page-granular accesses (reversed).
    pending: Vec<Access>,
    last_page: u64,
}

impl GraphWorkload {
    /// Build a workload over a fresh rMat graph.
    pub fn new(algo: GraphAlgo, scale: u32, edge_factor: usize, seed: u64) -> Self {
        let graph = rmat(scale, edge_factor, seed);
        // 16 B of state per vertex (rank + next rank, or parent + visited).
        let layout = Layout::new(&graph, 16);
        let name = match algo {
            GraphAlgo::Bfs => "bfs",
            GraphAlgo::PageRank => "pagerank",
        };
        let n = graph.n();
        GraphWorkload {
            name: name.to_string(),
            description: format!(
                "{name} over rMat scale {scale} ({} vertices, {} edges)",
                n,
                graph.m()
            ),
            graph,
            layout,
            algo,
            seed,
            rng: SmallRng::seed_from_u64(seed ^ 0xF00D),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            // Only BFS reads it.
            visited: match algo {
                GraphAlgo::Bfs => vec![false; n],
                GraphAlgo::PageRank => Vec::new(),
            },
            rounds_done: 0,
            pr_vertex: 0,
            pending: Vec::with_capacity(64),
            last_page: u64::MAX,
        }
    }

    /// The underlying graph (for tests and examples).
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Completed traversal/iteration rounds.
    pub fn rounds_done(&self) -> u64 {
        self.rounds_done
    }

    /// Push an access unless it lands on the same page as the previous one
    /// (sequential scans hit each page many times; one page-level access per
    /// page transition is what the tiering system observes at fault/sample
    /// granularity without drowning the stream).
    fn push(&mut self, addr: u64, is_store: bool) {
        let page = addr / PAGE_SIZE as u64;
        if page == self.last_page {
            return;
        }
        self.last_page = page;
        self.pending.push(Access { addr, is_store });
    }

    fn refill_bfs(&mut self) {
        // Complete one frontier vertex per refill; restart on exhaustion.
        if self.frontier.is_empty() {
            if !self.next_frontier.is_empty() {
                std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            } else {
                // New BFS round from a fresh random root.
                self.visited.fill(false);
                let root = self.rng.random_range(0..self.graph.n() as u32);
                self.visited[root as usize] = true;
                self.frontier.push(root);
                self.rounds_done += 1;
            }
        }
        let v = self.frontier.pop().expect("frontier refilled above");
        self.push(self.layout.offset_addr(v), false);
        let (start, end) = (
            self.graph.offsets[v as usize],
            self.graph.offsets[v as usize + 1],
        );
        for idx in start..end {
            self.push(self.layout.neighbor_addr(idx), false);
            let w = self.graph.neighbors[idx as usize];
            if !self.visited[w as usize] {
                self.visited[w as usize] = true;
                self.next_frontier.push(w);
                // Write the parent into w's state.
                self.push(self.layout.state_addr(w), true);
            }
        }
        self.pending.reverse();
    }

    fn refill_pagerank(&mut self) {
        // Process a run of vertices per refill (sequential CSR scan with
        // random rank gathers).
        let n = self.graph.n() as u32;
        for _ in 0..8 {
            let v = self.pr_vertex;
            self.push(self.layout.offset_addr(v), false);
            let (start, end) = (
                self.graph.offsets[v as usize],
                self.graph.offsets[v as usize + 1],
            );
            for idx in start..end {
                self.push(self.layout.neighbor_addr(idx), false);
                let w = self.graph.neighbors[idx as usize];
                // Gather w's rank (random access into the state array).
                self.push(self.layout.state_addr(w), false);
                // Re-touch v's offset page region only on page change; the
                // dedupe in push() keeps the stream page-granular.
            }
            // Write v's new rank.
            self.push(self.layout.state_addr(v), true);
            self.pr_vertex = (self.pr_vertex + 1) % n;
            if self.pr_vertex == 0 {
                self.rounds_done += 1;
            }
        }
        self.pending.reverse();
    }
}

impl Workload for GraphWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn rss_bytes(&self) -> u64 {
        self.layout.total
    }

    fn page_class(&self, page: u64) -> PageClass {
        let addr = page * PAGE_SIZE as u64;
        if addr < self.layout.neighbors_base {
            // Monotone offsets: small deltas, highly compressible.
            PageClass::HighlyCompressible
        } else {
            // Neighbor lists and per-vertex state are both binary arrays.
            PageClass::Binary
        }
    }

    fn content_seed(&self) -> u64 {
        self.seed
    }

    fn next_access(&mut self) -> Access {
        loop {
            if let Some(a) = self.pending.pop() {
                return a;
            }
            self.last_page = u64::MAX;
            match self.algo {
                GraphAlgo::Bfs => self.refill_bfs(),
                GraphAlgo::PageRank => self.refill_pagerank(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_shape() {
        let g = rmat(10, 8, 42);
        assert_eq!(g.n(), 1024);
        assert!(g.m() > 1024, "m = {}", g.m());
        // CSR consistency.
        assert_eq!(*g.offsets.last().unwrap() as usize, g.m());
        for v in 0..g.n() as u32 {
            for &w in g.neighbors_of(v) {
                assert!((w as usize) < g.n());
                assert_ne!(w, v, "self loop");
            }
        }
    }

    /// FNV-1a over offsets and neighbors (little-endian u64 words) of the
    /// rMat graphs of `shapes`, each `(scale, edge_factor, seed)`.
    fn rmat_hash(shapes: &[(u32, usize, u64)]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &(scale, edge_factor, seed) in shapes {
            let g = rmat(scale, edge_factor, seed);
            let neighbors = g.neighbors.iter().map(|&v| u64::from(v));
            for word in g.offsets.iter().copied().chain(neighbors) {
                for b in word.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn rmat_output_is_pinned() {
        // Pinned to the value the branchy quadrant walk and tuple sort
        // produced: the generator must stay byte-identical.
        assert_eq!(
            rmat_hash(&[(10, 8, 42), (12, 16, 1), (15, 16, 7)]),
            0x2253_1b4c_b887_b3e1
        );
        // Scales above 16 pack edges into more than one bucket.
        assert_eq!(rmat_hash(&[(17, 4, 9), (18, 2, 3)]), 0xf99a_ee0e_dda6_1457);
    }

    #[test]
    fn rmat_is_identical_at_any_part_count() {
        for (scale, edge_factor, seed) in [(10, 8, 42), (17, 4, 9)] {
            let one = rmat_in_parts(scale, edge_factor, seed, 1);
            for parts in 2..=4 {
                let g = rmat_in_parts(scale, edge_factor, seed, parts);
                assert_eq!(g.offsets, one.offsets, "{scale}/{parts} parts");
                assert_eq!(g.neighbors, one.neighbors, "{scale}/{parts} parts");
            }
        }
    }

    /// The benchmark's graph (`graph-spectrum-real`). Slow in a debug build;
    /// CI runs it in release with `--ignored`.
    #[test]
    #[ignore]
    fn rmat_benchmark_graph_is_pinned() {
        assert_eq!(rmat_hash(&[(19, 16, 42)]), 0xb9b2_29f6_c3ce_fa80);
    }

    #[test]
    fn rmat_degree_skew() {
        let g = rmat(12, 16, 1);
        let mut degrees: Vec<usize> = (0..g.n() as u32).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: usize = degrees[..g.n() / 100].iter().sum();
        let total: usize = degrees.iter().sum();
        assert!(
            top1pct as f64 / total as f64 > 0.1,
            "rMat should be skewed: top1% has {}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn bfs_visits_and_restarts() {
        let mut w = GraphWorkload::new(GraphAlgo::Bfs, 8, 8, 3);
        let rss = w.rss_bytes();
        for _ in 0..200_000 {
            let a = w.next_access();
            assert!(a.addr < rss);
        }
        assert!(w.rounds_done() >= 1);
    }

    #[test]
    fn pagerank_scans_rounds() {
        let mut w = GraphWorkload::new(GraphAlgo::PageRank, 8, 8, 3);
        let rss = w.rss_bytes();
        let mut stores = 0;
        for _ in 0..300_000 {
            let a = w.next_access();
            assert!(a.addr < rss);
            if a.is_store {
                stores += 1;
            }
        }
        assert!(w.rounds_done() >= 1, "rounds {}", w.rounds_done());
        assert!(stores > 0);
        assert!(w.visited.is_empty(), "BFS-only state");
    }

    #[test]
    fn state_pages_hotter_than_neighbor_pages() {
        // PageRank gathers a rank per *edge* from the small state array but
        // streams each neighbor page once per round: per page, the state
        // array must be hotter than the adjacency bulk.
        let mut w = GraphWorkload::new(GraphAlgo::PageRank, 10, 8, 5);
        let mut counts = std::collections::HashMap::<u64, u64>::new();
        for _ in 0..500_000 {
            let a = w.next_access();
            *counts.entry(a.addr / PAGE_SIZE as u64).or_default() += 1;
        }
        let nbr_first = w.layout.neighbors_base / PAGE_SIZE as u64;
        let nbr_pages = (w.layout.state_base / PAGE_SIZE as u64) - nbr_first;
        let nbr_hot: u64 = (nbr_first..nbr_first + nbr_pages)
            .map(|p| counts.get(&p).copied().unwrap_or(0))
            .sum::<u64>()
            / nbr_pages.max(1);
        let state_first = w.layout.state_base / PAGE_SIZE as u64;
        let state_pages = (w.rss_bytes() / PAGE_SIZE as u64) - state_first;
        let state_hot: u64 = (state_first..state_first + state_pages)
            .map(|p| counts.get(&p).copied().unwrap_or(0))
            .sum::<u64>()
            / state_pages.max(1);
        assert!(
            state_hot > nbr_hot,
            "state {state_hot} vs neighbors {nbr_hot}"
        );
    }

    #[test]
    fn layout_is_page_aligned_and_disjoint() {
        let w = GraphWorkload::new(GraphAlgo::Bfs, 9, 8, 7);
        let l = w.layout;
        assert_eq!(l.neighbors_base % PAGE_SIZE as u64, 0);
        assert_eq!(l.state_base % PAGE_SIZE as u64, 0);
        assert!(l.offsets_base < l.neighbors_base);
        assert!(l.neighbors_base < l.state_base);
        assert!(l.state_base < l.total);
    }
}
