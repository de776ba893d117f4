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

/// Generate an rMat graph with `1 << scale` vertices and ~`edge_factor`
/// edges per vertex (duplicates removed, self-loops dropped).
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    let n = 1usize << scale;
    let m_target = n * edge_factor;
    let mut rng = SmallRng::seed_from_u64(seed);
    // Each edge is a `u << 32 | v` key, so sorting the keys sorts by
    // `(u, v)`.
    let mut edges: Vec<u64> = Vec::with_capacity(m_target);
    for _ in 0..m_target {
        let (mut lo_u, mut lo_v) = (0u64, 0u64);
        // One quadrant per level, most significant bit first: 0 is upper
        // left, bit 0 of `q` picks the right half, bit 1 the lower half.
        for _ in 0..scale {
            let r: f64 = rng.random();
            let q = u64::from(r >= RMAT_A)
                + u64::from(r >= RMAT_A + RMAT_B)
                + u64::from(r >= RMAT_A + RMAT_B + RMAT_C);
            lo_u = (lo_u << 1) | (q >> 1);
            lo_v = (lo_v << 1) | (q & 1);
        }
        if lo_u != lo_v {
            edges.push((lo_u << 32) | lo_v);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let mut offsets = vec![0u64; n + 1];
    for &e in &edges {
        offsets[(e >> 32) as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let neighbors = edges.into_iter().map(|e| e as u32).collect();
    CsrGraph { offsets, neighbors }
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
            visited: vec![false; n],
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

    #[test]
    fn rmat_output_is_pinned() {
        // FNV-1a over offsets and neighbors (little-endian u64 words) of
        // three graphs, pinned to the value the branchy quadrant walk and
        // tuple sort produced: the generator must stay byte-identical.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (scale, edge_factor, seed) in [(10, 8, 42), (12, 16, 1), (15, 16, 7)] {
            let g = rmat(scale, edge_factor, seed);
            let neighbors = g.neighbors.iter().map(|&v| u64::from(v));
            for word in g.offsets.iter().copied().chain(neighbors) {
                for b in word.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0x2253_1b4c_b887_b3e1);
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
