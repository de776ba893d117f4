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
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

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

/// A bucket is cut into pieces on the boundaries of blocks of u: the top
/// `BLOCK_BITS` bits of u within its bucket number the block.
const BLOCK_BITS: u32 = 8;

/// Digit width of the CSR build's radix sort.
const RADIX_BITS: u32 = 8;

/// Generate an rMat graph with `1 << scale` vertices and ~`edge_factor`
/// edges per vertex (duplicates removed, self-loops dropped).
///
/// Supports `scale <= 24` (callers clamp at 20). The output is a pure
/// function of the arguments: large graphs draw their edge stream and sort
/// their adjacency lists on one thread per core, and the result does not
/// depend on how many.
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
/// draws, the first on the calling thread and each other on a thread of
/// its own; the same threads then build the CSR (see [`build_csr`]).
fn rmat_in_parts(scale: u32, edge_factor: usize, seed: u64, parts: usize) -> CsrGraph {
    let m_target = (1usize << scale) * edge_factor;
    let pack = Packing::new(scale);
    let chunk = m_target.div_ceil(parts);
    let base = SmallRng::seed_from_u64(seed);
    // Every edge takes exactly `scale` draws, kept or not, so part k's
    // stream starts `k * chunk * scale` draws into the seed's.
    let draw_part = |k: usize| {
        let mut rng = base.clone();
        rng.advance((k * chunk) as u64 * u64::from(scale));
        let edges = chunk.min(m_target.saturating_sub(k * chunk));
        draw_edges(&mut rng, &pack, edges)
    };
    let mut offsets = vec![0u64; (1 << scale) + 1];
    let mut neighbors = Vec::new();
    let shared = Shared {
        board: Mutex::new(Board {
            drawn: (0..parts).map(|_| None).collect(),
            unclaimed: Vec::new().into_iter().enumerate(),
            free: Vec::new(),
            sorted: Vec::new(),
            failed: false,
        }),
        changed: Condvar::new(),
        buckets: OnceLock::new(),
        scale,
    };
    let shared = &shared;
    // ts-lint: allow(thread-hygiene) -- parts merge as a sorted set, appended in bucket order: same output at any part count
    std::thread::scope(|scope| {
        for k in 1..parts {
            scope.spawn(move || {
                let _flag = FailOnPanic(shared);
                let part = draw_part(k);
                lock(&shared.board).drawn[k] = Some(part);
                shared.changed.notify_all();
                shared.sort_pieces();
            });
        }
        let _flag = FailOnPanic(shared);
        let part = draw_part(0);
        build_csr(shared, &pack, part, &mut offsets, &mut neighbors);
    });
    CsrGraph { offsets, neighbors }
}

/// How an edge `(u, v)` is packed into a `u32`: the low `low_bits` bits
/// of u, then the `scale` bits of v. u's top `scale - low_bits` bits pick
/// the edge's bucket, and within a bucket packed edges sort as `(u, v)`.
#[derive(Clone, Copy)]
struct Packing {
    scale: u32,
    low_bits: u32,
    /// A block is `1 << block_shift` consecutive values of u.
    block_shift: u32,
}

impl Packing {
    fn new(scale: u32) -> Packing {
        let low_bits = scale - (2 * scale).saturating_sub(32);
        Packing {
            scale,
            low_bits,
            block_shift: low_bits.saturating_sub(BLOCK_BITS),
        }
    }
}

/// One part of the edge stream: its packed edges by bucket, and how many
/// of them fall in each block.
struct Drawn {
    buckets: Vec<Vec<u32>>,
    blocks: Vec<usize>,
}

/// Draw `edges` rMat edges from `rng`, dropping self-loops, packed into
/// their buckets.
fn draw_edges(rng: &mut SmallRng, pack: &Packing, edges: usize) -> Drawn {
    // The f64 sample of a draw `x` is `(x >> 11) * 2^-53`, so `r >= p`
    // holds exactly when `x >= ceil(p * 2^53) << 11`.
    let threshold = |p: f64| ((p * (1u64 << 53) as f64).ceil() as u64) << 11;
    let t1 = threshold(RMAT_A);
    let t2 = threshold(RMAT_A + RMAT_B);
    let t3 = threshold(RMAT_A + RMAT_B + RMAT_C);
    let Packing {
        scale,
        low_bits,
        block_shift,
    } = *pack;
    let low_mask = (1u32 << low_bits) - 1;
    let mut buckets = vec![Vec::new(); 1 << (scale - low_bits)];
    let mut blocks = vec![0; 1 << (scale - block_shift)];
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
            blocks[(u >> block_shift) as usize] += 1;
        }
    }
    Drawn { buckets, blocks }
}

/// A run of whole blocks of one bucket, sorted by one thread.
struct Piece<'g> {
    bucket: usize,
    /// Its packed edges are those in `lo..lo + span`.
    lo: u64,
    span: u64,
    /// Packed edges in it, duplicates included.
    len: usize,
    /// Its slice of `offsets`: the end of each of its vertices' lists,
    /// relative to its first edge until the calling thread appends it.
    ends: &'g mut [u64],
}

/// What the rMat threads share.
struct Shared<'g> {
    board: Mutex<Board<'g>>,
    /// Signalled on every change to `board`.
    changed: Condvar,
    /// Each bucket's packed edges, one `Vec` per part; set once every part
    /// is drawn, and a bucket is emptied once its last piece is appended.
    buckets: OnceLock<Vec<RwLock<Vec<Vec<u32>>>>>,
    scale: u32,
}

/// The rMat threads' state, under one lock.
struct Board<'g> {
    /// Parts drawn by the other threads, until the calling thread takes
    /// them; emptied once the pieces are cut.
    drawn: Vec<Option<Drawn>>,
    /// Pieces not yet claimed, in bucket order; none until every part is
    /// drawn.
    unclaimed: std::iter::Enumerate<std::vec::IntoIter<Piece<'g>>>,
    /// Sort buffers lent by the calling thread and not in use.
    free: Vec<Vec<u32>>,
    /// Sorted pieces by claim index, until the calling thread appends them.
    sorted: Vec<Option<(Piece<'g>, Vec<u32>)>>,
    /// A thread panicked: nobody waits any more.
    failed: bool,
}

impl<'g> Board<'g> {
    /// The next piece with two free buffers to sort it in, if there are.
    fn claim(&mut self) -> Option<(usize, Piece<'g>, Vec<u32>, Vec<u32>)> {
        if self.free.len() < 2 {
            return None;
        }
        let (i, piece) = self.unclaimed.next()?;
        Some((i, piece, self.free.pop()?, self.free.pop()?))
    }
}

/// Lock `m`, past a panicked holder: the panic set [`Board::failed`].
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<'g> Shared<'g> {
    /// Wait for the next change to `board`.
    fn wait<'a>(&self, board: MutexGuard<'a, Board<'g>>) -> MutexGuard<'a, Board<'g>> {
        self.changed
            .wait(board)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Sort claimed pieces until none is left unclaimed.
    fn sort_pieces(&self) {
        loop {
            let (i, piece, keys, tmp) = {
                let mut board = lock(&self.board);
                loop {
                    // `drawn` empties once the pieces are cut.
                    if board.failed || (board.drawn.is_empty() && board.unclaimed.len() == 0) {
                        return;
                    }
                    if let Some(claim) = board.claim() {
                        break claim;
                    }
                    board = self.wait(board);
                }
            };
            self.sort(i, piece, keys, tmp);
        }
    }

    /// Sort claimed piece `i` into `keys` and file it for appending.
    fn sort(&self, i: usize, mut piece: Piece<'g>, mut keys: Vec<u32>, mut tmp: Vec<u32>) {
        let buckets = self
            .buckets
            .get()
            .expect("pieces are cut after the buckets");
        let parts = buckets[piece.bucket]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        sort_piece(&parts, &mut piece, &mut keys, &mut tmp, self.scale);
        drop(parts);
        let mut board = lock(&self.board);
        board.sorted[i] = Some((piece, keys));
        board.free.push(tmp);
        drop(board);
        self.changed.notify_all();
    }
}

/// Sets [`Board::failed`] and wakes every waiter if its thread unwinds.
struct FailOnPanic<'a, 'g>(&'a Shared<'g>);

impl Drop for FailOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(&self.0.board).failed = true;
            self.0.changed.notify_all();
        }
    }
}

/// The CSR half of [`rmat_in_parts`], on the calling thread, which drew
/// `part` 0. Once the other threads have drawn theirs, each bucket is cut
/// into one piece per thread at about equal edge counts. Every thread then
/// claims pieces in bucket order and sorts each one (see [`sort_piece`]);
/// the calling thread also appends them to `neighbors` in that order and
/// frees each bucket's edges once its last piece is in.
fn build_csr<'g>(
    shared: &Shared<'g>,
    pack: &Packing,
    part: Drawn,
    offsets: &'g mut [u64],
    neighbors: &mut Vec<u32>,
) {
    let Packing {
        scale,
        low_bits,
        block_shift,
    } = *pack;
    let mut parts = vec![part];
    {
        let mut board = lock(&shared.board);
        while board.drawn[1..].iter().any(Option::is_none) {
            if board.failed {
                return;
            }
            board = shared.wait(board);
        }
        parts.extend(board.drawn.iter_mut().filter_map(Option::take));
    }
    let threads = parts.len();
    let mut blocks = vec![0usize; (1 << scale) >> block_shift];
    let mut buckets: Vec<Vec<Vec<u32>>> =
        vec![Vec::with_capacity(threads); 1 << (scale - low_bits)];
    for part in parts {
        for (total, count) in blocks.iter_mut().zip(part.blocks) {
            *total += count;
        }
        for (bucket, edges) in buckets.iter_mut().zip(part.buckets) {
            bucket.push(edges);
        }
    }
    let buckets = shared
        .buckets
        .get_or_init(|| buckets.into_iter().map(RwLock::new).collect());
    neighbors.reserve_exact(blocks.iter().sum());

    // Piece k of a bucket ends at the first block boundary where the
    // bucket's edges so far reach k / threads of its total.
    let mut pieces = Vec::with_capacity(buckets.len() * threads);
    let mut rest = &mut offsets[1..];
    let block_key_shift = block_shift + scale;
    for (bucket, counts) in blocks.chunks(1 << (low_bits - block_shift)).enumerate() {
        let total: usize = counts.iter().sum();
        let (mut block, mut done) = (0, 0);
        for k in 1..=threads {
            let (first, before) = (block, done);
            while block < counts.len() && (k == threads || done < total * k / threads) {
                done += counts[block];
                block += 1;
            }
            let (ends, tail) =
                std::mem::take(&mut rest).split_at_mut((block - first) << block_shift);
            rest = tail;
            pieces.push(Piece {
                bucket,
                lo: (first as u64) << block_key_shift,
                span: ((block - first) as u64) << block_key_shift,
                len: done - before,
                ends,
            });
        }
    }

    // The calling thread allocates every sort buffer, each with room for
    // the largest piece plus the word the gather writes past it: two for
    // each thread, and one that lets a thread go on while a sorted piece
    // waits to be appended. The other threads allocate nothing: what a
    // thread frees can stay resident in its own heap, and that raised the
    // run's peak RSS.
    let count = pieces.len();
    let cap = pieces.iter().map(|p| p.len).max().unwrap_or(0) + 1;
    {
        let mut board = lock(&shared.board);
        board.drawn = Vec::new();
        board.unclaimed = pieces.into_iter().enumerate();
        board.free = (0..=2 * threads).map(|_| Vec::with_capacity(cap)).collect();
        board.sorted = (0..count).map(|_| None).collect();
    }
    shared.changed.notify_all();

    // Append the next piece once it is sorted; sort one meanwhile.
    for next in 0..count {
        let (piece, keys) = loop {
            let claim = {
                let mut board = lock(&shared.board);
                loop {
                    if board.failed {
                        // The scope re-raises the other thread's panic.
                        return;
                    }
                    if let Some(sorted) = board.sorted[next].take() {
                        break Err(sorted);
                    }
                    if let Some(claim) = board.claim() {
                        break Ok(claim);
                    }
                    board = shared.wait(board);
                }
            };
            match claim {
                Ok((i, piece, keys, tmp)) => shared.sort(i, piece, keys, tmp),
                Err(sorted) => break sorted,
            }
        };
        let first = neighbors.len() as u64;
        neighbors.extend_from_slice(&keys);
        for end in piece.ends {
            *end += first;
        }
        if next % threads == threads - 1 {
            // The bucket's last piece: all its pieces have gathered.
            *buckets[piece.bucket]
                .write()
                .unwrap_or_else(PoisonError::into_inner) = Vec::new();
        }
        lock(&shared.board).free.push(keys);
        shared.changed.notify_all();
    }
}

/// Sort `piece` of the bucket whose edges are `parts` into `keys`: gather
/// its packed edges, radix sort them, then one scan drops duplicates and
/// u, leaving each vertex's neighbors in order, and notes where each list
/// ends.
fn sort_piece(
    parts: &[Vec<u32>],
    piece: &mut Piece,
    keys: &mut Vec<u32>,
    tmp: &mut Vec<u32>,
    scale: u32,
) {
    // Every edge is written; only the piece's advance the cursor, so the
    // slot past them takes the others.
    keys.clear();
    keys.resize(piece.len + 1, 0);
    let mut len = 0;
    for &edge in parts.iter().flatten() {
        keys[len] = edge;
        len += usize::from(u64::from(edge).wrapping_sub(piece.lo) < piece.span);
    }
    keys.truncate(len);
    radix_sort(keys, tmp);
    // Drop duplicates and u, and note each list's end, in one scan: a
    // duplicate rewrites the word and the end it repeats.
    let first_u = (piece.lo >> scale) as usize;
    let v_mask = (1u32 << scale) - 1;
    piece.ends.fill(0);
    let (mut kept, mut prev) = (0, u64::MAX);
    for i in 0..keys.len() {
        let edge = keys[i];
        kept += usize::from(u64::from(edge) != prev);
        prev = u64::from(edge);
        keys[kept - 1] = edge & v_mask;
        piece.ends[(edge >> scale) as usize - first_u] = kept as u64;
    }
    keys.truncate(kept);
    // A vertex with no edges ends where the one before it does.
    let mut end = 0;
    for e in piece.ends.iter_mut() {
        end = end.max(*e);
        *e = end;
    }
}

/// Sort `keys` ascending: a least-significant-digit radix sort, `RADIX_BITS`
/// a pass, that skips a digit all keys share. `tmp` is the other buffer of
/// each pass; both must hold `keys.len()` words without growing.
fn radix_sort(keys: &mut Vec<u32>, tmp: &mut Vec<u32>) {
    const DIGITS: usize = u32::BITS.div_ceil(RADIX_BITS) as usize;
    let mask = (1usize << RADIX_BITS) - 1;
    // 32-bit counts halve the tables: 14.8 against 17.2 ns a key on 800k
    // random keys (2-vCPU Xeon guest). A piece must so hold under 2^32 edges.
    let len = u32::try_from(keys.len()).expect("a CSR piece holds under 2^32 edges");
    let mut counts = [[0u32; 1 << RADIX_BITS]; DIGITS];
    for &key in keys.iter() {
        for (d, c) in counts.iter_mut().enumerate() {
            c[(key >> (d as u32 * RADIX_BITS)) as usize & mask] += 1;
        }
    }
    tmp.clear();
    tmp.resize(keys.len(), 0);
    for (d, c) in counts.iter_mut().enumerate() {
        if c.contains(&len) {
            continue;
        }
        let mut next = 0;
        for slot in c.iter_mut() {
            (*slot, next) = (next, next + *slot);
        }
        let shift = d as u32 * RADIX_BITS;
        for &key in keys.iter() {
            let slot = &mut c[(key >> shift) as usize & mask];
            tmp[*slot as usize] = key;
            *slot += 1;
        }
        std::mem::swap(keys, tmp);
    }
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
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The radix sort plus `dedup` equals `sort_unstable` plus `dedup`
        /// on packed edges of any scale, duplicates included, and on the
        /// empty and one-edge prefixes of each.
        #[test]
        fn radix_sort_matches_sort_unstable(
            scale in 1u32..=24,
            spread in 1u32..=24,
            edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..3000),
        ) {
            let low_bits = scale - (2 * scale).saturating_sub(32);
            // Draw u and v from the low `spread` bits only, so that narrow
            // spreads repeat edges.
            let spread_mask = u32::MAX >> (32 - spread);
            let keys: Vec<u32> = edges
                .iter()
                .map(|&(u, v)| {
                    let (u, v) = (u & spread_mask, v & spread_mask);
                    ((u & ((1 << low_bits) - 1)) << scale) | (v & ((1 << scale) - 1))
                })
                .collect();
            for len in [0, 1.min(keys.len()), keys.len()] {
                let mut want = keys[..len].to_vec();
                want.sort_unstable();
                want.dedup();
                let mut got = keys[..len].to_vec();
                let mut tmp = Vec::with_capacity(len);
                radix_sort(&mut got, &mut tmp);
                got.dedup();
                prop_assert_eq!(got, want);
            }
        }
    }

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
        // (18, 2, 3) has 16 buckets: its skewed first ones are cut across
        // threads at equal edge counts.
        for (scale, edge_factor, seed) in [(10, 8, 42), (17, 4, 9), (18, 2, 3)] {
            let one = rmat_in_parts(scale, edge_factor, seed, 1);
            for parts in 2..=4 {
                let g = rmat_in_parts(scale, edge_factor, seed, parts);
                assert_eq!(g.offsets, one.offsets, "{scale}/{parts} parts");
                assert_eq!(g.neighbors, one.neighbors, "{scale}/{parts} parts");
            }
        }
    }

    /// The benchmark's graph (`graph-spectrum-real`). Slow in a debug build;
    /// `scripts/verify.sh` runs it in release with `--ignored`.
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
