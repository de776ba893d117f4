//! A single compressed memory tier: codec + pool + backing medium.

use crate::config::TierConfig;
use crate::{ZswapError, ZswapResult};
use std::sync::Arc;
use ts_compress::Codec;
use ts_mem::{Machine, NodeId, PAGE_SIZE};
use ts_zpool::{Handle, PoolError, PoolStats, ZPool};

/// Modeled cost of reconstructing a same-filled page (a 4 KiB memset).
pub const SAME_FILLED_FAULT_NS: f64 = 400.0;

/// Identifier of a tier within a [`crate::ZswapSubsystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TierId(pub u32);

/// Per-tier counters, mirroring the paper's added "tier statistics" kernel
/// support (§7.1: pages in the tier, size of the tier, total faults).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierStats {
    /// Pages currently stored compressed in this tier.
    pub pages: u64,
    /// Sum of compressed payload bytes of live pages.
    pub compressed_bytes: u64,
    /// Total store operations ever performed.
    pub stores: u64,
    /// Total faults (loads) ever served.
    pub faults: u64,
    /// Pages rejected as incompressible.
    pub rejections: u64,
    /// Pages stored as same-filled markers (no pool space at all).
    pub same_filled: u64,
    /// Stores failed by injected compression faults (chaos testing).
    pub compress_failures: u64,
}

/// A stored compressed page: pool handle plus sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredPage {
    /// Pool handle for retrieval (unused for same-filled pages).
    pub handle: Handle,
    /// Compressed payload size in bytes (0 for same-filled pages).
    pub compressed_len: usize,
    /// Original (uncompressed) size in bytes.
    pub original_len: usize,
    /// Kernel zswap's same-filled-page optimization: a page whose bytes are
    /// all identical is stored as just this marker value, consuming no pool
    /// space and faulting back with a memset instead of a decompression.
    pub same_filled: Option<u8>,
}

impl StoredPage {
    /// True when the page is stored as a same-filled marker.
    pub fn is_same_filled(&self) -> bool {
        self.same_filled.is_some()
    }
}

/// Detect the kernel's "same-filled" case: every byte of the page equal.
fn same_filled_value(page: &[u8]) -> Option<u8> {
    let &first = page.first()?;
    page.iter().all(|&b| b == first).then_some(first)
}

/// Output of [`CompressedTier::compress_into`]: what a store would place
/// in the pool, computed without touching the tier. `B` gives the codec's
/// output: the bytes borrowed (`&[u8]`), owned (`Box<[u8]>`, which
/// [`CompressedTier::insert`] moves into the pool as it is), or where a
/// caller keeps them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Compressed<B> {
    /// Every byte of the page equals this value; stored as a marker.
    SameFilled(u8),
    /// The codec's output.
    Bytes(B),
    /// The page did not shrink under the codec.
    Incompressible,
    /// The codec failed for another reason.
    Failed(ts_compress::CodecError),
}

impl<B> Compressed<B> {
    /// The same outcome with its output given by `f(output)`.
    pub fn map<C>(self, f: impl FnOnce(B) -> C) -> Compressed<C> {
        match self {
            Compressed::SameFilled(v) => Compressed::SameFilled(v),
            Compressed::Bytes(b) => Compressed::Bytes(f(b)),
            Compressed::Incompressible => Compressed::Incompressible,
            Compressed::Failed(e) => Compressed::Failed(e),
        }
    }
}

/// One active compressed tier.
pub struct CompressedTier {
    id: TierId,
    config: TierConfig,
    codec: Box<dyn Codec>,
    pool: Box<dyn ZPool>,
    node: NodeId,
    stats: TierStats,
    faults: Option<Arc<ts_faults::FaultPlan>>,
}

impl CompressedTier {
    /// Create a tier from `config`, drawing pool pages from the node of
    /// `config.media` on `machine`.
    ///
    /// # Errors
    ///
    /// [`ZswapError::NoSuchMedia`] if the machine has no node of the
    /// configured backing medium.
    pub fn new(id: TierId, config: TierConfig, machine: Arc<Machine>) -> ZswapResult<Self> {
        let node = machine
            .node_of_kind(config.media)
            .ok_or(ZswapError::NoSuchMedia {
                media: config.media,
            })?
            .id();
        let codec = config.algorithm.codec();
        let pool = config.pool.create(machine, node);
        Ok(CompressedTier {
            id,
            config,
            codec,
            pool,
            node,
            stats: TierStats::default(),
            faults: None,
        })
    }

    /// Install a deterministic fault-injection plan on this tier and its
    /// pool. Store decisions are keyed by the tier/pool store counters,
    /// which only the serial [`CompressedTier::insert`] path advances, so a
    /// fixed seed gives the same faults at any worker count.
    pub fn set_fault_plan(&mut self, plan: Arc<ts_faults::FaultPlan>) {
        // Distinct per-tier salts keep pools drawing independently.
        self.pool
            .set_fault_plan(Some(plan.clone()), (u64::from(self.id.0) + 1) << 32);
        self.faults = Some(plan);
    }

    /// Tier identifier.
    pub fn id(&self) -> TierId {
        self.id
    }

    /// Tier configuration.
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// Backing NUMA node the pool allocates from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Tier counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Pool-level statistics (backing pages, density).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Compress and store a page: [`CompressedTier::insert`] of
    /// [`CompressedTier::compress_into`] a fresh buffer.
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::insert`].
    pub fn store(&mut self, page: &[u8]) -> ZswapResult<StoredPage> {
        let mut out = Vec::with_capacity(page.len());
        let compressed = self.compress_into(page, &mut out);
        self.insert(compressed, page.len())
    }

    /// The pure half of a store: same-filled detection, then this tier's
    /// codec, appending its output to `out` and returning it. `out` keeps
    /// what it held before, and gets nothing else unless the page
    /// compressed. Touches no statistics, pool or fault state, so any
    /// number of threads may compress for one tier at once, each into its
    /// own buffer.
    pub fn compress_into<'a>(&self, page: &[u8], out: &'a mut Vec<u8>) -> Compressed<&'a [u8]> {
        debug_assert!(page.len() <= PAGE_SIZE);
        // Same-filled fast path (kernel zswap): no compression, no pool.
        if let Some(v) = same_filled_value(page) {
            return Compressed::SameFilled(v);
        }
        let start = out.len();
        match self.codec.compress(page, out) {
            Ok(_) => Compressed::Bytes(&out[start..]),
            Err(e) => {
                out.truncate(start);
                match e {
                    ts_compress::CodecError::Incompressible { .. } => Compressed::Incompressible,
                    e => Compressed::Failed(e),
                }
            }
        }
    }

    /// The serial half of a store: draw the injected compression fault,
    /// count a rejection, or place the bytes in the pool, in that order.
    /// `original_len` is the length of the page `compressed` came from.
    /// Owned bytes move into the pool; borrowed ones are copied.
    ///
    /// # Errors
    ///
    /// [`ZswapError::CompressFailed`] on an injected fault;
    /// [`ZswapError::Incompressible`] if the page did not shrink (zswap's
    /// rejection rule — the caller must keep the page uncompressed);
    /// [`ZswapError::Codec`] if the codec failed; [`ZswapError::Pool`] on
    /// pool failures (e.g. backing node exhausted).
    pub fn insert<B: Into<Box<[u8]>>>(
        &mut self,
        compressed: Compressed<B>,
        original_len: usize,
    ) -> ZswapResult<StoredPage> {
        if let Compressed::SameFilled(v) = compressed {
            self.stats.pages += 1;
            self.stats.stores += 1;
            self.stats.same_filled += 1;
            return Ok(StoredPage {
                handle: Handle(u64::MAX),
                compressed_len: 0,
                original_len,
                same_filled: Some(v),
            });
        }
        if let Some(plan) = &self.faults {
            // Keyed by this tier's store count, which only this serial
            // path advances: deterministic for a fixed seed.
            let key = (u64::from(self.id.0) << 40) ^ self.stats.stores;
            if plan.trips(ts_faults::FaultSite::ZswapStore, key) {
                self.stats.compress_failures += 1;
                return Err(ZswapError::CompressFailed);
            }
        }
        let buf = match compressed {
            Compressed::Bytes(buf) => buf,
            Compressed::Incompressible => {
                self.stats.rejections += 1;
                return Err(ZswapError::Incompressible);
            }
            Compressed::Failed(e) => return Err(ZswapError::Codec(e)),
            Compressed::SameFilled(_) => unreachable!("handled above"),
        };
        self.store_precompressed(buf.into(), original_len)
    }

    /// Decompress the page behind `stored` into `page[..stored.original_len]`
    /// without invalidating it or touching any statistics (the pure half of
    /// a fault). The decoder stops at that bound.
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] for stale handles; [`ZswapError::Codec`] if
    /// `page` is shorter than the stored page, or if the stored bytes fail
    /// to decompress to exactly `stored.original_len` bytes (corruption).
    pub fn decompress_into(&self, stored: StoredPage, page: &mut [u8]) -> ZswapResult<()> {
        let page = page
            .get_mut(..stored.original_len)
            .ok_or(ZswapError::Codec(ts_compress::CodecError::OutputOverflow))?;
        if let Some(v) = stored.same_filled {
            page.fill(v);
            return Ok(());
        }
        let compressed = self.pool.get(stored.handle).map_err(ZswapError::Pool)?;
        crate::decode_page(self.codec.as_ref(), compressed, page)
    }

    /// [`CompressedTier::decompress_into`] a new page buffer.
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::decompress_into`].
    pub fn decompress(&self, stored: StoredPage) -> ZswapResult<Vec<u8>> {
        let mut page = vec![0; stored.original_len];
        self.decompress_into(stored, &mut page)?;
        Ok(page)
    }

    /// Fault path: decompress the page behind `stored` into
    /// `page[..stored.original_len]` and take it out of the pool (zswap
    /// removes the entry once the page returns to memory). Returns the
    /// compressed bytes it took, or `None` for a same-filled page.
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::decompress_into`]; on error the page stays
    /// stored.
    pub fn load_into(
        &mut self,
        stored: StoredPage,
        page: &mut [u8],
    ) -> ZswapResult<Option<Box<[u8]>>> {
        self.decompress_into(stored, page)?;
        let taken = match stored.same_filled {
            Some(_) => None,
            None => {
                let bytes = self.pool.take(stored.handle).map_err(ZswapError::Pool)?;
                self.stats.compressed_bytes -= stored.compressed_len as u64;
                Some(bytes)
            }
        };
        self.stats.pages -= 1;
        self.stats.faults += 1;
        Ok(taken)
    }

    /// [`CompressedTier::load_into`] a new page buffer.
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::load_into`].
    pub fn load(&mut self, stored: StoredPage) -> ZswapResult<Vec<u8>> {
        let mut page = vec![0; stored.original_len];
        self.load_into(stored, &mut page)?;
        Ok(page)
    }

    /// Copy out the raw compressed bytes without decompressing or
    /// invalidating: for the same-algorithm migration fast path, whose
    /// source must survive a failed store, and for swap writeback.
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] for stale handles.
    pub fn peek_compressed(&self, stored: StoredPage) -> ZswapResult<Vec<u8>> {
        debug_assert!(
            !stored.is_same_filled(),
            "same-filled pages have no pool bytes"
        );
        let mut compressed = Vec::with_capacity(stored.compressed_len);
        self.pool
            .load(stored.handle, &mut compressed)
            .map_err(ZswapError::Pool)?;
        Ok(compressed)
    }

    /// Move bytes that are already compressed with this tier's algorithm
    /// into the pool (migration fast path target side). Draws no injected
    /// compression fault: nothing is compressed.
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] on pool failures.
    pub fn store_precompressed(
        &mut self,
        compressed: Box<[u8]>,
        original_len: usize,
    ) -> ZswapResult<StoredPage> {
        let compressed_len = compressed.len();
        let handle = self
            .pool
            .store_owned(compressed)
            .map_err(ZswapError::Pool)?;
        self.stats.pages += 1;
        self.stats.compressed_bytes += compressed_len as u64;
        self.stats.stores += 1;
        Ok(StoredPage {
            handle,
            compressed_len,
            original_len,
            same_filled: None,
        })
    }

    /// Drop a stored page without decompressing (invalidation, e.g. the
    /// application freed the memory or the page migrated elsewhere).
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] for stale handles.
    pub fn invalidate(&mut self, stored: StoredPage) -> ZswapResult<()> {
        if stored.is_same_filled() {
            self.stats.pages -= 1;
            self.stats.same_filled -= 1;
            return Ok(());
        }
        self.pool.remove(stored.handle).map_err(ZswapError::Pool)?;
        self.stats.pages -= 1;
        self.stats.compressed_bytes -= stored.compressed_len as u64;
        Ok(())
    }

    /// Modeled latency of faulting one page out of this tier, in ns:
    /// decompression + pool management + streaming the compressed object off
    /// the backing medium.
    pub fn fault_latency_ns(&self, compressed_len: usize) -> f64 {
        if compressed_len == 0 {
            // Same-filled page: a memset, no decompression or pool access.
            return SAME_FILLED_FAULT_NS;
        }
        let machine_spec = self.config.media.default_spec();
        self.config.decompress_latency_ns() + machine_spec.stream_ns(compressed_len as u64)
    }

    /// Modeled latency of storing one page into this tier, in ns.
    pub fn store_latency_ns(&self, compressed_len: usize) -> f64 {
        let machine_spec = self.config.media.default_spec();
        self.config.compress_latency_ns() + machine_spec.stream_ns(compressed_len as u64)
    }

    /// Memory TCO currently attributable to this tier: backing pool bytes
    /// priced at the backing medium's unit cost (Eq. 8's `P_CT * C_CT *
    /// USD_CT`, with pool overhead included via actual pool pages).
    pub fn tco_cost(&self) -> f64 {
        self.config
            .media
            .default_spec()
            .cost_of_bytes(self.pool_stats().pool_bytes())
    }

    /// Effective compression ratio including pool fragmentation: backing
    /// bytes per original byte for the pages currently stored.
    pub fn effective_ratio(&self) -> f64 {
        let original = self.stats.pages * PAGE_SIZE as u64;
        if original == 0 {
            self.config.nominal_ratio()
        } else {
            self.pool_stats().pool_bytes() as f64 / original as f64
        }
    }
}

impl std::fmt::Debug for CompressedTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedTier")
            .field("id", &self.id)
            .field("config", &self.config.label)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Convert a pool error into the subsystem error space (helper).
impl From<PoolError> for ZswapError {
    fn from(e: PoolError) -> Self {
        ZswapError::Pool(e)
    }
}
