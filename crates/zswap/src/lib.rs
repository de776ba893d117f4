#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # ts-zswap — multi-tier compressed memory subsystem
//!
//! Reimplements the zswap subsystem with TierScape's kernel extensions
//! (paper §7.1):
//!
//! * **Backing media parameter** — a tier's pool pages can live on DRAM,
//!   NVMM or CXL, not just wherever the kernel allocator happens to place
//!   them.
//! * **Multiple active tiers** — unlike stock Linux (one active pool),
//!   any number of tiers coexist and accept stores; the caller
//!   addresses tiers explicitly (the kernel patch threads a `tier_id`
//!   through `madvise()` and `struct page`).
//! * **Inter-tier migration** — pages move between compressed tiers either
//!   via decompress + recompress, or via a fast path that copies compressed
//!   bytes directly when both tiers use the same algorithm.
//! * **Per-tier statistics** — pages, compressed bytes, faults, rejections.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ts_mem::{Machine, MediaKind};
//! use ts_zswap::{TierConfig, ZswapSubsystem};
//!
//! let machine = Arc::new(
//!     Machine::builder()
//!         .node(MediaKind::Dram, 8 << 20)
//!         .node(MediaKind::Nvmm, 32 << 20)
//!         .build(),
//! );
//! let mut zswap = ZswapSubsystem::new(machine);
//! let ct1 = zswap.create_tier(TierConfig::ct1()).unwrap();
//! let ct2 = zswap.create_tier(TierConfig::ct2()).unwrap();
//!
//! let page = vec![42u8; 4096];
//! let stored = zswap.store(ct1, &page).unwrap();
//! let moved = zswap.migrate(ct1, ct2, stored, None).unwrap();
//! let restored = zswap.load(ct2, moved.stored).unwrap();
//! assert_eq!(restored, page);
//! ```

pub mod config;
pub mod swap;
pub mod tier;

pub use config::{
    algo_compress_ns, algo_decompress_ns, algo_nominal_ratio, media_factor, TierConfig,
};
pub use swap::{SwapDevice, SwapSlot};
pub use tier::{Compressed, CompressedTier, StoredPage, TierId, TierStats};

use std::sync::Arc;
use ts_compress::{Codec, CodecError};
use ts_mem::{Machine, MediaKind, PAGE_SIZE};
use ts_zpool::PoolError;

/// Errors from the zswap subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZswapError {
    /// The page did not shrink under the tier's codec; store it raw.
    Incompressible,
    /// The compressor itself failed on the page (injected fault); the
    /// caller must keep the page uncompressed in its source tier.
    CompressFailed,
    /// The machine has no NUMA node with the requested backing medium.
    NoSuchMedia {
        /// The missing medium.
        media: MediaKind,
    },
    /// Unknown tier id.
    NoSuchTier(TierId),
    /// Underlying pool failure.
    Pool(PoolError),
    /// Underlying codec failure (corruption).
    Codec(CodecError),
}

impl std::fmt::Display for ZswapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZswapError::Incompressible => write!(f, "page rejected as incompressible"),
            ZswapError::CompressFailed => write!(f, "injected compression failure"),
            ZswapError::NoSuchMedia { media } => write!(f, "no node with media {media}"),
            ZswapError::NoSuchTier(id) => write!(f, "no tier {id:?}"),
            ZswapError::Pool(e) => write!(f, "pool error: {e}"),
            ZswapError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for ZswapError {}

/// Result alias for this crate.
pub type ZswapResult<T> = Result<T, ZswapError>;

/// Decode one stored page: `src` must decompress under `codec` to exactly
/// `page.len()` bytes, and the decoder stops at that bound. The fault, the
/// migration and the swap-in paths all decode through here.
///
/// # Errors
///
/// [`ZswapError::Codec`] if the stream is malformed, runs past the page or
/// ends short of it.
pub fn decode_page(codec: &dyn Codec, src: &[u8], page: &mut [u8]) -> ZswapResult<()> {
    let n = codec
        .decompress_into(src, page)
        .map_err(ZswapError::Codec)?;
    if n != page.len() {
        return Err(ZswapError::Codec(CodecError::Corrupt(
            "decoded length differs from the stored page",
        )));
    }
    Ok(())
}

/// Cost and outcome of one migration, for the daemon's tax accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationOutcome {
    /// The new stored page in the destination tier.
    pub stored: StoredPage,
    /// Whether the same-algorithm fast path (no recompression) was taken.
    pub fast_path: bool,
    /// Modeled cost of the migration in nanoseconds.
    pub cost_ns: f64,
}

/// The multi-tier compressed memory subsystem.
///
/// Mutations take `&mut self`; the pure halves of the page-copy path
/// ([`CompressedTier::compress_into`], [`CompressedTier::decompress`],
/// [`ZswapSubsystem::recompress`]) take `&self`, so a migration engine can
/// run them on many threads against a shared borrow and then apply the
/// results serially.
pub struct ZswapSubsystem {
    machine: Arc<Machine>,
    tiers: Vec<CompressedTier>,
}

impl ZswapSubsystem {
    /// Create an empty subsystem over `machine`.
    pub fn new(machine: Arc<Machine>) -> Self {
        ZswapSubsystem {
            machine,
            tiers: Vec::new(),
        }
    }

    /// Create a new active tier (the paper's multi-active-pool extension).
    ///
    /// # Errors
    ///
    /// [`ZswapError::NoSuchMedia`] if the backing medium is absent.
    pub fn create_tier(&mut self, config: TierConfig) -> ZswapResult<TierId> {
        let id = TierId(self.tiers.len() as u32);
        let tier = CompressedTier::new(id, config, self.machine.clone())?;
        self.tiers.push(tier);
        Ok(id)
    }

    /// All active tiers, in tier-id order.
    pub fn tiers(&self) -> &[CompressedTier] {
        &self.tiers
    }

    /// Install a deterministic fault-injection plan on every tier (and
    /// each tier's pool). See [`CompressedTier::set_fault_plan`].
    pub fn set_fault_plan(&mut self, plan: &Arc<ts_faults::FaultPlan>) {
        for tier in &mut self.tiers {
            tier.set_fault_plan(plan.clone());
        }
    }

    /// A tier by id.
    ///
    /// # Errors
    ///
    /// [`ZswapError::NoSuchTier`] if out of range.
    pub fn tier(&self, id: TierId) -> ZswapResult<&CompressedTier> {
        self.tiers
            .get(id.0 as usize)
            .ok_or(ZswapError::NoSuchTier(id))
    }

    /// A tier by id, mutably.
    ///
    /// # Errors
    ///
    /// [`ZswapError::NoSuchTier`] if out of range.
    pub fn tier_mut(&mut self, id: TierId) -> ZswapResult<&mut CompressedTier> {
        self.tiers
            .get_mut(id.0 as usize)
            .ok_or(ZswapError::NoSuchTier(id))
    }

    /// Compress and store a page into tier `id`.
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::store`].
    pub fn store(&mut self, id: TierId, page: &[u8]) -> ZswapResult<StoredPage> {
        self.tier_mut(id)?.store(page)
    }

    /// Fault a page out of tier `id` (decompress + invalidate).
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::load`].
    pub fn load(&mut self, id: TierId, stored: StoredPage) -> ZswapResult<Vec<u8>> {
        self.tier_mut(id)?.load(stored)
    }

    /// Fault a page out of tier `id` into `page` (decompress + invalidate),
    /// returning the compressed bytes it took (`None` for a same-filled
    /// page).
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::load_into`].
    pub fn load_into(
        &mut self,
        id: TierId,
        stored: StoredPage,
        page: &mut [u8],
    ) -> ZswapResult<Option<Box<[u8]>>> {
        self.tier_mut(id)?.load_into(stored, page)
    }

    /// Invalidate a stored page without decompressing.
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::invalidate`].
    pub fn invalidate(&mut self, id: TierId, stored: StoredPage) -> ZswapResult<()> {
        self.tier_mut(id)?.invalidate(stored)
    }

    /// The pure half of a recompressing migration: decompress `stored`
    /// from tier `from` into `page` and compress it with tier `to`'s codec,
    /// appending to `out` (see [`CompressedTier::compress_into`]).
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::decompress_into`] and [`ZswapSubsystem::tier`].
    pub fn recompress<'a>(
        &self,
        from: TierId,
        to: TierId,
        stored: StoredPage,
        page: &mut [u8],
        out: &'a mut Vec<u8>,
    ) -> ZswapResult<Compressed<&'a [u8]>> {
        let to = self.tier(to)?;
        self.tier(from)?.decompress_into(stored, page)?;
        Ok(to.compress_into(&page[..stored.original_len], out))
    }

    /// Migrate a page between two compressed tiers.
    ///
    /// Uses the same-algorithm fast path when possible (§7.1: "this can be
    /// further optimized by skipping the decompression step if the source
    /// and destination tiers use the same compression algorithm" — we
    /// implement that optimization); otherwise decompresses from the source
    /// and recompresses into the destination. `recompressed` is
    /// [`ZswapSubsystem::recompress`]'s output for this page when the
    /// caller already computed it, moved into the destination pool as it
    /// is, or `None` to compute it here; the fast path ignores it.
    ///
    /// # Errors
    ///
    /// Propagates pool/codec errors; [`ZswapError::Incompressible`] cannot
    /// occur on the fast path but can on the recompress path (the caller
    /// should then place the page back uncompressed). On error the source
    /// page is left intact.
    pub fn migrate(
        &mut self,
        from: TierId,
        to: TierId,
        stored: StoredPage,
        recompressed: Option<Compressed<Box<[u8]>>>,
    ) -> ZswapResult<MigrationOutcome> {
        if from == to {
            return Ok(MigrationOutcome {
                stored,
                fast_path: true,
                cost_ns: 0.0,
            });
        }
        let (f, t) = (self.tier(from)?, self.tier(to)?);
        let out = if let Some(v) = stored.same_filled {
            // Same-filled markers migrate for free: pure bookkeeping.
            let new = self
                .tier_mut(to)?
                .insert(Compressed::<Box<[u8]>>::SameFilled(v), stored.original_len)?;
            MigrationOutcome {
                stored: new,
                fast_path: true,
                cost_ns: 100.0,
            }
        } else if f.config().algorithm == t.config().algorithm {
            // Fast path: move compressed bytes directly. Stream out +
            // stream in + pool bookkeeping on both sides.
            let compressed = f.peek_compressed(stored)?;
            let len = compressed.len() as u64;
            let cost_ns = f.config().media.default_spec().stream_ns(len)
                + t.config().media.default_spec().stream_ns(len)
                + f.config().pool.mgmt_overhead_ns()
                + t.config().pool.mgmt_overhead_ns();
            let new = self
                .tier_mut(to)?
                .store_precompressed(compressed.into(), stored.original_len)?;
            MigrationOutcome {
                stored: new,
                fast_path: true,
                cost_ns,
            }
        } else {
            // Naive path: decompress then recompress (paper's default).
            let fault_ns = f.fault_latency_ns(stored.compressed_len);
            let compressed = match recompressed {
                Some(c) => c,
                None => {
                    let mut out = Vec::with_capacity(PAGE_SIZE);
                    self.recompress(from, to, stored, &mut [0; PAGE_SIZE], &mut out)?
                        .map(Box::from)
                }
            };
            let t = self.tier_mut(to)?;
            let new = t.insert(compressed, stored.original_len)?;
            MigrationOutcome {
                stored: new,
                fast_path: false,
                cost_ns: fault_ns + t.store_latency_ns(new.compressed_len),
            }
        };
        self.tier_mut(from)?.invalidate(stored)?;
        Ok(out)
    }

    /// Total pages stored across all tiers.
    pub fn total_pages(&self) -> u64 {
        self.tiers.iter().map(|t| t.stats().pages).sum()
    }

    /// One observability row per tier, in tier-id order: the tier's own
    /// statistics plus its pool's (deterministic ordering for ts-obs
    /// metrics snapshots).
    pub fn obs_snapshot(&self) -> Vec<(TierStats, ts_zpool::PoolStats)> {
        self.tiers
            .iter()
            .map(|t| (t.stats(), t.pool_stats()))
            .collect()
    }
}

impl std::fmt::Debug for ZswapSubsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut dbg = f.debug_struct("ZswapSubsystem");
        for (i, t) in self.tiers.iter().enumerate() {
            dbg.field(&format!("tier{i}"), t);
        }
        dbg.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_compress::Algorithm;
    use ts_zpool::PoolKind;

    fn machine() -> Arc<Machine> {
        Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 16 << 20)
                .node(MediaKind::Nvmm, 64 << 20)
                .build(),
        )
    }

    fn page(tag: u8) -> Vec<u8> {
        // Compressible page: repeated tagged record.
        let mut p = Vec::with_capacity(4096);
        while p.len() < 4096 {
            p.extend_from_slice(&[tag, b'=', tag.wrapping_add(1), b';']);
        }
        p.truncate(4096);
        p
    }

    #[test]
    fn multiple_active_tiers_coexist() {
        let mut z = ZswapSubsystem::new(machine());
        let ids: Vec<_> = TierConfig::spectrum_5()
            .into_iter()
            .map(|c| z.create_tier(c).unwrap())
            .collect();
        assert_eq!(ids.len(), 5);
        // Store to every tier simultaneously — stock Linux cannot do this.
        let mut stored = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            stored.push((id, z.store(id, &page(i as u8)).unwrap()));
        }
        for (i, (id, s)) in stored.into_iter().enumerate() {
            assert_eq!(z.load(id, s).unwrap(), page(i as u8));
        }
    }

    #[test]
    fn missing_media_rejected() {
        let m = Arc::new(Machine::builder().node(MediaKind::Dram, 1 << 20).build());
        let mut z = ZswapSubsystem::new(m);
        let err = z.create_tier(TierConfig::ct2()).unwrap_err();
        assert_eq!(
            err,
            ZswapError::NoSuchMedia {
                media: MediaKind::Nvmm
            }
        );
    }

    #[test]
    fn incompressible_page_rejected_and_counted() {
        let mut z = ZswapSubsystem::new(machine());
        let id = z.create_tier(TierConfig::ct1()).unwrap();
        let mut x = 99u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        assert_eq!(z.store(id, &noise).unwrap_err(), ZswapError::Incompressible);
        assert_eq!(z.tier(id).unwrap().stats().rejections, 1);
        assert_eq!(z.tier(id).unwrap().stats().pages, 0);
    }

    #[test]
    fn migration_slow_path_recompresses() {
        let mut z = ZswapSubsystem::new(machine());
        let ct1 = z.create_tier(TierConfig::ct1()).unwrap(); // lzo
        let ct2 = z.create_tier(TierConfig::ct2()).unwrap(); // zstd
        let p = page(7);
        let s = z.store(ct1, &p).unwrap();
        let out = z.migrate(ct1, ct2, s, None).unwrap();
        assert!(!out.fast_path);
        assert!(out.cost_ns > 0.0);
        assert_eq!(z.tier(ct1).unwrap().stats().pages, 0);
        assert_eq!(z.tier(ct2).unwrap().stats().pages, 1);
        assert_eq!(z.load(ct2, out.stored).unwrap(), p);
    }

    #[test]
    fn migration_fast_path_same_algorithm() {
        let mut z = ZswapSubsystem::new(machine());
        let a = z
            .create_tier(TierConfig::new(
                Algorithm::Lz4,
                PoolKind::Zbud,
                MediaKind::Dram,
            ))
            .unwrap();
        let b = z
            .create_tier(TierConfig::new(
                Algorithm::Lz4,
                PoolKind::Zsmalloc,
                MediaKind::Nvmm,
            ))
            .unwrap();
        let p = page(3);
        let s = z.store(a, &p).unwrap();
        let out = z.migrate(a, b, s, None).unwrap();
        assert!(out.fast_path);
        // Fast path must be cheaper than a decompress+recompress round.
        let slow_estimate = z.tier(a).unwrap().fault_latency_ns(s.compressed_len)
            + z.tier(b).unwrap().store_latency_ns(s.compressed_len);
        assert!(out.cost_ns < slow_estimate);
        assert_eq!(z.load(b, out.stored).unwrap(), p);
    }

    #[test]
    fn migrate_to_self_is_noop() {
        let mut z = ZswapSubsystem::new(machine());
        let id = z.create_tier(TierConfig::ct1()).unwrap();
        let s = z.store(id, &page(1)).unwrap();
        let out = z.migrate(id, id, s, None).unwrap();
        assert_eq!(out.cost_ns, 0.0);
        assert_eq!(out.stored, s);
    }

    #[test]
    fn tco_reflects_media_cost() {
        let mut z = ZswapSubsystem::new(machine());
        let dram_tier = z
            .create_tier(TierConfig::new(
                Algorithm::Lz4,
                PoolKind::Zsmalloc,
                MediaKind::Dram,
            ))
            .unwrap();
        let nvmm_tier = z
            .create_tier(TierConfig::new(
                Algorithm::Lz4,
                PoolKind::Zsmalloc,
                MediaKind::Nvmm,
            ))
            .unwrap();
        for i in 0..64u8 {
            z.store(dram_tier, &page(i)).unwrap();
            z.store(nvmm_tier, &page(i)).unwrap();
        }
        let dram_cost = z.tier(dram_tier).unwrap().tco_cost();
        let nvmm_cost = z.tier(nvmm_tier).unwrap().tco_cost();
        assert!(dram_cost > nvmm_cost, "{dram_cost} vs {nvmm_cost}");
        // Same data, same pool: cost ratio equals the media $/GB ratio.
        assert!((dram_cost / nvmm_cost - 3.0).abs() < 0.2);
    }

    #[test]
    fn effective_ratio_includes_pool_overhead() {
        let mut z = ZswapSubsystem::new(machine());
        let zbud = z
            .create_tier(TierConfig::new(
                Algorithm::Deflate,
                PoolKind::Zbud,
                MediaKind::Dram,
            ))
            .unwrap();
        let zs = z
            .create_tier(TierConfig::new(
                Algorithm::Deflate,
                PoolKind::Zsmalloc,
                MediaKind::Dram,
            ))
            .unwrap();
        for i in 0..128u8 {
            z.store(zbud, &page(i)).unwrap();
            z.store(zs, &page(i)).unwrap();
        }
        let r_zbud = z.tier(zbud).unwrap().effective_ratio();
        let r_zs = z.tier(zs).unwrap().effective_ratio();
        // zbud cannot go below 0.5 even though deflate compresses ~10x.
        assert!(r_zbud >= 0.45, "r_zbud={r_zbud}");
        assert!(
            r_zs < r_zbud,
            "zsmalloc should pack tighter: {r_zs} vs {r_zbud}"
        );
    }

    #[test]
    fn stats_track_store_fault_counts() {
        let mut z = ZswapSubsystem::new(machine());
        let id = z.create_tier(TierConfig::ct1()).unwrap();
        let mut handles = Vec::new();
        for i in 0..10u8 {
            handles.push(z.store(id, &page(i)).unwrap());
        }
        for h in handles.drain(..5) {
            z.load(id, h).unwrap();
        }
        let st = z.tier(id).unwrap().stats();
        assert_eq!(st.stores, 10);
        assert_eq!(st.faults, 5);
        assert_eq!(st.pages, 5);
        assert_eq!(z.total_pages(), 5);
    }

    #[test]
    fn unknown_tier_errors() {
        let mut z = ZswapSubsystem::new(machine());
        let bogus = TierId(9);
        assert!(matches!(
            z.store(bogus, &page(0)),
            Err(ZswapError::NoSuchTier(_))
        ));
    }
}

#[cfg(test)]
mod corruption_tests {
    use super::*;
    use ts_compress::Algorithm;
    use ts_zpool::PoolKind;

    /// A text-like page: words from a small vocabulary, so every codec
    /// finds both literals and matches.
    fn text_page() -> Vec<u8> {
        const WORDS: [&str; 8] = [
            "tier ", "page ", "zswap ", "pool ", "cold ", "hot ", "the ", "of ",
        ];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut p = Vec::with_capacity(4096);
        while p.len() < 4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            p.extend_from_slice(WORDS[(x % 8) as usize].as_bytes());
        }
        p.truncate(4096);
        p
    }

    /// A deterministic corruption of `valid` that `algo`'s decoder accepts
    /// but decodes to a length other than one page.
    fn overlong_stream(algo: Algorithm, valid: &[u8]) -> Option<Vec<u8>> {
        let codec = algo.codec();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut bad = valid.to_vec();
            let at = (x >> 8) as usize % bad.len();
            bad[at] ^= (x as u8) | 1;
            let mut out = Vec::new();
            if codec.decompress(&bad, &mut out).is_ok() && out.len() != 4096 {
                return Some(bad);
            }
        }
        None
    }

    /// Five decoders accept some corrupt streams and emit the wrong
    /// number of bytes. A pool object corrupted that way must fail to
    /// load with a codec error — no panic, and the page stays stored.
    #[test]
    fn wrong_decoded_length_is_a_codec_error() {
        let m = Arc::new(Machine::builder().node(MediaKind::Dram, 16 << 20).build());
        let mut z = ZswapSubsystem::new(m);
        for algo in [
            Algorithm::Lz4,
            Algorithm::Lz4hc,
            Algorithm::Lzo,
            Algorithm::LzoRle,
            Algorithm::Sw842,
        ] {
            let page = text_page();
            let mut valid = Vec::new();
            algo.codec().compress(&page, &mut valid).unwrap();
            let bad = overlong_stream(algo, &valid)
                .unwrap_or_else(|| panic!("{algo:?}: no accepted corrupt stream found"));
            let id = z
                .create_tier(TierConfig::new(algo, PoolKind::Zsmalloc, MediaKind::Dram))
                .unwrap();
            let stored = z
                .tier_mut(id)
                .unwrap()
                .store_precompressed(bad.into(), 4096)
                .unwrap();
            assert!(matches!(
                z.tier(id).unwrap().decompress(stored),
                Err(ZswapError::Codec(_))
            ));
            assert!(
                matches!(z.load(id, stored), Err(ZswapError::Codec(_))),
                "{algo:?}: corrupt object loaded"
            );
            let st = z.tier(id).unwrap().stats();
            assert_eq!(
                (st.pages, st.faults),
                (1, 0),
                "{algo:?}: failed load changed stats"
            );
            z.invalidate(id, stored).unwrap();
        }
    }

    /// `store` is `insert(compress(..))`, and `compress` touches nothing.
    #[test]
    fn store_is_insert_of_compress() {
        let mut z = ZswapSubsystem::new(machine());
        let a = z.create_tier(TierConfig::ct1()).unwrap();
        let b = z.create_tier(TierConfig::ct1()).unwrap();
        for page in [text_page(), vec![9u8; 4096]] {
            let before = z.tier(b).unwrap().stats();
            let mut out = Vec::new();
            let compressed = z.tier(b).unwrap().compress_into(&page, &mut out);
            assert_eq!(z.tier(b).unwrap().stats(), before);
            let via_split = z
                .tier_mut(b)
                .unwrap()
                .insert(compressed, page.len())
                .unwrap();
            let via_store = z.store(a, &page).unwrap();
            assert_eq!(via_split.compressed_len, via_store.compressed_len);
            assert_eq!(via_split.same_filled, via_store.same_filled);
            assert_eq!(z.load(b, via_split).unwrap(), page);
            assert_eq!(z.load(a, via_store).unwrap(), page);
        }
        assert_eq!(z.tier(a).unwrap().stats(), z.tier(b).unwrap().stats());
    }

    /// `compress` depends on the page and the tier's algorithm only, not
    /// on its pool or medium: a page one tier rejects as incompressible,
    /// every tier with that algorithm rejects.
    #[test]
    fn compress_depends_on_the_algorithm_only() {
        let m = Machine::builder()
            .node(MediaKind::Dram, 16 << 20)
            .node(MediaKind::Nvmm, 16 << 20)
            .build();
        let mut z = ZswapSubsystem::new(Arc::new(m));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let pages = [text_page(), vec![7u8; 4096], noise];
        let configs = TierConfig::characterized_12();
        let ids: Vec<_> = configs
            .iter()
            .map(|c| z.create_tier(c.clone()).unwrap())
            .collect();
        for (i, a) in configs.iter().enumerate() {
            let same: Vec<_> = (0..configs.len())
                .filter(|&j| j != i && configs[j].algorithm == a.algorithm)
                .collect();
            assert_eq!(same.len(), 3, "{}: one per pool and medium", a.label);
            let (mut want_out, mut got_out) = (Vec::new(), Vec::new());
            for page in &pages {
                let want = z.tier(ids[i]).unwrap().compress_into(page, &mut want_out);
                for &j in &same {
                    let got = z.tier(ids[j]).unwrap().compress_into(page, &mut got_out);
                    assert_eq!(got, want, "{} vs {}", a.label, configs[j].label);
                }
            }
            assert_eq!(
                z.tier(ids[i])
                    .unwrap()
                    .compress_into(&pages[2], &mut want_out),
                Compressed::Incompressible,
                "{}: noise page",
                a.label
            );
        }
    }

    fn machine() -> Arc<Machine> {
        Arc::new(Machine::builder().node(MediaKind::Dram, 16 << 20).build())
    }
}

#[cfg(test)]
mod same_filled_tests {
    use super::*;
    use ts_mem::Machine;

    fn machine() -> Arc<Machine> {
        Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 16 << 20)
                .node(MediaKind::Nvmm, 64 << 20)
                .build(),
        )
    }

    #[test]
    fn zero_page_stored_without_pool_space() {
        let mut z = ZswapSubsystem::new(machine());
        let id = z.create_tier(TierConfig::ct1()).unwrap();
        let zero = vec![0u8; 4096];
        let s = z.store(id, &zero).unwrap();
        assert!(s.is_same_filled());
        assert_eq!(s.compressed_len, 0);
        {
            let t = z.tier(id).unwrap();
            assert_eq!(t.stats().same_filled, 1);
            assert_eq!(t.pool_stats().pool_pages, 0, "no pool page for a marker");
        }
        // Fault path reconstructs the exact page.
        assert_eq!(z.load(id, s).unwrap(), zero);
        assert_eq!(
            z.tier(id).unwrap().stats().same_filled,
            1,
            "counter is cumulative-style"
        );
    }

    #[test]
    fn nonzero_constant_page_detected() {
        let mut z = ZswapSubsystem::new(machine());
        let id = z.create_tier(TierConfig::ct2()).unwrap();
        let page = vec![0xA5u8; 4096];
        let s = z.store(id, &page).unwrap();
        assert_eq!(s.same_filled, Some(0xA5));
        assert_eq!(z.load(id, s).unwrap(), page);
    }

    #[test]
    fn same_filled_migration_is_free_bookkeeping() {
        let mut z = ZswapSubsystem::new(machine());
        let a = z.create_tier(TierConfig::ct1()).unwrap();
        let b = z.create_tier(TierConfig::ct2()).unwrap();
        let s = z.store(a, &vec![7u8; 4096]).unwrap();
        let out = z.migrate(a, b, s, None).unwrap();
        assert!(out.fast_path);
        assert!(out.cost_ns < 1000.0);
        assert_eq!(z.tier(a).unwrap().stats().pages, 0);
        assert_eq!(z.tier(b).unwrap().stats().pages, 1);
        assert_eq!(z.load(b, out.stored).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn invalidate_same_filled() {
        let mut z = ZswapSubsystem::new(machine());
        let id = z.create_tier(TierConfig::ct1()).unwrap();
        let s = z.store(id, &vec![0u8; 4096]).unwrap();
        z.invalidate(id, s).unwrap();
        assert_eq!(z.tier(id).unwrap().stats().pages, 0);
    }

    #[test]
    fn same_filled_fault_latency_is_memset_class() {
        let mut z = ZswapSubsystem::new(machine());
        let id = z.create_tier(TierConfig::ct2()).unwrap();
        let t = z.tier(id).unwrap();
        assert!(t.fault_latency_ns(0) < 1000.0);
        assert!(t.fault_latency_ns(2000) > 5000.0);
    }
}
