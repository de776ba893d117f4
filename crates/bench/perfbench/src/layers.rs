//! Sub-page layers, timed by replaying pages the traced run moved through
//! `Workload::fill_page`, each codec, each pool and each zswap tier config.
//!
//! Every workload replays the same codec, pool and tier sets, so every
//! workload reports every metric: the union of the algorithms and tiers the
//! two setups use (standard: CT-1 lzo, CT-2 zstd; spectrum: C1/C2/C4 lz4,
//! C7 lzo, C12 deflate).

use std::sync::Arc;

use tierscape::compress::Algorithm;
use tierscape::mem::{Machine, MediaKind, NodeId, PAGE_SIZE};
use tierscape::workloads::Workload;
use tierscape::zpool::PoolKind;
use tierscape::zswap::{StoredPage, TierConfig, ZswapError, ZswapSubsystem};

use crate::traced::Trace;
use crate::Metrics;

/// Pages replayed per layer: an evenly spaced sample of the moved pages.
const SAMPLE_PAGES: usize = 512;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Lz4,
    Algorithm::Lzo,
    Algorithm::Zstd,
    Algorithm::Deflate,
];
const POOLS: [PoolKind; 2] = [PoolKind::Zsmalloc, PoolKind::Zbud];
/// Objects the pools store: the lzo stream of each page (lzo is the one
/// algorithm both setups use).
const POOL_ALGORITHM: Algorithm = Algorithm::Lzo;

fn tier_configs() -> Vec<TierConfig> {
    let mut tiers = vec![TierConfig::ct1(), TierConfig::ct2()];
    tiers.extend(TierConfig::spectrum_5());
    tiers
}

/// Up to `SAMPLE_PAGES` pages spread evenly over `moved` (ascending).
pub fn sample(moved: &[u64]) -> Vec<u64> {
    if moved.len() <= SAMPLE_PAGES {
        return moved.to_vec();
    }
    (0..SAMPLE_PAGES)
        .map(|i| moved[i * moved.len() / SAMPLE_PAGES])
        .collect()
}

/// Time every sub-page layer over `pages` and check each round trip.
pub fn replay(
    workload: &dyn Workload,
    pages: &[u64],
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    if pages.is_empty() {
        return Err("the run moved no pages to replay".into());
    }
    let n = pages.len() as f64;

    let span = trace.open("workloads.fill_page", None, 0);
    let bytes: Vec<Vec<u8>> = pages
        .iter()
        .map(|&p| {
            let mut buf = vec![0u8; PAGE_SIZE];
            workload.fill_page(p, &mut buf);
            buf
        })
        .collect();
    m.push("workloads.fill_page_us", trace.close(span) * 1e6 / n, "us");

    let mut pool_objects = Vec::new();
    for algo in ALGORITHMS {
        let codec = algo.codec();
        let span = trace.open("compress.compress", None, 0);
        let compressed: Vec<Option<Vec<u8>>> = bytes
            .iter()
            .map(|page| {
                let mut out = Vec::with_capacity(PAGE_SIZE);
                codec.compress(page, &mut out).ok().map(|len| {
                    out.truncate(len);
                    out
                })
            })
            .collect();
        let compress_s = trace.close(span);
        let span = trace.open("compress.decompress", None, 0);
        let restored: Vec<Option<Vec<u8>>> = compressed
            .iter()
            .map(|c| {
                let mut out = Vec::with_capacity(PAGE_SIZE);
                codec.decompress(c.as_ref()?, &mut out).ok().map(|_| out)
            })
            .collect();
        let decompress_s = trace.close(span);

        let mut round_trips = 0usize;
        let mut stored_bytes = 0usize;
        for ((page, c), r) in bytes.iter().zip(&compressed).zip(&restored) {
            match (c, r) {
                (Some(c), Some(r)) if r == page => {
                    round_trips += 1;
                    stored_bytes += c.len();
                }
                (Some(_), _) => {
                    return Err(format!(
                        "{algo}: decompress(compress(page)) differs from the page"
                    ))
                }
                (None, _) => stored_bytes += PAGE_SIZE,
            }
        }
        if round_trips == 0 {
            return Err(format!("{algo}: no sampled page compressed"));
        }
        let name = algo.name();
        m.push(
            &format!("compress.{name}.compress_us"),
            compress_s * 1e6 / n,
            "us",
        );
        m.push(
            &format!("compress.{name}.decompress_us"),
            decompress_s * 1e6 / round_trips as f64,
            "us",
        );
        m.push(
            &format!("compress.{name}.ratio"),
            stored_bytes as f64 / (n * PAGE_SIZE as f64),
            "ratio",
        );
        if algo == POOL_ALGORITHM {
            pool_objects = compressed.into_iter().flatten().collect();
        }
    }

    pools(&pool_objects, trace, m)?;
    zswap(&bytes, trace, m)
}

fn pools(objects: &[Vec<u8>], trace: &mut Trace, m: &mut Metrics) -> Result<(), String> {
    let n = objects.len() as f64;
    let machine = Arc::new(Machine::builder().node(MediaKind::Dram, 64 << 20).build());
    for kind in POOLS {
        let mut pool = kind.create(machine.clone(), NodeId(0));
        let span = trace.open("zpool.store", None, 0);
        let handles = objects
            .iter()
            .map(|o| pool.store(o))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{kind}: store: {e}"))?;
        let store_s = trace.close(span);
        let density = pool.stats().density();
        let span = trace.open("zpool.load", None, 0);
        let loaded = handles
            .iter()
            .map(|&h| {
                let mut out = Vec::new();
                pool.load(h, &mut out).map(|_| out)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{kind}: load: {e}"))?;
        let load_s = trace.close(span);
        if loaded != objects {
            return Err(format!(
                "{kind}: a loaded object differs from the stored one"
            ));
        }
        for h in handles {
            pool.remove(h).map_err(|e| format!("{kind}: remove: {e}"))?;
        }
        let name = kind.name();
        m.push(&format!("zpool.{name}.store_ns"), store_s * 1e9 / n, "ns");
        m.push(&format!("zpool.{name}.load_ns"), load_s * 1e9 / n, "ns");
        m.push(&format!("zpool.{name}.density"), density, "ratio");
    }
    Ok(())
}

fn zswap(pages: &[Vec<u8>], trace: &mut Trace, m: &mut Metrics) -> Result<(), String> {
    let machine = Arc::new(
        Machine::builder()
            .node(MediaKind::Dram, 64 << 20)
            .node(MediaKind::Nvmm, 64 << 20)
            .build(),
    );
    let mut z = ZswapSubsystem::new(machine);
    for cfg in tier_configs() {
        let label = cfg.label.clone();
        let id = z
            .create_tier(cfg)
            .map_err(|e| format!("{label}: create_tier: {e}"))?;
        let span = trace.open("zswap.store", None, 0);
        let stored = pages
            .iter()
            .map(|p| match z.store(id, p) {
                Ok(s) => Ok(Some(s)),
                Err(ZswapError::Incompressible) => Ok(None),
                Err(e) => Err(format!("{label}: store: {e}")),
            })
            .collect::<Result<Vec<Option<StoredPage>>, String>>()?;
        let store_s = trace.close(span);
        let kept: Vec<(&Vec<u8>, StoredPage)> = pages
            .iter()
            .zip(stored)
            .filter_map(|(p, s)| s.map(|s| (p, s)))
            .collect();
        if kept.is_empty() {
            return Err(format!("{label}: no sampled page was stored"));
        }
        let span = trace.open("zswap.load", None, 0);
        let loaded = kept
            .iter()
            .map(|&(_, s)| z.load(id, s))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{label}: load: {e}"))?;
        let load_s = trace.close(span);
        if kept.iter().zip(&loaded).any(|((p, _), l)| *p != l) {
            return Err(format!(
                "{label}: a loaded page differs from the stored one"
            ));
        }
        m.push(
            &format!("zswap.{label}.store_us"),
            store_s * 1e6 / pages.len() as f64,
            "us",
        );
        m.push(
            &format!("zswap.{label}.load_us"),
            load_s * 1e6 / kept.len() as f64,
            "us",
        );
    }
    Ok(())
}
