//! Build a custom spectrum of compressed tiers and store/load real pages
//! through the zswap subsystem directly — the library-level API below the
//! simulator.
//!
//! Demonstrates: multiple simultaneously active tiers, the two halves of a
//! store (a pure `compress` and a serial `insert`), incompressible-page
//! rejection, per-tier statistics, and the same-algorithm migration fast
//! path (§7.1).
//!
//! ```sh
//! cargo run --release --example custom_tiers
//! ```

use std::sync::Arc;
use tierscape::compress::Algorithm;
use tierscape::mem::{Machine, MediaKind};
use tierscape::workloads::PageClass;
use tierscape::zpool::PoolKind;
use tierscape::zswap::{TierConfig, ZswapError, ZswapSubsystem};

fn main() {
    // A machine with all three media so any tier config is constructible.
    let machine = Arc::new(
        Machine::builder()
            .node(MediaKind::Dram, 256 << 20)
            .node(MediaKind::Nvmm, 1 << 30)
            .node(MediaKind::Cxl, 512 << 20)
            .build(),
    );
    let mut zswap = ZswapSubsystem::new(machine);

    // Three custom tiers across the latency/ratio/cost spectrum, all active
    // at once (stock Linux allows only one active zswap pool).
    let fast = zswap
        .create_tier(
            TierConfig::new(Algorithm::Lz4, PoolKind::Zbud, MediaKind::Dram).labeled("fast"),
        )
        .expect("dram node present");
    let mid = zswap
        .create_tier(
            TierConfig::new(Algorithm::Lz4, PoolKind::Zsmalloc, MediaKind::Cxl).labeled("mid"),
        )
        .expect("cxl node present");
    let dense = zswap
        .create_tier(
            TierConfig::new(Algorithm::Deflate, PoolKind::Zsmalloc, MediaKind::Nvmm)
                .labeled("dense"),
        )
        .expect("nvmm node present");

    // Store 1000 pages of mixed content into the fast tier. `compress_into`
    // only reads the tier (it could run on many threads, each into its own
    // output buffer); `insert` then applies each result serially, the way
    // a migration engine does.
    let mut buf = vec![0u8; 4096];
    let mut outs = vec![Vec::new(); 1000];
    let tier = zswap.tier(fast).expect("tier exists");
    let compressed: Vec<_> = (0..1000u64)
        .zip(&mut outs)
        .map(|(i, out)| {
            let class = match i % 10 {
                0..=4 => PageClass::Text,
                5..=7 => PageClass::Binary,
                8 => PageClass::HighlyCompressible,
                _ => PageClass::Incompressible,
            };
            class.fill(7, i, &mut buf);
            tier.compress_into(&buf, out)
        })
        .collect();
    let mut stored = Vec::new();
    let mut rejected = 0u32;
    let tier = zswap.tier_mut(fast).expect("tier exists");
    for c in compressed {
        match tier.insert(c, buf.len()) {
            Ok(sp) => stored.push(sp),
            Err(ZswapError::Incompressible) => rejected += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    println!(
        "stored {} pages in 'fast', rejected {rejected} incompressible",
        stored.len()
    );

    // Age half of them to the mid tier — same algorithm, so the fast path
    // copies compressed bytes without recompressing.
    let half = stored.split_off(stored.len() / 2);
    let mut fast_path_hits = 0;
    let mut mid_pages = Vec::new();
    for sp in half {
        let out = zswap
            .migrate(fast, mid, sp, None)
            .expect("migration succeeds");
        fast_path_hits += out.fast_path as u32;
        mid_pages.push(out.stored);
    }
    println!(
        "aged {} pages to 'mid' ({} via the same-algorithm fast path)",
        mid_pages.len(),
        fast_path_hits
    );

    // Age those again into the dense deflate tier (recompression path).
    let mut dense_pages = Vec::new();
    for sp in mid_pages {
        match zswap.migrate(mid, dense, sp, None) {
            Ok(out) => dense_pages.push(out.stored),
            Err(ZswapError::Incompressible) => {}
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    // Per-tier accounting.
    println!("\ntier    pages  comp_MB  pool_MB  eff_ratio  tco($)");
    for t in zswap.tiers() {
        let st = t.stats();
        let ps = t.pool_stats();
        println!(
            "{:<7} {:>5}  {:>7.2}  {:>7.2}  {:>9.3}  {:.5}",
            t.config().label,
            st.pages,
            st.compressed_bytes as f64 / 1e6,
            ps.pool_bytes() as f64 / 1e6,
            t.effective_ratio(),
            t.tco_cost()
        );
    }

    // Fault one page back out of the dense tier and verify its contents.
    let sp = dense_pages.pop().expect("pages were aged to dense");
    let page = zswap.load(dense, sp).expect("page is live");
    assert_eq!(page.len(), 4096);
    println!(
        "\nfaulted one page back from 'dense': {} bytes, intact",
        page.len()
    );
}
