//! Pool-limit writeback: the kernel's backstop when compressed pools grow
//! past their budget.
//!
//! Builds a `Real`-fidelity system (real codecs, real pools) whose
//! compressed tiers are capped with `SimConfig::with_pool_limit`, compresses
//! the cold half of a key-value store into CT-1, watches the oldest objects
//! get written back to the swap device, and faults one back in through the
//! full path (swap read + decompression).
//!
//! ```sh
//! cargo run --release --example pool_writeback
//! ```

use tierscape::mem::PAGE_SIZE;
use tierscape::sim::{Fidelity, Placement, SimConfig, TieredSystem};
use tierscape::workloads::{Scale, WorkloadId};
use tierscape::zswap::SwapDevice;

/// Pool limit of every compressed tier.
const LIMIT: u64 = 1 << 20;

fn main() {
    let workload = WorkloadId::MemcachedYcsb.build(Scale(1.0 / 1024.0), 5);
    let rss = workload.rss_bytes();
    let cfg = SimConfig::standard_mix(rss, Fidelity::Real, 5).with_pool_limit(LIMIT);
    let mut system = TieredSystem::new(cfg, workload).expect("valid configuration");

    // Compress the cold half of the address space into CT-1.
    let n = system.total_regions();
    let (mut moved, mut rejected, mut cost_ns) = (0, 0, 0.0);
    for r in n / 2..n {
        let report = system.migrate_region(r, Placement::Compressed(0));
        moved += report.moved;
        rejected += report.rejected;
        cost_ns += report.cost_ns;
    }
    let ct1 = system.tier_stats(0);
    println!(
        "compressed {moved} pages into CT-1 ({rejected} rejected as incompressible), daemon cost {:.2} ms",
        cost_ns / 1e6
    );
    println!(
        "writeback: {} pages -> swap, CT-1 keeps {} pages in {:.2} MiB of pool (limit {:.2} MiB)",
        ct1.writebacks,
        ct1.pages,
        system.tier_pool_bytes(0) as f64 / (1 << 20) as f64,
        LIMIT as f64 / (1 << 20) as f64
    );
    assert!(ct1.writebacks > 0, "the limit forced writeback");
    assert!(system.tier_pool_bytes(0) <= LIMIT, "the pool is bounded");
    let swapped = system.swapped_pages();
    assert_eq!(
        swapped, ct1.writebacks,
        "every written-back page is on swap"
    );
    println!(
        "TCO now {:.4} vs {:.4} all-DRAM (swap priced at ${}/GB)",
        system.current_tco(),
        system.tco_max(),
        SwapDevice::COST_PER_GB
    );

    // Fault the oldest written-back page all the way home: the first page
    // of the cold half whose access takes a page off the swap device.
    let (page, lat) = (system.region_pages(n / 2).start..system.total_pages())
        .find_map(|p| {
            let lat = system.access(p * PAGE_SIZE as u64, false);
            (system.swapped_pages() < swapped).then_some((p, lat))
        })
        .expect("some page was written back");
    assert_eq!(system.swap_faults, 1);
    assert_eq!(system.page_placement(page), Placement::Dram);
    assert!(lat >= SwapDevice::READ_NS, "swap-in pays the device read");
    println!(
        "\nswap-in of page {page}: read off the device and decompressed in {:.0} us — \
         back in DRAM, {} pages still on swap",
        lat / 1000.0,
        system.swapped_pages()
    );
}
