#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # ts-sim — tiered memory system simulator
//!
//! Couples a workload's access stream to a machine with one DRAM tier, `N`
//! byte-addressable tiers and `M` compressed tiers (the paper's system model,
//! §6), and accounts performance (Eq. 3–7) and memory TCO (Eq. 8–10) as the
//! run proceeds.
//!
//! Two fidelity modes (see DESIGN.md §2):
//!
//! * [`Fidelity::Real`] — every compressed store runs a real codec through
//!   the real pool allocators ([`ts_zswap`]); used by tests, examples, and
//!   the characterization experiment.
//! * [`Fidelity::Modeled`] — per-(algorithm, content-class) compression
//!   ratios are calibrated once against the real codecs
//!   ([`calib::Calibration`]) and then applied analytically; used by the
//!   large figure sweeps.
//!
//! # Examples
//!
//! ```
//! use ts_sim::{Fidelity, SimConfig, TieredSystem};
//! use ts_workloads::{Scale, WorkloadId};
//! use ts_zswap::TierConfig;
//!
//! let cfg = SimConfig {
//!     dram_bytes: 64 << 20,
//!     byte_tiers: vec![(ts_mem::MediaKind::Nvmm, 256 << 20)],
//!     compressed_tiers: vec![TierConfig::ct1(), TierConfig::ct2()],
//!     fidelity: Fidelity::Modeled,
//!     seed: 42,
//!     region_shift: 21,
//!     pool_limits: vec![],
//!     compute_ns_per_access: 0.0,
//! };
//! let workload = WorkloadId::MemcachedYcsb.build(Scale::TEST, 42);
//! let mut system = TieredSystem::new(cfg, workload).unwrap();
//! for _ in 0..10_000 {
//!     system.step();
//! }
//! assert!(system.perf_report().accesses == 10_000);
//! ```

pub mod calib;
pub mod histogram;
pub mod system;

pub use calib::{Calibration, RatioStats};
pub use histogram::LatencyHistogram;
pub use system::{MigrationReport, PerfReport, PlannedMove, SimTierStats, TcoReport, TieredSystem};
pub use ts_faults::{FaultCounters, FaultPlan, FaultSite, TierError};

use ts_mem::MediaKind;
use ts_zswap::{TierConfig, ZswapError};

/// Simulation fidelity mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Real compression through real pools for every page operation.
    Real,
    /// Calibrated analytic compression (fast, for large sweeps).
    Modeled,
}

/// A destination a page or region can be placed in.
///
/// `Ord` follows declaration order (DRAM, then byte tiers, then compressed
/// tiers by index) so `Placement` can key the ordered maps that report and
/// batching paths iterate deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Placement {
    /// The DRAM tier.
    Dram,
    /// Byte-addressable tier by index into [`SimConfig::byte_tiers`].
    ByteTier(usize),
    /// Compressed tier by index into [`SimConfig::compressed_tiers`].
    Compressed(usize),
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Dram => write!(f, "DRAM"),
            Placement::ByteTier(i) => write!(f, "BT{i}"),
            Placement::Compressed(i) => write!(f, "CT{i}"),
        }
    }
}

/// Configuration of a simulated tiered system.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// DRAM capacity in bytes (shared by resident pages and DRAM-backed
    /// compressed pools).
    pub dram_bytes: u64,
    /// Byte-addressable tiers, fastest first: `(medium, capacity)`.
    pub byte_tiers: Vec<(MediaKind, u64)>,
    /// Compressed tiers, ordered low- to high-latency.
    pub compressed_tiers: Vec<TierConfig>,
    /// Fidelity mode.
    pub fidelity: Fidelity,
    /// Seed for calibration and modeled-compression jitter.
    pub seed: u64,
    /// Region granularity as a byte shift (21 = 2 MiB, the paper's §7.2
    /// default; 12 = per-page management for the granularity ablation).
    pub region_shift: u32,
    /// Optional per-tier pool limit in bytes (kernel zswap's
    /// `max_pool_percent` analogue). When a tier's backing pool exceeds its
    /// limit, the oldest compressed objects are written back to a modeled
    /// swap device (milliseconds-class latency, near-zero $/GB); `None`
    /// disables writeback for that tier. Shorter than `compressed_tiers` is
    /// fine — missing entries mean no limit.
    pub pool_limits: Vec<Option<u64>>,
    /// Fixed application compute cost per access event, in ns.
    ///
    /// The paper reports *application-level* slowdown (memcached ops,
    /// PageRank rounds), where each memory access is accompanied by real CPU
    /// work. With 0 (the default) slowdowns are relative to pure memory
    /// time, which amplifies fault costs by a large constant factor; the
    /// figure harness sets a few hundred ns to match application-level
    /// magnitudes.
    pub compute_ns_per_access: f64,
}

impl SimConfig {
    /// Set the per-access compute cost (builder style).
    pub fn with_compute_ns(mut self, ns: f64) -> SimConfig {
        self.compute_ns_per_access = ns;
        self
    }

    /// Set the region granularity (builder style). Clamped to [12, 30].
    pub fn with_region_shift(mut self, shift: u32) -> SimConfig {
        self.region_shift = shift.clamp(12, 30);
        self
    }

    /// Cap every compressed tier's pool at `bytes` (builder style); excess
    /// is written back to the modeled swap device.
    pub fn with_pool_limit(mut self, bytes: u64) -> SimConfig {
        self.pool_limits = vec![Some(bytes); self.compressed_tiers.len()];
        self
    }
}

impl SimConfig {
    /// The paper's "standard mix" (§8.1): DRAM + Optane NVMM byte tiers plus
    /// CT-1 (GSwap-style) and CT-2 (TMO-style) compressed tiers. Capacities
    /// scale with the expected RSS.
    pub fn standard_mix(rss: u64, fidelity: Fidelity, seed: u64) -> SimConfig {
        SimConfig {
            dram_bytes: rss + (rss / 4),
            byte_tiers: vec![(MediaKind::Nvmm, rss * 4)],
            compressed_tiers: vec![TierConfig::ct1(), TierConfig::ct2()],
            fidelity,
            seed,
            region_shift: 21,
            pool_limits: Vec::new(),
            compute_ns_per_access: 0.0,
        }
    }

    /// The paper's six-tier "spectrum" (§8.3): DRAM plus compressed tiers
    /// C1, C2, C4, C7, C12.
    pub fn spectrum(rss: u64, fidelity: Fidelity, seed: u64) -> SimConfig {
        SimConfig {
            dram_bytes: rss + (rss / 4),
            byte_tiers: vec![],
            compressed_tiers: TierConfig::spectrum_5(),
            fidelity,
            seed,
            region_shift: 21,
            pool_limits: Vec::new(),
            compute_ns_per_access: 0.0,
        }
    }

    /// A two-tier DRAM + single-compressed-tier setup (GSwap*/TMO*-style
    /// baselines).
    pub fn single_ct(rss: u64, ct: TierConfig, fidelity: Fidelity, seed: u64) -> SimConfig {
        SimConfig {
            dram_bytes: rss + (rss / 4),
            byte_tiers: vec![],
            compressed_tiers: vec![ct],
            fidelity,
            seed,
            region_shift: 21,
            pool_limits: Vec::new(),
            compute_ns_per_access: 0.0,
        }
    }

    /// A two-tier DRAM + NVMM setup (HeMem*-style baseline).
    pub fn dram_nvmm(rss: u64, fidelity: Fidelity, seed: u64) -> SimConfig {
        SimConfig {
            dram_bytes: rss + (rss / 4),
            byte_tiers: vec![(MediaKind::Nvmm, rss * 4)],
            compressed_tiers: vec![],
            fidelity,
            seed,
            region_shift: 21,
            pool_limits: Vec::new(),
            compute_ns_per_access: 0.0,
        }
    }
}

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid configuration.
    Config(&'static str),
    /// A compressed tier rejected the page as incompressible.
    Rejected,
    /// Underlying zswap failure.
    Zswap(ZswapError),
    /// A tier-level fault (injected or genuine) handled by the
    /// degradation paths: the page keeps its source placement.
    Tier(TierError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(what) => write!(f, "bad config: {what}"),
            SimError::Rejected => write!(f, "page rejected as incompressible"),
            SimError::Zswap(e) => write!(f, "zswap: {e}"),
            SimError::Tier(e) => write!(f, "tier fault: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<TierError> for SimError {
    fn from(e: TierError) -> Self {
        SimError::Tier(e)
    }
}

/// Result alias for this crate.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;
    use ts_workloads::{Scale, WorkloadId};

    fn system(fidelity: Fidelity) -> TieredSystem {
        let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 7);
        let rss = w.rss_bytes();
        TieredSystem::new(SimConfig::standard_mix(rss, fidelity, 7), w).unwrap()
    }

    #[test]
    fn all_pages_start_in_dram() {
        let s = system(Fidelity::Modeled);
        let counts = s.placement_counts();
        assert_eq!(counts[0], s.total_pages());
        assert!(counts[1..].iter().all(|&c| c == 0));
        assert!((s.current_tco() - s.tco_max()).abs() < 1e-9);
    }

    #[test]
    fn dram_only_run_has_no_slowdown() {
        let mut s = system(Fidelity::Modeled);
        for _ in 0..20_000 {
            s.step();
        }
        let perf = s.perf_report();
        assert!(perf.slowdown.abs() < 1e-9, "slowdown {}", perf.slowdown);
        assert_eq!(perf.accesses, 20_000);
    }

    #[test]
    fn migrating_cold_regions_saves_tco() {
        let mut s = system(Fidelity::Modeled);
        let tco_before = s.current_tco();
        // Move the last quarter of regions into CT-2 (index 1).
        let nregions = s.total_regions();
        for r in (nregions * 3 / 4)..nregions {
            s.migrate_region(r, Placement::Compressed(1));
        }
        let tco_after = s.current_tco();
        assert!(
            tco_after < tco_before * 0.95,
            "tco {tco_before} -> {tco_after} should drop"
        );
        assert!(s.tier_stats(1).pages > 0);
    }

    #[test]
    fn faults_bring_pages_back() {
        let mut s = system(Fidelity::Modeled);
        // Compress region 0 (the KV index — guaranteed hot).
        s.migrate_region(0, Placement::Compressed(0));
        let before = s.tier_stats(0).pages;
        assert!(before > 0);
        for _ in 0..200_000 {
            s.step();
        }
        let st = s.tier_stats(0);
        assert!(st.faults > 0, "hot pages must fault back");
        assert!(st.pages < before);
        // Faults cost latency: slowdown must now be visible.
        assert!(s.perf_report().slowdown > 0.0);
    }

    #[test]
    fn real_and_modeled_agree_on_direction() {
        // Both fidelities: compressing cold data saves TCO with small
        // perf impact. (Real is slower; keep the run tiny.)
        for fid in [Fidelity::Modeled, Fidelity::Real] {
            let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 3);
            let rss = w.rss_bytes();
            let mut s = TieredSystem::new(SimConfig::standard_mix(rss, fid, 3), w).unwrap();
            let n = s.total_regions();
            for r in (n / 2)..n {
                s.migrate_region(r, Placement::Compressed(1));
            }
            for _ in 0..5_000 {
                s.step();
            }
            let tco = s.tco_report();
            assert!(tco.tco_now < tco.tco_max, "{fid:?}");
        }
    }

    #[test]
    fn real_mode_rejects_incompressible_pages() {
        let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 5);
        let rss = w.rss_bytes();
        let mut s = TieredSystem::new(SimConfig::standard_mix(rss, Fidelity::Real, 5), w).unwrap();
        // Migrate many regions; KV value pages include ~10% incompressible.
        let mut rejected = 0;
        let n = s.total_regions();
        for r in n / 4..n {
            let rep = s.migrate_region(r, Placement::Compressed(0));
            rejected += rep.rejected;
        }
        assert!(rejected > 0, "some pages must be rejected");
        assert!(s.tier_stats(0).rejections > 0);
    }

    #[test]
    fn migration_cost_charged_to_daemon_not_app() {
        let mut s = system(Fidelity::Modeled);
        let app_before = s.perf_report().app_time_ns;
        s.migrate_region(1, Placement::Compressed(0));
        assert_eq!(s.perf_report().app_time_ns, app_before);
        assert!(s.daemon_ns() > 0.0);
    }

    #[test]
    fn placement_latency_ordering() {
        let s = system(Fidelity::Modeled);
        let d = s.placement_latency_ns(Placement::Dram);
        let n = s.placement_latency_ns(Placement::ByteTier(0));
        let c1 = s.placement_latency_ns(Placement::Compressed(0));
        let c2 = s.placement_latency_ns(Placement::Compressed(1));
        assert!(d < n && n < c1 && c1 < c2, "{d} {n} {c1} {c2}");
    }

    #[test]
    fn placement_cost_ordering() {
        let s = system(Fidelity::Modeled);
        let d = s.placement_cost_per_page(Placement::Dram);
        let n = s.placement_cost_per_page(Placement::ByteTier(0));
        let c2 = s.placement_cost_per_page(Placement::Compressed(1));
        assert!(d > n, "dram {d} vs nvmm {n}");
        assert!(n > c2, "nvmm {n} vs ct2 {c2}");
        // tco_min below tco_max.
        assert!(s.tco_min() < s.tco_max());
    }

    #[test]
    fn spectrum_config_builds() {
        let w = WorkloadId::Bfs.build(Scale::TEST, 9);
        let rss = w.rss_bytes();
        let mut s = TieredSystem::new(SimConfig::spectrum(rss, Fidelity::Modeled, 9), w).unwrap();
        assert_eq!(s.placements().len(), 6);
        for _ in 0..1000 {
            s.step();
        }
    }

    #[test]
    fn region_placement_majority() {
        let mut s = system(Fidelity::Modeled);
        s.migrate_region(2, Placement::Compressed(1));
        // Most pages should land there (some may be rejected).
        assert_eq!(s.region_placement(2), Placement::Compressed(1));
        assert_eq!(s.region_placement(0), Placement::Dram);
    }

    #[test]
    fn tco_average_integrates_over_time() {
        let mut s = system(Fidelity::Modeled);
        for _ in 0..1000 {
            s.step();
        }
        let r1 = s.tco_report();
        assert!((r1.tco_avg - r1.tco_max).abs() < r1.tco_max * 0.01);
        // Compress half the address space, run again: average must drop.
        let n = s.total_regions();
        for r in n / 2..n {
            s.migrate_region(r, Placement::Compressed(1));
        }
        for _ in 0..50_000 {
            s.step();
        }
        let r2 = s.tco_report();
        assert!(r2.tco_avg < r1.tco_avg, "{} vs {}", r2.tco_avg, r1.tco_avg);
        assert!(r2.savings > 0.0);
    }
}

#[cfg(test)]
mod writeback_tests {
    use super::*;
    use ts_mem::PAGE_SIZE;
    use ts_workloads::colocate::CoLocated;
    use ts_workloads::{PageClass, Scale, Workload, WorkloadId};

    fn limited_system(fidelity: Fidelity, limit: u64) -> TieredSystem {
        let w = WorkloadId::MemcachedMemtier1k.build(Scale::TEST, 7);
        let rss = w.rss_bytes();
        let mut cfg = SimConfig::standard_mix(rss, fidelity, 7);
        cfg.pool_limits = vec![Some(limit); cfg.compressed_tiers.len()];
        TieredSystem::new(cfg, w).unwrap()
    }

    #[test]
    fn pool_limit_triggers_writeback() {
        for (fidelity, limit) in [(Fidelity::Modeled, 256 << 10), (Fidelity::Real, 128 << 10)] {
            let mut s = limited_system(fidelity, limit);
            // Compress the last regions into CT-2: far beyond the limit.
            let n = s.total_regions();
            for r in n - 2..n {
                let _ = s.migrate_region(r, Placement::Compressed(1));
            }
            let pool = s.tier_pool_bytes(1);
            assert!(pool <= limit, "{fidelity:?}: pool bounded: {pool}");
            assert!(s.swapped_pages() > 0, "{fidelity:?}: excess went to swap");
            assert_eq!(
                s.tier_stats(1).writebacks,
                s.swapped_pages(),
                "{fidelity:?}"
            );
        }
    }

    /// Whether accessing page `p` takes it off the swap device. The access
    /// faults the page home, so each page can be probed once.
    fn probe_swapped(s: &mut TieredSystem, p: u64) -> bool {
        let before = s.swapped_pages();
        s.access(p * PAGE_SIZE as u64, false);
        s.swapped_pages() < before
    }

    #[test]
    fn writeback_evicts_oldest_first_and_skips_stale_entries() {
        for fidelity in [Fidelity::Modeled, Fidelity::Real] {
            let mut s = limited_system(fidelity, 64 << 10);
            let n = s.total_regions();
            let mut pages = (s.region_pages(n / 2).start..s.total_pages())
                .filter(|&p| s.workload().page_class(p) != PageClass::Zero)
                .collect::<Vec<_>>()
                .into_iter();
            // Store one page and fault it home: its writeback entry, the
            // oldest, goes stale.
            let stale = pages
                .by_ref()
                .find(|&p| s.migrate_page(p, Placement::Compressed(1)).is_ok())
                .unwrap();
            s.access(stale * PAGE_SIZE as u64, false);
            let mut stored = Vec::new();
            for p in pages {
                if s.migrate_page(p, Placement::Compressed(1)).is_ok() {
                    stored.push(p);
                }
                if s.swapped_pages() >= 4 {
                    break;
                }
            }
            assert_eq!(s.page_placement(stale), Placement::Dram, "{fidelity:?}");
            let swapped: Vec<bool> = stored.iter().map(|&p| probe_swapped(&mut s, p)).collect();
            let k = swapped.iter().take_while(|&&w| w).count();
            assert!(
                k >= 4 && !swapped[k..].contains(&true),
                "{fidelity:?}: not oldest first: {swapped:?}"
            );
        }
    }

    #[test]
    fn same_filled_markers_are_never_written_back() {
        // Markers hold no pool bytes: writing one back frees nothing.
        for fidelity in [Fidelity::Modeled, Fidelity::Real] {
            let kv = |seed| WorkloadId::MemcachedYcsb.build(Scale::TEST, seed);
            let w = Box::new(CoLocated::equal(vec![kv(7), kv(8)]));
            let cfg = SimConfig::standard_mix(w.rss_bytes(), fidelity, 7).with_pool_limit(64 << 10);
            let mut s = TieredSystem::new(cfg, w).unwrap();
            for r in 0..s.total_regions() {
                s.migrate_region(r, Placement::Compressed(0));
            }
            assert!(s.swapped_pages() > 0, "{fidelity:?}: no writeback");
            let markers: Vec<u64> = (0..s.total_pages())
                .filter(|&p| s.workload().page_class(p) == PageClass::Zero)
                .collect();
            assert!(!markers.is_empty());
            for p in markers {
                assert!(!probe_swapped(&mut s, p), "{fidelity:?}: page {p}");
            }
        }
    }

    #[test]
    fn swap_fault_brings_page_home_and_costs_io() {
        let mut s = limited_system(Fidelity::Modeled, 64 << 10);
        let n = s.total_regions();
        for r in n / 2..n {
            let _ = s.migrate_region(r, Placement::Compressed(1));
        }
        let swapped_before = s.swapped_pages();
        assert!(swapped_before > 0);
        // Touch pages until one comes off the swap device.
        let lat = (0..s.total_pages())
            .find_map(|p| {
                let lat = s.access(p * PAGE_SIZE as u64, false);
                (s.swapped_pages() < swapped_before).then_some(lat)
            })
            .expect("some access hit the swap device");
        assert!(lat > 50_000.0, "swap fault pays device I/O: {lat}");
        assert!(s.swap_faults > 0);
    }

    #[test]
    fn swap_bytes_priced_cheapest_in_tco() {
        let mut s = limited_system(Fidelity::Modeled, 64 << 10);
        let tco_all_dram = s.current_tco();
        let n = s.total_regions();
        for r in n / 2..n {
            let _ = s.migrate_region(r, Placement::Compressed(1));
        }
        // Swap-heavy placement must be far below the all-DRAM TCO.
        assert!(s.current_tco() < tco_all_dram * 0.8);
    }

    #[test]
    fn promotion_from_swap_via_migration() {
        let mut s = limited_system(Fidelity::Real, 64 << 10);
        let n = s.total_regions();
        for r in n - 1..n {
            let _ = s.migrate_region(r, Placement::Compressed(0));
        }
        if s.swapped_pages() == 0 {
            return; // Small footprint stayed under the limit.
        }
        // Promote the region back to DRAM: swapped pages must come home.
        let _ = s.migrate_region(n - 1, Placement::Dram);
        assert_eq!(s.swapped_pages(), 0);
        assert_eq!(s.placement_counts().iter().sum::<u64>(), s.total_pages());
    }
}
