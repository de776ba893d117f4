//! DAMON-style adaptive-region telemetry (the paper's citation \[44\], Park
//! et al., "Profiling Dynamic Data Access Patterns with Controlled Overhead
//! and Quality").
//!
//! Instead of fixed 2 MiB regions, DAMON tracks a *bounded number* of
//! variable-sized regions that tile the address space: every aggregation
//! window each region's sampled access count is recorded, adjacent regions
//! with similar counts are merged, and regions are split to regain
//! resolution. Tracking cost is therefore controlled by the region budget,
//! not by the address-space size.
//!
//! To stay compatible with the placement models (which address fixed
//! regions), [`DamonRegions::end_window`] projects the adaptive regions'
//! access densities onto the standard fixed-region grid.

use crate::{HotnessSnapshot, HotnessTracker, RegionCounts, Sampler, TelemetrySource};
use std::collections::BTreeMap;

/// One adaptive region: a byte range with an access counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamonRegion {
    /// Inclusive start byte.
    pub start: u64,
    /// Exclusive end byte.
    pub end: u64,
    /// Sampled accesses this window.
    pub nr_accesses: u64,
    /// Consecutive windows with a similar access level.
    pub age: u64,
}

impl DamonRegion {
    fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Adaptive-region profiler with a bounded region budget.
#[derive(Debug, Clone)]
pub struct DamonRegions {
    regions: Vec<DamonRegion>,
    #[allow(dead_code)]
    // Retained: the kernel re-seeds toward min_regions on address-space growth.
    min_regions: usize,
    max_regions: usize,
    sampler: Sampler,
    tracker: HotnessTracker,
    fixed_shift: u32,
    /// Modeled cost per sampled event, in ns.
    pub sample_cost_ns: f64,
    /// Modeled cost of the split/merge pass per region per window, in ns.
    pub adjust_cost_per_region_ns: f64,
    cost_ns: f64,
    /// Split entropy source (deterministic).
    split_seed: u64,
}

impl DamonRegions {
    /// Create a profiler over `total_bytes` of address space.
    ///
    /// * `min_regions`/`max_regions` — DAMON's region budget (10/1000 in the
    ///   kernel by default; pass what the experiment needs).
    /// * `sample_period` — 1-in-N event sampling.
    /// * `fixed_shift` — the fixed-region grid the snapshot projects onto.
    pub fn new(
        total_bytes: u64,
        min_regions: usize,
        max_regions: usize,
        sample_period: u64,
        fixed_shift: u32,
        cooling: f64,
    ) -> Self {
        let min_regions = min_regions.max(1);
        let max_regions = max_regions.max(min_regions);
        // Start with `min_regions` equal slices.
        let slice = (total_bytes / min_regions as u64).max(1);
        let mut regions = Vec::with_capacity(min_regions);
        let mut start = 0;
        for i in 0..min_regions {
            let end = if i + 1 == min_regions {
                total_bytes
            } else {
                start + slice
            };
            regions.push(DamonRegion {
                start,
                end,
                nr_accesses: 0,
                age: 0,
            });
            start = end;
        }
        DamonRegions {
            regions,
            min_regions,
            max_regions,
            sampler: Sampler::new(sample_period),
            tracker: HotnessTracker::new(cooling),
            fixed_shift,
            sample_cost_ns: 200.0,
            adjust_cost_per_region_ns: 50.0,
            cost_ns: 0.0,
            split_seed: 0x9E3779B97F4A7C15,
        }
    }

    /// Current adaptive regions (diagnostics).
    pub fn regions(&self) -> &[DamonRegion] {
        &self.regions
    }

    fn region_index_of(&self, addr: u64) -> usize {
        // Regions are sorted and tile the space; binary search by start.
        match self.regions.binary_search_by(|r| {
            if addr < r.start {
                std::cmp::Ordering::Greater
            } else if addr >= r.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => self.regions.len() - 1, // Past-the-end: clamp.
        }
    }

    /// DAMON's aggregate step: merge similar neighbours, then split to
    /// regain resolution, respecting the budget.
    fn adjust_regions(&mut self) {
        // Merge adjacent regions whose access counts differ by <= 10% of the
        // larger (or both are zero); the split pass below restores the
        // minimum region count.
        let mut merged: Vec<DamonRegion> = Vec::with_capacity(self.regions.len());
        for r in self.regions.drain(..) {
            let similar = merged.last().map(|prev: &DamonRegion| {
                let hi = prev.nr_accesses.max(r.nr_accesses);
                let lo = prev.nr_accesses.min(r.nr_accesses);
                hi == 0 || (hi - lo) * 10 <= hi
            });
            if similar == Some(true) {
                let prev = merged.last_mut().expect("similar implies a predecessor");
                prev.nr_accesses = prev.nr_accesses.max(r.nr_accesses);
                prev.age = prev.age.max(r.age) + 1;
                prev.end = r.end;
            } else {
                merged.push(r);
            }
        }
        self.regions = merged;
        // Split: every region larger than twice the minimum granularity is
        // split at a deterministic pseudo-random point, budget permitting.
        let mut split_budget = self.max_regions.saturating_sub(self.regions.len());
        let mut out = Vec::with_capacity(self.regions.len() * 2);
        for r in self.regions.drain(..) {
            let room = split_budget > 0;
            if room && r.len() >= 2 * 4096 {
                self.split_seed = self
                    .split_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Split point in the middle half of the region, page aligned.
                let quarter = r.len() / 4;
                let off = quarter + (self.split_seed >> 33) % quarter.max(1) * 2;
                let mid = (r.start + off) & !4095;
                if mid > r.start && mid < r.end {
                    split_budget -= 1;
                    out.push(DamonRegion {
                        start: r.start,
                        end: mid,
                        nr_accesses: 0,
                        age: r.age,
                    });
                    out.push(DamonRegion {
                        start: mid,
                        end: r.end,
                        nr_accesses: 0,
                        age: r.age,
                    });
                    continue;
                }
            }
            let mut r = r;
            r.nr_accesses = 0;
            out.push(r);
        }
        self.regions = out;
        self.cost_ns += self.regions.len() as f64 * self.adjust_cost_per_region_ns;
    }
}

impl TelemetrySource for DamonRegions {
    fn record(&mut self, addr: u64, _is_store: bool) {
        if !self.sampler.observe() {
            return;
        }
        self.cost_ns += self.sample_cost_ns;
        let i = self.region_index_of(addr);
        self.regions[i].nr_accesses += 1;
    }

    fn end_window(&mut self) -> HotnessSnapshot {
        // Project adaptive-region densities onto the fixed grid.
        let fixed = 1u64 << self.fixed_shift;
        let mut raw: BTreeMap<u64, RegionCounts> = BTreeMap::new();
        for r in &self.regions {
            if r.nr_accesses == 0 {
                continue;
            }
            let density = r.nr_accesses as f64 / r.len() as f64;
            let first = r.start / fixed;
            let last = (r.end - 1) / fixed;
            for g in first..=last {
                let lo = r.start.max(g * fixed);
                let hi = r.end.min((g + 1) * fixed);
                let share = (density * (hi - lo) as f64).round() as u64;
                if share > 0 {
                    raw.entry(g).or_default().loads += share;
                }
            }
        }
        self.adjust_regions();
        self.tracker.fold_window(raw)
    }

    fn cost_ns(&self) -> f64 {
        self.cost_ns
    }

    fn kind_name(&self) -> &'static str {
        "damon"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn profiler(space: u64) -> DamonRegions {
        DamonRegions::new(space, 8, 64, 1, 21, 0.0)
    }

    fn tiles(d: &DamonRegions, space: u64) -> bool {
        let mut expect = 0;
        for r in d.regions() {
            if r.start != expect || r.end <= r.start {
                return false;
            }
            expect = r.end;
        }
        expect == space
    }

    #[test]
    fn regions_always_tile_the_space() {
        let space = 64 * MB;
        let mut d = profiler(space);
        assert!(tiles(&d, space));
        for w in 0..10 {
            for i in 0..5000u64 {
                d.record((i * 7919 + w * 13) % space, false);
            }
            let _ = d.end_window();
            assert!(tiles(&d, space), "window {w}");
            assert!(d.regions().len() <= 64);
            assert!(!d.regions().is_empty());
        }
    }

    #[test]
    fn hot_subrange_gains_resolution() {
        let space = 64 * MB;
        let mut d = profiler(space);
        // All traffic in the first 2 MiB.
        for _ in 0..8 {
            for i in 0..20_000u64 {
                d.record((i * 37) % (2 * MB), false);
            }
            let _ = d.end_window();
        }
        // Regions covering the hot 2 MiB should be smaller than average.
        let hot_regions: Vec<_> = d.regions().iter().filter(|r| r.start < 2 * MB).collect();
        let avg_all = space as f64 / d.regions().len() as f64;
        let avg_hot =
            hot_regions.iter().map(|r| r.len() as f64).sum::<f64>() / hot_regions.len() as f64;
        assert!(
            avg_hot < avg_all,
            "hot range should be finer: {avg_hot:.0} vs {avg_all:.0}"
        );
    }

    #[test]
    fn snapshot_projects_onto_fixed_grid() {
        let space = 16 * MB;
        let mut d = profiler(space);
        for _ in 0..10_000 {
            d.record(3 * MB, false); // Fixed 2 MiB region 1.
        }
        let snap = d.end_window();
        assert!(snap.hotness(1) > 0.0);
        assert!(snap.hotness(1) > snap.hotness(5));
    }

    #[test]
    fn cost_scales_with_region_budget_not_space() {
        let mut small = DamonRegions::new(16 * MB, 8, 32, 1_000_000, 21, 0.5);
        let mut huge = DamonRegions::new(16 * 1024 * MB, 8, 32, 1_000_000, 21, 0.5);
        let _ = small.end_window();
        let _ = huge.end_window();
        // With sampling effectively off, cost is the adjust pass: bounded by
        // the region budget on both, so within 4x despite a 1024x space gap.
        assert!(huge.cost_ns() < small.cost_ns() * 4.0 + 1.0);
    }

    #[test]
    fn addresses_past_the_end_are_clamped() {
        let mut d = profiler(MB);
        d.record(u64::MAX, false);
        let _ = d.end_window(); // Must not panic.
    }
}
