//! Page-table ACCESSED-bit scanning telemetry (the GSwap/Google approach).
//!
//! Google's software-defined far memory \[38\] identifies cold pages by
//! periodically scanning and clearing the ACCESSED bit in page tables, and
//! the paper's related work cites idle-page tracking \[31, 40\] as the other
//! mainstream telemetry besides PEBS. This module implements that source so
//! the two can be compared: the hardware sets bits for free, but one scan
//! per window must walk the whole address space, and the signal per window
//! is *binary* (touched / not touched) rather than a sample count — warm and
//! hot regions look identical within a window and can only be distinguished
//! by their streaks across windows.

use crate::{HotnessSnapshot, HotnessTracker, RegionCounts, TelemetrySource};
use std::collections::{BTreeMap, BTreeSet};

/// ACCESSED-bit scanner over a fixed-size address space.
#[derive(Debug, Clone)]
pub struct AccessBitScanner {
    region_shift: u32,
    /// Total regions in the scanned address space (the scan cost driver).
    total_regions: u64,
    touched: BTreeSet<u64>,
    tracker: HotnessTracker,
    cost_ns: f64,
}

impl AccessBitScanner {
    /// Modeled cost of scanning + clearing one region's PTEs: 512 PTE
    /// reads + clears at ~4 ns each.
    pub const SCAN_COST_PER_REGION_NS: f64 = 2048.0;

    /// Create a scanner for an address space of `total_regions` regions of
    /// `1 << region_shift` bytes, with hotness cooling factor `cooling`.
    pub fn new(total_regions: u64, region_shift: u32, cooling: f64) -> Self {
        AccessBitScanner {
            region_shift,
            total_regions,
            touched: BTreeSet::new(),
            tracker: HotnessTracker::new(cooling),
            cost_ns: 0.0,
        }
    }
}

impl TelemetrySource for AccessBitScanner {
    fn record(&mut self, addr: u64, _is_store: bool) {
        // The MMU sets the ACCESSED bit as a side effect: free at runtime.
        self.touched.insert(addr >> self.region_shift);
    }

    fn end_window(&mut self) -> HotnessSnapshot {
        // One full scan of the address space per window, touched or not.
        self.cost_ns += self.total_regions as f64 * Self::SCAN_COST_PER_REGION_NS;
        let mut raw = BTreeMap::new();
        for region in std::mem::take(&mut self.touched) {
            // Binary signal: the scanner cannot count accesses.
            raw.insert(
                region,
                RegionCounts {
                    loads: 1,
                    stores: 0,
                },
            );
        }
        self.tracker.fold_window(raw)
    }

    fn cost_ns(&self) -> f64 {
        self.cost_ns
    }

    fn kind_name(&self) -> &'static str {
        "accessed-bit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_signal_cannot_rank_within_a_window() {
        let mut s = AccessBitScanner::new(64, 21, 0.0);
        for _ in 0..1000 {
            s.record(0, false); // Very hot region 0.
        }
        s.record(5 << 21, false); // Barely-touched region 5.
        let snap = s.end_window();
        assert_eq!(
            snap.hotness(0),
            snap.hotness(5),
            "one window: binary signal"
        );
    }

    #[test]
    fn streaks_across_windows_distinguish_hot_from_warm() {
        let mut s = AccessBitScanner::new(64, 21, 0.5);
        // Region 0 touched every window; region 5 only in the first.
        for w in 0..4 {
            s.record(0, false);
            if w == 0 {
                s.record(5 << 21, false);
            }
            let _ = s.end_window();
        }
        s.record(0, false);
        let snap = s.end_window();
        assert!(
            snap.hotness(0) > snap.hotness(5) * 3.0,
            "streaks accumulate: {} vs {}",
            snap.hotness(0),
            snap.hotness(5)
        );
    }

    #[test]
    fn scan_cost_scales_with_address_space_not_traffic() {
        let mut small = AccessBitScanner::new(16, 21, 0.5);
        let mut large = AccessBitScanner::new(16_384, 21, 0.5);
        for _ in 0..100_000 {
            small.record(0, false);
        }
        // Large space, almost no traffic.
        large.record(0, false);
        let _ = small.end_window();
        let _ = large.end_window();
        assert!(
            large.cost_ns() > small.cost_ns() * 100.0,
            "scan cost is per-address-space: {} vs {}",
            large.cost_ns(),
            small.cost_ns()
        );
    }

    #[test]
    fn bits_cleared_each_window() {
        let mut s = AccessBitScanner::new(8, 21, 0.0);
        s.record(1 << 21, false);
        let snap1 = s.end_window();
        assert!(snap1.hotness(1) > 0.0);
        // No traffic in window 2: with cooling 0 the region vanishes.
        let snap2 = s.end_window();
        assert_eq!(snap2.hotness(1), 0.0);
    }
}
