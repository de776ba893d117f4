//! Trend-based prefetching (the §3.2 extension the paper defers).
//!
//! Pages that the placement model left in slow tiers still pay the full
//! fault cost on their first access. Google's far-memory system \[38\] pairs
//! its compressed tier with an ML prefetcher; the paper notes prefetching
//! "can be additionally employed with TierScape" and leaves it as future
//! work. [`PrefetchingPolicy`] implements a simple, explainable variant: it
//! wraps any inner placement policy and *overrides demotions* for regions
//! whose hotness is rising across windows — a region trending upward is
//! promoted to DRAM before the faults land, trading a little TCO for fewer
//! slow-tier faults.

use crate::policy::{PlacementPolicy, PlanEntry};
use std::collections::BTreeMap;
use ts_sim::{Placement, TieredSystem};
use ts_telemetry::HotnessSnapshot;

/// A region is "rising" when `hotness > RISE_FACTOR * previous`.
const RISE_FACTOR: f64 = 1.5;
/// Minimum hotness for the trend to count (filters noise).
const MIN_HOTNESS: f64 = 1.0;

/// A prefetching wrapper around any placement policy.
#[derive(Debug)]
pub struct PrefetchingPolicy<P> {
    inner: P,
    prev: BTreeMap<u64, f64>,
    /// Regions promoted by the prefetcher in the last plan (observability).
    pub last_prefetches: u64,
}

impl<P: PlacementPolicy> PrefetchingPolicy<P> {
    /// Wrap `inner`.
    pub fn new(inner: P) -> Self {
        PrefetchingPolicy {
            inner,
            prev: BTreeMap::new(),
            last_prefetches: 0,
        }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for PrefetchingPolicy<P> {
    fn name(&self) -> String {
        format!("{}+PF", self.inner.name())
    }

    fn plan(&mut self, snapshot: &HotnessSnapshot, system: &TieredSystem) -> Vec<PlanEntry> {
        let mut plan = self.inner.plan(snapshot, system);
        self.last_prefetches = 0;
        for entry in plan.iter_mut() {
            if entry.dest == Placement::Dram {
                continue;
            }
            let h = snapshot.hotness(entry.region);
            let prev = self.prev.get(&entry.region).copied().unwrap_or(0.0);
            let rising = h >= MIN_HOTNESS && (prev <= 0.0 || h > prev * RISE_FACTOR) && h > prev;
            if rising {
                entry.dest = Placement::Dram;
                self.last_prefetches += 1;
            }
        }
        // Remember this window's hotness for the next trend check.
        self.prev.clear();
        for (r, h) in snapshot.iter() {
            self.prev.insert(r, h);
        }
        plan
    }

    fn last_plan_cost_ns(&self) -> f64 {
        self.inner.last_plan_cost_ns()
    }

    fn plan_cost_is_local(&self) -> bool {
        self.inner.plan_cost_is_local()
    }

    fn last_solver_iterations(&self) -> u64 {
        self.inner.last_solver_iterations()
    }

    fn set_plan_cache_mode(&mut self, mode: crate::policy::PlanCacheMode) {
        self.inner.set_plan_cache_mode(mode);
    }

    fn last_plan_decision(&self) -> crate::policy::PlanDecision {
        self.inner.last_plan_decision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticalModel;
    use crate::daemon::{run_daemon, DaemonConfig};
    use ts_sim::{Fidelity, SimConfig, TieredSystem};
    use ts_telemetry::{HotnessTracker, RegionCounts};
    use ts_workloads::{Access, PageClass, Scale, Workload, WorkloadId};

    /// A workload whose hot set shifts phase by phase: the canonical case
    /// where trend prefetching pays off.
    struct PhaseShift {
        pages: u64,
        phase_len: u64,
        tick: u64,
    }

    impl Workload for PhaseShift {
        fn name(&self) -> &str {
            "phase-shift"
        }
        fn description(&self) -> &str {
            "hot set rotates across the address space"
        }
        fn rss_bytes(&self) -> u64 {
            self.pages * 4096
        }
        fn page_class(&self, _page: u64) -> PageClass {
            PageClass::Text
        }
        fn content_seed(&self) -> u64 {
            9
        }
        fn next_access(&mut self) -> Access {
            self.tick += 1;
            let phase = self.tick / self.phase_len;
            let nphases = 4u64;
            let span = self.pages / nphases;
            let base = (phase % nphases) * span;
            // Hot set = one quarter of the pages; uniform within it.
            let page = base + (self.tick.wrapping_mul(0x9E3779B9) % span);
            Access {
                addr: page * 4096,
                is_store: false,
            }
        }
    }

    #[test]
    fn wrapper_promotes_rising_regions() {
        // Direct unit check of the override logic.
        struct DemoteAll;
        impl PlacementPolicy for DemoteAll {
            fn name(&self) -> String {
                "demote-all".into()
            }
            fn plan(&mut self, _s: &HotnessSnapshot, sys: &TieredSystem) -> Vec<PlanEntry> {
                (0..sys.total_regions())
                    .map(|r| PlanEntry {
                        region: r,
                        dest: Placement::Compressed(0),
                    })
                    .collect()
            }
        }
        let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 1);
        let rss = w.rss_bytes();
        let system =
            TieredSystem::new(SimConfig::standard_mix(rss, Fidelity::Modeled, 1), w).unwrap();

        let mut tracker = HotnessTracker::new(0.5);
        let mut raw = BTreeMap::new();
        raw.insert(
            0u64,
            RegionCounts {
                loads: 10,
                stores: 0,
            },
        );
        let snap1 = tracker.fold_window(raw);
        let mut pf = PrefetchingPolicy::new(DemoteAll);
        let _ = pf.plan(&snap1, &system);
        // Window 2: region 0 hotness doubles -> must be promoted.
        let mut raw = BTreeMap::new();
        raw.insert(
            0u64,
            RegionCounts {
                loads: 40,
                stores: 0,
            },
        );
        let snap2 = tracker.fold_window(raw);
        let plan = pf.plan(&snap2, &system);
        let e0 = plan.iter().find(|e| e.region == 0).unwrap();
        assert_eq!(e0.dest, Placement::Dram);
        assert!(pf.last_prefetches >= 1);
        assert_eq!(pf.name(), "demote-all+PF");
    }

    #[test]
    fn prefetching_reduces_faults_on_phase_shifts() {
        let mk = || {
            let w = Box::new(PhaseShift {
                pages: 6 * 512,
                phase_len: 60_000,
                tick: 0,
            });
            let rss = w.rss_bytes();
            TieredSystem::new(SimConfig::standard_mix(rss, Fidelity::Modeled, 3), w).unwrap()
        };
        let cfg = DaemonConfig {
            windows: 8,
            window_accesses: 30_000,
            ..DaemonConfig::default()
        };

        let mut plain_sys = mk();
        let plain = run_daemon(&mut plain_sys, &mut AnalyticalModel::new(0.2), &cfg);
        let plain_faults: u64 = (0..2).map(|i| plain_sys.tier_stats(i).faults).sum();

        let mut pf_sys = mk();
        let mut pf = PrefetchingPolicy::new(AnalyticalModel::new(0.2));
        let boosted = run_daemon(&mut pf_sys, &mut pf, &cfg);
        let pf_faults: u64 = (0..2).map(|i| pf_sys.tier_stats(i).faults).sum();

        assert!(
            pf_faults <= plain_faults,
            "prefetching should not increase faults: {pf_faults} vs {plain_faults}"
        );
        // And it must not destroy the savings entirely.
        assert!(boosted.tco_savings() > 0.0);
        let _ = plain;
    }
}
