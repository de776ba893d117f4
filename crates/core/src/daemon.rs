//! TS-Daemon: the userspace loop of Figure 6.
//!
//! Per profile window the daemon (1) collects PEBS-style samples of the
//! application's accesses, (2) folds them into cooled 2 MiB-region hotness,
//! (3) asks the configured placement model for a recommendation, (4) runs
//! the §6.7 migration filter, and (5) executes the surviving migrations.
//! Profiling, solving and migration costs are charged to the daemon-tax
//! account (Fig. 14), never to application time.

use crate::filter::{FilterState, MigrationFilter};
use crate::policy::{PlacementPolicy, PlanCacheMode, PlanDecision};
use ts_obs::{ObsConfig, SpanTimer};
use ts_sim::{FaultCounters, FaultPlan, PerfReport, PlannedMove, TcoReport, TieredSystem};
use ts_telemetry::{AccessBitScanner, DamonRegions, Profiler, TelemetryConfig, TelemetrySource};

/// Which telemetry source feeds the models (see [`ts_telemetry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryKind {
    /// PEBS-style sampled addresses (the paper's TS-Daemon, §7.2).
    #[default]
    Pebs,
    /// Page-table ACCESSED-bit scanning (GSwap's approach \[38\]).
    AccessedBit,
    /// DAMON-style adaptive regions (the paper's citation \[44\]).
    Damon,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Telemetry (sampling period, region size, cooling).
    pub telemetry: TelemetryConfig,
    /// Telemetry source kind.
    pub telemetry_kind: TelemetryKind,
    /// Access events per profile window (the time-window analogue).
    pub window_accesses: u64,
    /// Number of profile windows to run.
    pub windows: u64,
    /// Post-model migration filter.
    pub filter: MigrationFilter,
    /// Fig. 14's "Only-profiling" mode: sample but never plan or migrate.
    pub profile_only: bool,
    /// Threads that compute phase A (compression and decompression) of the
    /// migration engine that executes each window plan (1 runs it inline on
    /// the caller thread). The
    /// engine's results and accounting are bit-identical for every value —
    /// this only changes how fast the host executes the plan.
    pub migration_workers: usize,
    /// Deterministic fault-injection plan (chaos testing). `None` (the
    /// default) disables injection and is byte-identical to builds
    /// without the fault layer; with a plan the daemon degrades
    /// gracefully — aborted moves stay put, exhausted pools overflow to
    /// the next tier down, and pressure-spiked tiers accept no
    /// migrations for the window.
    pub fault_plan: Option<FaultPlan>,
    /// Observability (ts-obs). Disabled by default — the daemon then runs
    /// byte-identically to builds without the layer. When enabled, the run
    /// records counters, gauges, histograms and spans into a
    /// [`ts_obs::Registry`] returned via [`RunReport::obs`].
    pub obs: ObsConfig,
    /// Plan-cache mode for policies that support incremental re-solves
    /// (`--plan-cache=off|warm|reuse`). Every mode yields byte-identical
    /// reports and metrics; only the solver's wall-clock work differs.
    pub plan_cache: PlanCacheMode,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            telemetry: TelemetryConfig {
                sample_period: 29,
                ..TelemetryConfig::default()
            },
            telemetry_kind: TelemetryKind::Pebs,
            window_accesses: 200_000,
            windows: 10,
            filter: MigrationFilter::default(),
            profile_only: false,
            migration_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            fault_plan: None,
            obs: ObsConfig::default(),
            plan_cache: PlanCacheMode::default(),
        }
    }
}

/// Everything recorded about one profile window (feeds Figs. 8, 9, 12).
#[derive(Debug, Clone)]
pub struct WindowRecord {
    /// Window number, starting at 1.
    pub window: u64,
    /// Pages the model *recommended* per placement (Fig. 9a).
    pub recommended: Vec<u64>,
    /// Pages actually resident per placement after migration (Fig. 9b).
    pub actual: Vec<u64>,
    /// Cumulative faults per compressed tier (Fig. 9c).
    pub tier_faults: Vec<u64>,
    /// Instantaneous TCO at window end (Figs. 8b, 9-TCO).
    pub tco_now: f64,
    /// Regions migrated this window.
    pub migrations: u64,
    /// Migration cost in ns (daemon tax).
    pub migration_cost_ns: f64,
    /// Solver cost in ns: the modeled local solve, or the modeled network
    /// round trip when the solver is remote; zero when profile-only.
    pub solver_cost_ns: f64,
    /// Sum of cooled hotness over all regions (Fig. 9d trend).
    pub hotness_total: f64,
    /// Cumulative per-site fault events at window end.
    pub faults: FaultCounters,
}

/// Result of a full daemon-driven run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy display name.
    pub policy: String,
    /// Per-window records.
    pub windows: Vec<WindowRecord>,
    /// Final performance accounting.
    pub perf: PerfReport,
    /// Final TCO accounting.
    pub tco: TcoReport,
    /// Total daemon tax in ns (profiling + solving + migration).
    pub daemon_ns: f64,
    /// Profiling share of the tax in ns.
    pub profiling_ns: f64,
    /// Total per-site fault events injected/handled over the run.
    pub faults: FaultCounters,
    /// Metrics/span registry, present when [`DaemonConfig::obs`] was
    /// enabled. Serialize with [`ts_obs::Registry::snapshot_json`] (metrics
    /// artifact, deterministic) or [`ts_obs::Registry::trace_jsonl`] (span
    /// trace, includes host wall-clock).
    pub obs: Option<ts_obs::Registry>,
}

impl RunReport {
    /// Fractional slowdown (0.1 = 10 % slower than all-DRAM).
    pub fn slowdown(&self) -> f64 {
        self.perf.slowdown
    }

    /// Fractional TCO savings vs all-DRAM.
    pub fn tco_savings(&self) -> f64 {
        self.tco.savings
    }

    /// Daemon tax as a fraction of application time.
    pub fn tax_fraction(&self) -> f64 {
        if self.perf.app_time_ns > 0.0 {
            self.daemon_ns / self.perf.app_time_ns
        } else {
            0.0
        }
    }
}

/// Run `policy` over `system` for the configured number of windows.
pub fn run_daemon(
    system: &mut TieredSystem,
    policy: &mut dyn PlacementPolicy,
    cfg: &DaemonConfig,
) -> RunReport {
    // The profiler's region granularity must match the system's, or plans
    // would address the wrong regions; the system is authoritative.
    let mut telemetry = cfg.telemetry;
    telemetry.region_shift = system.config().region_shift;
    let mut profiler: Box<dyn TelemetrySource> = match cfg.telemetry_kind {
        TelemetryKind::Pebs => Box::new(Profiler::new(telemetry)),
        TelemetryKind::AccessedBit => Box::new(AccessBitScanner::new(
            system.total_regions(),
            telemetry.region_shift,
            telemetry.cooling,
        )),
        TelemetryKind::Damon => Box::new(DamonRegions::new(
            system.total_pages() * ts_mem::PAGE_SIZE as u64,
            10,
            (system.total_regions() as usize * 4).max(64),
            telemetry.sample_period,
            telemetry.region_shift,
            telemetry.cooling,
        )),
    };
    if let Some(plan) = &cfg.fault_plan {
        system.set_fault_plan(plan.clone());
    }
    policy.set_plan_cache_mode(cfg.plan_cache);
    if cfg.obs.enabled {
        system.install_obs();
    }
    let mut filter_state = FilterState::default();
    let mut windows = Vec::with_capacity(cfg.windows as usize);
    let mut profiling_charged = 0.0f64;
    // A window with no accesses has nothing to profile, so none is recorded.
    let window_count = if cfg.window_accesses == 0 {
        0
    } else {
        cfg.windows
    };

    for w in 1..=window_count {
        if let Some(obs) = system.obs_mut() {
            obs.set_window(w);
        }
        let t_profile = SpanTimer::new();
        for _ in 0..cfg.window_accesses {
            let (access, _) = system.step();
            profiler.record(access.addr, access.is_store);
        }
        let snapshot = profiler.end_window();
        // Charge the profiling cost accrued this window.
        let prof_ns = profiler.cost_ns() - profiling_charged;
        profiling_charged = profiler.cost_ns();
        system.charge_daemon_ns(prof_ns);
        let hotness_total: f64 = snapshot.iter().map(|(_, h)| h).sum();
        if let Some(obs) = system.obs_mut() {
            obs.span(
                "window.profile",
                "daemon",
                &t_profile,
                prof_ns,
                &[("accesses", cfg.window_accesses as f64)],
            );
        }

        let nplacements = system.placements().len();
        let mut rec = vec![0u64; nplacements];
        let mut migrations = 0u64;
        let mut migration_cost = 0.0f64;
        let mut solver_cost = 0.0f64;

        if !cfg.profile_only {
            let t_plan = SpanTimer::new();
            let plan = policy.plan(&snapshot, system);
            solver_cost = policy.last_plan_cost_ns();
            let solver_iters = policy.last_solver_iterations();
            if policy.plan_cost_is_local() {
                system.charge_daemon_ns(solver_cost);
            } else {
                // Remote site: only the shipping cost hits this machine.
                system.charge_daemon_ns(policy.last_plan_cost_ns().min(50_000.0));
            }
            // The decision is a pure function of window state (never of the
            // plan-cache mode or timing), so these counters are identical
            // across `--plan-cache` settings and worker counts.
            let decision = policy.last_plan_decision();
            let dirty = match &decision {
                PlanDecision::ColdSolve => 0u64,
                PlanDecision::WarmSolve { dirty_regions } => dirty_regions.len() as u64,
                PlanDecision::Reuse => 0u64,
            };
            if let Some(obs) = system.obs_mut() {
                obs.span(
                    "window.plan",
                    "daemon",
                    &t_plan,
                    solver_cost,
                    &[
                        ("entries", plan.len() as f64),
                        ("iterations", solver_iters as f64),
                        ("dirty_regions", dirty as f64),
                    ],
                );
                obs.add("solver.iterations", solver_iters);
                obs.add(
                    "solver.warm_hits",
                    u64::from(!matches!(decision, PlanDecision::ColdSolve)),
                );
                obs.add("solver.dirty_regions", dirty);
                obs.observe("window.solver_cost_ns", solver_cost);
            }
            // Recommended page counts (before the filter: this is the raw
            // model output, Fig. 9a).
            let placements = system.placements();
            for e in &plan {
                // A recommendation for an unknown placement is dropped
                // (the filter would reject it anyway) rather than panicking.
                let Some(idx) = placements.iter().position(|&p| p == e.dest) else {
                    continue;
                };
                rec[idx] += system.region_pages(e.region).count() as u64;
            }
            // Capacity-pressure fault spikes degrade the plan: a spiked
            // tier accepts no migrations this window. Empty without an
            // active plan, making this a no-op in fault-free runs.
            let t_filter = SpanTimer::new();
            let spiked = system.draw_pressure_spikes();
            let filtered = cfg
                .filter
                .apply_degraded(&plan, system, &mut filter_state, &spiked);
            let moves: Vec<PlannedMove> = filtered
                .iter()
                .map(|e| PlannedMove {
                    region: e.region,
                    dest: e.dest,
                })
                .collect();
            if let Some(obs) = system.obs_mut() {
                obs.span(
                    "window.filter",
                    "daemon",
                    &t_filter,
                    0.0,
                    &[
                        ("planned", plan.len() as f64),
                        ("kept", moves.len() as f64),
                        ("spiked_tiers", spiked.len() as f64),
                    ],
                );
            }
            let t_exec = SpanTimer::new();
            let report = system.execute_plan(&moves, cfg.migration_workers);
            migrations += report.regions_moved;
            migration_cost += report.cost_ns;
            if let Some(obs) = system.obs_mut() {
                obs.span(
                    "window.execute",
                    "daemon",
                    &t_exec,
                    report.cost_ns,
                    &[
                        ("moves", moves.len() as f64),
                        ("moved", report.regions_moved as f64),
                    ],
                );
            }
        } else {
            // Profile-only: recommendation equals current placement.
            rec = system.placement_counts();
        }

        let tier_faults = (0..system.config().compressed_tiers.len())
            .map(|i| system.tier_stats(i).faults)
            .collect();
        if system.obs().is_some() {
            system.obs_record_window();
        }
        if let Some(obs) = system.obs_mut() {
            obs.inc("daemon.windows");
            obs.add("daemon.migrations", migrations);
            obs.gauge_set("window.hotness", hotness_total);
            obs.observe("window.migration_cost_ns", migration_cost);
        }
        windows.push(WindowRecord {
            window: w,
            recommended: rec,
            actual: system.placement_counts(),
            tier_faults,
            tco_now: system.current_tco(),
            migrations,
            migration_cost_ns: migration_cost,
            solver_cost_ns: solver_cost,
            hotness_total,
            faults: system.fault_counters(),
        });
    }

    RunReport {
        policy: if cfg.profile_only {
            "Only-profiling".into()
        } else {
            policy.name()
        },
        windows,
        perf: system.perf_report(),
        tco: system.tco_report(),
        daemon_ns: system.daemon_ns(),
        profiling_ns: profiling_charged,
        faults: system.fault_counters(),
        obs: system.take_obs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticalModel;
    use crate::policy::ThresholdPolicy;
    use crate::waterfall::WaterfallModel;
    use ts_sim::{Fidelity, SimConfig, TieredSystem};
    use ts_workloads::{Scale, WorkloadId};

    fn sim(seed: u64) -> TieredSystem {
        let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, seed);
        let rss = w.rss_bytes();
        TieredSystem::new(SimConfig::standard_mix(rss, Fidelity::Modeled, seed), w).unwrap()
    }

    fn quick_cfg() -> DaemonConfig {
        DaemonConfig {
            window_accesses: 50_000,
            windows: 6,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn am_tco_saves_tco_with_bounded_slowdown() {
        let mut system = sim(1);
        let mut policy = AnalyticalModel::am_tco();
        let report = run_daemon(&mut system, &mut policy, &quick_cfg());
        assert!(
            report.tco_savings() > 0.05,
            "savings {}",
            report.tco_savings()
        );
        assert!(report.slowdown() >= 0.0);
        assert_eq!(report.windows.len(), 6);
    }

    #[test]
    fn am_perf_trades_savings_for_speed() {
        let mut sys_tco = sim(2);
        let mut sys_perf = sim(2);
        let tco = run_daemon(&mut sys_tco, &mut AnalyticalModel::am_tco(), &quick_cfg());
        let perf = run_daemon(&mut sys_perf, &mut AnalyticalModel::am_perf(), &quick_cfg());
        assert!(
            tco.tco_savings() > perf.tco_savings(),
            "AM-TCO {} vs AM-perf {}",
            tco.tco_savings(),
            perf.tco_savings()
        );
        assert!(
            perf.slowdown() <= tco.slowdown() + 0.02,
            "AM-perf {} vs AM-TCO {}",
            perf.slowdown(),
            tco.slowdown()
        );
    }

    #[test]
    fn waterfall_progressively_reduces_tco() {
        // Gaussian keys give a large, stable cold tail; a bigger scale gives
        // enough 2 MiB regions for the aging to be visible per window.
        let w = WorkloadId::MemcachedMemtier1k.build(Scale(1.0 / 1024.0), 3);
        let rss = w.rss_bytes();
        let mut system =
            TieredSystem::new(SimConfig::standard_mix(rss, Fidelity::Modeled, 3), w).unwrap();
        let cfg = DaemonConfig {
            window_accesses: 60_000,
            windows: 8,
            ..DaemonConfig::default()
        };
        let tco_max = system.tco_max();
        let report = run_daemon(&mut system, &mut WaterfallModel::new(25.0), &cfg);
        // Gradual aging: the deepest populated tier index must advance over
        // the windows until cold data reaches the final tier (Fig. 8a).
        let deepest = |w: &WindowRecord| {
            w.actual
                .iter()
                .rposition(|&c| c > 0)
                .expect("some tier is populated")
        };
        let first = report.windows.first().unwrap();
        let last = report.windows.last().unwrap();
        assert!(
            deepest(first) < w_len(&report),
            "not everything settles in window 1"
        );
        // The final bucket of `actual` is the swap device (unused here), so
        // the last *tier* is at len - 2.
        assert_eq!(
            deepest(last),
            last.actual.len() - 2,
            "cold data reaches the last tier"
        );
        assert!(deepest(last) > deepest(first), "aging advances tier depth");
        // And the run as a whole saves TCO vs all-DRAM.
        assert!(last.tco_now < tco_max * 0.95);
        assert!(report.tco_savings() > 0.0);
    }

    fn w_len(report: &RunReport) -> usize {
        report.windows.first().unwrap().actual.len()
    }

    #[test]
    fn baselines_run_end_to_end() {
        for (mk, name) in [
            (
                Box::new(ThresholdPolicy::hemem(25.0)) as Box<dyn PlacementPolicy>,
                "HeMem*",
            ),
            (Box::new(ThresholdPolicy::gswap(25.0)), "GSwap*"),
            (Box::new(ThresholdPolicy::tmo(25.0, 1)), "TMO*"),
        ] {
            let mut system = sim(4);
            let mut policy = mk;
            let report = run_daemon(&mut system, policy.as_mut(), &quick_cfg());
            assert_eq!(report.policy, name);
            assert!(report.tco_savings() > 0.0, "{name} saves TCO");
        }
    }

    #[test]
    fn profile_only_never_migrates() {
        let mut system = sim(5);
        let cfg = DaemonConfig {
            profile_only: true,
            ..quick_cfg()
        };
        let mut policy = AnalyticalModel::am_tco();
        let report = run_daemon(&mut system, &mut policy, &cfg);
        assert_eq!(report.policy, "Only-profiling");
        assert!(report.windows.iter().all(|w| w.migrations == 0));
        assert!((report.tco_savings()).abs() < 1e-6);
        // Profiling tax is charged but bounded. (The test sampling period of
        // 29 is ~170x denser than the paper's 5000, so the tax fraction here
        // is far above production; at period 5000 it would be ~0.1 %.)
        assert!(report.profiling_ns > 0.0);
        assert!(report.tax_fraction() < 0.3, "tax {}", report.tax_fraction());
    }

    #[test]
    fn window_records_are_consistent() {
        let mut system = sim(6);
        let mut policy = AnalyticalModel::am_tco();
        let report = run_daemon(&mut system, &mut policy, &quick_cfg());
        let total = system.total_pages();
        for w in &report.windows {
            assert_eq!(w.actual.iter().sum::<u64>(), total);
            assert_eq!(w.recommended.iter().sum::<u64>(), total);
            // Faults are cumulative.
        }
        for pair in report.windows.windows(2) {
            for (a, b) in pair[0].tier_faults.iter().zip(&pair[1].tier_faults) {
                assert!(b >= a, "faults must be cumulative");
            }
        }
    }

    #[test]
    fn zero_window_accesses_records_no_windows() {
        let mut system = sim(9);
        let cfg = DaemonConfig {
            window_accesses: 0,
            ..quick_cfg()
        };
        let report = run_daemon(&mut system, &mut AnalyticalModel::am_tco(), &cfg);
        assert!(report.windows.is_empty());
        assert_eq!(report.perf.accesses, 0);
        assert_eq!(report.daemon_ns, 0.0);
    }

    #[test]
    fn daemon_tax_is_small_fraction() {
        let mut system = sim(7);
        let mut policy = AnalyticalModel::am_tco();
        let report = run_daemon(&mut system, &mut policy, &quick_cfg());
        // Migration-heavy first windows settle; overall tax is bounded.
        assert!(
            report.tax_fraction() < 2.0,
            "tax fraction {}",
            report.tax_fraction()
        );
        assert!(report.daemon_ns > 0.0);
    }
}
