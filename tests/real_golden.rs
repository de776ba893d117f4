//! `Real`-fidelity goldens: the migration engine's output with real codecs
//! and real pools, pinned byte for byte.
//!
//! The `Modeled` golden (`tests/obs.rs`) forms no phase-A work at all, so
//! these two scenarios are what pins the parallel engine's output:
//!
//! * `metrics_real_pinned.json` — the CLI scenario the CI metrics-snapshot
//!   job also diffs: `tierscape-cli run --real --setup spectrum --windows 6
//!   --accesses 50000 --migration-workers 2 --fault-rate 0.1`. Five
//!   compressed tiers give compressed-to-compressed moves between different
//!   algorithms; the fault plan trips store, pool and copy faults.
//! * `metrics_real_pool_limit.json` — the same set-up with a 256 KiB pool
//!   limit per tier and no fault plan. The CLI has no pool-limit flag, so
//!   this one runs through the library only. It makes pool-limit writeback
//!   to swap, serial swap-in migrations and compressed-to-compressed moves.
//!
//! Both files are regenerated with `scripts/update-golden.sh`. Each test
//! also writes its actual snapshot under the build's temporary directory
//! (`target/tmp/`), which is where the script picks up the library-only
//! one.

use tierscape::core::prelude::*;
use tierscape::sim::{Fidelity, SimConfig, TieredSystem};
use tierscape::workloads::{Scale, WorkloadId};

/// Pool limit of the writeback scenario, per compressed tier.
const POOL_LIMIT: u64 = 256 << 10;

/// The spectrum set-up of the pinned CLI scenario, optionally pool-limited.
fn spectrum_run(workers: usize, fault_rate: f64, pool_limit: Option<u64>) -> RunReport {
    let workload = WorkloadId::MemcachedYcsb.build(Scale(1.0 / 1024.0), 42);
    let rss = workload.rss_bytes();
    let mut cfg = SimConfig::spectrum(rss, Fidelity::Real, 42).with_compute_ns(200.0);
    if let Some(limit) = pool_limit {
        cfg = cfg.with_pool_limit(limit);
    }
    let mut system = TieredSystem::new(cfg, workload).expect("valid configuration");
    let mut policy = AnalyticalModel::new(0.2);
    let dcfg = DaemonConfig {
        windows: 6,
        window_accesses: 50_000,
        migration_workers: workers,
        fault_plan: (fault_rate > 0.0).then(|| FaultPlan::uniform(42, fault_rate)),
        obs: ObsConfig::enabled(),
        ..DaemonConfig::default()
    };
    run_daemon(&mut system, &mut policy, &dcfg)
}

fn assert_golden(report: &RunReport, file: &str) {
    let snapshot = report.obs.as_ref().expect("obs enabled").snapshot_json();
    let actual = format!("{}/{file}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&actual, &snapshot).expect("target tmp dir is writable");
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert!(
        snapshot == golden,
        "metrics snapshot {actual} drifted from {path}; if the change is \
         intended, regenerate with scripts/update-golden.sh"
    );
}

#[test]
fn real_snapshot_matches_checked_in_golden() {
    assert_golden(&spectrum_run(2, 0.1, None), "metrics_real_pinned.json");
}

/// Run at 8 workers (the snapshot is the same at any worker count), and
/// the scenario reaches the paths it is pinned for.
#[test]
fn real_pool_limit_snapshot_matches_checked_in_golden() {
    let report = spectrum_run(8, 0.0, Some(POOL_LIMIT));
    assert_golden(&report, "metrics_real_pool_limit.json");
    let obs = report.obs.expect("obs enabled");
    let writebacks: u64 = (0..5)
        .map(|i| obs.counter(&format!("tier.ct{i}.writebacks")))
        .sum();
    assert!(writebacks > 0, "no pool-limit writeback");
    assert!(obs.counter("migrate.serial_pages") > 0, "no serial page");
}
