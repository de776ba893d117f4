//! Extension experiment 5: telemetry source comparison.
//!
//! PEBS-style sampling (the paper's choice, §7.2) against page-table
//! ACCESSED-bit scanning (GSwap's \[38\] approach). The scanner is free at
//! access time but pays a full address-space walk per window and only
//! delivers a binary touched/not-touched signal — so its placements must
//! rank warm vs hot by cross-window streaks, degrading the frontier.

use tierscape_core::prelude::*;
use ts_bench::{header, num, pct, row, s, BenchScale, Setup};
use ts_sim::TieredSystem;
use ts_workloads::WorkloadId;

fn main() {
    let bs = BenchScale::from_env();
    header(
        "Ext 5: PEBS sampling vs ACCESSED-bit scanning vs DAMON regions",
        &[
            "workload",
            "telemetry",
            "tco_savings_pct",
            "slowdown_pct",
            "telemetry_ms",
        ],
    );
    for wl in [
        WorkloadId::MemcachedMemtier1k,
        WorkloadId::MemcachedYcsb,
        WorkloadId::PageRank,
    ] {
        for kind in [
            TelemetryKind::Pebs,
            TelemetryKind::AccessedBit,
            TelemetryKind::Damon,
        ] {
            let w = wl.build(bs.scale, bs.seed);
            let rss = w.rss_bytes();
            let mut system = TieredSystem::new(Setup::StandardMix.sim_config(rss, bs.seed), w)
                .expect("valid setup");
            let mut policy = AnalyticalModel::new(0.5);
            let mut cfg = bs.daemon_config();
            cfg.telemetry_kind = kind;
            let report = run_daemon(&mut system, &mut policy, &cfg);
            row(&[
                ("workload", s(wl.name())),
                ("telemetry", s(format!("{kind:?}"))),
                ("tco_savings_pct", num(pct(report.tco_savings()))),
                ("slowdown_pct", num(pct(report.slowdown()))),
                ("telemetry_ms", num(report.profiling_ns / 1e6)),
            ]);
        }
    }
    println!("\nthe binary accessed-bit signal cannot separate warm from hot inside a");
    println!("window, so its placements are coarser; PEBS pays per sample instead.");
}
