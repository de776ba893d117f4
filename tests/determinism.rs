//! The migration engine's determinism guarantee: with a fixed seed, a
//! daemon run produces a bit-identical [`RunReport`] for *any*
//! `migration_workers` setting. Worker threads only compute the pure part
//! of each page move (phase A); every change to the system is applied
//! serially in plan order (phase B) and charged closed-form costs, so the
//! worker count may only change how fast the host executes a window plan —
//! never what the plan does to the system.

use tierscape::core::prelude::*;
use tierscape::sim::{Fidelity, SimConfig, TieredSystem};
use tierscape::workloads::{Scale, WorkloadId};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn standard_system(wl: WorkloadId, fidelity: Fidelity, seed: u64) -> TieredSystem {
    let w = wl.build(Scale::TEST, seed);
    let rss = w.rss_bytes();
    TieredSystem::new(SimConfig::standard_mix(rss, fidelity, seed), w)
        .expect("standard mix is valid")
}

/// Assert two runs are bit-identical: every per-window record and every
/// report-level float, compared by bit pattern (no tolerance).
fn assert_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.policy, b.policy, "{label}: policy name");
    assert_eq!(a.windows.len(), b.windows.len(), "{label}: window count");
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        let w = wa.window;
        assert_eq!(wa.recommended, wb.recommended, "{label} w{w}: recommended");
        assert_eq!(wa.actual, wb.actual, "{label} w{w}: actual placements");
        assert_eq!(wa.tier_faults, wb.tier_faults, "{label} w{w}: tier faults");
        assert_eq!(wa.migrations, wb.migrations, "{label} w{w}: migrations");
        assert_eq!(
            wa.tco_now.to_bits(),
            wb.tco_now.to_bits(),
            "{label} w{w}: tco_now {} vs {}",
            wa.tco_now,
            wb.tco_now
        );
        assert_eq!(
            wa.migration_cost_ns.to_bits(),
            wb.migration_cost_ns.to_bits(),
            "{label} w{w}: migration cost {} vs {}",
            wa.migration_cost_ns,
            wb.migration_cost_ns
        );
        assert_eq!(
            wa.solver_cost_ns.to_bits(),
            wb.solver_cost_ns.to_bits(),
            "{label} w{w}: solver cost"
        );
        assert_eq!(
            wa.hotness_total.to_bits(),
            wb.hotness_total.to_bits(),
            "{label} w{w}: hotness"
        );
        assert_eq!(wa.faults, wb.faults, "{label} w{w}: fault counters");
    }
    assert_eq!(a.faults, b.faults, "{label}: fault counters");
    assert_eq!(a.perf.accesses, b.perf.accesses, "{label}: accesses");
    assert_eq!(
        a.perf.app_time_ns.to_bits(),
        b.perf.app_time_ns.to_bits(),
        "{label}: app time {} vs {}",
        a.perf.app_time_ns,
        b.perf.app_time_ns
    );
    assert_eq!(
        a.perf.slowdown.to_bits(),
        b.perf.slowdown.to_bits(),
        "{label}: slowdown"
    );
    assert_eq!(
        a.perf.p95_ns.to_bits(),
        b.perf.p95_ns.to_bits(),
        "{label}: p95"
    );
    assert_eq!(
        a.tco.tco_avg.to_bits(),
        b.tco.tco_avg.to_bits(),
        "{label}: tco_avg"
    );
    assert_eq!(
        a.tco.savings.to_bits(),
        b.tco.savings.to_bits(),
        "{label}: tco savings {} vs {}",
        a.tco.savings,
        b.tco.savings
    );
    assert_eq!(
        a.daemon_ns.to_bits(),
        b.daemon_ns.to_bits(),
        "{label}: daemon_ns {} vs {}",
        a.daemon_ns,
        b.daemon_ns
    );
    assert_eq!(
        a.profiling_ns.to_bits(),
        b.profiling_ns.to_bits(),
        "{label}: profiling_ns"
    );
}

fn run_with_workers(
    wl: WorkloadId,
    fidelity: Fidelity,
    mk_policy: &dyn Fn() -> Box<dyn PlacementPolicy>,
    workers: usize,
    window_accesses: u64,
    seed: u64,
) -> RunReport {
    run_with_workers_plan(
        wl,
        fidelity,
        mk_policy,
        workers,
        window_accesses,
        seed,
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_with_workers_plan(
    wl: WorkloadId,
    fidelity: Fidelity,
    mk_policy: &dyn Fn() -> Box<dyn PlacementPolicy>,
    workers: usize,
    window_accesses: u64,
    seed: u64,
    fault_plan: Option<FaultPlan>,
) -> RunReport {
    let mut system = standard_system(wl, fidelity, seed);
    let mut policy = mk_policy();
    let cfg = DaemonConfig {
        windows: 3,
        window_accesses,
        migration_workers: workers,
        fault_plan,
        ..DaemonConfig::default()
    };
    run_daemon(&mut system, policy.as_mut(), &cfg)
}

fn assert_workers_invariant(
    fidelity: Fidelity,
    mk_policy: &dyn Fn() -> Box<dyn PlacementPolicy>,
    window_accesses: u64,
    workloads: &[WorkloadId],
) {
    for &wl in workloads {
        let baseline = run_with_workers(wl, fidelity, mk_policy, 1, window_accesses, 7);
        assert!(
            baseline.windows.iter().any(|w| w.migrations > 0),
            "{}: the run must actually migrate for the test to mean anything",
            wl.name()
        );
        for &workers in &WORKER_COUNTS[1..] {
            let other = run_with_workers(wl, fidelity, mk_policy, workers, window_accesses, 7);
            let label = format!("{} workers=1 vs {}", wl.name(), workers);
            assert_identical(&baseline, &other, &label);
        }
    }
}

#[test]
fn waterfall_identical_across_worker_counts_every_workload() {
    assert_workers_invariant(
        Fidelity::Modeled,
        &|| Box::new(WaterfallModel::new(25.0)),
        20_000,
        &WorkloadId::ALL,
    );
}

#[test]
fn analytical_identical_across_worker_counts_every_workload() {
    assert_workers_invariant(
        Fidelity::Modeled,
        &|| Box::new(AnalyticalModel::am_tco()),
        20_000,
        &WorkloadId::ALL,
    );
    // The remote solver site charges a modeled round trip, never a host
    // timing, so it is worker-invariant too.
    assert_workers_invariant(
        Fidelity::Modeled,
        &|| Box::new(AnalyticalModel::am_tco().remote()),
        20_000,
        &WorkloadId::ALL,
    );
}

#[test]
fn real_fidelity_identical_across_worker_counts() {
    // Real codecs and real pools: phase A does real compression work on
    // the worker threads, and phase B applies its output. The aggressive
    // knob guarantees multi-destination plans (several batches).
    assert_workers_invariant(
        Fidelity::Real,
        &|| Box::new(AnalyticalModel::new(0.05)),
        8_000,
        &[WorkloadId::MemcachedYcsb, WorkloadId::Bfs],
    );
}

#[test]
fn fault_injection_identical_across_worker_counts() {
    // With a fault plan active at every site, a fixed --fault-seed must
    // still give bit-identical reports *and fault counters* at any
    // worker count: sim-level draws happen on serial paths keyed by a
    // nonce, and zswap/zpool draws are keyed by per-tier store counters
    // that only the serial phase B advances.
    let plan = FaultPlan::uniform(99, 0.05);
    for (fidelity, accesses) in [(Fidelity::Modeled, 20_000), (Fidelity::Real, 8_000)] {
        for &wl in &[WorkloadId::MemcachedYcsb, WorkloadId::Bfs] {
            let mk: &dyn Fn() -> Box<dyn PlacementPolicy> =
                &|| Box::new(AnalyticalModel::new(0.05));
            let base = run_with_workers_plan(wl, fidelity, mk, 1, accesses, 7, Some(plan.clone()));
            assert!(
                base.faults.total() > 0,
                "{} {fidelity:?}: the plan must actually inject for the test to mean anything",
                wl.name()
            );
            for &workers in &WORKER_COUNTS[1..] {
                let other = run_with_workers_plan(
                    wl,
                    fidelity,
                    mk,
                    workers,
                    accesses,
                    7,
                    Some(plan.clone()),
                );
                let label = format!("faulty {} {fidelity:?} workers=1 vs {workers}", wl.name());
                assert_identical(&base, &other, &label);
            }
        }
    }
}

#[test]
fn plan_cache_modes_byte_identical_reports_and_metrics() {
    // The plan cache's determinism bar: `--plan-cache=warm` (and `reuse`)
    // must produce byte-identical RunReports AND metrics artifacts to
    // `--plan-cache=off`, at 1 and 8 workers, with fault-degraded windows
    // in the mix. The cache key is pure hotness state, so the mode and the
    // worker count may only change host wall-clock, never any artifact.
    let plan = FaultPlan::uniform(42, 0.1);
    let run = |mode: PlanCacheMode, workers: usize| {
        let mut system = standard_system(WorkloadId::MemcachedYcsb, Fidelity::Modeled, 7);
        let mut policy = AnalyticalModel::am_tco();
        let cfg = DaemonConfig {
            windows: 6,
            window_accesses: 20_000,
            migration_workers: workers,
            fault_plan: Some(plan.clone()),
            obs: ObsConfig::enabled(),
            plan_cache: mode,
            ..DaemonConfig::default()
        };
        run_daemon(&mut system, &mut policy, &cfg)
    };
    let base = run(PlanCacheMode::Off, 1);
    let base_snap = base.obs.as_ref().expect("obs enabled").snapshot_json();
    assert!(
        base.faults.total() > 0,
        "the plan must actually inject for the test to mean anything"
    );
    assert!(
        base_snap.contains("solver.warm_hits"),
        "warm-hit counter present even with the cache off (decision is mode-independent)"
    );
    for workers in [1usize, 8] {
        for mode in [
            PlanCacheMode::Off,
            PlanCacheMode::Warm,
            PlanCacheMode::Reuse,
        ] {
            let other = run(mode, workers);
            let label = format!("plan-cache={} workers={workers}", mode.name());
            assert_identical(&base, &other, &label);
            let snap = other.obs.as_ref().expect("obs enabled").snapshot_json();
            assert_eq!(base_snap, snap, "{label}: metrics artifact diverged");
        }
    }
}

#[test]
fn execute_plan_report_is_worker_invariant() {
    // Below the daemon: drive execute_plan directly with a fan-out plan
    // and check the *report* (moved/rejected/costs/stall) is identical,
    // while the workers field faithfully records the configuration.
    use tierscape::sim::{Placement, PlannedMove};

    let mk = || standard_system(WorkloadId::MemcachedYcsb, Fidelity::Real, 21);
    let plan: Vec<PlannedMove> = (0..8)
        .map(|r| PlannedMove {
            region: r,
            dest: match r % 3 {
                0 => Placement::Compressed(0),
                1 => Placement::Compressed(1),
                _ => Placement::ByteTier(0),
            },
        })
        .collect();

    let mut base_sys = mk();
    let base = base_sys.execute_plan(&plan, 1);
    assert!(base.moved > 0, "plan must move pages");
    assert!(base.batches >= 2, "fan-out plan must form several batches");
    for workers in [2, 4, 8] {
        let mut sys = mk();
        let rep = sys.execute_plan(&plan, workers);
        assert_eq!(rep.workers, workers as u32, "workers field records config");
        assert_eq!(rep.moved, base.moved, "workers={workers}: moved");
        assert_eq!(rep.rejected, base.rejected, "workers={workers}: rejected");
        assert_eq!(rep.batches, base.batches, "workers={workers}: batches");
        assert_eq!(
            rep.regions_moved, base.regions_moved,
            "workers={workers}: regions_moved"
        );
        assert_eq!(
            rep.cost_ns.to_bits(),
            base.cost_ns.to_bits(),
            "workers={workers}: cost {} vs {}",
            rep.cost_ns,
            base.cost_ns
        );
        assert_eq!(
            rep.stall_ns.to_bits(),
            base.stall_ns.to_bits(),
            "workers={workers}: stall"
        );
        // And the systems themselves ended up in the same state.
        assert_eq!(
            sys.placement_counts(),
            base_sys.placement_counts(),
            "workers={workers}: placements"
        );
        assert_eq!(
            sys.current_tco().to_bits(),
            base_sys.current_tco().to_bits(),
            "workers={workers}: tco"
        );
        assert_eq!(
            sys.daemon_ns().to_bits(),
            base_sys.daemon_ns().to_bits(),
            "workers={workers}: daemon_ns"
        );
    }
}

/// Assert the engine-driven and the serially driven system hold the same
/// state: the page table, placement counts, swap device, and every
/// compressed tier's statistics (rejections included) and pool. Returns
/// the engine's cumulative pool-limit writebacks.
fn assert_same_state(engine: &TieredSystem, serial: &TieredSystem, label: &str) -> u64 {
    for p in 0..engine.total_pages() {
        assert_eq!(
            engine.page_placement(p),
            serial.page_placement(p),
            "{label}: page {p}"
        );
    }
    assert_eq!(
        engine.placement_counts(),
        serial.placement_counts(),
        "{label}"
    );
    assert_eq!(engine.swapped_pages(), serial.swapped_pages(), "{label}");
    let mut writebacks = 0;
    for t in 0..engine.config().compressed_tiers.len() {
        let (a, b) = (engine.tier_stats(t), serial.tier_stats(t));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}: tier {t}");
        assert_eq!(
            engine.tier_pool_bytes(t),
            serial.tier_pool_bytes(t),
            "{label}: tier {t} pool"
        );
        writebacks += a.writebacks;
    }
    writebacks
}

/// Run `plan` through the engine on `engine` and region by region on
/// `serial`; returns the pages each rejected.
fn apply_both(
    engine: &mut TieredSystem,
    serial: &mut TieredSystem,
    plan: &[tierscape::sim::PlannedMove],
) -> (u64, u64) {
    let rejected = engine.execute_plan(plan, 4).rejected;
    let serial_rejected = plan
        .iter()
        .map(|mv| serial.migrate_region(mv.region, mv.dest).rejected)
        .sum();
    (rejected, serial_rejected)
}

#[test]
fn execute_plan_applies_what_the_serial_path_applies() {
    // One migration path: execute_plan only precomputes the pure work of
    // its batched pages, then applies every page through the serial path
    // that migrate_region walks. So after any plan — compressed-to-
    // compressed recompression, moves out to byte tiers, pool-limit
    // writeback, swapped sources, a region listed twice — the page table,
    // the tier statistics, the pools and the swap device match a
    // per-region walk of the same plan. Only the charged costs differ:
    // the engine charges one logical worker per destination.
    use tierscape::sim::{Placement, PlannedMove};

    for spectrum in [false, true] {
        let mk = || {
            let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 21);
            let rss = w.rss_bytes();
            let cfg = if spectrum {
                SimConfig::spectrum(rss, Fidelity::Real, 21)
            } else {
                SimConfig::standard_mix(rss, Fidelity::Real, 21)
            };
            let cfg = cfg.with_pool_limit(rss / 16);
            TieredSystem::new(cfg, w).expect("valid configuration")
        };
        let (mut engine, mut serial) = (mk(), mk());
        let placements = engine.placements();
        let regions = engine.total_regions();
        let plans: Vec<Vec<PlannedMove>> = (0..4u64)
            .map(|round| {
                let mut plan: Vec<PlannedMove> = (0..regions)
                    .map(|r| PlannedMove {
                        region: r,
                        dest: placements[((r * 7 + round * 3) % placements.len() as u64) as usize],
                    })
                    .collect();
                plan.push(PlannedMove {
                    region: round % regions,
                    dest: Placement::Compressed(0),
                });
                plan
            })
            .collect();
        let mut writebacks = 0;
        for (round, plan) in plans.iter().enumerate() {
            let label = format!("spectrum={spectrum} round {round}");
            let (rejected, serial_rejected) = apply_both(&mut engine, &mut serial, plan);
            assert_eq!(rejected, serial_rejected, "{label}: rejected pages");
            writebacks = assert_same_state(&engine, &serial, &label);
        }
        assert!(
            writebacks > 0,
            "spectrum={spectrum}: no pool-limit writeback"
        );
    }
}

#[test]
fn execute_plan_rejects_what_the_serial_path_rejects() {
    // The engine remembers which codec rejected which page and does not
    // run that codec on the page again; the serial path runs it every
    // time. Plans that send the same regions to the same tier round after
    // round must still reject, count and place exactly what a per-region
    // walk does — for a compressed source (pagerank, C4 lz4 -> C7 lzo) and
    // for a byte source (memcached-ycsb, NVMM -> CT-1 lzo). A last round
    // offers the rejected pages a tier with another codec (C12 deflate,
    // CT-2 zstd), which must not inherit the lzo rejections.
    use tierscape::sim::{Placement, PlannedMove};

    let cases = [
        (
            WorkloadId::PageRank,
            true,
            [2, 3, 4].map(Placement::Compressed),
        ),
        (
            WorkloadId::MemcachedYcsb,
            false,
            [
                Placement::ByteTier(0),
                Placement::Compressed(0),
                Placement::Compressed(1),
            ],
        ),
    ];
    for (wl, spectrum, [src, dst, other]) in cases {
        let mk = || {
            let w = wl.build(Scale::TEST, 21);
            let rss = w.rss_bytes();
            let cfg = if spectrum {
                SimConfig::spectrum(rss, Fidelity::Real, 21)
            } else {
                SimConfig::standard_mix(rss, Fidelity::Real, 21)
            };
            TieredSystem::new(cfg, w).expect("valid configuration")
        };
        let (mut engine, mut serial) = (mk(), mk());
        let all = |dest| -> Vec<PlannedMove> {
            (0..engine.total_regions())
                .map(|region| PlannedMove { region, dest })
                .collect()
        };
        // Onto the source tier, then three times to the destination with a
        // round back to the source between: rounds 2 and 4 retry pages an
        // earlier round rejected.
        let plans = [all(src), all(dst), all(dst), all(src), all(dst), all(other)];
        for (round, plan) in plans.iter().enumerate() {
            let label = format!("{} round {round}", wl.name());
            let (rejected, serial_rejected) = apply_both(&mut engine, &mut serial, plan);
            assert_eq!(rejected, serial_rejected, "{label}: rejected pages");
            assert_same_state(&engine, &serial, &label);
            if round == 2 || round == 4 {
                assert!(rejected > 0, "{label}: the retry rejected nothing");
            }
        }
    }
}

#[test]
fn execute_plan_reuses_what_the_serial_path_recompresses() {
    // A page that faults out of CT-1 and is demoted back within the same
    // window goes into the pool as the bytes its fault took: the engine
    // runs neither fill_page nor lzo on it, while migrate_page compresses
    // it afresh. A page that faulted out of CT-2 (zstd) must not bring its
    // bytes into CT-1 (lzo). Both systems must leave the same placements,
    // compressed lengths, tier and pool statistics and page contents, at
    // 1 and at 2 workers.
    use tierscape::sim::{Placement, PlannedMove};

    for workers in [1, 2] {
        let label = format!("{workers} workers");
        let (mut engine, mut serial) = (
            standard_system(WorkloadId::MemcachedYcsb, Fidelity::Real, 21),
            standard_system(WorkloadId::MemcachedYcsb, Fidelity::Real, 21),
        );
        engine.install_obs();
        let regions = engine.total_regions();
        let plan = |dest: fn(u64) -> usize| -> Vec<PlannedMove> {
            (0..regions)
                .map(|region| PlannedMove {
                    region,
                    dest: Placement::Compressed(dest(region)),
                })
                .collect()
        };
        // Even regions into CT-1 and odd ones into CT-2; then every third
        // page faults home and every region is planned into CT-1, twice.
        let plans = [plan(|r| (r % 2) as usize), plan(|_| 0), plan(|_| 0)];
        for (round, plan) in plans.iter().enumerate() {
            engine.execute_plan(plan, workers);
            for mv in plan {
                serial.migrate_region(mv.region, mv.dest);
            }
            if round + 1 == plans.len() {
                break;
            }
            for p in (0..engine.total_pages()).step_by(3) {
                let addr = p * tierscape::mem::PAGE_SIZE as u64;
                engine.access(addr, false);
                serial.access(addr, false);
            }
        }

        let reused: f64 = engine
            .obs()
            .expect("registry installed")
            .spans()
            .iter()
            .filter(|s| s.name == "migrate.batch")
            .flat_map(|s| s.fields.iter().filter(|(k, _)| k == "reused"))
            .map(|&(_, n)| n)
            .sum();
        assert!(reused > 0.0, "{label}: no page reused its bytes");
        assert_same_state(&engine, &serial, &label);
        let (ze, zs) = (engine.zswap().expect("Real"), serial.zswap().expect("Real"));
        for (t, (a, b)) in ze.tiers().iter().zip(zs.tiers()).enumerate() {
            assert_eq!(a.stats(), b.stats(), "{label}: tier {t}");
            assert_eq!(a.pool_stats(), b.pool_stats(), "{label}: tier {t} pool");
        }
        let mut content = vec![0u8; tierscape::mem::PAGE_SIZE];
        for p in 0..engine.total_pages() {
            let (a, b) = (engine.stored_page(p), serial.stored_page(p));
            assert_eq!(a.is_some(), b.is_some(), "{label}: page {p}");
            let (Some(a), Some(b), Placement::Compressed(t)) = (a, b, engine.page_placement(p))
            else {
                continue;
            };
            assert_eq!(a.compressed_len, b.compressed_len, "{label}: page {p}");
            let loaded = ze.tiers()[t].decompress(a).expect("live page");
            assert_eq!(
                loaded,
                zs.tiers()[t].decompress(b).expect("live page"),
                "{label}: page {p}"
            );
            engine.workload().fill_page(p, &mut content);
            assert_eq!(loaded, content, "{label}: page {p}");
        }
    }
}
