//! Ablation benchmarks for the design choices DESIGN.md §5 calls out:
//!
//! * same-algorithm migration fast path vs the naive decompress+recompress
//!   path (§7.1);
//! * MCKP exact-DP vs LP-hull greedy solution quality/latency trade-off;
//! * telemetry region granularity (4 KiB pages vs 2 MiB regions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use ts_compress::Algorithm;
use ts_mem::{Machine, MediaKind};
use ts_solver::mckp::{MckpItem, MckpProblem};
use ts_telemetry::{Profiler, TelemetryConfig};
use ts_workloads::PageClass;
use ts_zpool::PoolKind;
use ts_zswap::{TierConfig, ZswapSubsystem};

fn machine() -> Arc<Machine> {
    Arc::new(
        Machine::builder()
            .node(MediaKind::Dram, 64 << 20)
            .node(MediaKind::Nvmm, 64 << 20)
            .build(),
    )
}

// Migration fast path (same algorithm) vs slow path (different algorithm).

/// Short measurement windows: these benches validate orderings, not
/// nanosecond-precision regressions, and the full suite must stay fast.
fn quick_config() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400))
        .sample_size(10)
}

fn bench_migration_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("migration_path");
    g.sample_size(15);
    let mut page = vec![0u8; 4096];
    PageClass::Text.fill(3, 5, &mut page);

    g.bench_function("fast_same_algo", |b| {
        let mut z = ZswapSubsystem::new(machine());
        let a = z
            .create_tier(TierConfig::new(
                Algorithm::Lz4,
                PoolKind::Zbud,
                MediaKind::Dram,
            ))
            .unwrap();
        let t = z
            .create_tier(TierConfig::new(
                Algorithm::Lz4,
                PoolKind::Zsmalloc,
                MediaKind::Nvmm,
            ))
            .unwrap();
        b.iter(|| {
            let s = z.store(a, &page).expect("compressible");
            let out = z.migrate(a, t, s, None).expect("fast path");
            assert!(out.fast_path);
            z.invalidate(t, out.stored).expect("live");
            black_box(out.cost_ns)
        })
    });

    g.bench_function("slow_recompress", |b| {
        let mut z = ZswapSubsystem::new(machine());
        let a = z
            .create_tier(TierConfig::new(
                Algorithm::Lz4,
                PoolKind::Zbud,
                MediaKind::Dram,
            ))
            .unwrap();
        let t = z
            .create_tier(TierConfig::new(
                Algorithm::Zstd,
                PoolKind::Zsmalloc,
                MediaKind::Nvmm,
            ))
            .unwrap();
        b.iter(|| {
            let s = z.store(a, &page).expect("compressible");
            let out = z.migrate(a, t, s, None).expect("slow path");
            assert!(!out.fast_path);
            z.invalidate(t, out.stored).expect("live");
            black_box(out.cost_ns)
        })
    });
    g.finish();
}

/// Solver quality/latency: greedy vs exact on the same instance.
fn bench_solver_quality(c: &mut Criterion) {
    let groups: Vec<Vec<MckpItem>> = (0..512)
        .map(|r| {
            let h = 1.0 + 5000.0 / (1.0 + r as f64);
            (0..6)
                .map(|t| {
                    MckpItem::new(
                        h * [0.0, 300.0, 2000.0, 4000.0, 5000.0, 12000.0][t],
                        [12.0, 4.0, 6.0, 2.0, 5.5, 1.2][t],
                    )
                })
                .collect()
        })
        .collect();
    let p = MckpProblem {
        groups,
        budget: 2000.0,
    };
    // Report the quality gap once.
    let ge = p.solve_greedy().unwrap();
    let ex = p.solve_exact_dp(4096).unwrap();
    println!(
        "solver quality: greedy perf {:.1} vs exact {:.1} (gap {:.2}%)",
        ge.perf_cost,
        ex.perf_cost,
        (ge.perf_cost / ex.perf_cost - 1.0) * 100.0
    );
    let mut g = c.benchmark_group("solver_quality");
    g.sample_size(10);
    g.bench_function("greedy_512x6", |b| {
        b.iter(|| black_box(p.solve_greedy().unwrap()))
    });
    g.bench_function("exact_512x6", |b| {
        b.iter(|| black_box(p.solve_exact_dp(4096).unwrap()))
    });
    g.finish();
}

/// Region granularity: telemetry cost at 4 KiB vs 2 MiB aggregation.
fn bench_region_granularity(c: &mut Criterion) {
    let mut g = c.benchmark_group("region_granularity");
    g.sample_size(15);
    for (label, shift) in [("4k_pages", 12u32), ("64k", 16), ("2m_regions", 21)] {
        let cfg = TelemetryConfig {
            sample_period: 1,
            region_shift: shift,
            ..TelemetryConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter_batched(
                || Profiler::new(*cfg),
                |mut p| {
                    let mut addr = 0u64;
                    for _ in 0..20_000 {
                        addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1) % (1 << 32);
                        p.record(addr, false);
                    }
                    black_box(p.end_window())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets =
    bench_migration_paths,
    bench_solver_quality,
    bench_region_granularity

}
criterion_main!(benches);
