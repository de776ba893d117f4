//! `tierscape-cli` — run TierScape experiments from the command line.
//!
//! ```text
//! tierscape-cli list
//! tierscape-cli run --workload memcached-ycsb --policy am --alpha 0.2
//! tierscape-cli run --workload pagerank --policy waterfall --threshold 25
//! tierscape-cli advise --workload xsbench --tiers 3
//! tierscape-cli characterize
//! ```

use tierscape::core::prelude::*;
use tierscape::sim::{Calibration, Fidelity, SimConfig, TieredSystem};
use tierscape::telemetry::{Profiler, TelemetryConfig};
use tierscape::workloads::{Scale, WorkloadId};

fn usage() -> ! {
    eprintln!(
        "tierscape-cli — TierScape experiments\n\n\
         USAGE:\n\
         \x20 tierscape-cli list\n\
         \x20 tierscape-cli run [--workload NAME] [--policy am|waterfall|hemem|gswap|tmo]\n\
         \x20                   [--alpha A] [--threshold PCT] [--setup standard|spectrum]\n\
         \x20                   [--windows N] [--accesses N] [--scale-div D] [--seed S]\n\
         \x20                   [--content-aware] [--prefetch] [--real]\n\
         \x20                   [--migration-workers N]  (0 = all host cores; results\n\
         \x20                    are bit-identical for every worker count)\n\
         \x20                   [--fault-rate R] [--fault-seed S] [--fault-plan FILE]\n\
         \x20                    (R > 0 injects deterministic faults at every site;\n\
         \x20                     seed defaults to --seed; FILE is a JSON FaultPlan)\n\
         \x20                   [--plan-cache off|warm|reuse]  (incremental solver;\n\
         \x20                    default warm; every mode is byte-identical)\n\
         \x20                   [--metrics-out FILE]   (deterministic metrics JSON)\n\
         \x20                   [--trace-out FILE]     (span trace JSONL, wall-clock)\n\
         \x20                   [--metrics-summary]    (human-readable metrics table)\n\
         \x20 tierscape-cli advise [--workload NAME] [--tiers K]\n\
         \x20 tierscape-cli characterize\n"
    );
    std::process::exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The argument after `name`, or `None` when the flag is absent. A
    /// flag given twice, or with no value after it (last, or followed by
    /// another flag), ends the run with exit code 2.
    fn value(&self, name: &str) -> Option<&str> {
        let mut at = (0..self.0.len()).filter(|&i| self.0[i] == name);
        let i = at.next()?;
        if at.next().is_some() {
            eprintln!("{name} given more than once");
            std::process::exit(2);
        }
        match self.0.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            }
        }
    }

    /// The value of `name`, or `default` when the flag is absent. A value
    /// that does not parse ends the run with exit code 2.
    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let Some(v) = self.value(name) else {
            return default;
        };
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value '{v}' for {name}");
            std::process::exit(2);
        })
    }
}

fn workload_of(args: &Args) -> WorkloadId {
    let name = args.value("--workload").unwrap_or("memcached-ycsb");
    WorkloadId::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload '{name}' (try `tierscape-cli list`)");
            std::process::exit(2);
        })
}

fn cmd_list() {
    println!("{:<22} {:>9} {:<}", "workload", "paper RSS", "description");
    for id in WorkloadId::ALL {
        println!(
            "{:<22} {:>6} GB  {}",
            id.name(),
            id.paper_rss_gb(),
            id.description()
        );
    }
    println!("\npolicies: am (--alpha), waterfall|hemem|gswap|tmo (--threshold)");
    println!("setups:   standard (DRAM+NVMM+CT-1+CT-2), spectrum (DRAM+C1,C2,C4,C7,C12)");
}

fn cmd_run(args: &Args) {
    let id = workload_of(args);
    let scale_div: f64 = args.parse("--scale-div", 1024.0);
    let seed: u64 = args.parse("--seed", 42);
    let windows: u64 = args.parse("--windows", 12);
    let accesses: u64 = args.parse("--accesses", 150_000);
    let fidelity = if args.flag("--real") {
        Fidelity::Real
    } else {
        Fidelity::Modeled
    };

    let workload = id.build(Scale(1.0 / scale_div), seed);
    let rss = workload.rss_bytes();
    let setup = args.value("--setup").unwrap_or("standard");
    let cfg = match setup {
        "spectrum" => SimConfig::spectrum(rss, fidelity, seed),
        "standard" => SimConfig::standard_mix(rss, fidelity, seed),
        other => {
            eprintln!("unknown setup '{other}'");
            std::process::exit(2);
        }
    }
    .with_compute_ns(args.parse("--compute-ns", 200.0));
    let mut system = TieredSystem::new(cfg, workload).expect("valid configuration");

    let alpha: f64 = args.parse("--alpha", 0.2);
    let threshold: f64 = args.parse("--threshold", 25.0);
    let base: Box<dyn PlacementPolicy> = match args.value("--policy").unwrap_or("am") {
        "am" => {
            let mut m = AnalyticalModel::new(alpha);
            if args.flag("--content-aware") {
                m = m.content_aware();
            }
            Box::new(m)
        }
        "waterfall" => Box::new(WaterfallModel::new(threshold)),
        "hemem" => Box::new(ThresholdPolicy::hemem(threshold)),
        "gswap" => Box::new(ThresholdPolicy::gswap(threshold)),
        "tmo" => Box::new(ThresholdPolicy::tmo(threshold, 1)),
        other => {
            eprintln!("unknown policy '{other}'");
            std::process::exit(2);
        }
    };
    let mut policy: Box<dyn PlacementPolicy> = if args.flag("--prefetch") {
        Box::new(PrefetchingPolicy::new(base))
    } else {
        base
    };

    let workers: usize = args.parse("--migration-workers", 0);
    let mut dcfg = DaemonConfig {
        windows,
        window_accesses: accesses,
        ..DaemonConfig::default()
    };
    if workers > 0 {
        dcfg.migration_workers = workers;
    }
    let fault_rate: f64 = args.parse("--fault-rate", 0.0);
    let fault_seed: u64 = args.parse("--fault-seed", seed);
    if let Some(path) = args.value("--fault-plan") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read fault plan '{path}': {e}");
            std::process::exit(2);
        });
        dcfg.fault_plan = Some(FaultPlan::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }));
    } else if fault_rate > 0.0 {
        dcfg.fault_plan = Some(FaultPlan::uniform(fault_seed, fault_rate));
    }
    if let Some(mode) = args.value("--plan-cache") {
        dcfg.plan_cache = PlanCacheMode::parse(mode).unwrap_or_else(|| {
            eprintln!("unknown --plan-cache '{mode}' (expected off, warm or reuse)");
            std::process::exit(2);
        });
    }
    let metrics_out = args.value("--metrics-out").map(String::from);
    let trace_out = args.value("--trace-out").map(String::from);
    let metrics_summary = args.flag("--metrics-summary");
    if metrics_out.is_some() || trace_out.is_some() || metrics_summary {
        dcfg.obs = ObsConfig::enabled();
    }
    let report = run_daemon(&mut system, policy.as_mut(), &dcfg);

    println!(
        "policy: {}  workload: {} ({} MiB RSS)",
        report.policy,
        id.name(),
        rss >> 20
    );
    println!("\nwindow  placement (pages per tier)                 tco");
    for w in &report.windows {
        let counts: Vec<String> = w.actual.iter().map(|c| format!("{c:>6}")).collect();
        println!("{:>6}  {}  {:.4}", w.window, counts.join(" "), w.tco_now);
    }
    println!(
        "\nTCO savings {:.1}%  slowdown {:.1}%  p95 {:.2}us  daemon tax {:.2}%",
        report.tco_savings() * 100.0,
        report.slowdown() * 100.0,
        report.perf.p95_ns / 1000.0,
        report.tax_fraction() * 100.0
    );
    if dcfg.fault_plan.is_some() {
        println!(
            "injected faults: {} (total {})",
            report.faults,
            report.faults.total()
        );
    }
    if let Some(obs) = &report.obs {
        if let Some(path) = &metrics_out {
            if let Err(e) = std::fs::write(path, obs.snapshot_json()) {
                eprintln!("cannot write metrics to '{path}': {e}");
                std::process::exit(1);
            }
            println!("metrics written to {path}");
        }
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, obs.trace_jsonl()) {
                eprintln!("cannot write trace to '{path}': {e}");
                std::process::exit(1);
            }
            println!("trace written to {path}");
        }
        if metrics_summary {
            println!("\n{}", obs.summary());
        }
    }
}

fn cmd_advise(args: &Args) {
    let id = workload_of(args);
    let k: usize = args.parse("--tiers", 3);
    let seed: u64 = args.parse("--seed", 42);
    let workload = id.build(Scale(1.0 / args.parse("--scale-div", 1024.0)), seed);
    let rss = workload.rss_bytes();
    let mut system = TieredSystem::new(
        SimConfig::standard_mix(rss, Fidelity::Modeled, seed),
        workload,
    )
    .expect("valid configuration");
    let mut profiler = Profiler::new(TelemetryConfig {
        sample_period: 29,
        ..TelemetryConfig::default()
    });
    for _ in 0..args.parse("--accesses", 150_000u64) {
        let (a, _) = system.step();
        profiler.record(a.addr, a.is_store);
    }
    let snapshot = profiler.end_window();
    let profile = WorkloadProfile::from_system(&system, &snapshot);
    let calib = Calibration::build(seed);
    let sel = TierSelector {
        max_tiers: k,
        lambda: 1e-5,
        ..TierSelector::default()
    };
    let choice = sel.select(&profile, &calib);
    println!("advised tier set for {} (k <= {k}):", id.name());
    for t in &choice.tiers {
        println!(
            "  {:<10} {:<9} {:<5}  decomp {:>6.1} us  nominal ratio {:.2}",
            t.algorithm.name(),
            t.pool.name(),
            t.media.name(),
            t.decompress_latency_ns() / 1000.0,
            t.nominal_ratio()
        );
    }
    println!("expected TCO vs all-DRAM: {:.2}", choice.expected_tco_ratio);
}

fn cmd_characterize() {
    use tierscape::workloads::PageClass;
    use tierscape::zswap::TierConfig;
    println!(
        "{:<6} {:<22} {:>10} {:>8}",
        "tier", "config", "decomp_us", "ratio"
    );
    for cfg in TierConfig::characterized_12() {
        println!(
            "{:<6} {:<22} {:>10.1} {:>8.2}",
            cfg.label,
            format!(
                "{}/{}/{}",
                cfg.algorithm.name(),
                cfg.pool.name(),
                cfg.media.name()
            ),
            cfg.decompress_latency_ns() / 1000.0,
            cfg.nominal_ratio()
        );
    }
    let calib = Calibration::build(42);
    println!("\ncalibrated ratios (zstd):");
    for class in PageClass::ALL {
        let s = calib.stats(tierscape::compress::Algorithm::Zstd, class);
        println!(
            "  {class:?}: mean {:.2}, reject rate {:.2}",
            s.mean, s.reject_rate
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().map(|s| s.as_str()) else {
        usage()
    };
    let args = Args(argv[1..].to_vec());
    match cmd {
        "list" => cmd_list(),
        "run" => cmd_run(&args),
        "advise" => cmd_advise(&args),
        "characterize" => cmd_characterize(),
        _ => usage(),
    }
}
