//! The benchmark's workloads: fixed daemon-window schedules at a stated
//! input size, built and run through the library's public API.

use std::time::Instant;

use tierscape::core::prelude::*;
use tierscape::sim::{Fidelity, SimConfig, TieredSystem};
use tierscape::workloads::{Scale, Workload, WorkloadId};

/// Which tier set the simulated machine has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setup {
    /// DRAM + NVMM + CT-1 + CT-2 (paper §8.1).
    Standard,
    /// DRAM + C1, C2, C4, C7, C12 (paper §8.3).
    Spectrum,
}

/// The placement policy the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Analytical model with the TCO/performance knob α.
    Am { alpha: f64 },
    /// Waterfall model with a hotness threshold in percent.
    Waterfall { threshold_pct: f64 },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    pub name: &'static str,
    pub workload: WorkloadId,
    pub setup: Setup,
    pub policy: Policy,
    pub fidelity: Fidelity,
    pub scale_div: f64,
    pub windows: u64,
    pub window_accesses: u64,
}

/// Application compute per access, as the CLI's default `--compute-ns`.
pub const COMPUTE_NS_PER_ACCESS: f64 = 200.0;

pub const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "kv-modeled",
        workload: WorkloadId::MemcachedYcsb,
        setup: Setup::Standard,
        policy: Policy::Am { alpha: 0.2 },
        fidelity: Fidelity::Modeled,
        scale_div: 16.0,
        windows: 24,
        window_accesses: 500_000,
    },
    Scenario {
        name: "kv-real",
        workload: WorkloadId::MemcachedYcsb,
        setup: Setup::Standard,
        // Not AM α=0.2 as kv-modeled: in Real fidelity that policy moves
        // the whole cold set in and out of CT-2 on a 2- or 3-window cycle
        // chosen by the seed, so host time and outcome swing ±40% between
        // seeds. Waterfall ages cold pages DRAM→NVMM→CT-1 steadily.
        policy: Policy::Waterfall {
            threshold_pct: 25.0,
        },
        fidelity: Fidelity::Real,
        scale_div: 256.0,
        windows: 6,
        window_accesses: 200_000,
    },
    Scenario {
        name: "graph-spectrum-real",
        workload: WorkloadId::PageRank,
        setup: Setup::Spectrum,
        policy: Policy::Waterfall {
            threshold_pct: 25.0,
        },
        fidelity: Fidelity::Real,
        scale_div: 512.0,
        windows: 12,
        window_accesses: 200_000,
    },
];

/// A freshly set-up system and policy, with the host time each part took.
pub struct Built {
    pub system: TieredSystem,
    pub policy: Box<dyn PlacementPolicy>,
    /// `WorkloadId::build`.
    pub build_s: f64,
    /// `TieredSystem::new` (includes `Calibration::build`).
    pub new_s: f64,
    /// Policy construction.
    pub policy_s: f64,
}

impl Built {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.new_s + self.policy_s
    }
}

impl Scenario {
    pub fn by_name(name: &str) -> Option<Scenario> {
        SCENARIOS.into_iter().find(|s| s.name == name)
    }

    /// The same scenario in another fidelity (the Modeled twin of a Real
    /// workload, for the fidelity gap).
    pub fn with_fidelity(self, fidelity: Fidelity) -> Scenario {
        Scenario { fidelity, ..self }
    }

    /// A scaled-down copy that runs in well under a second.
    #[cfg(test)]
    pub fn tiny(self) -> Scenario {
        Scenario {
            scale_div: 4096.0,
            windows: 3,
            window_accesses: 20_000,
            ..self
        }
    }

    pub fn build_workload(&self, seed: u64) -> Box<dyn Workload> {
        self.workload.build(Scale(1.0 / self.scale_div), seed)
    }

    pub fn sim_config(&self, rss: u64, seed: u64) -> SimConfig {
        match self.setup {
            Setup::Standard => SimConfig::standard_mix(rss, self.fidelity, seed),
            Setup::Spectrum => SimConfig::spectrum(rss, self.fidelity, seed),
        }
        .with_compute_ns(COMPUTE_NS_PER_ACCESS)
    }

    pub fn policy(&self) -> Box<dyn PlacementPolicy> {
        match self.policy {
            Policy::Am { alpha } => Box::new(AnalyticalModel::new(alpha)),
            Policy::Waterfall { threshold_pct } => Box::new(WaterfallModel::new(threshold_pct)),
        }
    }

    /// Daemon settings: the library defaults plus this schedule and a
    /// pinned migration-worker count.
    pub fn daemon_config(&self, workers: usize) -> DaemonConfig {
        DaemonConfig {
            windows: self.windows,
            window_accesses: self.window_accesses,
            migration_workers: workers,
            ..DaemonConfig::default()
        }
    }

    /// Build workload, system and policy, timing each.
    pub fn setup(&self, seed: u64) -> Result<Built, String> {
        let t = Instant::now();
        let workload = self.build_workload(seed);
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rss = workload.rss_bytes();
        let system = TieredSystem::new(self.sim_config(rss, seed), workload)
            .map_err(|e| format!("{}: TieredSystem::new: {e:?}", self.name))?;
        let new_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let policy = self.policy();
        let policy_s = t.elapsed().as_secs_f64();
        Ok(Built {
            system,
            policy,
            build_s,
            new_s,
            policy_s,
        })
    }

    /// Every parameter of the scenario, as a JSON object.
    pub fn params_json(&self) -> String {
        let (setup, tiers) = match self.setup {
            Setup::Standard => ("standard", "DRAM+NVMM+CT-1+CT-2"),
            Setup::Spectrum => ("spectrum", "DRAM+C1+C2+C4+C7+C12"),
        };
        let policy = match self.policy {
            Policy::Am { alpha } => format!("\"am\", \"alpha\": {alpha}"),
            Policy::Waterfall { threshold_pct } => {
                format!("\"waterfall\", \"threshold_pct\": {threshold_pct}")
            }
        };
        let fidelity = match self.fidelity {
            Fidelity::Real => "real",
            Fidelity::Modeled => "modeled",
        };
        let d = DaemonConfig::default();
        format!(
            "{{\"name\": \"{}\", \"workload\": \"{}\", \"setup\": \"{setup}\", \"tiers\": \"{tiers}\", \
             \"policy\": {policy}, \"fidelity\": \"{fidelity}\", \"scale_div\": {}, \"windows\": {}, \
             \"window_accesses\": {}, \"compute_ns_per_access\": {COMPUTE_NS_PER_ACCESS}, \
             \"sample_period\": {}, \"plan_cache\": \"{}\"}}",
            self.name,
            self.workload.name(),
            self.scale_div,
            self.windows,
            self.window_accesses,
            d.telemetry.sample_period,
            d.plan_cache.name(),
        )
    }
}

/// The modeled result of one run: what the correctness checks compare.
/// Every field is deterministic for a fixed scenario and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub placement: Vec<u64>,
    pub tco_now: f64,
    pub tco_savings: f64,
    pub slowdown: f64,
    pub tax: f64,
    pub daemon_ns: f64,
}

impl Outcome {
    pub fn of_report(r: &RunReport) -> Outcome {
        Outcome {
            placement: r
                .windows
                .last()
                .map(|w| w.actual.clone())
                .unwrap_or_default(),
            tco_now: r.tco.tco_now,
            tco_savings: r.tco_savings(),
            slowdown: r.slowdown(),
            tax: r.tax_fraction(),
            daemon_ns: r.daemon_ns,
        }
    }

    /// Read the same quantities from a system a hand-driven loop ran.
    pub fn of_system(s: &TieredSystem) -> Outcome {
        let perf = s.perf_report();
        let tco = s.tco_report();
        Outcome {
            placement: s.placement_counts(),
            tco_now: tco.tco_now,
            tco_savings: tco.savings,
            slowdown: perf.slowdown,
            tax: if perf.app_time_ns > 0.0 {
                s.daemon_ns() / perf.app_time_ns
            } else {
                0.0
            },
            daemon_ns: s.daemon_ns(),
        }
    }
}
