//! The traced run: the window loop `run_daemon` runs, driven by hand with
//! the same public calls in the same order, each call timed from here.
//!
//! Nothing inside the library is instrumented: spans cover the calls into
//! each layer, and calls too short for one clock read each (`step`,
//! `record`, `next_access`, `current_tco`) are timed in blocks.

use std::hint::black_box;
use std::time::Instant;

use tierscape::core::prelude::*;
use tierscape::sim::{FaultSite, Placement, PlannedMove, TieredSystem};
use tierscape::telemetry::{Profiler, TelemetrySource};
use tierscape::workloads::{Access, Workload};

use crate::scenario::{Outcome, Scenario};
use crate::Metrics;

/// Calls per clock read for the per-access layers.
const BLOCK: usize = 1024;
/// `current_tco` calls timed per window.
const TCO_CALLS: usize = 1000;

/// One span: a timed call (or block of calls) into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    window: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, window: u64) -> usize {
        self.spans.push(Span {
            name,
            parent,
            window,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        span.dur_ns as f64 / 1e9
    }

    /// One JSON object per span, in the order they opened.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"window\": {}, \"start_ns\": {}, \"dur_ns\": {}}}\n",
                s.name, s.window, s.start_ns, s.dur_ns
            ));
        }
        out
    }
}

/// What the traced run leaves for the caller.
pub struct TracedRun {
    pub outcome: Outcome,
    /// Host seconds of the window loop (sum of the `window` spans).
    pub wall_s: f64,
    /// Distinct pages whose placement the run changed, ascending.
    pub moved_pages: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// The traced system, for replaying its pages afterwards.
    pub system: TieredSystem,
}

#[derive(Default)]
struct Totals {
    step_s: f64,
    record_s: f64,
    end_window_s: f64,
    stage_s: [f64; 4],
    region_placement_s: f64,
    region_placement_calls: u64,
    current_tco_s: f64,
    solver_iterations: u64,
    planned: u64,
    kept: u64,
    moved: u64,
    rejected: u64,
    aborted: u64,
    incompressible: u64,
}

const STAGES: [&str; 4] = ["profile", "plan", "filter", "execute"];

/// Incompressible rejections so far, over every compressed tier.
pub fn rejections(system: &TieredSystem) -> u64 {
    (0..system.config().compressed_tiers.len())
        .map(|i| system.tier_stats(i).rejections)
        .sum()
}

/// Run `sc` with every layer call timed; per-layer metrics go to `m`.
pub fn traced_run(
    sc: &Scenario,
    seed: u64,
    workers: usize,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<TracedRun, String> {
    let setup = trace.open("setup", None, 0);
    let built = sc.setup(seed)?;
    trace.close(setup);
    m.push("workloads.build_s", built.build_s, "s");
    m.push("sim.new_s", built.new_s, "s");
    let (mut system, mut policy) = (built.system, built.policy);

    // The same preamble as `run_daemon` (no fault plan, no registry).
    let cfg = sc.daemon_config(workers);
    let mut telemetry = cfg.telemetry;
    telemetry.region_shift = system.config().region_shift;
    let mut profiler = Profiler::new(telemetry);
    policy.set_plan_cache_mode(cfg.plan_cache);
    let mut filter_state = FilterState::default();
    let mut profiling_charged = 0.0f64;

    let mut t = Totals::default();
    let mut wall_s = 0.0;
    let mut moved_pages = Vec::new();
    let mut buf = vec![
        Access {
            addr: 0,
            is_store: false
        };
        BLOCK
    ];
    for w in 1..=cfg.windows {
        let window = trace.open("window", None, w);

        let span = trace.open("profile", Some(window), w);
        let mut left = cfg.window_accesses as usize;
        while left > 0 {
            let n = left.min(BLOCK);
            let c = Instant::now();
            for slot in &mut buf[..n] {
                *slot = system.step().0;
            }
            t.step_s += c.elapsed().as_secs_f64();
            let c = Instant::now();
            for a in &buf[..n] {
                TelemetrySource::record(&mut profiler, a.addr, a.is_store);
            }
            t.record_s += c.elapsed().as_secs_f64();
            left -= n;
        }
        let c = Instant::now();
        let snapshot = TelemetrySource::end_window(&mut profiler);
        t.end_window_s += c.elapsed().as_secs_f64();
        let prof_ns = profiler.cost_ns() - profiling_charged;
        profiling_charged = profiler.cost_ns();
        system.charge_daemon_ns(prof_ns);
        t.stage_s[0] += trace.close(span);

        let span = trace.open("plan", Some(window), w);
        let plan = policy.plan(&snapshot, &system);
        let solver_cost = policy.last_plan_cost_ns();
        t.solver_iterations += policy.last_solver_iterations();
        if policy.plan_cost_is_local() {
            system.charge_daemon_ns(solver_cost);
        } else {
            system.charge_daemon_ns(solver_cost.min(50_000.0));
        }
        t.stage_s[1] += trace.close(span);

        let span = trace.open("filter", Some(window), w);
        let spiked = system.draw_pressure_spikes();
        let filtered = cfg
            .filter
            .apply_degraded(&plan, &system, &mut filter_state, &spiked);
        let moves: Vec<PlannedMove> = filtered
            .iter()
            .map(|e| PlannedMove {
                region: e.region,
                dest: e.dest,
            })
            .collect();
        t.stage_s[2] += trace.close(span);
        t.planned += plan.len() as u64;
        t.kept += moves.len() as u64;

        // Tracing work inside the window, so it shows in the overhead.
        let span = trace.open("probe.placements", Some(window), w);
        let before: Vec<(u64, Placement)> = moves
            .iter()
            .flat_map(|mv| system.region_pages(mv.region))
            .map(|p| (p, system.page_placement(p)))
            .collect();
        let rejections_before = rejections(&system);
        trace.close(span);

        let span = trace.open("execute", Some(window), w);
        let report = system.execute_plan(&moves, cfg.migration_workers);
        t.stage_s[3] += trace.close(span);
        wall_s += trace.close(window);

        t.moved += report.moved;
        t.rejected += report.rejected;
        t.aborted += report.faults.get(FaultSite::MigrationCopy);
        t.incompressible += rejections(&system) - rejections_before;
        moved_pages.extend(
            before
                .into_iter()
                .filter(|&(p, was)| system.page_placement(p) != was)
                .map(|(p, _)| p),
        );

        // Read-only layer probes between windows.
        let span = trace.open("sim.region_placement", None, w);
        for r in 0..system.total_regions() {
            black_box(system.region_placement(r));
        }
        t.region_placement_s += trace.close(span);
        t.region_placement_calls += system.total_regions();
        let span = trace.open("sim.current_tco", None, w);
        for _ in 0..TCO_CALLS {
            black_box(black_box(&system).current_tco());
        }
        t.current_tco_s += trace.close(span);
    }

    let accesses = (cfg.windows * cfg.window_accesses) as f64;
    let windows = cfg.windows as f64;
    let attempted = t.moved + t.rejected + t.aborted;
    let failed = (t.rejected + t.aborted).saturating_sub(t.incompressible);
    let faults: u64 = (0..system.config().compressed_tiers.len())
        .map(|i| system.tier_stats(i).faults)
        .sum::<u64>()
        + system.swap_faults;

    m.push("sim.step_ns", t.step_s * 1e9 / accesses, "ns");
    m.push(
        "sim.region_placement_us",
        t.region_placement_s * 1e6 / t.region_placement_calls.max(1) as f64,
        "us",
    );
    m.push(
        "sim.current_tco_ns",
        t.current_tco_s * 1e9 / (TCO_CALLS as f64 * windows),
        "ns",
    );
    m.push(
        "sim.migrate_us_per_page",
        t.stage_s[3] * 1e6 / attempted.max(1) as f64,
        "us",
    );
    m.push("sim.pages_moved", t.moved as f64, "count");
    m.push(
        "sim.reject_frac",
        ratio(t.incompressible, attempted),
        "ratio",
    );
    m.push("sim.fault_frac", faults as f64 / accesses, "ratio");
    m.push("migrate_fail_frac", ratio(failed, attempted), "ratio");
    m.push("telemetry.record_ns", t.record_s * 1e9 / accesses, "ns");
    m.push(
        "telemetry.end_window_us",
        t.end_window_s * 1e6 / windows,
        "us",
    );
    m.push(
        "telemetry.samples",
        profiler.sampler_stats().1 as f64,
        "count",
    );
    for (stage, s) in STAGES.iter().zip(t.stage_s) {
        m.push(&format!("daemon.{stage}_ms"), s * 1e3 / windows, "ms");
    }
    for (stage, s) in STAGES.iter().zip(t.stage_s) {
        m.push(&format!("daemon.{stage}_share"), s / wall_s, "ratio");
    }
    m.push(
        "core.filter_kept_frac",
        if t.planned == 0 {
            1.0
        } else {
            t.kept as f64 / t.planned as f64
        },
        "ratio",
    );
    m.push(
        "solver.iterations",
        t.solver_iterations as f64 / windows,
        "count",
    );

    moved_pages.sort_unstable();
    moved_pages.dedup();
    Ok(TracedRun {
        outcome: Outcome::of_system(&system),
        wall_s,
        moved_pages,
        attempted,
        failed,
        system,
    })
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Host time per `next_access` on a second instance of the workload built
/// from the same seed, over as many calls as the run makes.
pub fn next_access_ns(sc: &Scenario, seed: u64, trace: &mut Trace) -> f64 {
    let mut workload: Box<dyn Workload> = sc.build_workload(seed);
    let calls = sc.windows * sc.window_accesses;
    let span = trace.open("workloads.next_access", None, 0);
    for _ in 0..calls {
        black_box(workload.next_access());
    }
    trace.close(span) * 1e9 / calls as f64
}
