//! `ts-perfbench` — the repository benchmark.
//!
//! ```text
//! ts-perfbench --workload kv-modeled|kv-real|graph-spectrum-real
//!              [--seed N] [--seconds S] [--trace 0|1]
//!              [--out FILE] [--spans-out FILE]
//! ```
//!
//! Each workload is a fixed daemon-window schedule (see `scenario.rs`) run
//! through the library API. With `--trace 0` the run sets up and runs the
//! schedule repeatedly for `--seconds` and reports end-to-end metrics as
//! medians; with `--trace 1` it runs the schedule once untraced and once
//! traced, and reports per-layer metrics. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--out` appends the result with its provenance and raw samples to a JSON
//! lines file, the input of `compare.py`. See README.md.

mod layers;
mod scenario;
mod traced;

use std::io::Write as _;
use std::time::Instant;

use tierscape::core::prelude::*;
use tierscape::sim::Fidelity;

use scenario::{Outcome, Scenario};
use traced::Trace;

/// Timed repetitions a `--trace 0` run makes at least, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;
/// Host time each repetition spends setting up, at least: short set-ups
/// repeat so that the `setup_s` median rests on many samples.
const SETUP_SECONDS_PER_REP: f64 = 0.25;

/// Metrics in the order they were measured: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn check_finite(&self) -> Result<(), String> {
        match self.0.iter().find(|(_, v, _)| !v.is_finite()) {
            Some((name, v, _)) => Err(format!("metric {name} is not finite: {v}")),
            None => Ok(()),
        }
    }
}

/// One invocation's result.
#[derive(Debug, Default)]
struct Run {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Raw per-repetition samples behind the median metrics.
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Run {
    fn result_json(&self, correct: bool) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

struct Args {
    scenario: Scenario,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Migration workers: pinned, at most 2 and at most `nproc`.
    workers: usize,
    out: Option<String>,
    spans_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workload = None;
    let mut args = Args {
        scenario: scenario::SCENARIOS[0],
        seed: 42,
        seconds: 10.0,
        trace: false,
        workers: nproc.min(2),
        out: None,
        spans_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value.to_string()),
            "--spans-out" => args.spans_out = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.scenario = Scenario::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = scenario::SCENARIOS.iter().map(|s| s.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// End-to-end metrics: repeated set-up + `run_daemon`, tracing off.
///
/// A first, untimed repetition runs with the program's metrics registry on:
/// it warms the process and counts page moves attempted and failed. Every
/// timed repetition must then reproduce its modeled outcome exactly.
fn end_to_end(sc: &Scenario, seed: u64, seconds: f64, workers: usize) -> Result<Run, String> {
    let mut cfg = sc.daemon_config(workers);
    cfg.obs = ObsConfig::enabled();
    let mut b = sc.setup(seed)?;
    let warm = run_daemon(&mut b.system, b.policy.as_mut(), &cfg);
    let reference = Outcome::of_report(&warm);
    let obs = warm.obs.as_ref().ok_or("metrics registry missing")?;
    let moved = obs.counter("migrate.pages_moved");
    let rejected = obs.counter("migrate.pages_rejected");
    let aborted = obs.counter("migrate.aborted_pages");
    let incompressible = traced::rejections(&b.system);
    drop(b);
    // Read here, before the repeated set-ups below can leave freed memory
    // resident and make the peak depend on allocator history.
    let peak_rss_mb = peak_rss_mb()?;

    cfg.obs = ObsConfig::default();
    let (mut setup_s, mut run_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while run_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        // Set up at least once and for at least SETUP_SECONDS_PER_REP,
        // keeping one system alive at a time; the last one runs.
        let mut spent = 0.0;
        let mut b = loop {
            let b = sc.setup(seed)?;
            spent += b.setup_s();
            setup_s.push(b.setup_s());
            if spent >= SETUP_SECONDS_PER_REP {
                break b;
            }
        };
        let t = Instant::now();
        let report = run_daemon(&mut b.system, b.policy.as_mut(), &cfg);
        let run = t.elapsed().as_secs_f64();
        let outcome = Outcome::of_report(&report);
        if outcome != reference {
            return Err(format!(
                "repetition {} differs from the first: {outcome:?} vs {reference:?}",
                run_s.len() + 1
            ));
        }
        println!(
            "rep {:>2}: setup {:.4} s (build {:.4}, new {:.4}), run {run:.4} s",
            run_s.len() + 1,
            b.setup_s(),
            b.build_s,
            b.new_s
        );
        run_s.push(run);
    }

    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("run_s", median(&run_s), "s");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    m.push("tco_savings_pct", reference.tco_savings * 100.0, "%");
    m.push("slowdown_pct", reference.slowdown * 100.0, "%");
    m.push("daemon_tax_pct", reference.tax * 100.0, "%");
    Ok(Run {
        attempted: moved + rejected + aborted,
        failed: (rejected + aborted).saturating_sub(incompressible),
        metrics: m,
        samples: vec![("setup_s", setup_s), ("run_s", run_s)],
    })
}

/// Per-layer metrics: one untraced `run_daemon`, then the traced loop,
/// which must reproduce it exactly, then the sub-page replays.
fn per_layer(sc: &Scenario, seed: u64, workers: usize, trace: &mut Trace) -> Result<Run, String> {
    let cfg = sc.daemon_config(workers);
    let mut b = sc.setup(seed)?;
    let t = Instant::now();
    let report = run_daemon(&mut b.system, b.policy.as_mut(), &cfg);
    let run_s = t.elapsed().as_secs_f64();
    let reference = Outcome::of_report(&report);
    drop(b);

    let mut m = Metrics::default();
    let tr = traced::traced_run(sc, seed, workers, trace, &mut m)?;
    if tr.outcome != reference {
        return Err(format!(
            "the traced loop differs from run_daemon: {:?} vs {reference:?}",
            tr.outcome
        ));
    }
    m.push(
        "workloads.next_access_ns",
        traced::next_access_ns(sc, seed, trace),
        "ns",
    );
    layers::replay(
        tr.system.workload(),
        &layers::sample(&tr.moved_pages),
        trace,
        &mut m,
    )?;
    m.push("trace.overhead_frac", (tr.wall_s - run_s) / run_s, "ratio");

    // The fidelity gap: distance from the same scenario in Modeled, which
    // is zero by definition for a Modeled workload.
    let (gap_tco, gap_slowdown) = if sc.fidelity == Fidelity::Real {
        let twin = sc.with_fidelity(Fidelity::Modeled);
        let mut b = twin.setup(seed)?;
        let modeled = Outcome::of_report(&run_daemon(&mut b.system, b.policy.as_mut(), &cfg));
        (
            (reference.tco_savings - modeled.tco_savings).abs() * 100.0,
            (reference.slowdown - modeled.slowdown).abs() * 100.0,
        )
    } else {
        (0.0, 0.0)
    };
    m.push("fidelity_gap_tco_pp", gap_tco, "pp");
    m.push("fidelity_gap_slowdown_pp", gap_slowdown, "pp");
    Ok(Run {
        attempted: tr.attempted,
        failed: tr.failed,
        metrics: m,
        samples: vec![
            ("untraced_run_s", vec![run_s]),
            ("traced_wall_s", vec![tr.wall_s]),
        ],
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance_json(args: &Args) -> String {
    format!(
        "{{\"host_cpu\": {}, \"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"migration_workers\": {}, \"scenario\": {}}}",
        json_str(&cpu_model()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_commit()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workers,
        args.scenario.params_json()
    )
}

fn run(args: &Args) -> Result<Run, String> {
    let run = if args.trace {
        let mut trace = Trace::default();
        let run = per_layer(&args.scenario, args.seed, args.workers, &mut trace)?;
        if let Some(path) = &args.spans_out {
            std::fs::write(path, trace.jsonl()).map_err(|e| format!("{path}: {e}"))?;
        }
        run
    } else {
        end_to_end(&args.scenario, args.seed, args.seconds, args.workers)?
    };
    run.metrics.check_finite()?;
    if run.attempted == 0 {
        return Err("the run attempted no page moves".into());
    }
    Ok(run)
}

fn append_record(path: &str, args: &Args, provenance: &str, run: &Run) -> Result<(), String> {
    let samples: Vec<String> = run
        .samples
        .iter()
        .map(|(name, xs)| {
            let xs: Vec<String> = xs.iter().map(f64::to_string).collect();
            format!("\"{name}\": [{}]", xs.join(", "))
        })
        .collect();
    let line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"provenance\": {provenance}, \
         \"samples\": {{{}}}, \"result\": {}}}\n",
        args.scenario.name,
        args.seed,
        u8::from(args.trace),
        samples.join(", "),
        run.result_json(true)
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("ts-perfbench: {e}");
        std::process::exit(2);
    });
    let provenance = provenance_json(&args);
    println!("{{\"provenance\": {provenance}}}");
    let outcome = run(&args).and_then(|run| {
        if let Some(path) = &args.out {
            append_record(path, &args, &provenance, &run)?;
        }
        Ok(run)
    });
    match outcome {
        Ok(run) => println!("{}", run.result_json(true)),
        Err(e) => {
            eprintln!("ts-perfbench: {e}");
            // One attempt, failed: the result line stays well-formed.
            let failed = Run {
                attempted: 1,
                failed: 1,
                ..Run::default()
            };
            println!("{}", failed.result_json(false));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `key` in the repository's BENCHMARK.json.
    fn benchmark_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..];
        let section = &section[..section.find(']').expect("section is a list")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn assert_emits(run: &Run, names: &[String], what: &str) {
        for name in names {
            let (_, value, unit) = run
                .metrics
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
            assert!(value.is_finite(), "{what}: {name} = {value}");
            assert!(!unit.is_empty(), "{what}: {name} has no unit");
        }
        assert_eq!(run.metrics.0.len(), names.len(), "{what}: unlisted metrics");
    }

    #[test]
    fn every_workload_emits_every_named_metric_at_tiny_scale() {
        let e2e = benchmark_names("end_to_end");
        let layers = benchmark_names("per_layer");
        for name in benchmark_names("workloads") {
            assert!(Scenario::by_name(&name).is_some(), "workload {name}");
        }
        for sc in scenario::SCENARIOS {
            let (name, sc) = (sc.name, sc.tiny());
            let run = end_to_end(&sc, 42, 0.0, 1).expect("end-to-end run");
            assert_emits(&run, &e2e, name);
            assert!(run.attempted > 0 && run.failed == 0, "{name}");
            let run = per_layer(&sc, 42, 1, &mut Trace::default()).expect("traced run");
            assert_emits(&run, &layers, name);
            assert!(run.attempted > 0 && run.failed == 0, "{name}");
        }
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload kv-real --seed 7 --trace 1")).is_ok());
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload kv-real --trace 2")).is_err());
        assert!(parse_args(&argv("--workload kv-real --seed")).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
