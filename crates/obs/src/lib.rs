#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # ts-obs — deterministic observability for the TierScape stack
//!
//! A zero-dependency metrics layer built for a *bit-deterministic*
//! simulator: every value that lands in the exported metrics snapshot is a
//! pure function of the run's configuration, so CI can `diff` two artifacts
//! byte-for-byte instead of fuzzing thresholds (see DESIGN.md §5e).
//!
//! * [`Registry`] — monotonic counters, gauges, fixed-bucket (log2)
//!   histograms and span aggregates, all keyed by sorted string names.
//! * Spans record **two** clocks: wall-clock nanoseconds (host-dependent,
//!   exported only in the JSONL trace) and *modeled* nanoseconds (the
//!   simulator's deterministic cost accounting, exported everywhere).
//! * [`WorkerSink`] — per-destination migration counters; the caller
//!   merges sinks **by batch identity** (destination-tier order), never by
//!   completion order, so the merged registry is identical at any worker
//!   count.
//!
//! The snapshot serializer ([`Registry::snapshot_json`]) deliberately
//! excludes every wall-clock quantity; [`Registry::trace_jsonl`] includes
//! them for human profiling.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Number of log2 buckets in a [`Histogram`] (covers 0..2^63 ns).
pub const HIST_BUCKETS: usize = 64;

/// Spans kept verbatim for the trace before dropping (aggregates keep
/// counting past the cap; `obs.spans_dropped` records the overflow).
pub const MAX_SPANS: usize = 1 << 16;

/// Fixed-bucket histogram: bucket `b` counts values `v` with
/// `floor(log2(v)) + 1 == b` (`v = 0` lands in bucket 0). Recording is O(1)
/// and allocation-free; merging is bucket-wise addition (commutative, so
/// any deterministic merge order yields identical state).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub total: f64,
    /// Per-bucket counts.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            total: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for a value (negative and NaN values clamp to 0).
    pub fn bucket_of(value: f64) -> usize {
        let v = if value.is_finite() && value > 0.0 {
            value as u64
        } else {
            0
        };
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.total += value;
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.total += other.total;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their modeled nanoseconds.
    pub modeled_ns: f64,
}

/// One recorded span (trace stream entry).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Monotonic sequence number (record order).
    pub seq: u64,
    /// Profile window the span belongs to (0 = outside any window).
    pub window: u64,
    /// Span name (aggregation key), e.g. `window.execute`.
    pub name: String,
    /// Instance scope, e.g. a destination tier (`CT1`); empty when N/A.
    pub scope: String,
    /// Host wall-clock duration in ns (never part of the snapshot).
    pub wall_ns: u64,
    /// Modeled (deterministic) duration in ns.
    pub modeled_ns: f64,
    /// Extra numeric attributes, in record order.
    pub fields: Vec<(String, f64)>,
}

/// Wall-clock start mark for a span; pair with [`Registry::span`].
#[derive(Debug)]
pub struct SpanTimer {
    start: Instant,
}

impl SpanTimer {
    /// Start timing now.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        SpanTimer {
            start: Instant::now(),
        }
    }

    /// Elapsed wall-clock ns since the timer started.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Counters for one migration batch (one destination of a window plan),
/// filled with plain field bumps (no locks, no allocation on the page-copy
/// path); the caller folds sinks into the [`Registry`] in batch order,
/// which makes the merged state independent of worker scheduling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerSink {
    /// Jobs attempted.
    pub jobs: u64,
    /// Jobs that produced a compressed destination copy.
    pub stored: u64,
    /// Jobs that decompressed a source toward a byte destination.
    pub faulted: u64,
    /// Jobs that failed (rejects, injected faults, pool exhaustion).
    pub failed: u64,
    /// Compressed payload bytes written to the destination tier.
    pub bytes_out: u64,
    /// Host ns phase A spent on the batch's pages, summed over the
    /// workers that ran them (trace only; not a wall-clock interval).
    pub worker_ns: u64,
    /// Distribution of per-page compressed sizes.
    pub compressed_len: Histogram,
}

impl WorkerSink {
    /// Record a job that stored `bytes` compressed bytes at the destination.
    pub fn record_store(&mut self, bytes: u64) {
        self.jobs += 1;
        self.stored += 1;
        self.bytes_out += bytes;
        self.compressed_len.record(bytes as f64);
    }

    /// Record a decompress-toward-byte-tier job.
    pub fn record_fault(&mut self) {
        self.jobs += 1;
        self.faulted += 1;
    }

    /// Record a failed job.
    pub fn record_failure(&mut self) {
        self.jobs += 1;
        self.failed += 1;
    }
}

/// Observability configuration carried by `DaemonConfig::obs`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when false (the default) no registry is installed and
    /// the instrumented paths cost nothing beyond an `Option` check.
    pub enabled: bool,
}

impl ObsConfig {
    /// An enabled configuration.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true }
    }
}

/// The metrics registry: counters, gauges, histograms, spans.
///
/// All collections are `BTreeMap`s so iteration (and therefore every
/// serialization) is in sorted name order regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    window: u64,
    seq: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    span_aggs: BTreeMap<String, SpanAgg>,
    spans: Vec<SpanRecord>,
    spans_dropped: u64,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Set the current profile window (stamped onto subsequent spans).
    pub fn set_window(&mut self, window: u64) {
        self.window = window;
    }

    /// The current profile window.
    pub fn window(&self) -> u64 {
        self.window
    }

    // ---- counters ------------------------------------------------------

    /// Increment counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `n`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Monotonically raise counter `name` to `v` (for snapshotting an
    /// externally-cumulative statistic; never decreases).
    pub fn counter_max(&mut self, name: &str, v: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = (*c).max(v);
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    // ---- gauges --------------------------------------------------------

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Add `v` to gauge `name`.
    pub fn gauge_add(&mut self, name: &str, v: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Current value of gauge `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    // ---- histograms ----------------------------------------------------

    /// Record `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Histogram `name`, if any value was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    // ---- spans ---------------------------------------------------------

    /// Close a span started with [`SpanTimer::new`]: the wall clock comes
    /// from the timer, the modeled clock from the simulator's accounting.
    pub fn span(
        &mut self,
        name: &str,
        scope: &str,
        timer: &SpanTimer,
        modeled_ns: f64,
        fields: &[(&str, f64)],
    ) {
        self.span_raw(name, scope, timer.elapsed_ns(), modeled_ns, fields);
    }

    /// Record a span with an explicit wall-clock value (used by worker
    /// sinks whose timers ran on another thread).
    pub fn span_raw(
        &mut self,
        name: &str,
        scope: &str,
        wall_ns: u64,
        modeled_ns: f64,
        fields: &[(&str, f64)],
    ) {
        let agg = self.span_aggs.entry(name.to_string()).or_default();
        agg.count += 1;
        agg.modeled_ns += modeled_ns;
        if self.spans.len() >= MAX_SPANS {
            self.spans_dropped += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.spans.push(SpanRecord {
            seq,
            window: self.window,
            name: name.to_string(),
            scope: scope.to_string(),
            wall_ns,
            modeled_ns,
            fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Aggregate of every span named `name`.
    pub fn span_agg(&self, name: &str) -> SpanAgg {
        self.span_aggs.get(name).copied().unwrap_or_default()
    }

    /// All recorded spans, in record order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    // ---- worker sinks --------------------------------------------------

    /// Fold a worker's sink into the registry under `scope` (the batch's
    /// destination tier). Callers must invoke this in batch-identity order.
    pub fn merge_sink(&mut self, scope: &str, sink: &WorkerSink) {
        if sink.jobs == 0 {
            return;
        }
        self.add(&format!("migrate.{scope}.jobs"), sink.jobs);
        self.add(&format!("migrate.{scope}.stored"), sink.stored);
        self.add(&format!("migrate.{scope}.faulted"), sink.faulted);
        self.add(&format!("migrate.{scope}.failed"), sink.failed);
        self.add(&format!("migrate.{scope}.bytes_out"), sink.bytes_out);
        if sink.compressed_len.count > 0 {
            self.histograms
                .entry(format!("migrate.{scope}.compressed_len"))
                .or_default()
                .merge(&sink.compressed_len);
        }
    }

    // ---- serialization -------------------------------------------------

    /// Deterministic JSON snapshot of the registry: counters, gauges,
    /// histograms and span aggregates in sorted name order. Wall-clock
    /// values are deliberately excluded, so for a deterministic simulation
    /// the artifact is byte-identical across hosts and worker counts.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            sep_nl(&mut out, &mut first);
            let _ = write!(out, "\n    \"{}\": {v}", esc(k));
        }
        close_obj(&mut out, first, 2);
        out.push_str(",\n  \"gauges\": {");
        let mut first = true;
        for (k, v) in &self.gauges {
            sep_nl(&mut out, &mut first);
            let _ = write!(out, "\n    \"{}\": {}", esc(k), fmt_f64(*v));
        }
        close_obj(&mut out, first, 2);
        out.push_str(",\n  \"histograms\": {");
        let mut first = true;
        for (k, h) in &self.histograms {
            sep_nl(&mut out, &mut first);
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"total\": {}, \"buckets\": {{",
                esc(k),
                h.count,
                fmt_f64(h.total)
            );
            let mut bfirst = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    sep(&mut out, &mut bfirst);
                    let _ = write!(out, "\"{b}\": {n}");
                }
            }
            out.push_str("}}");
        }
        close_obj(&mut out, first, 2);
        out.push_str(",\n  \"spans\": {");
        let mut first = true;
        for (k, a) in &self.span_aggs {
            sep_nl(&mut out, &mut first);
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"modeled_ns\": {}}}",
                esc(k),
                a.count,
                fmt_f64(a.modeled_ns)
            );
        }
        close_obj(&mut out, first, 2);
        out.push_str("\n}\n");
        out
    }

    /// JSONL span trace: one span per line, in record order, wall-clock
    /// included (host-dependent — never snapshot-diff this stream).
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"seq\": {}, \"window\": {}, \"name\": \"{}\", \"scope\": \"{}\", \
                 \"wall_ns\": {}, \"modeled_ns\": {}, \"fields\": {{",
                s.seq,
                s.window,
                esc(&s.name),
                esc(&s.scope),
                s.wall_ns,
                fmt_f64(s.modeled_ns)
            );
            let mut first = true;
            for (k, v) in &s.fields {
                sep(&mut out, &mut first);
                let _ = write!(out, "\"{}\": {}", esc(k), fmt_f64(*v));
            }
            out.push_str("}}\n");
        }
        out
    }

    /// Human-readable summary table (`--metrics-summary`).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<44} {v:>16}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<44} {v:>16.3}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "histograms                                      \
                          count             mean\n",
            );
            for (k, h) in &self.histograms {
                let _ = writeln!(out, "  {k:<44} {:>8} {:>16.1}", h.count, h.mean());
            }
        }
        if !self.span_aggs.is_empty() {
            out.push_str(
                "spans                                           \
                          count       modeled_ms\n",
            );
            for (k, a) in &self.span_aggs {
                let _ = writeln!(out, "  {k:<44} {:>8} {:>16.3}", a.count, a.modeled_ns / 1e6);
            }
        }
        if self.spans_dropped > 0 {
            let _ = writeln!(out, "({} spans dropped past cap)", self.spans_dropped);
        }
        out
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(", ");
    }
}

/// Separator for entries that start on their own line (no trailing space).
fn sep_nl(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn close_obj(out: &mut String, empty: bool, indent: usize) {
    if empty {
        out.push('}');
    } else {
        out.push('\n');
        for _ in 0..indent {
            out.push(' ');
        }
        out.push('}');
    }
}

/// Deterministic float formatting: Rust's shortest-roundtrip `Display`,
/// with non-finite values mapped to 0 (they never appear in valid metrics).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escape a metric name for JSON embedding.
fn esc(s: &str) -> String {
    if s.chars().all(|c| c != '"' && c != '\\' && c >= ' ') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let mut r = Registry::new();
        r.inc("a");
        r.add("a", 4);
        assert_eq!(r.counter("a"), 5);
        r.counter_max("a", 3); // lower than current: no change
        assert_eq!(r.counter("a"), 5);
        r.counter_max("a", 9);
        assert_eq!(r.counter("a"), 9);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn histogram_bucketing() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(-3.0), 0);
        assert_eq!(Histogram::bucket_of(f64::NAN), 0);
        assert_eq!(Histogram::bucket_of(1.0), 1);
        assert_eq!(Histogram::bucket_of(2.0), 2);
        assert_eq!(Histogram::bucket_of(3.9), 2);
        assert_eq!(Histogram::bucket_of(4.0), 3);
        assert_eq!(Histogram::bucket_of(1e18), 60);
        let mut h = Histogram::default();
        for v in [0.0, 1.0, 5.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[3], 2);
        assert!((h.mean() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [1.0, 100.0, 3.0] {
            a.record(v);
        }
        for v in [7.0, 0.0] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
    }

    /// The deterministic-merge property the migration engine relies on:
    /// sinks filled by any number of "threads" produce an identical
    /// registry as long as they are merged in batch-identity order.
    #[test]
    fn sink_merge_deterministic_across_thread_counts() {
        // Batches (by destination) with fixed job outcomes.
        let batch_jobs: Vec<(&str, Vec<u64>)> = vec![
            ("CT0", vec![100, 250, 90]),
            ("CT1", vec![4096, 10]),
            ("BT0", vec![]),
            ("CT2", vec![77]),
        ];
        let fill = |(scope, sizes): &(&str, Vec<u64>)| {
            let mut s = WorkerSink::default();
            for &b in sizes {
                if b >= 4096 {
                    s.record_failure();
                } else {
                    s.record_store(b);
                }
            }
            (scope.to_string(), s)
        };
        // "workers = k": batches processed round-robin by k threads, each
        // finishing in arbitrary order; merge always walks batch index 0..n.
        let reference: Vec<_> = batch_jobs.iter().map(fill).collect();
        for workers in [1usize, 2, 3, 8] {
            // Simulate out-of-order completion: reverse per-worker shards.
            let mut slots: Vec<Option<(String, WorkerSink)>> = vec![None; batch_jobs.len()];
            for w in 0..workers {
                let mut own: Vec<usize> =
                    (0..batch_jobs.len()).filter(|i| i % workers == w).collect();
                own.reverse(); // completion order != batch order
                for i in own {
                    slots[i] = Some(fill(&batch_jobs[i]));
                }
            }
            let mut r = Registry::new();
            for slot in slots.iter() {
                let (scope, sink) = slot.as_ref().unwrap();
                r.merge_sink(scope, sink);
            }
            let mut want = Registry::new();
            for (scope, sink) in &reference {
                want.merge_sink(scope, sink);
            }
            assert_eq!(r, want, "workers={workers}");
            assert_eq!(r.snapshot_json(), want.snapshot_json());
        }
    }

    #[test]
    fn snapshot_excludes_wall_clock() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.span_raw("x", "", 123_456, 10.0, &[("k", 1.0)]);
        b.span_raw("x", "", 789, 10.0, &[("k", 1.0)]);
        assert_eq!(a.snapshot_json(), b.snapshot_json());
        assert_ne!(a.trace_jsonl(), b.trace_jsonl());
        assert!(a.trace_jsonl().contains("\"wall_ns\": 123456"));
        assert!(!a.snapshot_json().contains("wall"));
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.add("zz", 1);
        r.add("aa", 2);
        r.gauge_set("mid", 0.5);
        r.observe("h", 3.0);
        let s = r.snapshot_json();
        assert!(s.find("\"aa\"").unwrap() < s.find("\"zz\"").unwrap());
        // Re-inserting in a different order yields the identical artifact.
        let mut r2 = Registry::new();
        r2.observe("h", 3.0);
        r2.gauge_set("mid", 0.5);
        r2.add("aa", 2);
        r2.add("zz", 1);
        assert_eq!(s, r2.snapshot_json());
    }

    #[test]
    fn span_cap_keeps_aggregates() {
        let mut r = Registry::new();
        for _ in 0..(MAX_SPANS + 10) {
            r.span_raw("s", "", 0, 1.0, &[]);
        }
        assert_eq!(r.spans().len(), MAX_SPANS);
        assert_eq!(r.span_agg("s").count, (MAX_SPANS + 10) as u64);
        assert!(r.summary().contains("spans dropped"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(esc("plain.name"), "plain.name");
        assert_eq!(esc("a\"b"), "a\\\"b");
        assert_eq!(esc("a\\b"), "a\\\\b");
        assert_eq!(esc("a\nb"), "a\\u000ab");
    }

    #[test]
    fn summary_mentions_everything() {
        let mut r = Registry::new();
        r.inc("c.one");
        r.gauge_set("g.one", 2.0);
        r.observe("h.one", 3.0);
        r.span_raw("s.one", "", 0, 4.0, &[]);
        let s = r.summary();
        for key in ["c.one", "g.one", "h.one", "s.one"] {
            assert!(s.contains(key), "{key} missing from summary");
        }
    }
}
