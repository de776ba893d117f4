//! Log-bucketed latency histogram for tail-latency reporting (Fig. 11).

/// A latency histogram with logarithmic buckets from 1 ns to ~1 s.
///
/// Buckets are spaced at 16 per octave, giving < 5 % relative error on
/// percentile estimates — plenty for avg/p95/p99.9 comparisons.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: f64,
    max_ns: f64,
    /// Direct-mapped memo of [`Self::bucket_of`], keyed by the sample's
    /// exact bits: access latencies take a handful of values, and a hit
    /// skips the `log2`. Every entry holds a true `(bits, bucket)` pair.
    memo: [(u64, usize); MEMO_SLOTS],
}

/// Slots in [`LatencyHistogram::memo`]: `1 << MEMO_BITS`.
const MEMO_BITS: u32 = 4;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

const BUCKETS_PER_OCTAVE: usize = 16;
const OCTAVES: usize = 30; // 1 ns .. ~1 s.
const NBUCKETS: usize = BUCKETS_PER_OCTAVE * OCTAVES;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NBUCKETS],
            total: 0,
            sum_ns: 0.0,
            max_ns: 0.0,
            // 0.0 is bucket 0.
            memo: [(0, 0); MEMO_SLOTS],
        }
    }

    fn bucket_of(ns: f64) -> usize {
        if ns <= 1.0 {
            return 0;
        }
        let b = (ns.log2() * BUCKETS_PER_OCTAVE as f64) as usize;
        b.min(NBUCKETS - 1)
    }

    fn bucket_value(b: usize) -> f64 {
        2f64.powf((b as f64 + 0.5) / BUCKETS_PER_OCTAVE as f64)
    }

    /// Record one latency sample in nanoseconds.
    pub fn record(&mut self, ns: f64) {
        let bits = ns.to_bits();
        let slot = (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_BITS)) as usize;
        let bucket = match self.memo[slot] {
            (key, bucket) if key == bits => bucket,
            _ => {
                let bucket = Self::bucket_of(ns);
                self.memo[slot] = (bits, bucket);
                bucket
            }
        };
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum_ns += ns;
        if ns > self.max_ns {
            self.max_ns = ns;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in ns (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns / self.total as f64
        }
    }

    /// Approximate percentile `p` (0..=100) in ns.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0 * self.total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return Self::bucket_value(b).min(self.max_ns.max(1.0));
            }
        }
        self.max_ns
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn mean_and_percentiles_of_bimodal() {
        let mut h = LatencyHistogram::new();
        for _ in 0..9900 {
            h.record(33.0);
        }
        for _ in 0..100 {
            h.record(10_000.0);
        }
        let mean = h.mean();
        assert!((mean - (9900.0 * 33.0 + 100.0 * 10_000.0) / 10_000.0).abs() < 1.0);
        // p50 near the fast mode, p99.9 near the slow mode.
        let p50 = h.percentile(50.0);
        assert!(p50 > 25.0 && p50 < 45.0, "p50 {p50}");
        let p999 = h.percentile(99.9);
        assert!(p999 > 7_000.0, "p999 {p999}");
    }

    #[test]
    fn percentile_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100_000u64 {
            h.record(i as f64);
        }
        let p90 = h.percentile(90.0);
        assert!((p90 - 90_000.0).abs() / 90_000.0 < 0.08, "p90 {p90}");
    }

    #[test]
    fn memoised_bucket_matches_bucket_of() {
        let mut samples = vec![0.0, -1.0, 1.0, 233.0, 370.0, 500.0, 1e12, f64::MAX];
        samples.extend((1..=1000).map(|i| i as f64 * 7.5));
        // Every bucket boundary, one ulp either side of it and on it.
        for b in 0..=NBUCKETS {
            let edge = 2f64.powf(b as f64 / BUCKETS_PER_OCTAVE as f64);
            let bits = edge.to_bits();
            samples.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        let mut h = LatencyHistogram::new();
        let mut counts = vec![0u64; NBUCKETS];
        // Twice over, so the second pass hits what the first memoised.
        for &ns in samples.iter().chain(&samples) {
            h.record(ns);
            counts[LatencyHistogram::bucket_of(ns)] += 1;
            assert_eq!(h.counts, counts, "sample {ns:e}");
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10.0);
        b.record(1000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(100.0) >= 900.0);
    }
}
