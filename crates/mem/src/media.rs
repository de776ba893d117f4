//! Memory media models: latency and unit-cost parameters per medium.
//!
//! Parameter sources (documented for reproducibility; see DESIGN.md §2):
//!
//! * DRAM: ≈33 ns average page access latency (paper §5), normalized unit
//!   cost 3.0 $/GB-month.
//! * Optane-style NVMM: ≈3x DRAM read latency (paper \[20, 56\]), unit cost
//!   1/3 of DRAM (paper §8.1, citing FlexHM \[45\]).
//! * CXL-attached memory: ≈170 ns (one NUMA-hop class latency, Pond \[41\]),
//!   unit cost 1/2 of DRAM.

/// Kind of physical memory medium backing a tier or pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MediaKind {
    /// Directly attached DDR DRAM: fastest, most expensive.
    Dram,
    /// Non-volatile main memory (Intel Optane DC PMM class).
    Nvmm,
    /// CXL-attached memory expander.
    Cxl,
}

impl MediaKind {
    /// All media kinds, fastest first.
    pub const ALL: [MediaKind; 3] = [MediaKind::Dram, MediaKind::Cxl, MediaKind::Nvmm];

    /// Short name as used in tier labels ("DR", "OP", "CX" in Figure 2).
    pub fn short_name(self) -> &'static str {
        match self {
            MediaKind::Dram => "DR",
            MediaKind::Nvmm => "OP",
            MediaKind::Cxl => "CX",
        }
    }

    /// Full lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            MediaKind::Dram => "dram",
            MediaKind::Nvmm => "nvmm",
            MediaKind::Cxl => "cxl",
        }
    }

    /// Default specification for this medium.
    pub fn default_spec(self) -> MediaSpec {
        match self {
            MediaKind::Dram => MediaSpec {
                kind: self,
                read_latency_ns: 33.0,
                write_latency_ns: 33.0,
                cost_per_gb: 3.0,
            },
            MediaKind::Nvmm => MediaSpec {
                kind: self,
                read_latency_ns: 170.0,
                write_latency_ns: 300.0,
                cost_per_gb: 1.0,
            },
            MediaKind::Cxl => MediaSpec {
                kind: self,
                read_latency_ns: 140.0,
                write_latency_ns: 140.0,
                cost_per_gb: 1.5,
            },
        }
    }
}

impl std::fmt::Display for MediaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Latency and cost parameters of a memory medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaSpec {
    /// The medium this spec describes.
    pub kind: MediaKind,
    /// Average read access latency in nanoseconds.
    pub read_latency_ns: f64,
    /// Average write access latency in nanoseconds.
    pub write_latency_ns: f64,
    /// Unit memory cost, in normalized $ per GB (DRAM = 3.0).
    pub cost_per_gb: f64,
}

impl MediaSpec {
    /// Average of read and write latency; the single-number latency used by
    /// the analytical model (Eq. 6/7 uses one latency per tier).
    pub fn avg_latency_ns(&self) -> f64 {
        (self.read_latency_ns + self.write_latency_ns) / 2.0
    }

    /// Cost of storing `bytes` on this medium, in normalized $ units.
    pub fn cost_of_bytes(&self, bytes: u64) -> f64 {
        self.cost_per_gb * bytes as f64 / (1u64 << 30) as f64
    }

    /// Throughput-style cost of streaming `bytes` sequentially, in ns.
    ///
    /// Media have very different sequential bandwidths (DRAM ≈ 20 GB/s per
    /// channel class, Optane ≈ 2 GB/s); compression pools stream compressed
    /// objects, so this matters for (de)compression store/load cost.
    pub fn stream_ns(&self, bytes: u64) -> f64 {
        let gb_per_s = match self.kind {
            MediaKind::Dram => 20.0,
            MediaKind::Nvmm => 2.2,
            MediaKind::Cxl => 8.0,
        };
        bytes as f64 / (gb_per_s * 1e9) * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering_matches_hardware() {
        let d = MediaKind::Dram.default_spec();
        let c = MediaKind::Cxl.default_spec();
        let n = MediaKind::Nvmm.default_spec();
        assert!(d.avg_latency_ns() < c.avg_latency_ns());
        assert!(c.avg_latency_ns() < n.avg_latency_ns());
    }

    #[test]
    fn cost_ordering_matches_market() {
        let d = MediaKind::Dram.default_spec();
        let c = MediaKind::Cxl.default_spec();
        let n = MediaKind::Nvmm.default_spec();
        assert!(d.cost_per_gb > c.cost_per_gb);
        assert!(c.cost_per_gb > n.cost_per_gb);
        // Paper: NVMM $/GB is 1/3 of DRAM.
        assert!((n.cost_per_gb / d.cost_per_gb - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn cost_of_bytes_scales() {
        let d = MediaKind::Dram.default_spec();
        let one_gb = d.cost_of_bytes(1 << 30);
        assert!((one_gb - 3.0).abs() < 1e-9);
        assert!((d.cost_of_bytes(1 << 29) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn stream_cost_dram_fastest() {
        for kind in [MediaKind::Cxl, MediaKind::Nvmm] {
            assert!(
                MediaKind::Dram.default_spec().stream_ns(4096)
                    < kind.default_spec().stream_ns(4096)
            );
        }
    }

    #[test]
    fn names_stable() {
        assert_eq!(MediaKind::Dram.short_name(), "DR");
        assert_eq!(MediaKind::Nvmm.short_name(), "OP");
        assert_eq!(MediaKind::Nvmm.name(), "nvmm");
    }
}
