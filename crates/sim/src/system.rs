//! The tiered memory system simulator.
//!
//! Owns the page table (residency of every page), the fault path
//! (decompress-into-DRAM, §6.5's `Lat_CT + Lat_TD` cost), the migration
//! engine the TS-Daemon drives, and the performance / TCO accounting of
//! Eq. 3–10. The workload supplies the access stream and page contents.

use crate::calib::Calibration;
use crate::histogram::LatencyHistogram;
use crate::{Fidelity, Placement, SimConfig, SimError, SimResult};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use ts_compress::Algorithm;
use ts_faults::{FaultCounters, FaultPlan, FaultSite, TierError};
use ts_mem::{Machine, MediaKind, MediaSpec, PAGE_SIZE};
use ts_obs::{Registry, SpanTimer, WorkerSink};
use ts_workloads::{Access, Workload};
use ts_zpool::{PoolError, PoolKind};
use ts_zswap::{
    Compressed, StoredPage, SwapDevice, TierId, ZswapError, ZswapResult, ZswapSubsystem,
};

/// Where a page currently lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Residency {
    /// In DRAM (tier 0).
    Dram,
    /// In byte-addressable tier `i` (index into `SimConfig::byte_tiers`).
    Byte(u16),
    /// In compressed tier `i` with the given compressed length; `stored` is
    /// populated in `Real` fidelity only.
    Compressed {
        tier: u16,
        comp_len: u32,
        stored: Option<StoredPage>,
    },
    /// Written back to the swap device under pool pressure; `slot` is a real
    /// device slot in `Real` fidelity only.
    Swapped {
        comp_len: u32,
        slot: Option<ts_zswap::SwapSlot>,
        origin_tier: u16,
    },
}

/// Per-compressed-tier simulator-side state.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTierStats {
    /// Pages currently stored.
    pub pages: u64,
    /// Compressed payload bytes currently stored.
    pub comp_bytes: u64,
    /// Modeled pool backing bytes (includes allocator overhead).
    pub pool_bytes_modeled: u64,
    /// Cumulative faults served.
    pub faults: u64,
    /// Cumulative stores.
    pub stores: u64,
    /// Cumulative incompressible rejections.
    pub rejections: u64,
    /// Cumulative pages written back to swap under pool pressure.
    pub writebacks: u64,
}

/// Report of one region migration or one whole window plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationReport {
    /// Pages moved to the destination.
    pub moved: u64,
    /// Pages rejected (incompressible) and left in place.
    pub rejected: u64,
    /// Modeled migration cost in nanoseconds (daemon tax).
    pub cost_ns: f64,
    /// Plan entries (regions) with at least one page moved.
    /// [`TieredSystem::migrate_region`] reports 0 or 1.
    pub regions_moved: u64,
    /// Worker threads the parallel engine was configured with
    /// (0 for the serial per-region path).
    pub workers: u32,
    /// Destination batches the parallel engine executed
    /// (0 for the serial per-region path).
    pub batches: u32,
    /// Modeled worker idle time: sum over batches of (critical-path ns −
    /// that batch's busy ns). High stall means one destination dominated
    /// the plan and the others' logical workers sat idle.
    pub stall_ns: f64,
    /// Per-site fault events injected/handled while executing this plan.
    pub faults: FaultCounters,
}

/// One entry of a window plan: move every page of `region` to `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMove {
    /// Region to move.
    pub region: u64,
    /// Destination placement.
    pub dest: Placement,
}

/// Pages per worker in one phase-A chunk of [`TieredSystem::execute_plan`].
/// Phase B applies a chunk's output before the next chunk is computed, so
/// the engine holds at most this many pages' output per worker at a time.
const CHUNK_PAGES_PER_WORKER: usize = 256;

/// Pages a phase-A worker claims from the chunk's shared cursor at once.
const CLAIM_PAGES: usize = 4;

/// Placements a system may have (DRAM, byte tiers and compressed tiers
/// together): the length of [`TieredSystem::region_placement`]'s count
/// array.
const MAX_PLACEMENTS: usize = 64;

/// What phase A of [`TieredSystem::execute_plan`] computed for one page,
/// for the serial path to apply. `B` gives the compressed output, as in
/// [`Compressed`].
enum Prepared<B> {
    /// Nothing: the serial path does all of the page's work.
    Nothing,
    /// The page compressed for its compressed destination.
    Compressed(Compressed<B>),
    /// The compressed source decoded toward a byte destination. The bytes
    /// are dropped: page content is regenerable.
    Decoded,
    /// The page's bytes are in the reuse map, for phase B to move into the
    /// destination: neither `fill_page` nor the codec ran.
    Reused,
}

impl<B> Prepared<B> {
    /// The same result with its compressed output given by `f(output)`.
    fn map<C>(self, f: impl FnOnce(B) -> C) -> Prepared<C> {
        match self {
            Prepared::Nothing => Prepared::Nothing,
            Prepared::Compressed(c) => Prepared::Compressed(c.map(f)),
            Prepared::Decoded => Prepared::Decoded,
            Prepared::Reused => Prepared::Reused,
        }
    }
}

/// How phase B of [`TieredSystem::execute_plan`] handles one page.
#[derive(Debug, Clone, Copy)]
enum Disposition {
    /// Already at the destination — nothing to do.
    Skip,
    /// Injected migration abort (fault plan): the page keeps its source
    /// placement and counts neither moved nor rejected.
    Aborted,
    /// Serial path, charged page by page (swapped or same-filled sources,
    /// `Modeled`-fidelity pages without real handles, duplicate plan
    /// entries).
    Serial,
    /// Charged to the logical worker of destination (batch) `.0`; phase A
    /// precomputes the page's pure work.
    Batched(usize),
}

/// One page of a window plan, classified in phase 0.
struct PlanPage {
    /// Index of the plan entry the page belongs to.
    entry: usize,
    vpage: u64,
    /// Residency when the plan was classified.
    snap: Residency,
    disposition: Disposition,
}

/// How [`TieredSystem::detach`] releases a compressed page's zswap entry.
#[derive(Debug, Clone, Copy)]
enum Release {
    /// Decode and free it: a fault, or a move nothing decoded yet.
    Load,
    /// Free it without decoding: phase A already decoded it, or
    /// writeback already read its bytes.
    Invalidate,
    /// Nothing left to free: the zswap migration released it.
    Released,
}

/// Modeled cost of one page move in ns, kept in parts: the serial path
/// and the batched cost model each sum them in their own fixed order, so
/// every charged nanosecond is reproducible bit for bit.
#[derive(Debug, Clone, Copy, Default)]
struct MoveCost {
    /// Reading the page out of its source (or a whole zswap migration).
    out: f64,
    /// Compressing into a compressed destination.
    compress: f64,
    /// Streaming into the destination.
    stream_in: f64,
    /// Pool-limit writeback the move triggered.
    writeback: f64,
}

impl MoveCost {
    /// The move alone, as the batched cost model charges it.
    fn batched(self) -> f64 {
        self.out + self.compress + self.stream_in
    }

    /// The move plus its writeback, as the serial path charges it.
    fn serial(self) -> f64 {
        self.out + (self.compress + self.stream_in) + self.writeback
    }
}

/// The bit of `algorithm` in a page's incompressibility memo.
fn memo_bit(algorithm: Algorithm) -> u8 {
    match algorithm {
        Algorithm::Lz4 => 1,
        Algorithm::Lz4hc => 1 << 1,
        Algorithm::Lzo => 1 << 2,
        Algorithm::LzoRle => 1 << 3,
        Algorithm::Deflate => 1 << 4,
        Algorithm::Zstd => 1 << 5,
        Algorithm::Sw842 => 1 << 6,
        Algorithm::Store => 1 << 7,
    }
}

/// Phase A's result for one page, with the host nanoseconds it took
/// (trace only).
type Computed = (ZswapResult<Prepared<Vec<u8>>>, u64);

/// Compressed bytes kept for reuse, by page, with the algorithm that
/// produced them.
type ReuseMap = BTreeMap<u64, (Algorithm, Box<[u8]>)>;

/// One phase-A worker's scratch, owned by the system and reused by every
/// chunk of every plan, so that running a codec allocates nothing.
struct WorkerBuffers {
    /// The page being filled or decoded.
    page: Vec<u8>,
    /// The codec's output; only a kept output is copied out.
    out: Vec<u8>,
}

/// What phase A of [`TieredSystem::execute_plan`] reads, shared by every
/// worker: zswap, the workload, the incompressibility memo, the reuse map
/// and the plan.
struct PhaseA<'s> {
    z: &'s ZswapSubsystem,
    ids: &'s [TierId],
    workload: &'s dyn Workload,
    memo: &'s [u8],
    reuse: &'s ReuseMap,
    pages: &'s [PlanPage],
    moves: &'s [PlannedMove],
}

impl PhaseA<'_> {
    /// Phase-A work for plan page `i`: the pure part of moving it from
    /// its residency `snap` to its entry's destination. `buf` holds the
    /// filled or decoded page and `out` (cleared first) the compressed
    /// bytes. A destination codec the page's incompressibility memo names
    /// is not run again, and a page with bytes in the reuse map is not
    /// filled or compressed at all.
    fn prepare<'a>(
        &self,
        i: usize,
        buf: &mut [u8],
        out: &'a mut Vec<u8>,
    ) -> ZswapResult<Prepared<&'a [u8]>> {
        let (z, ids, page) = (self.z, self.ids, &self.pages[i]);
        let memo = self.memo[page.vpage as usize];
        out.clear();
        match (page.snap, self.moves[page.entry].dest) {
            (
                Residency::Compressed {
                    tier,
                    stored: Some(s),
                    ..
                },
                Placement::Compressed(t),
            ) => {
                let (from, to) = (ids[tier as usize], ids[t]);
                let algorithm = z.tier(to)?.config().algorithm;
                // The §7.1 same-algorithm fast path is a memcpy: left serial.
                if z.tier(from)?.config().algorithm == algorithm {
                    Ok(Prepared::Nothing)
                } else if memo & memo_bit(algorithm) != 0 {
                    // Still decode, so every stored page read is checked.
                    z.tier(from)?
                        .decompress_into(s, buf)
                        .map(|()| Prepared::Compressed(Compressed::Incompressible))
                } else {
                    z.recompress(from, to, s, buf, out)
                        .map(Prepared::Compressed)
                }
            }
            (
                Residency::Compressed {
                    tier,
                    stored: Some(s),
                    ..
                },
                _,
            ) => z
                .tier(ids[tier as usize])?
                .decompress_into(s, buf)
                .map(|()| Prepared::Decoded),
            (_, Placement::Compressed(t)) => {
                let tier = z.tier(ids[t])?;
                if let Some((algorithm, bytes)) = self.reuse.get(&page.vpage) {
                    debug_assert!(
                        *algorithm == tier.config().algorithm
                            && self.compresses_to(page.vpage, tier, bytes, buf, out),
                        "page {}: reused bytes differ from a fresh compression",
                        page.vpage
                    );
                    return Ok(Prepared::Reused);
                }
                if memo & memo_bit(tier.config().algorithm) != 0 {
                    return Ok(Prepared::Compressed(Compressed::Incompressible));
                }
                self.workload.fill_page(page.vpage, buf);
                Ok(Prepared::Compressed(tier.compress_into(buf, out)))
            }
            _ => Ok(Prepared::Nothing),
        }
    }

    /// Whether page `vpage`, filled into `buf` and compressed by `tier`
    /// into `out`, comes out as exactly `bytes`: the check that a reused
    /// object is what a fresh compression would store.
    fn compresses_to(
        &self,
        vpage: u64,
        tier: &ts_zswap::CompressedTier,
        bytes: &[u8],
        buf: &mut [u8],
        out: &mut Vec<u8>,
    ) -> bool {
        self.workload.fill_page(vpage, buf);
        tier.compress_into(buf, out) == Compressed::Bytes(bytes)
    }
}

/// Performance accounting snapshot (Eq. 3–7).
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Total access events processed.
    pub accesses: u64,
    /// Simulated application time (ns) with the current placement history.
    pub app_time_ns: f64,
    /// Optimal time if every access had hit DRAM (Eq. 3).
    pub perf_opt_ns: f64,
    /// `app_time / perf_opt - 1`: fractional slowdown vs all-DRAM.
    pub slowdown: f64,
    /// Mean access latency in ns.
    pub mean_latency_ns: f64,
    /// 95th percentile access latency in ns.
    pub p95_ns: f64,
    /// 99.9th percentile access latency in ns.
    pub p999_ns: f64,
}

/// TCO accounting snapshot (Eq. 8–10).
#[derive(Debug, Clone)]
pub struct TcoReport {
    /// Instantaneous TCO at the time of the call.
    pub tco_now: f64,
    /// Time-averaged TCO over the run.
    pub tco_avg: f64,
    /// TCO with everything in DRAM (the baseline).
    pub tco_max: f64,
    /// Fractional savings of the time-averaged TCO vs all-DRAM.
    pub savings: f64,
}

/// The simulated tiered-memory system.
pub struct TieredSystem {
    cfg: SimConfig,
    machine: Arc<Machine>,
    zswap: Option<ZswapSubsystem>,
    /// zswap tier ids parallel to `cfg.compressed_tiers` (Real mode).
    zswap_ids: Vec<TierId>,
    calib: Calibration,
    workload: Box<dyn Workload>,
    pages: Vec<Residency>,
    dram_spec: MediaSpec,
    byte_specs: Vec<MediaSpec>,
    tier_stats: Vec<SimTierStats>,
    /// Resident page counts: [dram, byte tiers...].
    resident: Vec<u64>,
    accesses: u64,
    app_time_ns: f64,
    daemon_ns: f64,
    hist: LatencyHistogram,
    tco_integral: f64,
    tco_clock_ns: f64,
    /// [`Self::current_tco`] as of the last state change, or `None` once
    /// an input of it changed: a resident count, a pool's bytes (real or
    /// modeled) or the swap bytes. [`Self::detach`], [`Self::attach`] and
    /// every zswap pool mutation clear it.
    tco_rate: Option<f64>,
    /// Pages that faulted into DRAM when DRAM was at capacity.
    pub dram_overflow_faults: u64,
    page_buf: Vec<u8>,
    /// Phase A's per-worker scratch (`Real` fidelity; empty until a plan
    /// batches a page).
    phase_a_scratch: Vec<WorkerBuffers>,
    /// Modeled swap device for pool-limit writeback.
    swap: SwapDevice,
    /// Pages currently on the swap device (modeled accounting).
    swap_pages: u64,
    /// Compressed bytes currently on the swap device.
    swap_bytes: u64,
    /// Cumulative swap-in faults.
    pub swap_faults: u64,
    /// Per-tier insertion order of compressed pages (writeback LRU).
    wb_order: Vec<std::collections::VecDeque<u64>>,
    /// Installed fault-injection plan (None = fault-free, zero-cost).
    faults: Option<Arc<FaultPlan>>,
    /// Cumulative per-site fault events injected/handled.
    fault_counters: FaultCounters,
    /// Serial draw counter keying sim-level fault decisions; only ever
    /// advanced on serial paths, so runs are scheduling-independent.
    fault_nonce: u64,
    /// Installed metrics registry (None = observability off, zero cost).
    /// Boxed to keep the hot struct small; recorded values are pure
    /// functions of the run configuration (see ts-obs).
    obs: Option<Box<Registry>>,
    /// Per-page incompressibility memo (`Real` fidelity only, else
    /// empty): bit [`memo_bit`]`(a)` is set once phase A of
    /// [`Self::execute_plan`] found the page incompressible under
    /// algorithm `a`. Exact, because a page's content is a pure function
    /// of the workload's content seed and the page, and a tier's codec of
    /// its algorithm.
    incompressible: Vec<u8>,
    /// Compressed bytes that a fault took out of a tier's pool (`Real`
    /// fidelity only, else empty), kept until [`Self::execute_plan`]
    /// returns: phase 0 keeps the pages the plan batches from a byte tier
    /// into a tier of the same algorithm, and phase B moves their bytes
    /// into it instead of compressing the page again. Exact for the
    /// memo's reason.
    reuse: ReuseMap,
}

impl TieredSystem {
    /// Build a system from `cfg` and a workload. All pages start in DRAM.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for inconsistent configurations.
    pub fn new(cfg: SimConfig, workload: Box<dyn Workload>) -> SimResult<Self> {
        if cfg.dram_bytes < PAGE_SIZE as u64 {
            return Err(SimError::Config("dram capacity below one page"));
        }
        if 1 + cfg.byte_tiers.len() + cfg.compressed_tiers.len() > MAX_PLACEMENTS {
            return Err(SimError::Config("more than 64 placements"));
        }
        // Build the machine: DRAM node, byte-tier nodes, plus pool-only
        // nodes for compressed-tier media not otherwise present.
        let mut builder = Machine::builder().node(MediaKind::Dram, cfg.dram_bytes);
        let mut media_present = vec![MediaKind::Dram];
        for &(kind, bytes) in &cfg.byte_tiers {
            builder = builder.node(kind, bytes);
            media_present.push(kind);
        }
        let pool_only_cap = workload.rss_bytes().max(cfg.dram_bytes) * 2;
        for t in &cfg.compressed_tiers {
            if !media_present.contains(&t.media) {
                builder = builder.node(t.media, pool_only_cap);
                media_present.push(t.media);
            }
        }
        let machine = Arc::new(builder.build());

        let (zswap, zswap_ids) = match cfg.fidelity {
            Fidelity::Real => {
                let mut z = ZswapSubsystem::new(machine.clone());
                let mut ids = Vec::new();
                for t in &cfg.compressed_tiers {
                    ids.push(z.create_tier(t.clone()).map_err(SimError::Zswap)?);
                }
                (Some(z), ids)
            }
            Fidelity::Modeled => (None, Vec::new()),
        };

        let total_pages = workload.total_pages() as usize;
        let dram_spec = MediaKind::Dram.default_spec();
        let byte_specs = cfg
            .byte_tiers
            .iter()
            .map(|&(k, _)| k.default_spec())
            .collect();
        let incompressible = match cfg.fidelity {
            Fidelity::Real => vec![0u8; total_pages],
            Fidelity::Modeled => Vec::new(),
        };
        let ntiers = cfg.compressed_tiers.len();
        let nbyte = cfg.byte_tiers.len();
        let mut resident = vec![0u64; 1 + nbyte];
        resident[0] = total_pages as u64;
        Ok(TieredSystem {
            calib: Calibration::build(cfg.seed),
            cfg,
            machine,
            zswap,
            zswap_ids,
            workload,
            pages: vec![Residency::Dram; total_pages],
            dram_spec,
            byte_specs,
            tier_stats: vec![SimTierStats::default(); ntiers],
            resident,
            accesses: 0,
            app_time_ns: 0.0,
            daemon_ns: 0.0,
            hist: LatencyHistogram::new(),
            tco_integral: 0.0,
            tco_clock_ns: 0.0,
            tco_rate: None,
            dram_overflow_faults: 0,
            page_buf: vec![0u8; PAGE_SIZE],
            phase_a_scratch: Vec::new(),
            swap: SwapDevice::new(),
            swap_pages: 0,
            swap_bytes: 0,
            swap_faults: 0,
            wb_order: vec![std::collections::VecDeque::new(); ntiers],
            faults: None,
            fault_counters: FaultCounters::default(),
            fault_nonce: 0,
            obs: None,
            incompressible,
            reuse: BTreeMap::new(),
        })
    }

    /// Install a fresh metrics registry; instrumented paths (migration
    /// engine, window snapshots) record into it until [`Self::take_obs`].
    pub fn install_obs(&mut self) {
        self.obs = Some(Box::default());
    }

    /// The installed metrics registry, if any.
    pub fn obs(&self) -> Option<&Registry> {
        self.obs.as_deref()
    }

    /// Mutable access to the installed metrics registry, if any.
    pub fn obs_mut(&mut self) -> Option<&mut Registry> {
        self.obs.as_deref_mut()
    }

    /// Remove and return the registry (observability off afterwards).
    pub fn take_obs(&mut self) -> Option<Registry> {
        self.obs.take().map(|b| *b)
    }

    /// Snapshot window-end simulator state into the registry: per-tier
    /// occupancy/ratio/fault counters, zswap-side tier and pool stats
    /// (`Real` fidelity), swap-device state, fault-site counters and the
    /// daemon-tax account. Counters use monotonic `counter_max` because the
    /// underlying statistics are cumulative. No-op without a registry.
    pub fn obs_record_window(&mut self) {
        if self.obs.is_none() {
            return;
        }
        let nct = self.cfg.compressed_tiers.len();
        let rows: Vec<(SimTierStats, u64, f64)> = (0..nct)
            .map(|i| {
                (
                    self.tier_stats[i],
                    self.tier_pool_bytes(i),
                    self.tier_effective_ratio(i),
                )
            })
            .collect();
        let zrows = self.zswap.as_ref().map(|z| z.obs_snapshot());
        let resident = self.resident.clone();
        let (swap_pages, swap_bytes, swap_faults) =
            (self.swap_pages, self.swap_bytes, self.swap_faults);
        let fc = self.fault_counters;
        let (daemon_ns, accesses) = (self.daemon_ns, self.accesses);
        let tco = self.current_tco();
        let obs = self.obs.as_deref_mut().expect("checked above");
        for (i, (s, pool, ratio)) in rows.iter().enumerate() {
            let p = format!("tier.ct{i}");
            obs.gauge_set(&format!("{p}.pages"), s.pages as f64);
            obs.gauge_set(&format!("{p}.comp_bytes"), s.comp_bytes as f64);
            obs.gauge_set(&format!("{p}.pool_bytes"), *pool as f64);
            obs.gauge_set(&format!("{p}.ratio"), *ratio);
            obs.counter_max(&format!("{p}.stores"), s.stores);
            obs.counter_max(&format!("{p}.faults"), s.faults);
            obs.counter_max(&format!("{p}.rejections"), s.rejections);
            obs.counter_max(&format!("{p}.writebacks"), s.writebacks);
        }
        if let Some(zrows) = zrows {
            for (i, (ts, ps)) in zrows.iter().enumerate() {
                let p = format!("zswap.ct{i}");
                obs.counter_max(&format!("{p}.stores"), ts.stores);
                obs.counter_max(&format!("{p}.faults"), ts.faults);
                obs.counter_max(&format!("{p}.same_filled"), ts.same_filled);
                obs.counter_max(&format!("{p}.compress_failures"), ts.compress_failures);
                obs.counter_max(&format!("{p}.pool_ops"), ps.ops_total());
                obs.gauge_set(&format!("{p}.pool_density"), ps.density());
            }
        }
        obs.gauge_set("tier.dram.pages", resident[0] as f64);
        for (i, r) in resident.iter().enumerate().skip(1) {
            obs.gauge_set(&format!("tier.bt{}.pages", i - 1), *r as f64);
        }
        obs.gauge_set("swap.pages", swap_pages as f64);
        obs.gauge_set("swap.bytes", swap_bytes as f64);
        obs.counter_max("swap.faults", swap_faults);
        for (name, v) in fc.as_pairs() {
            obs.counter_max(&format!("faults.{name}"), v);
        }
        obs.gauge_set("daemon.tax_ns", daemon_ns);
        obs.counter_max("sim.accesses", accesses);
        obs.gauge_set("window.tco_now", tco);
    }

    /// Install a deterministic fault-injection plan. In `Real` fidelity
    /// the plan also reaches every zswap tier and its pool. Installing a
    /// plan additionally arms the graceful-degradation paths (waterfall
    /// overflow on pool exhaustion); without a plan those paths are
    /// byte-identical to the fault-free build.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let plan = Arc::new(plan);
        if let Some(z) = &mut self.zswap {
            z.set_fault_plan(&plan);
        }
        self.faults = Some(plan);
    }

    /// Cumulative per-site fault events injected (or handled by the
    /// degradation paths) so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault_counters
    }

    /// One serial fault draw for `site`. Advances the nonce only when the
    /// site can trip at all, so a plan with rate 0 (and the default
    /// no-plan state) leaves behavior byte-identical to fault-free runs.
    fn fault_trips(&mut self, site: FaultSite) -> bool {
        let Some(plan) = &self.faults else {
            return false;
        };
        if !plan.site_active(site) {
            return false;
        }
        let key = self.fault_nonce;
        self.fault_nonce += 1;
        plan.trips(site, key)
    }

    /// Waterfall fallback destination when `dest`'s pool is exhausted:
    /// the next compressed tier down, if any.
    fn overflow_dest(&self, dest: Placement) -> Option<Placement> {
        match dest {
            Placement::Compressed(t) if t + 1 < self.cfg.compressed_tiers.len() => {
                Some(Placement::Compressed(t + 1))
            }
            _ => None,
        }
    }

    /// Draw this window's capacity-pressure spikes: compressed tiers the
    /// migration filter must treat as full (they accept no migrations
    /// for one window). One serial draw per tier; empty without a plan.
    pub fn draw_pressure_spikes(&mut self) -> Vec<Placement> {
        let mut spiked = Vec::new();
        for i in 0..self.cfg.compressed_tiers.len() {
            if self.fault_trips(FaultSite::CapacityPressure) {
                self.fault_counters.bump(FaultSite::CapacityPressure);
                spiked.push(Placement::Compressed(i));
            }
        }
        spiked
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The workload driving this system.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Total pages managed.
    pub fn total_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Pages per region under the configured granularity.
    pub fn pages_per_region(&self) -> u64 {
        1u64 << (self.cfg.region_shift - ts_mem::PAGE_SHIFT)
    }

    /// Number of regions.
    pub fn total_regions(&self) -> u64 {
        (self.pages.len() as u64).div_ceil(self.pages_per_region())
    }

    /// Page range of a region.
    pub fn region_pages(&self, region: u64) -> std::ops::Range<u64> {
        let per = self.pages_per_region();
        let start = region * per;
        start..(start + per).min(self.pages.len() as u64)
    }

    /// All placements in tier order: DRAM, byte tiers, compressed tiers
    /// (assumed configured from low to high latency, as the paper orders
    /// tiers).
    pub fn placements(&self) -> Vec<Placement> {
        let mut v = vec![Placement::Dram];
        for i in 0..self.cfg.byte_tiers.len() {
            v.push(Placement::ByteTier(i));
        }
        for i in 0..self.cfg.compressed_tiers.len() {
            v.push(Placement::Compressed(i));
        }
        v
    }

    /// Current placement of a page.
    pub fn page_placement(&self, vpage: u64) -> Placement {
        match self.pages[vpage as usize] {
            Residency::Dram => Placement::Dram,
            Residency::Byte(i) => Placement::ByteTier(i as usize),
            Residency::Compressed { tier, .. } => Placement::Compressed(tier as usize),
            // Swapped pages logically belong to their origin tier's cold
            // set; promoting the region pulls them back through the
            // swap-fault path.
            Residency::Swapped { origin_tier, .. } => Placement::Compressed(origin_tier as usize),
        }
    }

    /// The zswap entry of page `vpage`, when it is stored in a compressed
    /// tier in `Real` fidelity.
    pub fn stored_page(&self, vpage: u64) -> Option<StoredPage> {
        match self.pages[vpage as usize] {
            Residency::Compressed { stored, .. } => stored,
            _ => None,
        }
    }

    /// The zswap subsystem behind the compressed tiers (`Real` fidelity
    /// only), its tiers in [`SimConfig::compressed_tiers`] order.
    pub fn zswap(&self) -> Option<&ZswapSubsystem> {
        self.zswap.as_ref()
    }

    /// Dominant placement of a region (most pages win; a tie goes to the
    /// placement last in [`TieredSystem::placements`] order, an empty
    /// region is DRAM).
    pub fn region_placement(&self, region: u64) -> Placement {
        let range = self.region_pages(region);
        if range.is_empty() {
            return Placement::Dram;
        }
        // Counted in `placements()` order, as `placement_counts` is.
        let nbyte = self.cfg.byte_tiers.len();
        let mut counts = [0u32; MAX_PLACEMENTS];
        for r in &self.pages[range.start as usize..range.end as usize] {
            let at = match *r {
                Residency::Dram => 0,
                Residency::Byte(i) => 1 + i as usize,
                Residency::Compressed { tier, .. }
                | Residency::Swapped {
                    origin_tier: tier, ..
                } => 1 + nbyte + tier as usize,
            };
            counts[at] += 1;
        }
        let at = (0..1 + nbyte + self.cfg.compressed_tiers.len())
            .max_by_key(|&i| counts[i])
            .unwrap_or(0);
        match at {
            0 => Placement::Dram,
            i if i <= nbyte => Placement::ByteTier(i - 1),
            i => Placement::Compressed(i - 1 - nbyte),
        }
    }

    /// Page counts per placement, in [`TieredSystem::placements`] order,
    /// with one trailing bucket for pages written back to the swap device
    /// (always last; zero unless pool limits are configured).
    pub fn placement_counts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.resident.clone();
        for s in &self.tier_stats {
            v.push(s.pages);
        }
        v.push(self.swap_pages);
        v
    }

    /// Simulator-side stats for compressed tier `i`.
    pub fn tier_stats(&self, i: usize) -> SimTierStats {
        self.tier_stats[i]
    }

    /// Average access latency of a placement for planning purposes: the
    /// latency the analytical model uses for `Lat` / `delta` terms (Eq. 6/7).
    pub fn placement_latency_ns(&self, p: Placement) -> f64 {
        match p {
            Placement::Dram => self.dram_spec.avg_latency_ns(),
            Placement::ByteTier(i) => self.byte_specs[i].avg_latency_ns(),
            Placement::Compressed(i) => {
                let t = &self.cfg.compressed_tiers[i];
                // Fault cost: decompress + place in DRAM (Eq. 5's Lat_CT +
                // Lat_TD); use the tier's nominal compressed size for the
                // stream term.
                let comp = (t.nominal_ratio() * PAGE_SIZE as f64) as u64;
                t.decompress_latency_ns()
                    + t.media.default_spec().stream_ns(comp)
                    + self.dram_spec.avg_latency_ns()
            }
        }
    }

    /// Per-page TCO cost of a placement in normalized $ (Eq. 8/10 terms).
    /// Compressed placements use the tier's calibrated effective ratio.
    pub fn placement_cost_per_page(&self, p: Placement) -> f64 {
        match p {
            Placement::Dram => self.dram_spec.cost_of_bytes(PAGE_SIZE as u64),
            Placement::ByteTier(i) => self.byte_specs[i].cost_of_bytes(PAGE_SIZE as u64),
            Placement::Compressed(i) => {
                let t = &self.cfg.compressed_tiers[i];
                let ratio = self.tier_effective_ratio(i);
                t.media.default_spec().cost_of_bytes(PAGE_SIZE as u64) * ratio
            }
        }
    }

    /// Sampled content-class mix of a region: `(class, fraction)` pairs from
    /// a 32-page stratified sample. Deterministic per region.
    pub fn region_class_mix(&self, region: u64) -> Vec<(ts_workloads::PageClass, f64)> {
        let range = self.region_pages(region);
        let len = range.end - range.start;
        if len == 0 {
            return Vec::new();
        }
        let step = (len / 32).max(1) | 1; // Odd stride avoids layout aliasing.
        let mut counts: std::collections::BTreeMap<ts_workloads::PageClass, u64> =
            std::collections::BTreeMap::new();
        let mut n = 0u64;
        let mut p = range.start;
        while p < range.end {
            *counts.entry(self.workload.page_class(p)).or_default() += 1;
            n += 1;
            p += step;
        }
        counts
            .into_iter()
            .map(|(c, k)| (c, k as f64 / n as f64))
            .collect()
    }

    /// Predicted compression ratio of `region`'s content in compressed tier
    /// `t`: the calibration-table mean per content class, weighted by the
    /// region's sampled class mix, clamped by the pool's packing bound.
    ///
    /// This is the §9(ii) "choosing tiers based on data compressibility"
    /// extension: the analytical model can use it for per-region TCO costs
    /// instead of a tier-wide average.
    pub fn region_compress_ratio(&self, region: u64, t: usize) -> f64 {
        let cfg = &self.cfg.compressed_tiers[t];
        let mix = self.region_class_mix(region);
        if mix.is_empty() {
            return cfg.nominal_ratio();
        }
        let mut ratio = 0.0;
        for (class, frac) in mix {
            let stats = self.calib.stats(cfg.algorithm, class);
            // Rejected pages stay uncompressed: ratio contribution 1.0.
            let class_ratio = stats.mean * (1.0 - stats.reject_rate) + 1.0 * stats.reject_rate;
            ratio += frac * class_ratio;
        }
        ratio.max(1.0 - cfg.pool.max_savings()).min(1.0)
    }

    /// Effective (pool-overhead-inclusive) compression ratio of tier `i`:
    /// measured when the tier holds pages, nominal otherwise.
    pub fn tier_effective_ratio(&self, i: usize) -> f64 {
        let s = &self.tier_stats[i];
        if s.pages > 0 {
            self.tier_pool_bytes(i) as f64 / (s.pages * PAGE_SIZE as u64) as f64
        } else {
            self.cfg.compressed_tiers[i].nominal_ratio()
        }
    }

    /// Backing pool bytes of compressed tier `i`.
    pub fn tier_pool_bytes(&self, i: usize) -> u64 {
        match &self.zswap {
            Some(z) => z.tiers()[i].pool_stats().pool_bytes(),
            None => self.tier_stats[i].pool_bytes_modeled,
        }
    }

    /// Modeled pool share of one object in a pool of `kind`. Same-filled
    /// markers (comp_len 0) consume no pool space at all.
    fn pool_share(kind: PoolKind, comp_len: u32) -> u64 {
        if comp_len == 0 {
            return 0;
        }
        match kind {
            PoolKind::Zsmalloc => (comp_len as f64 / 0.96) as u64,
            PoolKind::Zbud => (comp_len as u64).max(PAGE_SIZE as u64 / 2),
            PoolKind::Z3fold => (comp_len as u64).max(PAGE_SIZE as u64 / 3),
        }
    }

    /// Bytes of DRAM currently in use (resident pages + DRAM-backed pools).
    pub fn dram_used_bytes(&self) -> u64 {
        let mut used = self.resident[0] * PAGE_SIZE as u64;
        for (i, t) in self.cfg.compressed_tiers.iter().enumerate() {
            if t.media == MediaKind::Dram {
                used += self.tier_pool_bytes(i);
            }
        }
        used
    }

    /// Occupancy fraction of a placement's capacity.
    pub fn placement_pressure(&self, p: Placement) -> f64 {
        match p {
            Placement::Dram => self.dram_used_bytes() as f64 / self.cfg.dram_bytes as f64,
            Placement::ByteTier(i) => {
                let used = self.resident[1 + i] * PAGE_SIZE as u64;
                used as f64 / self.cfg.byte_tiers[i].1.max(1) as f64
            }
            Placement::Compressed(i) => {
                // Pools grow dynamically; pressure is relative to the
                // backing node they draw from.
                let t = &self.cfg.compressed_tiers[i];
                match t.media {
                    MediaKind::Dram => self.dram_used_bytes() as f64 / self.cfg.dram_bytes as f64,
                    _ => {
                        let node = self
                            .machine
                            .node_of_kind(t.media)
                            .expect("node exists by construction");
                        // Modeled mode doesn't allocate real frames; use the
                        // modeled pool bytes against the node capacity.
                        match &self.zswap {
                            Some(_) => node.pressure(),
                            None => self.tier_pool_bytes(i) as f64 / node.capacity_bytes() as f64,
                        }
                    }
                }
            }
        }
    }

    /// Process the next workload access; returns the access and its latency.
    pub fn step(&mut self) -> (Access, f64) {
        let access = self.workload.next_access();
        let lat = self.access(access.addr, access.is_store);
        (access, lat)
    }

    /// Apply one access at `addr`; returns the modeled latency in ns
    /// (memory latency plus the configured per-access compute cost).
    pub fn access(&mut self, addr: u64, is_store: bool) -> f64 {
        let vpage = (addr / PAGE_SIZE as u64).min(self.pages.len() as u64 - 1);
        let mem_lat = match self.pages[vpage as usize] {
            Residency::Dram => {
                if is_store {
                    self.dram_spec.write_latency_ns
                } else {
                    self.dram_spec.read_latency_ns
                }
            }
            Residency::Byte(i) => {
                let s = &self.byte_specs[i as usize];
                if is_store {
                    s.write_latency_ns
                } else {
                    s.read_latency_ns
                }
            }
            // Fault path: decompress (or read off swap and decompress) and
            // land the page, at Eq. 5's `Lat_CT + Lat_TD`.
            faulted => {
                let lat = self.detach(vpage, Release::Load);
                match faulted {
                    Residency::Compressed { tier, .. } => {
                        self.tier_stats[tier as usize].faults += 1
                    }
                    _ => self.swap_faults += 1,
                }
                let (landing, land_lat) = self.land_faulted();
                self.attach(vpage, landing);
                lat + land_lat
            }
        };
        let lat = mem_lat + self.cfg.compute_ns_per_access;
        self.accesses += 1;
        self.app_time_ns += lat;
        self.hist.record(lat);
        self.advance_tco(lat);
        lat
    }

    /// Where a faulted page lands: DRAM, or the first byte tier with room
    /// when DRAM is full (§6.5), overcommitting DRAM when none has room.
    /// Returns the landing residency and its read latency.
    fn land_faulted(&mut self) -> (Residency, f64) {
        if self.dram_used_bytes() + (PAGE_SIZE as u64) > self.cfg.dram_bytes {
            for (i, &(_, cap)) in self.cfg.byte_tiers.iter().enumerate() {
                if (self.resident[1 + i] + 1) * PAGE_SIZE as u64 <= cap {
                    return (
                        Residency::Byte(i as u16),
                        self.byte_specs[i].read_latency_ns,
                    );
                }
            }
            // Overcommit DRAM (tracked; real systems would reclaim).
            self.dram_overflow_faults += 1;
        }
        (Residency::Dram, self.dram_spec.read_latency_ns)
    }

    /// Take page `vpage` out of its current residency: release its zswap
    /// entry as `release` says (a swapped page is always read off the
    /// device and, in `Real` fidelity, decoded) and decrement the counters
    /// it occupied. Returns the cost of reading the page out.
    fn detach(&mut self, vpage: u64, release: Release) -> f64 {
        self.tco_rate = None;
        match self.pages[vpage as usize] {
            Residency::Dram => {
                self.resident[0] -= 1;
                self.dram_spec.stream_ns(PAGE_SIZE as u64)
            }
            Residency::Byte(i) => {
                self.resident[1 + i as usize] -= 1;
                self.byte_specs[i as usize].stream_ns(PAGE_SIZE as u64)
            }
            Residency::Swapped {
                comp_len,
                slot,
                origin_tier,
            } => {
                let t = &self.cfg.compressed_tiers[origin_tier as usize];
                if let Some(slot) = slot {
                    // Real fidelity: the bytes really come off the device
                    // and decode to exactly one page.
                    let bytes = self.swap.read(slot).expect("slot is live");
                    ts_zswap::decode_page(t.algorithm.codec().as_ref(), &bytes, &mut self.page_buf)
                        .expect("swap holds a valid compressed page");
                }
                self.swap_pages -= 1;
                self.swap_bytes -= comp_len as u64;
                SwapDevice::READ_NS + t.decompress_latency_ns()
            }
            Residency::Compressed {
                tier,
                comp_len,
                stored,
            } => {
                if let (Some(z), Some(s)) = (self.zswap.as_mut(), stored) {
                    let id = self.zswap_ids[tier as usize];
                    match release {
                        // The content is regenerable: the page buffer only
                        // holds the decoded bytes until the next decode.
                        // The compressed bytes are kept for a plan that
                        // demotes the page again.
                        Release::Load => {
                            let taken = z
                                .load_into(id, s, &mut self.page_buf)
                                .expect("stored page is live");
                            if let Some(bytes) = taken {
                                let algorithm = self.cfg.compressed_tiers[tier as usize].algorithm;
                                self.reuse.insert(vpage, (algorithm, bytes));
                            }
                        }
                        Release::Invalidate => z.invalidate(id, s).expect("stored page is live"),
                        Release::Released => {}
                    }
                }
                let t = &self.cfg.compressed_tiers[tier as usize];
                let st = &mut self.tier_stats[tier as usize];
                st.pages -= 1;
                st.comp_bytes -= comp_len as u64;
                if self.zswap.is_none() {
                    st.pool_bytes_modeled -= Self::pool_share(t.pool, comp_len);
                }
                // Same-filled pages (comp_len 0) reconstruct with a memset.
                if comp_len == 0 {
                    ts_zswap::tier::SAME_FILLED_FAULT_NS
                } else {
                    t.decompress_latency_ns() + t.media.default_spec().stream_ns(comp_len as u64)
                }
            }
        }
    }

    /// Put page `vpage` in `residency` and increment the counters it
    /// occupies. A compressed page of a pool-limited tier also becomes a
    /// writeback candidate, unless it is a same-filled marker (no pool
    /// bytes to free); returns the writeback cost that limit then costs.
    fn attach(&mut self, vpage: u64, residency: Residency) -> f64 {
        self.tco_rate = None;
        self.pages[vpage as usize] = residency;
        match residency {
            Residency::Dram => self.resident[0] += 1,
            Residency::Byte(i) => self.resident[1 + i as usize] += 1,
            Residency::Swapped { comp_len, .. } => {
                self.swap_pages += 1;
                self.swap_bytes += comp_len as u64;
            }
            Residency::Compressed { tier, comp_len, .. } => {
                let t = tier as usize;
                let st = &mut self.tier_stats[t];
                st.pages += 1;
                st.comp_bytes += comp_len as u64;
                st.stores += 1;
                if self.zswap.is_none() {
                    st.pool_bytes_modeled +=
                        Self::pool_share(self.cfg.compressed_tiers[t].pool, comp_len);
                }
                if comp_len > 0 && self.pool_limit(t).is_some() {
                    self.wb_order[t].push_back(vpage);
                    return self.enforce_pool_limit(t);
                }
            }
        }
        0.0
    }

    /// Compressed tier `t`'s pool limit, if it has one.
    fn pool_limit(&self, t: usize) -> Option<u64> {
        self.cfg.pool_limits.get(t).copied().flatten()
    }

    /// Enforce tier `t`'s pool limit by writing the oldest compressed pages
    /// back to the swap device (kernel zswap's `max_pool_percent` behaviour).
    /// Returns the writeback cost in ns (daemon tax).
    fn enforce_pool_limit(&mut self, t: usize) -> f64 {
        let Some(limit) = self.pool_limit(t) else {
            return 0.0;
        };
        let mut cost = 0.0;
        while self.tier_pool_bytes(t) > limit {
            let Some(victim) = self.wb_order[t].pop_front() else {
                break;
            };
            // Stale entries (already faulted or migrated) are skipped.
            let Residency::Compressed {
                tier,
                comp_len,
                stored,
            } = self.pages[victim as usize]
            else {
                continue;
            };
            if tier as usize != t {
                continue;
            }
            let slot = match (&self.zswap, stored) {
                (Some(z), Some(sp)) => {
                    // Residency says compressed, but if the zswap entry is
                    // gone (stale handle) skip the victim instead of
                    // panicking; the loop tries the next-oldest page.
                    let tier = z.tier(self.zswap_ids[t]).ok();
                    let Some(bytes) = tier.and_then(|tr| tr.peek_compressed(sp).ok()) else {
                        continue;
                    };
                    Some(self.swap.write(bytes))
                }
                _ => None,
            };
            self.detach(victim, Release::Invalidate);
            self.tier_stats[t].writebacks += 1;
            let origin_tier = t as u16;
            self.attach(
                victim,
                Residency::Swapped {
                    comp_len,
                    slot,
                    origin_tier,
                },
            );
            cost += self.cfg.compressed_tiers[t]
                .media
                .default_spec()
                .stream_ns(comp_len as u64)
                + SwapDevice::WRITE_NS;
        }
        cost
    }

    /// Pages currently written back to the swap device.
    pub fn swapped_pages(&self) -> u64 {
        self.swap_pages
    }

    /// Migrate one page to `dest`; returns the migration cost in ns, charged
    /// to the daemon (not application time).
    ///
    /// When a fault plan is installed and a compressed destination's pool
    /// is exhausted ([`TierError::PoolExhausted`]), the move overflows
    /// waterfall-style into the next compressed tier down, tier by tier,
    /// until one accepts the page or none remain.
    ///
    /// # Errors
    ///
    /// [`SimError::Rejected`] when a compressed destination rejects the page
    /// as incompressible; [`SimError::Tier`] when a fault (injected or
    /// genuine, with a plan installed) leaves the page in its source
    /// placement. Either way the page stays where it was.
    pub fn migrate_page(&mut self, vpage: u64, dest: Placement) -> SimResult<f64> {
        let mut dest = dest;
        loop {
            match self.migrate_page_once(vpage, dest) {
                Err(SimError::Tier(TierError::PoolExhausted)) => match self.overflow_dest(dest) {
                    Some(next) => dest = next,
                    None => return Err(SimError::Tier(TierError::PoolExhausted)),
                },
                other => return other,
            }
        }
    }

    /// One migration attempt to exactly `dest` (no waterfall fallback),
    /// charged to the daemon.
    fn migrate_page_once(&mut self, vpage: u64, dest: Placement) -> SimResult<f64> {
        if self.page_placement(vpage) == dest {
            return Ok(0.0);
        }
        let cost = self.move_page(vpage, dest, Prepared::Nothing)?.serial();
        self.daemon_ns += cost;
        self.advance_tco(cost);
        Ok(cost)
    }

    /// Move one page to exactly `dest`, applying what phase A `prepared`
    /// for it ([`Prepared::Nothing`] computes everything here). Charges
    /// nothing; the caller charges the returned cost.
    fn move_page(
        &mut self,
        vpage: u64,
        dest: Placement,
        prepared: Prepared<Box<[u8]>>,
    ) -> SimResult<MoveCost> {
        let t = match dest {
            Placement::Dram | Placement::ByteTier(_) => {
                let release = match prepared {
                    Prepared::Decoded => Release::Invalidate,
                    Prepared::Nothing | Prepared::Compressed(_) | Prepared::Reused => Release::Load,
                };
                let out = self.detach(vpage, release);
                let (landing, spec) = match dest {
                    Placement::ByteTier(i) => (Residency::Byte(i as u16), &self.byte_specs[i]),
                    _ => (Residency::Dram, &self.dram_spec),
                };
                let stream_in = spec.stream_ns(PAGE_SIZE as u64);
                self.attach(vpage, landing);
                return Ok(MoveCost {
                    out,
                    stream_in,
                    ..MoveCost::default()
                });
            }
            Placement::Compressed(t) => t,
        };
        // Compressed-to-compressed uses the zswap migration path.
        let (
            Residency::Compressed {
                tier: from,
                stored: Some(s),
                ..
            },
            Some(z),
        ) = (self.pages[vpage as usize], self.zswap.as_mut())
        else {
            return self.compress_into(vpage, t, prepared);
        };
        let recompressed = match prepared {
            Prepared::Compressed(c) => Some(c),
            Prepared::Nothing | Prepared::Decoded | Prepared::Reused => None,
        };
        let (from_id, to_id) = (self.zswap_ids[from as usize], self.zswap_ids[t]);
        // Pool bytes may change even when the migration fails part way.
        self.tco_rate = None;
        let out = match z.migrate(from_id, to_id, s, recompressed) {
            Ok(out) => out,
            Err(e) => return Err(self.store_error(t, e)),
        };
        self.detach(vpage, Release::Released);
        let landing = Residency::Compressed {
            tier: t as u16,
            comp_len: out.stored.compressed_len as u32,
            stored: Some(out.stored),
        };
        Ok(MoveCost {
            out: out.cost_ns,
            writeback: self.attach(vpage, landing),
            ..MoveCost::default()
        })
    }

    /// Map a failed zswap store into compressed tier `t` onto the
    /// simulator's error, counting rejections and injected faults.
    fn store_error(&mut self, t: usize, e: ZswapError) -> SimError {
        match e {
            ZswapError::Incompressible => {
                self.tier_stats[t].rejections += 1;
                SimError::Rejected
            }
            ZswapError::CompressFailed => {
                self.fault_counters.bump(FaultSite::ZswapStore);
                SimError::Tier(TierError::CompressFailed)
            }
            ZswapError::Pool(PoolError::OutOfMemory) if self.faults.is_some() => {
                self.fault_counters.bump(FaultSite::PoolAlloc);
                SimError::Tier(TierError::PoolExhausted)
            }
            e => SimError::Zswap(e),
        }
    }

    /// Compress page `vpage` into tier `t` from a byte-addressable (or
    /// swapped, or handle-less) source, moving phase A's compressed bytes
    /// into the pool when `prepared` carries them.
    fn compress_into(
        &mut self,
        vpage: u64,
        t: usize,
        prepared: Prepared<Box<[u8]>>,
    ) -> SimResult<MoveCost> {
        // `Modeled` fidelity has no zswap layer to trip inside, so the
        // store-path faults are drawn here on the serial path. (`Real`
        // fidelity injects inside ts-zswap/ts-zpool instead, keyed by the
        // store counters, and the errors are mapped by `store_error`.)
        if self.zswap.is_none() {
            if self.fault_trips(FaultSite::ZswapStore) {
                self.fault_counters.bump(FaultSite::ZswapStore);
                return Err(SimError::Tier(TierError::CompressFailed));
            }
            if self.fault_trips(FaultSite::PoolAlloc) {
                self.fault_counters.bump(FaultSite::PoolAlloc);
                return Err(SimError::Tier(TierError::PoolExhausted));
            }
        }
        let (comp_len, stored) = match &mut self.zswap {
            Some(z) => {
                self.tco_rate = None;
                let (workload, buf) = (&self.workload, &mut self.page_buf);
                let result = z
                    .tier_mut(self.zswap_ids[t])
                    .and_then(|tier| match prepared {
                        Prepared::Compressed(c) => tier.insert(c, PAGE_SIZE),
                        Prepared::Nothing | Prepared::Decoded | Prepared::Reused => {
                            workload.fill_page(vpage, buf);
                            tier.store(buf)
                        }
                    });
                match result {
                    Ok(s) => (s.compressed_len as u32, Some(s)),
                    Err(e) => return Err(self.store_error(t, e)),
                }
            }
            None => {
                let class = self.workload.page_class(vpage);
                if class == ts_workloads::PageClass::Zero {
                    // Same-filled page: a marker, no pool bytes (kernel
                    // zswap's same-filled optimization).
                    (0, None)
                } else {
                    let tag = vpage ^ self.cfg.seed.rotate_left(13);
                    let algorithm = self.cfg.compressed_tiers[t].algorithm;
                    match self.calib.modeled_len(algorithm, class, tag) {
                        Some(n) => (n as u32, None),
                        None => {
                            self.tier_stats[t].rejections += 1;
                            return Err(SimError::Rejected);
                        }
                    }
                }
            }
        };
        // Only detach from the source once the compression side committed.
        let out = self.detach(vpage, Release::Load);
        let landing = Residency::Compressed {
            tier: t as u16,
            comp_len,
            stored,
        };
        let writeback = self.attach(vpage, landing);
        let tcfg = &self.cfg.compressed_tiers[t];
        Ok(MoveCost {
            out,
            compress: tcfg.compress_latency_ns(),
            stream_in: tcfg.media.default_spec().stream_ns(comp_len as u64),
            writeback,
        })
    }

    /// Migrate every page of `region` to `dest`; rejected pages stay put.
    pub fn migrate_region(&mut self, region: u64, dest: Placement) -> MigrationReport {
        let mut report = MigrationReport::default();
        let faults_before = self.fault_counters;
        for p in self.region_pages(region) {
            match self.migrate_page(p, dest) {
                Ok(c) => {
                    if c > 0.0 {
                        report.moved += 1;
                    }
                    report.cost_ns += c;
                }
                Err(SimError::Rejected) => report.rejected += 1,
                Err(_) => report.rejected += 1,
            }
        }
        report.regions_moved = u64::from(report.moved > 0);
        report.faults = self.fault_counters.since(faults_before);
        report
    }

    /// Execute a whole window plan through the migration engine.
    ///
    /// * **Phase 0** classifies every page of the plan against the page
    ///   table, in plan order: already there, aborted by an injected
    ///   migration fault, serial, or batched (a move the engine can
    ///   precompute — a byte source into a compressed tier, or a stored
    ///   compressed source into a compressed or byte tier). The reuse map
    ///   then keeps only the pages batched from a byte tier into a tier of
    ///   the algorithm that produced their bytes.
    /// * **Phase A** runs the batched pages' pure work — fill and
    ///   compress, decompress and recompress, decompress — on up to
    ///   `workers` scoped threads, in chunks of at most
    ///   `CHUNK_PAGES_PER_WORKER` (256) pages per worker. The threads claim a
    ///   chunk's pages from one shared cursor, a few at a time, and run
    ///   their codecs in scratch the system owns and reuses. It only reads
    ///   the system. A page whose incompressibility memo names the
    ///   destination's algorithm comes back incompressible without
    ///   running the codec (or, from a byte tier, `fill_page`); a
    ///   compressed source is still decoded. A page the reuse map keeps
    ///   runs neither.
    /// * **Phase B** applies every page in plan order through the one
    ///   serial migration path, which takes phase A's output instead of
    ///   recomputing it. Each chunk is applied before the next is
    ///   computed. It records each page phase A found incompressible for
    ///   its destination's algorithm in the memo, and moves a reused
    ///   page's bytes out of the reuse map into its destination's pool,
    ///   which it empties when the plan is done. A page whose residency
    ///   changed since phase 0 (an earlier page's pool-limit writeback
    ///   evicted it) takes the serial path uncomputed, which neither reads
    ///   nor writes the memo.
    ///
    /// Every state change happens in phase B, in plan order, and every
    /// cost is closed-form in the page sizes, so the outcome — placements,
    /// statistics and every charged nanosecond — is bit-identical for any
    /// `workers` value. The charged daemon time models one logical worker
    /// per destination: the *slowest destination's* batched time plus the
    /// batched moves' writeback, while serial pages are charged one by
    /// one.
    pub fn execute_plan(&mut self, moves: &[PlannedMove], workers: usize) -> MigrationReport {
        let workers = workers.max(1);
        let mut report = MigrationReport {
            workers: workers as u32,
            ..MigrationReport::default()
        };
        let faults_before = self.fault_counters;

        // Phase 0. Nothing below changes the page table until phase B. A
        // region listed twice sees the first entry's effects, so its later
        // entries take the serial path, which checks placement when it
        // gets there.
        let mut seen = std::collections::BTreeSet::new();
        // Destinations with batched pages, in first-appearance order.
        let mut dests: Vec<Placement> = Vec::new();
        let mut plan_pages: Vec<PlanPage> = Vec::new();
        for (entry, mv) in moves.iter().enumerate() {
            let fresh = seen.insert(mv.region);
            for vpage in self.region_pages(mv.region) {
                let snap = self.pages[vpage as usize];
                let disposition = if fresh && self.page_placement(vpage) == mv.dest {
                    Disposition::Skip
                } else if self.fault_trips(FaultSite::MigrationCopy) {
                    // Drawn on this serial pass, so the decision sequence
                    // is identical at any worker count.
                    self.fault_counters.bump(FaultSite::MigrationCopy);
                    Disposition::Aborted
                } else if fresh && self.zswap.is_some() && Self::batchable(snap, mv.dest) {
                    let b = dests.iter().position(|&d| d == mv.dest);
                    Disposition::Batched(b.unwrap_or_else(|| {
                        dests.push(mv.dest);
                        dests.len() - 1
                    }))
                } else {
                    Disposition::Serial
                };
                plan_pages.push(PlanPage {
                    entry,
                    vpage,
                    snap,
                    disposition,
                });
            }
        }
        report.batches = dests.len() as u32;
        self.keep_reusable(&plan_pages, moves);
        let batched: Vec<usize> = (0..plan_pages.len())
            .filter(|&i| matches!(plan_pages[i].disposition, Disposition::Batched(_)))
            .collect();
        let mut chunks = batched.chunks(CHUNK_PAGES_PER_WORKER * workers);
        let mut ready = Vec::new().into_iter();

        // Phase B, computing phase A chunk by chunk as it reaches them.
        let mut busy = vec![0.0f64; dests.len()];
        let mut sinks = vec![WorkerSink::default(); dests.len()];
        let mut reused = vec![0u64; dests.len()];
        let mut serial_extra = 0.0f64;
        let mut tail_ns = 0.0f64;
        let mut entry_moved = vec![false; moves.len()];
        let (mut serial_pages, mut skipped_pages, mut aborted_pages) = (0u64, 0u64, 0u64);
        for page in &plan_pages {
            let (vpage, dest) = (page.vpage, moves[page.entry].dest);
            let batch = match page.disposition {
                Disposition::Skip => {
                    skipped_pages += 1;
                    continue;
                }
                Disposition::Aborted => {
                    aborted_pages += 1;
                    continue;
                }
                Disposition::Serial => {
                    serial_pages += 1;
                    None
                }
                Disposition::Batched(b) => {
                    if ready.len() == 0 {
                        let chunk = chunks.next().expect("one chunk slot per batched page");
                        ready = self.phase_a(&plan_pages, chunk, moves, workers).into_iter();
                    }
                    let (prepared, worker_ns) = ready.next().expect("chunk is non-empty");
                    sinks[b].worker_ns += worker_ns;
                    Some((b, prepared))
                }
            };
            // Whatever is left for the serial path, charged page by page.
            let serial = match batch {
                Some((b, prepared)) if self.pages[vpage as usize] == page.snap => {
                    // Remember a rejection, so later plans skip the codec.
                    if let (
                        Ok(Prepared::Compressed(Compressed::Incompressible)),
                        Placement::Compressed(t),
                    ) = (&prepared, dest)
                    {
                        let bit = memo_bit(self.cfg.compressed_tiers[t].algorithm);
                        self.incompressible[vpage as usize] |= bit;
                    }
                    let prepared = match prepared {
                        Ok(Prepared::Reused) => match self.reuse.remove(&vpage) {
                            Some((_, bytes)) => {
                                reused[b] += 1;
                                Ok(Prepared::Compressed(Compressed::Bytes(bytes)))
                            }
                            None => Ok(Prepared::Nothing),
                        },
                        // Copied here, so that an object the pool keeps is
                        // allocated on this thread: a phase-A worker's copy
                        // lives in that thread's malloc arena, and keeping
                        // it there raised the graph benchmark's peak RSS by
                        // ~10 %.
                        other => other.map(|p| p.map(|v| Box::from(&v[..]))),
                    };
                    let result = prepared
                        .map_err(SimError::Zswap)
                        .and_then(|p| self.move_page(vpage, dest, p));
                    self.record_outcome(&mut sinks[b], vpage, dest, result.is_ok());
                    match result {
                        Ok(cost) => {
                            busy[b] += cost.batched();
                            serial_extra += cost.writeback;
                            report.moved += 1;
                            entry_moved[page.entry] = true;
                            continue;
                        }
                        // Destination pool exhausted: overflow into the
                        // next compressed tier down.
                        Err(SimError::Tier(TierError::PoolExhausted)) => self
                            .overflow_dest(dest)
                            .map(|next| self.migrate_page(vpage, next)),
                        Err(_) => None,
                    }
                }
                // Moved since phase 0: the serial path, uncomputed.
                Some((b, _)) => {
                    let result = self.migrate_page(vpage, dest);
                    self.record_outcome(&mut sinks[b], vpage, dest, result.is_ok());
                    Some(result)
                }
                None => Some(self.migrate_page(vpage, dest)),
            };
            match serial {
                Some(Ok(c)) => {
                    if c > 0.0 {
                        report.moved += 1;
                        entry_moved[page.entry] = true;
                    }
                    tail_ns += c;
                }
                Some(Err(_)) | None => report.rejected += 1,
            }
        }

        self.reuse.clear();

        // Deterministic reduction: one logical worker per destination, so
        // the charged wall-clock is the slowest destination's busy time —
        // invariant in `workers`, which only changes how fast the *host*
        // runs phase A.
        let wall = busy.iter().fold(0.0f64, |a, &b| a.max(b));
        report.stall_ns = busy.iter().map(|&b| wall - b).sum();
        let engine_ns = wall + serial_extra;
        self.daemon_ns += engine_ns;
        self.advance_tco(engine_ns);
        report.cost_ns = engine_ns + tail_ns;
        report.regions_moved = entry_moved.iter().filter(|&&m| m).count() as u64;
        report.faults = self.fault_counters.since(faults_before);

        // Record the plan into the metrics registry, per destination in
        // first-appearance order; only span wall-clocks depend on the host,
        // and those stay out of the snapshot artifact.
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.inc("migrate.plans");
            obs.add("migrate.pages_moved", report.moved);
            obs.add("migrate.pages_rejected", report.rejected);
            obs.add("migrate.regions_moved", report.regions_moved);
            obs.add("migrate.batches", report.batches as u64);
            obs.add("migrate.serial_pages", serial_pages);
            obs.add("migrate.skipped_pages", skipped_pages);
            obs.add("migrate.aborted_pages", aborted_pages);
            obs.add("migrate.faults_injected", report.faults.total());
            obs.gauge_add("migrate.stall_ns", report.stall_ns);
            if !moves.is_empty() {
                obs.observe("migrate.plan_cost_ns", report.cost_ns);
            }
            for (((dest, sink), busy), reused) in dests.iter().zip(&sinks).zip(&busy).zip(&reused) {
                let scope = dest.to_string();
                // A batch is no one host interval: its pages ran on every
                // worker, among the other batches' pages. So the span has
                // no wall time, and the per-page worker time summed over
                // threads, which can exceed the enclosing
                // `window.execute`, is a field. So is the count of pages
                // whose reused bytes it moved.
                let fields = [
                    ("jobs", sink.jobs as f64),
                    ("worker_ns", sink.worker_ns as f64),
                    ("reused", *reused as f64),
                ];
                obs.span_raw("migrate.batch", &scope, 0, *busy, &fields);
                obs.merge_sink(&scope, sink);
            }
        }
        report
    }

    /// Drop the reuse map's entries that phase A cannot use: keep a page's
    /// bytes only when the plan batches it from a byte tier into a tier of
    /// the algorithm that produced them.
    fn keep_reusable(&mut self, pages: &[PlanPage], moves: &[PlannedMove]) {
        if self.reuse.is_empty() {
            return;
        }
        let mut all = std::mem::take(&mut self.reuse);
        for page in pages {
            let (Disposition::Batched(_), Residency::Dram | Residency::Byte(_)) =
                (page.disposition, page.snap)
            else {
                continue;
            };
            let Placement::Compressed(t) = moves[page.entry].dest else {
                continue;
            };
            if let Some(entry) = all.remove(&page.vpage) {
                if entry.0 == self.cfg.compressed_tiers[t].algorithm {
                    self.reuse.insert(page.vpage, entry);
                }
            }
        }
    }

    /// Whether a move from `snap` to `dest` is batched: a byte source into
    /// a compressed tier, or a stored compressed source into another
    /// compressed tier (not a same-filled marker) or into a byte tier (not
    /// a same-filled page). Everything else is cheap bookkeeping or needs
    /// the single swap device, and runs serially.
    fn batchable(snap: Residency, dest: Placement) -> bool {
        match (snap, dest) {
            (
                Residency::Compressed {
                    stored: Some(s), ..
                },
                Placement::Compressed(_),
            ) => !s.is_same_filled(),
            (Residency::Dram | Residency::Byte(_), Placement::Compressed(_)) => true,
            (
                Residency::Compressed {
                    stored: Some(_),
                    comp_len,
                    ..
                },
                Placement::Dram | Placement::ByteTier(_),
            ) => comp_len > 0,
            _ => false,
        }
    }

    /// Phase A over one chunk of batched plan pages (indices into
    /// `pages`): each page's pure work on up to `workers` scoped threads,
    /// the calling one included, each with its [`WorkerBuffers`]. The
    /// threads claim [`CLAIM_PAGES`] pages at a time from one shared
    /// cursor, so a thread that drew cheap pages (memo hits) goes on to
    /// take the next ones instead of waiting. Each result lands in its
    /// chunk slot, a kept output copied to a buffer of its exact length,
    /// which phase B frees as soon as it applied the page. Results come
    /// back in chunk order, each with the host nanoseconds it took (trace
    /// only).
    fn phase_a(
        &mut self,
        pages: &[PlanPage],
        chunk: &[usize],
        moves: &[PlannedMove],
        workers: usize,
    ) -> Vec<Computed> {
        let view = PhaseA {
            z: self
                .zswap
                .as_ref()
                .expect("batched pages imply Real fidelity"),
            ids: &self.zswap_ids,
            workload: self.workload.as_ref(),
            memo: &self.incompressible,
            reuse: &self.reuse,
            pages,
            moves,
        };
        let workers = workers.min(chunk.len().div_ceil(CLAIM_PAGES)).max(1);
        let scratch = &mut self.phase_a_scratch;
        if scratch.len() < workers {
            scratch.resize_with(workers, || WorkerBuffers {
                page: vec![0u8; PAGE_SIZE],
                out: Vec::with_capacity(PAGE_SIZE),
            });
        }
        let mut slots: Vec<Option<Computed>> = Vec::new();
        slots.resize_with(chunk.len(), || None);
        let cursor = Mutex::new(chunk.chunks(CLAIM_PAGES).zip(slots.chunks_mut(CLAIM_PAGES)));
        let work = |b: &mut WorkerBuffers| {
            // The buffers' headers move to this thread's stack while it
            // works: a codec updates its output's length byte by byte, and
            // next to another worker's headers that would share a cache
            // line between the threads.
            let (mut page, mut out) = (std::mem::take(&mut b.page), std::mem::take(&mut b.out));
            loop {
                // The guard drops at the end of this statement: the lock is
                // held for the claim only, never while a page runs.
                let claim = cursor
                    .lock()
                    .expect("a worker panicked while claiming pages")
                    .next();
                let Some((claimed, slots)) = claim else {
                    break;
                };
                for (&i, slot) in claimed.iter().zip(slots) {
                    let timer = SpanTimer::new();
                    let prepared = view
                        .prepare(i, &mut page, &mut out)
                        .map(|p| p.map(<[u8]>::to_vec));
                    *slot = Some((prepared, timer.elapsed_ns()));
                }
            }
            (b.page, b.out) = (page, out);
        };
        let work = &work;
        let (first, others) = scratch[..workers]
            .split_first_mut()
            .expect("at least one worker");
        std::thread::scope(|scope| {
            for b in others {
                scope.spawn(move || work(b));
            }
            work(first);
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("the cursor hands out every page"))
            .collect()
    }

    /// Fold one batched page's outcome into its destination's sink: a
    /// compressed copy with its length, a decompression toward a byte
    /// tier, or a failure.
    fn record_outcome(&self, sink: &mut WorkerSink, vpage: u64, dest: Placement, ok: bool) {
        match (ok, dest, self.pages[vpage as usize]) {
            (false, ..) => sink.record_failure(),
            (true, Placement::Compressed(_), Residency::Compressed { comp_len, .. })
            | (true, Placement::Compressed(_), Residency::Swapped { comp_len, .. }) => {
                sink.record_store(u64::from(comp_len))
            }
            (true, ..) => sink.record_fault(),
        }
    }

    /// Charge extra daemon time (profiling, solver) to the tax account.
    pub fn charge_daemon_ns(&mut self, ns: f64) {
        self.daemon_ns += ns;
        self.advance_tco(ns);
    }

    /// Cumulative daemon (TierScape tax) time in ns.
    pub fn daemon_ns(&self) -> f64 {
        self.daemon_ns
    }

    /// Integrate the TCO rate over `dt_ns`. The rate is recomputed only
    /// after a state change cleared [`Self::tco_rate`], so an access that
    /// moves no page costs no pool-statistics call.
    fn advance_tco(&mut self, dt_ns: f64) {
        let rate = match self.tco_rate {
            Some(rate) => rate,
            None => *self.tco_rate.insert(self.current_tco()),
        };
        debug_assert_eq!(rate.to_bits(), self.current_tco().to_bits());
        self.tco_integral += rate * dt_ns;
        self.tco_clock_ns += dt_ns;
    }

    /// Instantaneous memory TCO (Eq. 10), recomputed from the counters.
    pub fn current_tco(&self) -> f64 {
        let mut tco = self
            .dram_spec
            .cost_of_bytes(self.resident[0] * PAGE_SIZE as u64);
        for (i, spec) in self.byte_specs.iter().enumerate() {
            tco += spec.cost_of_bytes(self.resident[1 + i] * PAGE_SIZE as u64);
        }
        for (i, t) in self.cfg.compressed_tiers.iter().enumerate() {
            tco += t
                .media
                .default_spec()
                .cost_of_bytes(self.tier_pool_bytes(i));
        }
        tco += SwapDevice::COST_PER_GB * self.swap_bytes as f64 / (1u64 << 30) as f64;
        tco
    }

    /// TCO with every page in DRAM (Eq. 1's `TCO_max`).
    pub fn tco_max(&self) -> f64 {
        self.dram_spec
            .cost_of_bytes(self.total_pages() * PAGE_SIZE as u64)
    }

    /// Estimated minimum TCO: every page in its cheapest placement
    /// (Eq. 1's `TCO_min`).
    pub fn tco_min(&self) -> f64 {
        let per_page = self
            .placements()
            .iter()
            .map(|&p| self.placement_cost_per_page(p))
            .fold(f64::INFINITY, f64::min);
        per_page * self.total_pages() as f64
    }

    /// Performance report (Eq. 3–7 accounting plus tail latencies).
    pub fn perf_report(&self) -> PerfReport {
        let perf_opt = self.accesses as f64
            * (self.dram_spec.read_latency_ns + self.cfg.compute_ns_per_access);
        PerfReport {
            accesses: self.accesses,
            app_time_ns: self.app_time_ns,
            perf_opt_ns: perf_opt,
            slowdown: if perf_opt > 0.0 {
                self.app_time_ns / perf_opt - 1.0
            } else {
                0.0
            },
            mean_latency_ns: self.hist.mean(),
            p95_ns: self.hist.percentile(95.0),
            p999_ns: self.hist.percentile(99.9),
        }
    }

    /// TCO report over the run so far.
    pub fn tco_report(&self) -> TcoReport {
        let tco_now = self.current_tco();
        let tco_avg = if self.tco_clock_ns > 0.0 {
            self.tco_integral / self.tco_clock_ns
        } else {
            tco_now
        };
        let tco_max = self.tco_max();
        TcoReport {
            tco_now,
            tco_avg,
            tco_max,
            savings: 1.0 - tco_avg / tco_max,
        }
    }
}

impl std::fmt::Debug for TieredSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredSystem")
            .field("pages", &self.pages.len())
            .field("resident", &self.resident)
            .field("accesses", &self.accesses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ts_workloads::colocate::CoLocated;
    use ts_workloads::{Scale, WorkloadId};

    /// Recount `resident`, each tier's pages, compressed bytes and
    /// modeled pool bytes, and the swapped pages and bytes from the page
    /// table alone, and assert the incremental counters agree; and assert
    /// the cached TCO rate, when set, is the recomputed one to the bit.
    fn assert_counters_match_page_table(s: &TieredSystem, label: &str) {
        let mut resident = vec![0; s.resident.len()];
        let mut tiers = vec![SimTierStats::default(); s.tier_stats.len()];
        let mut swap = (0, 0);
        for &r in &s.pages {
            match r {
                Residency::Dram => resident[0] += 1,
                Residency::Byte(i) => resident[1 + i as usize] += 1,
                Residency::Compressed { tier, comp_len, .. } => {
                    let t = &mut tiers[tier as usize];
                    t.pages += 1;
                    t.comp_bytes += comp_len as u64;
                    if s.zswap.is_none() {
                        let pool = s.cfg.compressed_tiers[tier as usize].pool;
                        t.pool_bytes_modeled += TieredSystem::pool_share(pool, comp_len);
                    }
                }
                Residency::Swapped { comp_len, .. } => {
                    swap = (swap.0 + 1, swap.1 + comp_len as u64)
                }
            }
        }
        assert_eq!(resident, s.resident, "{label}");
        for (t, (a, b)) in tiers.iter().zip(&s.tier_stats).enumerate() {
            let counted = (a.pages, a.comp_bytes, a.pool_bytes_modeled);
            assert_eq!(
                counted,
                (b.pages, b.comp_bytes, b.pool_bytes_modeled),
                "{label}: tier {t}"
            );
        }
        assert_eq!(swap, (s.swap_pages, s.swap_bytes), "{label}");
        // In `Real` fidelity, zswap and the swap device agree too.
        if let Some(z) = &s.zswap {
            for (t, tier) in z.tiers().iter().enumerate() {
                assert_eq!(
                    tier.stats().pages,
                    s.tier_stats[t].pages,
                    "{label}: zswap tier {t}"
                );
            }
            assert_eq!(s.swap.used_bytes(), s.swap_bytes, "{label}: swap device");
        }
        if let Some(rate) = s.tco_rate {
            let recomputed = s.current_tco();
            assert_eq!(rate.to_bits(), recomputed.to_bits(), "{label}: TCO rate");
        }
    }

    /// memcached-ycsb, or two of it co-located, on the standard mix.
    fn system(fidelity: Fidelity, limited: bool, colocated: bool, seed: u64) -> TieredSystem {
        let kv = |seed| WorkloadId::MemcachedYcsb.build(Scale::TEST, seed);
        let w: Box<dyn Workload> = if colocated {
            Box::new(CoLocated::equal(vec![kv(seed), kv(seed + 1)]))
        } else {
            kv(seed)
        };
        let mut cfg = SimConfig::standard_mix(w.rss_bytes(), fidelity, seed);
        if limited {
            cfg = cfg.with_pool_limit(64 << 10);
        }
        TieredSystem::new(cfg, w).expect("valid configuration")
    }

    /// `region_placement` as it was first written: a map from placement
    /// to page count, the last maximum in `Placement` order winning.
    fn region_placement_by_map(s: &TieredSystem, region: u64) -> Placement {
        let mut counts = std::collections::BTreeMap::new();
        for p in s.region_pages(region) {
            *counts.entry(s.page_placement(p)).or_insert(0u64) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .map(|(p, _)| p)
            .unwrap_or(Placement::Dram)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Every residency counter equals a recount of the page table after
        /// every access burst, plan and region migration, and the cached
        /// TCO rate equals the recomputed one, in both fidelities, with and
        /// without pool limits, one workload or two, and with injected
        /// faults.
        #[test]
        fn counters_match_a_recount_of_the_page_table(
            ops in collection::vec((0u8..4, any::<u64>()), 6..12),
        ) {
            for setup in 0..12u64 {
                let fidelity = if setup & 1 == 0 { Fidelity::Modeled } else { Fidelity::Real };
                let mut s = system(fidelity, setup & 2 != 0, setup >> 2 == 1, setup);
                if setup >> 2 == 2 {
                    s.set_fault_plan(FaultPlan::uniform(setup, 0.2));
                }
                let placements = s.placements();
                let regions = s.total_regions();
                for (i, &(op, x)) in ops.iter().enumerate() {
                    match op {
                        0 => {
                            for _ in 0..500 {
                                s.step();
                            }
                            prop_assert!(s.tco_rate.is_some());
                        }
                        1 => {
                            for k in 0..64 {
                                let addr = x.wrapping_mul(k + 1).rotate_left(k as u32);
                                s.access(addr % (s.total_pages() * PAGE_SIZE as u64), k % 3 == 0);
                            }
                            prop_assert!(s.tco_rate.is_some());
                        }
                        2 => {
                            let plan: Vec<PlannedMove> = (0..regions)
                                .filter(|r| (x >> (r % 64)) & 1 == 1)
                                .map(|r| PlannedMove {
                                    region: r,
                                    dest: placements[((x ^ r) % placements.len() as u64) as usize],
                                })
                                .collect();
                            s.execute_plan(&plan, if x & 1 == 0 { 1 } else { 4 });
                        }
                        _ => {
                            let dest = placements[(x % placements.len() as u64) as usize];
                            s.migrate_region((x >> 8) % regions, dest);
                        }
                    }
                    assert_counters_match_page_table(&s, &format!("setup {setup}, op {i}"));
                }
            }
        }

        /// The fixed-array count picks what the map count picked, over
        /// page tables drawn at random (ties included) on a setup with a
        /// byte tier and on one with five compressed tiers, and for a
        /// region past the end.
        #[test]
        fn region_placement_matches_a_map_count(
            regions in collection::vec((collection::vec(0u8..16, 1..5), any::<bool>(), any::<u64>()), 8..9),
        ) {
            let kv = || WorkloadId::MemcachedYcsb.build(Scale::TEST, 5);
            let configs = [
                SimConfig::standard_mix(kv().rss_bytes(), Fidelity::Modeled, 5),
                SimConfig::spectrum(kv().rss_bytes(), Fidelity::Modeled, 5),
            ];
            for cfg in configs {
                let (nbyte, nct) = (cfg.byte_tiers.len() as u16, cfg.compressed_tiers.len() as u16);
                let mut s = TieredSystem::new(cfg, kv()).expect("valid configuration");
                // Residency kinds: DRAM, each byte tier, and each compressed
                // tier both stored and written back.
                let kind = |k: u8| match k as u16 % (1 + nbyte + 2 * nct) {
                    0 => Residency::Dram,
                    k if k <= nbyte => Residency::Byte(k - 1),
                    k if k <= nbyte + nct => Residency::Compressed {
                        tier: k - 1 - nbyte,
                        comp_len: 100,
                        stored: None,
                    },
                    k => Residency::Swapped {
                        comp_len: 100,
                        slot: None,
                        origin_tier: k - 1 - nbyte - nct,
                    },
                };
                let total = s.total_regions();
                for (r, (kinds, round_robin, mut x)) in regions.iter().enumerate() {
                    let r = r as u64 * total / regions.len() as u64;
                    for (n, p) in s.region_pages(r).enumerate() {
                        // Round robin over a region of 2^k pages ties
                        // whenever the number of kinds is a power of two.
                        let pick = if *round_robin {
                            n % kinds.len()
                        } else {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x as usize % kinds.len()
                        };
                        s.pages[p as usize] = kind(kinds[pick]);
                    }
                }
                for r in 0..total + 2 {
                    prop_assert_eq!(s.region_placement(r), region_placement_by_map(&s, r), "region {}", r);
                }
            }
        }
    }

    #[test]
    fn no_writeback_queue_without_a_pool_limit() {
        let mut s = system(Fidelity::Real, false, false, 3);
        for r in 0..s.total_regions() {
            s.migrate_region(r, Placement::Compressed(0));
        }
        assert!(s.tier_stats(0).stores > 0);
        assert!(s.wb_order.iter().all(|q| q.is_empty()));
    }
}
