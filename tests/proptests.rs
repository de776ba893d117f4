//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use std::sync::Arc;
use tierscape::compress::{Algorithm, CodecError};
use tierscape::mem::{BuddyAllocator, Machine, MediaKind, NodeId};
use tierscape::solver::mckp::{MckpItem, MckpProblem};
use tierscape::zpool::PoolKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every codec round-trips arbitrary byte strings (or honestly rejects
    /// them as incompressible — never corrupts).
    #[test]
    fn codecs_round_trip_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..6000),
        algo_idx in 0usize..7,
    ) {
        let algo = Algorithm::ALL[algo_idx];
        let codec = algo.codec();
        let mut compressed = Vec::new();
        match codec.compress(&data, &mut compressed) {
            Ok(n) => {
                prop_assert!(n < data.len() || data.is_empty());
                let mut out = Vec::new();
                codec.decompress(&compressed[..n], &mut out).expect("own output is valid");
                prop_assert_eq!(out, data);
            }
            Err(CodecError::Incompressible { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// Codecs round-trip *structured* (compressible) data and always shrink it.
    #[test]
    fn codecs_shrink_repetitive_data(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        reps in 64usize..256,
        algo_idx in 0usize..7,
    ) {
        let algo = Algorithm::ALL[algo_idx];
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let codec = algo.codec();
        let mut compressed = Vec::new();
        let n = codec.compress(&data, &mut compressed)
            .expect("repetitive data is always compressible");
        prop_assert!(n < data.len());
        let mut out = Vec::new();
        codec.decompress(&compressed[..n], &mut out).expect("valid");
        prop_assert_eq!(out, data);
    }

    /// Decoders never panic or loop on corrupted input — they error or
    /// produce *some* output, but memory safety and termination hold.
    #[test]
    fn decoders_survive_fuzzed_input(
        garbage in proptest::collection::vec(any::<u8>(), 0..2000),
        algo_idx in 0usize..7,
    ) {
        let algo = Algorithm::ALL[algo_idx];
        let codec = algo.codec();
        let mut out = Vec::new();
        let _ = codec.decompress(&garbage, &mut out);
    }

    /// Decoders also survive damaged *real* streams, which get much deeper
    /// into a decoder than random garbage: a page of each class compressed
    /// by every codec, then 1–4 bytes overwritten, or the stream truncated.
    /// `decompress` must return `Ok` or `Err`, never panic or hang, and
    /// `decompress_into` one page must fail or stay within it (lz4, lz4hc,
    /// lzo and lzo-rle stop at that bound; the others check after decoding).
    #[test]
    fn decoders_survive_corrupted_streams(
        class_idx in 0usize..5,
        page in 0u64..1_000_000,
        edits in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..5),
        cut in any::<u16>(),
    ) {
        let mut buf = vec![0u8; 4096];
        tierscape::workloads::PageClass::ALL[class_idx].fill(42, page, &mut buf);
        for algo in Algorithm::ALL {
            let codec = algo.codec();
            let mut stream = Vec::new();
            let Ok(n) = codec.compress(&buf, &mut stream) else {
                continue;
            };
            stream.truncate(n);
            let mut overwritten = stream.clone();
            for &(at, flip) in &edits {
                // A non-zero xor always changes the byte.
                overwritten[usize::from(at) % n] ^= flip;
            }
            let truncated = &stream[..usize::from(cut) % n];
            for damaged in [&overwritten[..], truncated] {
                let mut out = Vec::new();
                let _ = codec.decompress(damaged, &mut out);
                let mut page = [0u8; 4096];
                if let Ok(n) = codec.decompress_into(damaged, &mut page) {
                    prop_assert!(n <= 4096, "{algo}: {n} bytes past the page");
                }
            }
        }
    }

    /// Buddy allocator: arbitrary alloc/free sequences preserve the frame
    /// accounting invariant and full coalescing on quiescence.
    #[test]
    fn buddy_allocator_invariants(ops in proptest::collection::vec((0u32..4, 0usize..64), 1..200)) {
        let mut buddy = BuddyAllocator::new(1 << 10);
        let mut live = Vec::new();
        for (order, pick) in ops {
            if live.len() > 24 || (!live.is_empty() && pick % 3 == 0) {
                let f: tierscape::mem::FrameNumber = live.swap_remove(pick % live.len());
                buddy.free(f).expect("live frame frees cleanly");
            } else if let Ok(f) = buddy.alloc(order) {
                live.push(f);
            }
            prop_assert_eq!(
                buddy.used_frames() + buddy.free_frames(),
                buddy.total_frames()
            );
        }
        for f in live {
            buddy.free(f).expect("cleanup");
        }
        prop_assert!(buddy.is_idle());
        // Full coalescing: the largest block must be allocatable again.
        prop_assert!(buddy.alloc(tierscape::mem::MAX_ORDER).is_ok());
    }

    /// Pools: every stored object loads back byte-identical under arbitrary
    /// interleavings of stores and removes, for all three pool managers.
    #[test]
    fn pools_preserve_objects(
        ops in proptest::collection::vec((1usize..3500, any::<u8>(), any::<bool>()), 1..120),
        kind_idx in 0usize..3,
    ) {
        let kind = PoolKind::ALL[kind_idx];
        let machine = Arc::new(Machine::builder().node(MediaKind::Dram, 16 << 20).build());
        let mut pool = kind.create(machine, NodeId(0));
        let mut live: Vec<(tierscape::zpool::Handle, u8, usize)> = Vec::new();
        for (size, tag, remove) in ops {
            if remove && !live.is_empty() {
                let (h, tag, size) = live.swap_remove(size % live.len());
                let mut out = Vec::new();
                pool.load(h, &mut out).expect("live");
                prop_assert_eq!(out, vec![tag; size]);
                pool.remove(h).expect("live");
            } else {
                let h = pool.store(&vec![tag; size]).expect("fits");
                live.push((h, tag, size));
            }
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.objects as usize, live.len());
        for (h, tag, size) in live {
            let mut out = Vec::new();
            pool.load(h, &mut out).expect("live");
            prop_assert_eq!(out, vec![tag; size]);
            pool.remove(h).expect("live");
        }
        prop_assert_eq!(pool.stats().pool_pages, 0);
    }

    /// MCKP solutions are feasible and the greedy never beats the exact DP
    /// (which would indicate a DP bug).
    #[test]
    fn mckp_feasible_and_consistent(
        raw in proptest::collection::vec(
            proptest::collection::vec((0u32..100, 0u32..40), 2..5),
            1..8,
        ),
        slack in 0u32..60,
    ) {
        let groups: Vec<Vec<MckpItem>> = raw
            .iter()
            .map(|g| g.iter().map(|&(p, t)| MckpItem::new(p as f64, t as f64)).collect())
            .collect();
        let min_budget: f64 = groups
            .iter()
            .map(|g| g.iter().map(|i| i.tco_cost).fold(f64::INFINITY, f64::min))
            .sum();
        let problem = MckpProblem { groups, budget: min_budget + slack as f64 };
        let greedy = problem.solve_greedy().expect("budget covers minimum");
        let exact = problem.solve_exact_dp(8192).expect("budget covers minimum");
        prop_assert!(greedy.tco_cost <= problem.budget + 1e-9);
        prop_assert!(exact.tco_cost <= problem.budget + 1e-9);
        prop_assert!(exact.perf_cost <= greedy.perf_cost + 1e-9,
            "exact {} must be <= greedy {}", exact.perf_cost, greedy.perf_cost);
    }

    /// Warm-start re-solves are bit-identical to cold solves — equal
    /// objective AND identical chosen placements — across randomized window
    /// sequences (the plan cache's correctness bar, DESIGN.md §5f).
    #[test]
    fn mckp_warm_start_equals_cold_across_window_sequences(
        hot0 in proptest::collection::vec(0u32..1000, 2..32),
        windows in proptest::collection::vec(
            proptest::collection::vec((0usize..32, 0u32..1000), 0..8),
            1..6,
        ),
    ) {
        const LAT: [f64; 6] = [0.0, 300.0, 2000.0, 4000.0, 5000.0, 12000.0];
        const COST: [f64; 6] = [12.0, 4.0, 6.0, 2.0, 5.5, 1.2];
        let build = |hot: &[f64]| MckpProblem {
            groups: hot
                .iter()
                .map(|&h| (0..6).map(|t| MckpItem::new(h * LAT[t], COST[t])).collect())
                .collect(),
            budget: 4.0 * hot.len() as f64,
        };
        let mut hot: Vec<f64> = hot0.iter().map(|&h| f64::from(h)).collect();
        let (mut prev_sol, mut warm) = build(&hot)
            .solve_greedy_with_state()
            .expect("budget covers every region's cheapest tier");
        for muts in windows {
            let prev_hot = hot.clone();
            for (i, v) in muts {
                let i = i % hot.len();
                hot[i] = f64::from(v);
            }
            let dirty: Vec<usize> = (0..hot.len())
                .filter(|&r| prev_hot[r].to_bits() != hot[r].to_bits())
                .collect();
            let problem = build(&hot);
            let (cold_sol, cold_state) = problem
                .solve_greedy_with_state()
                .expect("budget covers every region's cheapest tier");
            let (warm_sol, warm_state) = problem
                .resolve_warm(warm, &dirty)
                .expect("warm re-solve of a feasible problem succeeds");
            prop_assert_eq!(&warm_sol.choice, &cold_sol.choice, "chosen placements diverge");
            prop_assert_eq!(warm_sol.perf_cost.to_bits(), cold_sol.perf_cost.to_bits());
            prop_assert_eq!(warm_sol.tco_cost.to_bits(), cold_sol.tco_cost.to_bits());
            prop_assert_eq!(warm_sol.iterations, cold_sol.iterations);
            prop_assert_eq!(warm_state.steps_len(), cold_state.steps_len());
            // A clean window must also revalidate for the Reuse path.
            if dirty.is_empty() {
                let reused = problem
                    .reuse_solution(&prev_sol)
                    .expect("unchanged problem revalidates the stored solution");
                prop_assert_eq!(&reused.choice, &cold_sol.choice);
            }
            warm = warm_state;
            prev_sol = warm_sol;
        }
    }

    /// Latency histogram percentiles are monotone in p and bounded by max.
    #[test]
    fn histogram_percentiles_monotone(samples in proptest::collection::vec(1.0f64..1e8, 1..400)) {
        let mut h = tierscape::sim::LatencyHistogram::new();
        let mut max = 0.0f64;
        for &s in &samples {
            h.record(s);
            max = max.max(s);
        }
        let mut last = 0.0;
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= last - 1e-9, "p{p}: {v} < {last}");
            prop_assert!(v <= max * 1.05 + 1.0);
            last = v;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The multi-tier zswap subsystem preserves page contents across random
    /// interleavings of stores, loads, migrations and invalidations, and its
    /// per-tier page counts always equal the live set.
    #[test]
    fn zswap_subsystem_invariants(
        ops in proptest::collection::vec((0u8..4, 0usize..64, 0usize..3), 1..80),
    ) {
        use tierscape::mem::{Machine, MediaKind};
        use tierscape::workloads::PageClass;
        use tierscape::zswap::{TierConfig, ZswapError, ZswapSubsystem};

        let machine = Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 32 << 20)
                .node(MediaKind::Nvmm, 64 << 20)
                .build(),
        );
        let mut z = ZswapSubsystem::new(machine);
        let tiers = [
            z.create_tier(TierConfig::ct1()).unwrap(),
            z.create_tier(TierConfig::ct2()).unwrap(),
            z.create_tier(TierConfig::characterized_12()[0].clone()).unwrap(),
        ];
        // Live pages: (tier, stored, page index used for content).
        let mut live: Vec<(usize, tierscape::zswap::StoredPage, u64)> = Vec::new();
        let mut buf = vec![0u8; 4096];
        for (op, pick, tsel) in ops {
            match op {
                // Store a fresh page into tier `tsel`.
                0 => {
                    let page_idx = (live.len() as u64).wrapping_mul(7) + pick as u64;
                    let class = match page_idx % 3 {
                        0 => PageClass::Text,
                        1 => PageClass::HighlyCompressible,
                        _ => PageClass::Zero,
                    };
                    class.fill(9, page_idx, &mut buf);
                    match z.store(tiers[tsel], &buf) {
                        Ok(s) => live.push((tsel, s, page_idx)),
                        Err(ZswapError::Incompressible) => {}
                        Err(e) => prop_assert!(false, "store: {e}"),
                    }
                }
                // Load (fault) a random live page and verify its bytes.
                1 if !live.is_empty() => {
                    let (t, s, page_idx) = live.swap_remove(pick % live.len());
                    let got = z.load(tiers[t], s).expect("live page");
                    let class = match page_idx % 3 {
                        0 => PageClass::Text,
                        1 => PageClass::HighlyCompressible,
                        _ => PageClass::Zero,
                    };
                    class.fill(9, page_idx, &mut buf);
                    prop_assert_eq!(&got, &buf);
                }
                // Migrate a random live page to tier `tsel`.
                2 if !live.is_empty() => {
                    let idx = pick % live.len();
                    let (t, s, page_idx) = live[idx];
                    if t != tsel {
                        match z.migrate(tiers[t], tiers[tsel], s, None) {
                            Ok(out) => live[idx] = (tsel, out.stored, page_idx),
                            Err(ZswapError::Incompressible) => {}
                            Err(e) => prop_assert!(false, "migrate: {e}"),
                        }
                    }
                }
                // Invalidate a random live page.
                3 if !live.is_empty() => {
                    let (t, s, _) = live.swap_remove(pick % live.len());
                    z.invalidate(tiers[t], s).expect("live page");
                }
                _ => {}
            }
            // Invariant: per-tier page counts match the live set.
            for (ti, &tid) in tiers.iter().enumerate() {
                let expected = live.iter().filter(|(t, _, _)| *t == ti).count() as u64;
                prop_assert_eq!(z.tier(tid).unwrap().stats().pages, expected);
            }
        }
        // Drain: every remaining page still loads byte-identical.
        for (t, s, page_idx) in live {
            let got = z.load(tiers[t], s).expect("live page");
            let class = match page_idx % 3 {
                0 => PageClass::Text,
                1 => PageClass::HighlyCompressible,
                _ => PageClass::Zero,
            };
            class.fill(9, page_idx, &mut buf);
            prop_assert_eq!(got, buf.clone());
        }
        prop_assert_eq!(z.total_pages(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every `--plan-cache` mode yields byte-identical metrics artifacts on
    /// full daemon runs with randomized fault plans: warm-start re-solves
    /// survive fault-degraded windows (aborted moves, pressure spikes) the
    /// same way cold solves do, because the cache key is hotness state, not
    /// what migration later did with the plan.
    #[test]
    fn plan_cache_modes_byte_identical_under_random_faults(
        seed in 0u64..1000,
        fault_millis in 1u32..300,
    ) {
        use tierscape::core::prelude::*;
        use tierscape::sim::{Fidelity, SimConfig, TieredSystem};
        use tierscape::workloads::{Scale, WorkloadId};

        let run = |mode: PlanCacheMode| {
            let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, seed);
            let rss = w.rss_bytes();
            let mut system =
                TieredSystem::new(SimConfig::standard_mix(rss, Fidelity::Modeled, seed), w)
                    .expect("valid configuration");
            let mut policy = AnalyticalModel::am_tco();
            let cfg = DaemonConfig {
                windows: 3,
                window_accesses: 15_000,
                migration_workers: 2,
                fault_plan: Some(FaultPlan::uniform(seed, f64::from(fault_millis) / 1000.0)),
                obs: ObsConfig::enabled(),
                plan_cache: mode,
                ..DaemonConfig::default()
            };
            let report = run_daemon(&mut system, &mut policy, &cfg);
            report.obs.expect("obs enabled").snapshot_json()
        };
        let off = run(PlanCacheMode::Off);
        prop_assert_eq!(&off, &run(PlanCacheMode::Warm), "warm diverged from off");
        prop_assert_eq!(&off, &run(PlanCacheMode::Reuse), "reuse diverged from off");
    }

    /// Load-after-store round-trips for every (algorithm, pool, medium)
    /// combination — the paper's full 63-tier space — through the
    /// subsystem API.
    #[test]
    fn zswap_round_trips_all_63_tier_combinations(
        content_seed in any::<u64>(),
        class_idx in 0usize..5,
        page_idx in 0u64..1_000_000,
    ) {
        use tierscape::mem::{Machine, MediaKind};
        use tierscape::workloads::PageClass;
        use tierscape::zswap::{TierConfig, ZswapError, ZswapSubsystem};

        let machine = Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 96 << 20)
                .node(MediaKind::Nvmm, 96 << 20)
                .node(MediaKind::Cxl, 96 << 20)
                .build(),
        );
        let mut z = ZswapSubsystem::new(machine);
        let configs = TierConfig::all();
        prop_assert_eq!(configs.len(), 63, "7 algorithms x 3 pools x 3 media");
        let ids: Vec<_> = configs
            .into_iter()
            .map(|c| z.create_tier(c).expect("all media present"))
            .collect();

        let class = PageClass::ALL[class_idx];
        let mut page = vec![0u8; 4096];
        class.fill(content_seed, page_idx, &mut page);
        for &id in &ids {
            let stored = match z.store(id, &page) {
                Ok(s) => s,
                // High-entropy pages may honestly be rejected; never corrupted.
                Err(ZswapError::Incompressible) => continue,
                Err(e) => {
                    prop_assert!(false, "store: {e}");
                    unreachable!()
                }
            };
            prop_assert_eq!(z.tier(id).unwrap().stats().pages, 1);
            let got = z.load(id, stored).expect("just stored");
            prop_assert_eq!(&got, &page, "tier {:?} corrupted the page", id);
            prop_assert_eq!(z.tier(id).unwrap().stats().pages, 0);
        }
    }

    /// Under arbitrary interleavings of stores, migrations (split into the
    /// pure `recompress` and the serial `insert`, then the source release)
    /// and invalidations across tiers, pages are conserved, a source stays
    /// intact until it is released, and every tier's compressed payload
    /// stays inside its pool's backing pages.
    #[test]
    fn zswap_stored_bytes_bounded_by_pool(
        ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..3), 1..80),
    ) {
        use tierscape::mem::{Machine, MediaKind};
        use tierscape::workloads::PageClass;
        use tierscape::zswap::{TierConfig, ZswapError, ZswapSubsystem};

        let machine = Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 32 << 20)
                .node(MediaKind::Nvmm, 64 << 20)
                .build(),
        );
        let mut z = ZswapSubsystem::new(machine);
        let tiers = [
            z.create_tier(TierConfig::ct1()).unwrap(),
            z.create_tier(TierConfig::ct2()).unwrap(),
            z.create_tier(TierConfig::characterized_12()[0].clone()).unwrap(),
        ];
        let mut live: Vec<(usize, tierscape::zswap::StoredPage, u64)> = Vec::new();
        let mut buf = vec![0u8; 4096];
        for (op, pick, tsel) in ops {
            match op {
                0 => {
                    let page_idx = (live.len() as u64).wrapping_mul(11) + pick as u64;
                    let class = PageClass::ALL[page_idx as usize % PageClass::ALL.len()];
                    class.fill(3, page_idx, &mut buf);
                    match z.store(tiers[tsel], &buf) {
                        Ok(s) => live.push((tsel, s, page_idx)),
                        Err(ZswapError::Incompressible) => {}
                        Err(e) => prop_assert!(false, "store: {e}"),
                    }
                }
                1 if !live.is_empty() => {
                    let idx = pick % live.len();
                    let (t, s, page_idx) = live[idx];
                    if t != tsel && !s.is_same_filled() {
                        // The pure half reads the source and changes nothing.
                        let before = z.tier(tiers[t]).unwrap().stats();
                        let mut out = Vec::new();
                        let c = z
                            .recompress(tiers[t], tiers[tsel], s, &mut buf, &mut out)
                            .expect("live source");
                        prop_assert_eq!(z.tier(tiers[t]).unwrap().stats(), before);
                        let inserted = z.tier_mut(tiers[tsel]).unwrap().insert(c, s.original_len);
                        // Whatever the destination did, the source copy is
                        // intact until it is released.
                        let class = PageClass::ALL[page_idx as usize % PageClass::ALL.len()];
                        class.fill(3, page_idx, &mut buf);
                        let src = z.tier(tiers[t]).unwrap().decompress(s).expect("source intact");
                        prop_assert_eq!(&src, &buf);
                        match inserted {
                            Ok(new) => {
                                z.invalidate(tiers[t], s).expect("live");
                                live[idx] = (tsel, new, page_idx);
                            }
                            // Destination codec may reject the page.
                            Err(ZswapError::Incompressible) => {}
                            Err(e) => prop_assert!(false, "insert: {e}"),
                        }
                    }
                }
                2 if !live.is_empty() => {
                    let (t, s, _) = live.swap_remove(pick % live.len());
                    z.invalidate(tiers[t], s).expect("live page");
                }
                _ => {}
            }
            // Pages are conserved: every live page is stored exactly once.
            prop_assert_eq!(z.total_pages(), live.len() as u64);
            for &tid in &tiers {
                let tier = z.tier(tid).unwrap();
                let (stats, pool) = (tier.stats(), tier.pool_stats());
                // Compressed payload accounting agrees across the two layers
                // (same-filled pages occupy no pool space by design).
                prop_assert_eq!(stats.compressed_bytes, pool.stored_bytes);
                // The pool never claims to hold more payload than its
                // backing pages can contain.
                prop_assert!(
                    pool.stored_bytes <= pool.pool_bytes(),
                    "{} payload bytes in {} backing bytes",
                    pool.stored_bytes,
                    pool.pool_bytes()
                );
            }
        }
        for (t, s, _) in live {
            z.invalidate(tiers[t], s).expect("live page");
        }
        prop_assert_eq!(z.total_pages(), 0);
    }

    /// Random fault plans never violate the zswap invariants: with
    /// arbitrary per-site rates injected into every one of the 63 tier
    /// combinations, stores either succeed, honestly reject
    /// (`Incompressible`), or fail with an injected `CompressFailed` /
    /// `Pool(OutOfMemory)` — and in every case the payload accounting stays
    /// exact and bounded, and successful stores still round-trip.
    #[test]
    fn faulty_zswap_preserves_invariants_all_63_tiers(
        plan_seed in any::<u64>(),
        store_millis in 0u32..=1000,
        pool_millis in 0u32..=1000,
        content_seed in any::<u64>(),
        class_idx in 0usize..5,
    ) {
        use tierscape::mem::{Machine, MediaKind};
        use tierscape::sim::{FaultPlan, FaultSite};
        use tierscape::workloads::PageClass;
        use tierscape::zswap::{TierConfig, ZswapError, ZswapSubsystem};

        let machine = Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 96 << 20)
                .node(MediaKind::Nvmm, 96 << 20)
                .node(MediaKind::Cxl, 96 << 20)
                .build(),
        );
        let mut z = ZswapSubsystem::new(machine);
        let ids: Vec<_> = TierConfig::all()
            .into_iter()
            .map(|c| z.create_tier(c).expect("all media present"))
            .collect();
        let plan = FaultPlan::disabled(plan_seed)
            .with_rate(FaultSite::ZswapStore, f64::from(store_millis) / 1000.0)
            .with_rate(FaultSite::PoolAlloc, f64::from(pool_millis) / 1000.0);
        z.set_fault_plan(&Arc::new(plan));

        let class = PageClass::ALL[class_idx];
        let mut page = vec![0u8; 4096];
        let mut live = Vec::new();
        for (n, &id) in ids.iter().enumerate() {
            class.fill(content_seed, n as u64, &mut page);
            match z.store(id, &page) {
                Ok(s) => live.push((id, s, n as u64)),
                // Honest rejection or an injected fault: the page simply
                // stays uncompressed; the tier must remain consistent.
                Err(ZswapError::Incompressible | ZswapError::CompressFailed) => {}
                Err(ZswapError::Pool(tierscape::zpool::PoolError::OutOfMemory)) => {}
                Err(e) => prop_assert!(false, "store: {e}"),
            }
            let tier = z.tier(id).unwrap();
            let (stats, pool) = (tier.stats(), tier.pool_stats());
            prop_assert_eq!(stats.compressed_bytes, pool.stored_bytes);
            prop_assert!(
                pool.stored_bytes <= pool.pool_bytes(),
                "{} payload bytes in {} backing bytes",
                pool.stored_bytes,
                pool.pool_bytes()
            );
        }
        // Every page the subsystem *accepted* still round-trips exactly.
        for (id, s, n) in live {
            class.fill(content_seed, n, &mut page);
            let got = z.load(id, s).expect("accepted page is live");
            prop_assert_eq!(&got, &page, "tier {:?} corrupted the page", id);
        }
        prop_assert_eq!(z.total_pages(), 0);
    }

    /// Two walkers invalidating the same handles in opposite orders (while
    /// stores into another tier are interleaved) free each page exactly
    /// once: the second attempt gets a clean error, never a double-free or
    /// corrupted stats.
    #[test]
    fn zswap_double_invalidate_no_double_free(
        kind_idx in 0usize..3,
        pages in 8usize..40,
    ) {
        use tierscape::mem::{Machine, MediaKind};
        use tierscape::workloads::PageClass;
        use tierscape::zswap::{TierConfig, ZswapSubsystem};

        let machine = Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 32 << 20)
                .node(MediaKind::Nvmm, 64 << 20)
                .build(),
        );
        let mut z = ZswapSubsystem::new(machine);
        let victim_cfg = TierConfig::new(
            tierscape::compress::Algorithm::Lzo,
            PoolKind::ALL[kind_idx],
            MediaKind::Nvmm,
        );
        let victims = z.create_tier(victim_cfg).unwrap();
        let stores = z.create_tier(TierConfig::ct1()).unwrap();

        // Pre-store victim pages; Text never takes the same-filled path, so
        // every page owns a real pool object a double-free would corrupt.
        let mut buf = vec![0u8; 4096];
        let handles: Vec<_> = (0..pages)
            .map(|i| {
                PageClass::Text.fill(17, i as u64, &mut buf);
                let s = z.store(victims, &buf).expect("text compresses");
                assert!(!s.is_same_filled());
                s
            })
            .collect();

        // Walkers A and B visit the same handles in opposite orders, one
        // step each in turn, with a store into the other tier between.
        let (mut oks_a, mut oks_b) = (vec![false; pages], vec![false; pages]);
        for i in 0..pages {
            oks_a[i] = z.invalidate(victims, handles[i]).is_ok();
            let j = pages - 1 - i;
            oks_b[j] = z.invalidate(victims, handles[j]).is_ok();
            PageClass::HighlyCompressible.fill(23, i as u64, &mut buf);
            z.store(stores, &buf).expect("compressible");
        }

        for (i, (&a, &b)) in oks_a.iter().zip(&oks_b).enumerate() {
            prop_assert!(
                a ^ b,
                "handle {i}: freed {} times",
                u8::from(a) + u8::from(b)
            );
        }
        let vt = z.tier(victims).unwrap();
        prop_assert_eq!(vt.stats().pages, 0);
        prop_assert_eq!(vt.stats().compressed_bytes, 0);
        prop_assert_eq!(vt.pool_stats().stored_bytes, 0);
        prop_assert_eq!(z.tier(stores).unwrap().stats().pages as usize, pages);
    }
}
