//! Property-based integration tests: arbitrary workload pairs, seeds and
//! TLP combinations must never break the machine's conservation and
//! monotonicity invariants.
//!
//! Cases are generated with the in-repo [`SplitMix64`] generator (fixed
//! seeds, so failures reproduce exactly) — the build must work fully
//! offline.

use gpu_ebm::sim::machine::Gpu;
use gpu_ebm::types::{AppId, GpuConfig, MemCounters, SplitMix64, TlpCombo, TlpLevel};
use gpu_ebm::workloads::all_apps;

fn counters_sane(c: &MemCounters) {
    assert!(c.l1_misses <= c.l1_accesses, "L1 misses exceed accesses");
    assert!(c.l2_misses <= c.l2_accesses, "L2 misses exceed accesses");
    // Every DRAM byte moved belongs to some row decision.
    assert_eq!(
        c.dram_bytes % gpu_ebm::types::LINE_SIZE,
        0,
        "DRAM bytes must be line-granular"
    );
}

/// Any pair of application models at any ladder combination runs,
/// makes progress, and keeps its counters consistent.
#[test]
fn any_pair_any_combo_is_well_behaved() {
    let ladder = [1u32, 2, 4, 6, 8];
    let mut rng = SplitMix64::new(0x6A9_0001);
    for _ in 0..12 {
        let ai = rng.next_below(26) as usize;
        let bi = rng.next_below(26) as usize;
        let l0 = rng.next_below(5) as usize;
        let l1 = rng.next_below(5) as usize;
        let seed = 1 + rng.next_below(999);
        let cfg = GpuConfig::small();
        let apps = [&all_apps()[ai], &all_apps()[bi]];
        let mut gpu = Gpu::new(&cfg, &apps, seed);
        gpu.set_combo(&TlpCombo::pair(
            TlpLevel::new(ladder[l0]).unwrap(),
            TlpLevel::new(ladder[l1]).unwrap(),
        ));
        gpu.run(2_500);
        for a in 0..2u8 {
            let c = gpu.counters(AppId::new(a));
            counters_sane(&c);
            assert!(c.warp_insts > 0, "App-{} stalled completely", a + 1);
        }
    }
}

/// Counters are monotone over time (cumulative snapshots never regress).
#[test]
fn counters_are_monotone() {
    let mut rng = SplitMix64::new(0x6A9_0002);
    for _ in 0..12 {
        let seed = 1 + rng.next_below(499);
        let cfg = GpuConfig::small();
        let apps = [&all_apps()[14], &all_apps()[22]]; // BLK, BFS
        let mut gpu = Gpu::new(&cfg, &apps, seed);
        let mut prev = gpu.counters(AppId::new(0));
        for _ in 0..5 {
            gpu.run(500);
            let cur = gpu.counters(AppId::new(0));
            assert!(cur.warp_insts >= prev.warp_insts);
            assert!(cur.l1_accesses >= prev.l1_accesses);
            assert!(cur.dram_bytes >= prev.dram_bytes);
            prev = cur;
        }
    }
}

/// Attained bandwidth never exceeds the theoretical peak.
#[test]
fn attained_bandwidth_is_bounded_by_peak() {
    let ladder = [1u32, 2, 4, 6, 8];
    let mut rng = SplitMix64::new(0x6A9_0003);
    for _ in 0..12 {
        let seed = 1 + rng.next_below(199);
        let l = rng.next_below(5) as usize;
        let cfg = GpuConfig::small();
        let apps = [&all_apps()[14], &all_apps()[15]]; // BLK, TRD: bandwidth hogs
        let mut gpu = Gpu::new(&cfg, &apps, seed);
        gpu.set_combo(&TlpCombo::uniform(TlpLevel::new(ladder[l]).unwrap(), 2));
        gpu.run(1_000);
        let before: u64 = (0..2).map(|a| gpu.counters(AppId::new(a)).dram_bytes).sum();
        gpu.run(4_000);
        let after: u64 = (0..2).map(|a| gpu.counters(AppId::new(a)).dram_bytes).sum();
        let bw = (after - before) as f64 / 4_000.0;
        assert!(
            bw <= cfg.peak_bw_bytes_per_cycle() * 1.001,
            "attained {bw:.1} B/c exceeds peak {:.1}",
            cfg.peak_bw_bytes_per_cycle()
        );
    }
}

/// Every warp-cycle is charged to exactly one stall bucket or to an issue:
/// per app and per window, `mem + exec + barrier + tlp_capped` plus the
/// instructions issued equals warps × cycles, with metrics on, over random
/// TLP schedules. The first case is the one that caught a blocked warp
/// outside the SWL window being charged as both `mem` and `tlp_capped`
/// (BLK+TRD at seed 42 dropped from max TLP to 1 after 5 000 cycles).
#[test]
fn warp_stalls_cover_every_warp_cycle_under_tlp_changes() {
    let mut rng = SplitMix64::new(0x6A9_0004);
    let cfg = GpuConfig::small();
    for case in 0..6 {
        let (apps, seed) = if case == 0 {
            ([&all_apps()[14], &all_apps()[15]], 42) // BLK, TRD
        } else {
            let pick = |rng: &mut SplitMix64| &all_apps()[rng.next_below(26) as usize];
            ([pick(&mut rng), pick(&mut rng)], 1 + rng.next_below(999))
        };
        let mut gpu = Gpu::new(&cfg, &apps, seed);
        gpu.set_metrics_enabled(true);
        // Window lengths, each after an optional (app, TLP) change.
        let schedule: Vec<(u64, Option<(u8, u32)>)> = if case == 0 {
            vec![(5_000, None), (50, Some((0, 1)))]
        } else {
            (0..10)
                .map(|_| {
                    let change = rng.next_below(3) != 0;
                    let change =
                        change.then(|| (rng.next_below(2) as u8, 1 + rng.next_below(8) as u32));
                    (1 + rng.next_below(1_500), change)
                })
                .collect()
        };
        for (window, &(cycles, change)) in schedule.iter().enumerate() {
            if let Some((app, tlp)) = change {
                gpu.set_tlp(AppId::new(app), TlpLevel::new(tlp).unwrap());
            }
            let before: Vec<_> = (0..2).map(|a| gpu.core_stats(AppId::new(a))).collect();
            gpu.run(cycles);
            for (a, before) in before.iter().enumerate() {
                let app = AppId::new(a as u8);
                let stalls = gpu.take_warp_stalls(app);
                let now = gpu.core_stats(app);
                let warp_cycles = (now.cycles - before.cycles) * cfg.warps_per_core as u64;
                assert_eq!(
                    stalls.total() + now.insts - before.insts,
                    warp_cycles,
                    "case {case} window {window} App-{}: {stalls:?}",
                    a + 1
                );
            }
        }
    }
}
