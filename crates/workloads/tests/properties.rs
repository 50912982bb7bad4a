//! Property-based tests of the application models: determinism, address
//! hygiene and mix fidelity over arbitrary apps, warps and seeds.
//!
//! Cases are generated with the in-repo [`SplitMix64`] generator (fixed
//! seeds, so failures reproduce exactly) — the build must work fully
//! offline.

use gpu_simt::inst::{Inst, InstStream, LineArray, Op};
use gpu_types::{AppId, SplitMix64};
use gpu_workloads::{all_apps, AppProfile, AppStream, PH1};
use std::collections::HashSet;

/// The application stream as it was before decode wrote lines straight
/// into the warp's buffer, frozen: every memory instruction materialises
/// its `coalesce_degree` per-thread addresses, duplicates included, and a
/// separate coalescer ([`reference::coalesce`]) reduces them to lines.
/// Every warp carries its own copy of the profile constants. The decode
/// differential below holds the production stream to it.
mod reference {
    use gpu_types::{AppId, SplitMix64, LINE_SIZE};
    use gpu_workloads::{AccessPattern, AppProfile};

    const APP_REGION: u64 = 1 << 40;
    const CORE_SEGMENT: u64 = 1 << 28;
    const WARP_SEGMENT: u64 = 1 << 26;
    const STREAM_WRAP_LINES: u64 = (1 << 24) / LINE_SIZE;

    #[derive(Debug, PartialEq)]
    pub enum Inst {
        Alu { cycles: u32 },
        Load { addrs: Vec<u64> },
        Store { addrs: Vec<u64> },
    }

    /// Unique line addresses in first-appearance order.
    pub fn coalesce(addrs: &[u64]) -> Vec<u64> {
        let mut lines = Vec::new();
        for a in addrs {
            let line = a - a % LINE_SIZE;
            if !lines.contains(&line) {
                lines.push(line);
            }
        }
        lines
    }

    pub struct Stream {
        mem_ratio: f64,
        store_ratio: f64,
        alu_cycles: u32,
        pattern: AccessPattern,
        coalesce_degree: u64,
        rng: SplitMix64,
        slot: u64,
        warps_per_core: u64,
        core_stream_base: u64,
        warp_base: u64,
        shared_hot_base: u64,
        stream_iter: u64,
        stream_unit: u64,
        tile_index: u64,
        tile_sweep: u32,
        tile_pos: u64,
        insts: u64,
    }

    impl Stream {
        pub fn new(
            profile: &AppProfile,
            app: AppId,
            core_rank: usize,
            slot: usize,
            warps_per_core: usize,
            seed: u64,
        ) -> Self {
            let app_base = (1 + app.index() as u64) * APP_REGION;
            let warp_global = core_rank as u64 * 512 + slot as u64;
            let jitter = |tag: u64, span: u64| -> u64 {
                let mut h = SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_97F4_A7C1));
                h.next_below(span / 4 / LINE_SIZE) * LINE_SIZE
            };
            let app_tag = (app.index() as u64) << 20;
            let core_stream_base = app_base
                + (1 + core_rank as u64) * CORE_SEGMENT
                + jitter(0x1000 + core_rank as u64 + app_tag, CORE_SEGMENT / 4);
            let warp_base = app_base
                + (APP_REGION / 4)
                + (1 + warp_global) * WARP_SEGMENT
                + jitter(0x2000 + warp_global + app_tag, WARP_SEGMENT);
            let shared_hot_base = app_base
                + (APP_REGION / 2)
                + core_rank as u64 * WARP_SEGMENT
                + jitter(0x3000 + core_rank as u64 + app_tag, WARP_SEGMENT);
            let mut seeder = SplitMix64::new(seed ^ ((app.index() as u64) << 32));
            for _ in 0..=warp_global % 64 {
                seeder.next_u64();
            }
            let stride = match profile.pattern {
                AccessPattern::Stream { stride_lines } => stride_lines,
                _ => 1,
            };
            Stream {
                mem_ratio: profile.mem_ratio,
                store_ratio: profile.store_ratio,
                alu_cycles: profile.alu_cycles,
                pattern: profile.pattern,
                coalesce_degree: profile.coalesce_degree as u64,
                rng: SplitMix64::new(seeder.next_u64() ^ warp_global),
                slot: slot as u64,
                warps_per_core: warps_per_core as u64,
                core_stream_base,
                warp_base,
                shared_hot_base,
                stream_iter: 0,
                stream_unit: stride.max(profile.coalesce_degree as u64),
                tile_index: 0,
                tile_sweep: 0,
                tile_pos: 0,
                insts: 0,
            }
        }

        fn stream_line(&mut self, offset: u64) -> u64 {
            let pos = (self.stream_iter * self.warps_per_core + self.slot) * self.stream_unit;
            self.stream_iter += 1;
            self.core_stream_base + offset + (pos % STREAM_WRAP_LINES) * LINE_SIZE
        }

        fn gen_base(&mut self) -> u64 {
            match self.pattern {
                AccessPattern::Stream { .. } => self.stream_line(0),
                AccessPattern::HotStream {
                    hot_lines,
                    hot_frac,
                } => {
                    if self.rng.chance(hot_frac) {
                        self.warp_base + self.rng.next_below(hot_lines) * LINE_SIZE
                    } else {
                        self.stream_line(CORE_SEGMENT / 2)
                    }
                }
                AccessPattern::SharedHotStream {
                    hot_lines,
                    hot_frac,
                } => {
                    if self.rng.chance(hot_frac) {
                        self.shared_hot_base + self.rng.next_below(hot_lines) * LINE_SIZE
                    } else {
                        self.stream_line(0)
                    }
                }
                AccessPattern::TwoTierHot {
                    l1_lines,
                    l1_frac,
                    l2_lines,
                    l2_frac,
                } => {
                    let u = self.rng.next_f64();
                    if u < l1_frac {
                        self.warp_base + self.rng.next_below(l1_lines) * LINE_SIZE
                    } else if u < l1_frac + l2_frac {
                        self.shared_hot_base + self.rng.next_below(l2_lines) * LINE_SIZE
                    } else {
                        self.stream_line(CORE_SEGMENT / 2)
                    }
                }
                AccessPattern::RandomUniform { span_lines } => {
                    self.warp_base + self.rng.next_below(span_lines) * LINE_SIZE
                }
                AccessPattern::Phased {
                    hot_lines,
                    hot_frac,
                    phase_insts,
                } => {
                    let cache_phase = (self.insts / phase_insts).is_multiple_of(2);
                    if cache_phase && self.rng.chance(hot_frac) {
                        self.warp_base + self.rng.next_below(hot_lines) * LINE_SIZE
                    } else {
                        self.stream_line(CORE_SEGMENT / 2)
                    }
                }
                AccessPattern::Tiled { tile_lines, reuse } => {
                    let addr =
                        self.warp_base + (self.tile_index * tile_lines + self.tile_pos) * LINE_SIZE;
                    self.tile_pos += 1;
                    if self.tile_pos == tile_lines {
                        self.tile_pos = 0;
                        self.tile_sweep += 1;
                        if self.tile_sweep == reuse {
                            self.tile_sweep = 0;
                            self.tile_index =
                                (self.tile_index + 1) % (STREAM_WRAP_LINES / tile_lines).max(1);
                        }
                    }
                    addr
                }
            }
        }

        fn gen_addrs(&mut self) -> Vec<u64> {
            let d = self.coalesce_degree;
            match self.pattern {
                AccessPattern::Stream { .. } | AccessPattern::Tiled { .. } => {
                    let base = self.gen_base();
                    (0..d).map(|k| base + k * LINE_SIZE).collect()
                }
                _ => (0..d).map(|_| self.gen_base()).collect(),
            }
        }

        pub fn next_inst(&mut self) -> Inst {
            self.insts += 1;
            let u = self.rng.next_f64();
            if u < self.mem_ratio {
                Inst::Load {
                    addrs: self.gen_addrs(),
                }
            } else if u < self.mem_ratio + self.store_ratio {
                Inst::Store {
                    addrs: self.gen_addrs(),
                }
            } else {
                Inst::Alu {
                    cycles: self.alu_cycles,
                }
            }
        }
    }
}

/// Decode is the old `next_inst` followed by the old `coalesce`: same op
/// kinds, same lines in the same order, for every application model, on
/// lone streams and on the streams of a core that share their constants.
#[test]
fn decode_yields_the_lines_the_reference_stream_coalesces_to() {
    const WARPS: usize = 48;
    let profiles: Vec<&AppProfile> = all_apps().iter().chain([&PH1]).collect();
    assert!(profiles.len() == 27);
    let mut duplicates_dropped = 0usize;
    for profile in profiles {
        for seed in [7, 42, 0xD1FF] {
            for (rank, slot) in [(0, 0), (0, 47), (3, 1), (7, 30)] {
                let app = AppId::new((rank % 2) as u8);
                let mut old = reference::Stream::new(profile, app, rank, slot, WARPS, seed);
                let mut lone = AppStream::new(*profile, app, rank, slot, WARPS, seed);
                let mut shared = AppStream::core(profile, app, rank, WARPS, seed).swap_remove(slot);
                let (mut lines, mut shared_lines) = (LineArray::new(), LineArray::new());
                for i in 0..20_000 {
                    let at = || {
                        format!(
                            "{} seed {seed} core {rank} slot {slot} inst {i}",
                            profile.name
                        )
                    };
                    let op = lone
                        .decode(&mut lines.line_buf())
                        .expect("app streams are endless");
                    let shared_op = shared.decode(&mut shared_lines.line_buf());
                    assert_eq!(shared_op, Some(op), "{}", at());
                    let expect = match old.next_inst() {
                        reference::Inst::Alu { cycles } => {
                            assert_eq!(op, Op::Alu { cycles }, "{}", at());
                            continue;
                        }
                        reference::Inst::Load { addrs } => {
                            assert_eq!(op, Op::Load, "{}", at());
                            addrs
                        }
                        reference::Inst::Store { addrs } => {
                            assert_eq!(op, Op::Store, "{}", at());
                            addrs
                        }
                    };
                    let got: Vec<u64> = lines.iter().map(|a| a.raw()).collect();
                    assert_eq!(got, reference::coalesce(&expect), "{}", at());
                    assert_eq!(&lines[..], &shared_lines[..], "{}", at());
                    duplicates_dropped += expect.len() - got.len();
                }
            }
        }
    }
    assert!(
        duplicates_dropped > 0,
        "no irregular draw ever repeated a line"
    );
}

fn collect(app_idx: usize, app_id: u8, core: usize, slot: usize, seed: u64, n: usize) -> Vec<Inst> {
    let mut s = all_apps()[app_idx].stream(AppId::new(app_id), core, slot, 48, seed);
    (0..n)
        .map(|_| s.next_inst().expect("app streams are endless"))
        .collect()
}

/// Identical construction parameters replay identical streams.
#[test]
fn streams_are_deterministic() {
    let mut rng = SplitMix64::new(0x10AD_5701);
    for _ in 0..32 {
        let app = rng.next_below(26) as usize;
        let core = rng.next_below(8) as usize;
        let slot = rng.next_below(48) as usize;
        let seed = rng.next_below(1_000);
        assert_eq!(
            collect(app, 0, core, slot, seed, 64),
            collect(app, 0, core, slot, seed, 64)
        );
    }
}

/// Different applications never touch each other's address space.
#[test]
fn app_regions_are_disjoint() {
    let mut rng = SplitMix64::new(0x10AD_5702);
    for _ in 0..32 {
        let a = rng.next_below(26) as usize;
        let b = rng.next_below(26) as usize;
        let seed = rng.next_below(200);
        let lines = |app: usize, id: u8| -> HashSet<u64> {
            collect(app, id, 0, 0, seed, 200)
                .iter()
                .flat_map(|i| match i {
                    Inst::Load { addrs } | Inst::Store { addrs } => &addrs[..],
                    Inst::Alu { .. } => &[],
                })
                .map(|x| x.line().raw())
                .collect()
        };
        let la = lines(a, 0);
        let lb = lines(b, 1);
        assert!(la.is_disjoint(&lb), "apps {a} and {b} alias");
    }
}

/// The instruction mix respects the profile's memory ratios within
/// statistical tolerance.
#[test]
fn mix_matches_profile() {
    let mut rng = SplitMix64::new(0x10AD_5703);
    for _ in 0..32 {
        let app = rng.next_below(26) as usize;
        let seed = rng.next_below(100);
        let profile = &all_apps()[app];
        let insts = collect(app, 0, 0, 0, seed, 4_000);
        let loads = insts
            .iter()
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        let stores = insts
            .iter()
            .filter(|i| matches!(i, Inst::Store { .. }))
            .count();
        let lf = loads as f64 / insts.len() as f64;
        let sf = stores as f64 / insts.len() as f64;
        assert!(
            (lf - profile.mem_ratio).abs() < 0.05,
            "{}: load fraction {lf:.3} vs r_m {:.3}",
            profile.name,
            profile.mem_ratio
        );
        assert!(
            (sf - profile.store_ratio).abs() < 0.05,
            "{}: store fraction {sf:.3} vs {:.3}",
            profile.name,
            profile.store_ratio
        );
    }
}

/// Memory instructions emit exactly the coalescing degree in distinct
/// lines (never zero, never more).
#[test]
fn coalesce_degree_is_respected() {
    let mut rng = SplitMix64::new(0x10AD_5704);
    for _ in 0..32 {
        let app = rng.next_below(26) as usize;
        let seed = rng.next_below(100);
        let profile = &all_apps()[app];
        for i in collect(app, 0, 0, 0, seed, 500) {
            if let Inst::Load { addrs } | Inst::Store { addrs } = i {
                let distinct: HashSet<u64> = addrs.iter().map(|a| a.line().raw()).collect();
                assert!(!distinct.is_empty());
                assert!(
                    distinct.len() <= profile.coalesce_degree,
                    "{}: {} lines > degree {}",
                    profile.name,
                    distinct.len(),
                    profile.coalesce_degree
                );
            }
        }
    }
}

/// ALU instructions always carry the profile's latency.
#[test]
fn alu_latency_matches_profile() {
    for app in 0..26 {
        let profile = &all_apps()[app];
        for i in collect(app, 0, 0, 0, 7, 500) {
            if let Inst::Alu { cycles } = i {
                assert_eq!(cycles, profile.alu_cycles);
            }
        }
    }
}
