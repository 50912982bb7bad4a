//! The per-warp instruction stream generated from an [`AppProfile`].

use crate::profile::{AccessPattern, AppProfile};
use gpu_simt::inst::{InstStream, LineBuf, Op};
use gpu_types::{Address, AppId, SplitMix64, LINE_SIZE};
use std::ops::Range;
use std::sync::Arc;

/// Bytes reserved per application (1 TiB regions keep apps disjoint).
const APP_REGION: u64 = 1 << 40;
/// Bytes reserved per core for the shared streaming window.
const CORE_SEGMENT: u64 = 1 << 28;
/// Bytes reserved per warp's private segment (hot regions, tiles, random
/// spans).
const WARP_SEGMENT: u64 = 1 << 26;
/// Lines a stream covers before wrapping (16 MiB: far beyond any cache, so
/// wrapping never manufactures reuse).
const STREAM_WRAP_LINES: u64 = (1 << 24) / LINE_SIZE;

/// What every warp of one core reads of its application and of the
/// core's place in the address space. A machine holds one stream per warp
/// slot, so this is held once per core and shared.
#[derive(Debug)]
struct CoreStream {
    profile: AppProfile,
    warps_per_core: u64,
    core_stream_base: u64,
    shared_hot_base: u64,
    /// Lines each grid-stride access advances (>= coalesce degree so
    /// neighbouring warps do not overlap).
    stream_unit: u64,
}

/// Deterministic instruction stream for one warp of one application.
///
/// Address-space layout:
/// * applications occupy disjoint 1 TiB regions (no cross-app aliasing);
/// * **streaming is grid-stride**: all warps of a core walk a shared
///   per-core window, warp `slot` handling the `slot`-th chunk of every
///   sweep — exactly how coalesced CUDA kernels stride their grid. This
///   makes concurrently active warps touch *adjacent* lines, so DRAM row
///   locality survives (and bandwidth grows) as TLP rises, as in the
///   paper's Fig. 2(b);
/// * private hot regions, tiles and random spans live in a per-warp 64 MiB
///   segment, so their aggregate footprint scales with the number of active
///   warps — the TLP-driven cache-thrashing mechanism of Fig. 2(c);
/// * the [`AccessPattern::SharedHotStream`] hot region is per-core: shared
///   by its warps, disjoint across cores.
pub struct AppStream {
    core: Arc<CoreStream>,
    rng: SplitMix64,
    warp_base: u64,
    /// Iteration counter of the grid-stride stream.
    stream_iter: u64,
    /// Instructions emitted so far (drives phase switching).
    insts: u64,
    /// Below `warps_per_core`.
    slot: u32,
    /// Below `STREAM_WRAP_LINES`, 2^17.
    tile_index: u32,
    tile_sweep: u32,
    /// Below `tile_lines`, which `Self::slots` holds to 32 bits.
    tile_pos: u32,
}

// A machine holds one per warp slot, 5 120 on `GpuConfig::volta`.
const _: () = assert!(std::mem::size_of::<AppStream>() == 56);

impl std::fmt::Debug for AppStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppStream")
            .field("slot", &self.slot)
            .field("warp_base", &format_args!("{:#x}", self.warp_base))
            .finish()
    }
}

impl AppStream {
    /// Creates the stream for warp `slot` (of `warps_per_core`) on the
    /// application's core with rank `core_rank` (rank among the cores
    /// assigned to this app).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn new(
        profile: AppProfile,
        app: AppId,
        core_rank: usize,
        slot: usize,
        warps_per_core: usize,
        seed: u64,
    ) -> Self {
        assert!(slot < warps_per_core, "slot {slot} out of {warps_per_core}");
        let only = slot..slot + 1;
        Self::slots(&profile, app, core_rank, only, warps_per_core, seed).remove(0)
    }

    /// The streams of all `warps_per_core` warp slots of one core, in slot
    /// order, sharing what they have in common.
    pub fn core(
        profile: &AppProfile,
        app: AppId,
        core_rank: usize,
        warps_per_core: usize,
        seed: u64,
    ) -> Vec<Self> {
        let all = 0..warps_per_core;
        Self::slots(profile, app, core_rank, all, warps_per_core, seed)
    }

    fn slots(
        profile: &AppProfile,
        app: AppId,
        core_rank: usize,
        slots: Range<usize>,
        warps_per_core: usize,
        seed: u64,
    ) -> Vec<Self> {
        let (app, core_rank) = (app.index() as u64, core_rank as u64);
        let app_base = (1 + app) * APP_REGION;
        // Segment bases are power-of-two spaced; left unperturbed, every
        // warp's region would map onto the same cache sets (set index =
        // line index mod a power of two) and alias pathologically. Real
        // allocations land at arbitrary offsets, so jitter each base by a
        // hashed, line-aligned offset within the first quarter of its
        // segment.
        let jitter = |tag: u64, span: u64| -> u64 {
            let mut h =
                SplitMix64::new(seed ^ (tag + (app << 20)).wrapping_mul(0x9E37_79B9_97F4_A7C1));
            h.next_below(span / 4 / LINE_SIZE) * LINE_SIZE
        };
        let stride = match profile.pattern {
            AccessPattern::Stream { stride_lines } => stride_lines,
            AccessPattern::Tiled { tile_lines, .. } => {
                assert!(
                    tile_lines <= u32::MAX as u64,
                    "{}: a tile of {tile_lines} lines exceeds 2^32",
                    profile.name
                );
                1
            }
            _ => 1,
        };
        let core = Arc::new(CoreStream {
            profile: *profile,
            warps_per_core: warps_per_core as u64,
            core_stream_base: app_base
                + (1 + core_rank) * CORE_SEGMENT
                + jitter(0x1000 + core_rank, CORE_SEGMENT / 4),
            shared_hot_base: app_base
                + (APP_REGION / 2)
                + core_rank * WARP_SEGMENT
                + jitter(0x3000 + core_rank, WARP_SEGMENT),
            stream_unit: stride.max(profile.coalesce_degree as u64),
        });
        let warp = |slot: usize| {
            let warp_global = core_rank * 512 + slot as u64;
            let mut seeder = SplitMix64::new(seed ^ (app << 32));
            for _ in 0..=warp_global % 64 {
                seeder.next_u64();
            }
            AppStream {
                core: Arc::clone(&core),
                rng: SplitMix64::new(seeder.next_u64() ^ warp_global),
                slot: u32::try_from(slot).expect("a warp slot fits 32 bits"),
                warp_base: app_base
                    + (APP_REGION / 4)
                    + (1 + warp_global) * WARP_SEGMENT
                    + jitter(0x2000 + warp_global, WARP_SEGMENT),
                stream_iter: 0,
                tile_index: 0,
                tile_sweep: 0,
                tile_pos: 0,
                insts: 0,
            }
        };
        slots.map(warp).collect()
    }

    /// Next grid-stride line address within the shared core window
    /// (optionally offset to a disjoint half for cold traffic).
    fn stream_line(&mut self, offset: u64) -> u64 {
        let core = &*self.core;
        let pos = (self.stream_iter * core.warps_per_core + self.slot as u64) * core.stream_unit;
        self.stream_iter += 1;
        core.core_stream_base + offset + (pos % STREAM_WRAP_LINES) * LINE_SIZE
    }

    /// One base address per the profile's pattern.
    fn gen_base(&mut self) -> u64 {
        match self.core.profile.pattern {
            AccessPattern::Stream { .. } => self.stream_line(0),
            AccessPattern::HotStream {
                hot_lines,
                hot_frac,
            } => {
                if self.rng.chance(hot_frac) {
                    self.warp_base + self.rng.next_below(hot_lines) * LINE_SIZE
                } else {
                    // Cold accesses grid-stride through the upper half of
                    // the core window.
                    self.stream_line(CORE_SEGMENT / 2)
                }
            }
            AccessPattern::SharedHotStream {
                hot_lines,
                hot_frac,
            } => {
                if self.rng.chance(hot_frac) {
                    self.core.shared_hot_base + self.rng.next_below(hot_lines) * LINE_SIZE
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
                    self.core.shared_hot_base + self.rng.next_below(l2_lines) * LINE_SIZE
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
                let tile_line = self.tile_index as u64 * tile_lines + self.tile_pos as u64;
                let addr = self.warp_base + tile_line * LINE_SIZE;
                self.tile_pos += 1;
                if self.tile_pos as u64 == tile_lines {
                    self.tile_pos = 0;
                    self.tile_sweep += 1;
                    if self.tile_sweep == reuse {
                        self.tile_sweep = 0;
                        // Wrap tiles within the streaming window.
                        let n_tiles = (STREAM_WRAP_LINES / tile_lines).max(1);
                        self.tile_index = ((self.tile_index as u64 + 1) % n_tiles) as u32;
                    }
                }
                addr
            }
        }
    }

    /// Writes the transactions of one memory instruction: every base is
    /// line-granular already, so the lines go straight into the warp's
    /// buffer, up to `coalesce_degree` distinct ones and no more than it
    /// holds. The draws do not depend on what it holds.
    fn gen_lines(&mut self, lines: &mut LineBuf<'_>) {
        lines.clear();
        let d = self.core.profile.coalesce_degree as u64;
        match self.core.profile.pattern {
            // Contiguous patterns touch `d` consecutive lines from one draw.
            AccessPattern::Stream { .. } | AccessPattern::Tiled { .. } => {
                let base = self.gen_base();
                for k in 0..d.min(lines.capacity() as u64) {
                    lines.push(Address::new(base + k * LINE_SIZE));
                }
            }
            // Irregular patterns draw `d` independent addresses, which may
            // fall on one line.
            _ => {
                for _ in 0..d {
                    lines.coalesce(Address::new(self.gen_base()));
                }
            }
        }
    }
}

impl InstStream for AppStream {
    #[inline]
    fn decode(&mut self, lines: &mut LineBuf<'_>) -> Option<Op> {
        self.insts += 1;
        let u = self.rng.next_f64();
        let (mem_ratio, store_ratio) = (self.core.profile.mem_ratio, self.core.profile.store_ratio);
        Some(if u < mem_ratio {
            self.gen_lines(lines);
            Op::Load
        } else if u < mem_ratio + store_ratio {
            self.gen_lines(lines);
            Op::Store
        } else {
            Op::Alu {
                cycles: self.core.profile.alu_cycles,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{EbGroup, Suite};
    use gpu_simt::inst::Inst;
    use std::collections::HashSet;

    fn profile(pattern: AccessPattern) -> AppProfile {
        AppProfile {
            name: "TST",
            full_name: "test",
            suite: Suite::Synthetic,
            group: EbGroup::G2,
            mem_ratio: 0.5,
            store_ratio: 0.0,
            alu_cycles: 1,
            pattern,
            coalesce_degree: 1,
            max_outstanding: 2,
        }
    }

    fn stream_of(p: AppProfile, app: u8, core: usize, slot: usize, seed: u64) -> AppStream {
        AppStream::new(p, AppId::new(app), core, slot, 16, seed)
    }

    fn collect_load_lines(stream: &mut AppStream, n: usize) -> Vec<u64> {
        let mut lines = Vec::new();
        while lines.len() < n {
            if let Some(Inst::Load { addrs }) = stream.next_inst() {
                lines.extend(addrs.iter().map(|a| a.line().raw()));
            }
        }
        lines
    }

    #[test]
    fn a_warp_of_the_machine_stays_small() {
        // 432 bytes when an instruction was a value and every warp held
        // the profile, 216 while it held a 16-line buffer: a Volta machine
        // has 5 120 of these.
        assert!(std::mem::size_of::<gpu_simt::Warp<AppStream>>() <= 80);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = profile(AccessPattern::RandomUniform { span_lines: 1024 });
        let mut a = stream_of(p, 0, 0, 0, 7);
        let mut b = stream_of(p, 0, 0, 0, 7);
        for _ in 0..100 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn grid_stride_warps_interleave_adjacent_lines() {
        let p = profile(AccessPattern::Stream { stride_lines: 1 });
        let mut w0 = stream_of(p, 0, 0, 0, 7);
        let mut w1 = stream_of(p, 0, 0, 1, 7);
        let l0 = collect_load_lines(&mut w0, 1)[0];
        let l1 = collect_load_lines(&mut w1, 1)[0];
        assert_eq!(
            l1,
            l0 + LINE_SIZE,
            "warp 1's first access neighbours warp 0's"
        );
    }

    #[test]
    fn grid_stride_advances_by_full_core_width() {
        let p = profile(AccessPattern::Stream { stride_lines: 1 });
        let mut w0 = stream_of(p, 0, 0, 0, 7);
        let lines = collect_load_lines(&mut w0, 3);
        assert_eq!(
            lines[1] - lines[0],
            16 * LINE_SIZE,
            "second sweep skips the other warps"
        );
        assert_eq!(lines[2] - lines[1], 16 * LINE_SIZE);
    }

    #[test]
    fn streams_of_different_cores_are_disjoint() {
        let p = profile(AccessPattern::Stream { stride_lines: 1 });
        let mut a = stream_of(p, 0, 0, 0, 7);
        let mut b = stream_of(p, 0, 1, 0, 7);
        let la: HashSet<u64> = collect_load_lines(&mut a, 50).into_iter().collect();
        let lb: HashSet<u64> = collect_load_lines(&mut b, 50).into_iter().collect();
        assert!(la.is_disjoint(&lb));
    }

    #[test]
    fn different_apps_use_disjoint_regions() {
        let p = profile(AccessPattern::Stream { stride_lines: 1 });
        let a = stream_of(p, 0, 0, 0, 7);
        let b = stream_of(p, 1, 0, 0, 7);
        assert_ne!(a.warp_base / APP_REGION, b.warp_base / APP_REGION);
    }

    #[test]
    fn hot_stream_revisits_hot_region() {
        let p = profile(AccessPattern::HotStream {
            hot_lines: 8,
            hot_frac: 0.9,
        });
        let mut s = stream_of(p, 0, 0, 0, 7);
        let lines = collect_load_lines(&mut s, 400);
        let distinct: HashSet<u64> = lines.iter().copied().collect();
        // ~90% of 400 accesses fall in just 8 lines.
        assert!(
            distinct.len() < 80,
            "expected heavy reuse, got {} distinct",
            distinct.len()
        );
    }

    #[test]
    fn hot_regions_of_warps_are_disjoint() {
        let p = profile(AccessPattern::HotStream {
            hot_lines: 8,
            hot_frac: 1.0,
        });
        let mut a = stream_of(p, 0, 0, 0, 7);
        let mut b = stream_of(p, 0, 0, 1, 7);
        let la: HashSet<u64> = collect_load_lines(&mut a, 100).into_iter().collect();
        let lb: HashSet<u64> = collect_load_lines(&mut b, 100).into_iter().collect();
        assert!(
            la.is_disjoint(&lb),
            "private hot regions must scale with TLP"
        );
    }

    #[test]
    fn shared_hot_region_is_common_across_warps() {
        let p = profile(AccessPattern::SharedHotStream {
            hot_lines: 8,
            hot_frac: 1.0,
        });
        let mut a = stream_of(p, 0, 0, 0, 7);
        let mut b = stream_of(p, 0, 0, 1, 7);
        let la: HashSet<u64> = collect_load_lines(&mut a, 100).into_iter().collect();
        let lb: HashSet<u64> = collect_load_lines(&mut b, 100).into_iter().collect();
        assert!(
            !la.is_disjoint(&lb),
            "warps of one core must share the hot region"
        );
    }

    #[test]
    fn shared_hot_region_differs_across_cores() {
        let p = profile(AccessPattern::SharedHotStream {
            hot_lines: 8,
            hot_frac: 1.0,
        });
        let mut a = stream_of(p, 0, 0, 0, 7);
        let mut b = stream_of(p, 0, 1, 0, 7);
        let la: HashSet<u64> = collect_load_lines(&mut a, 100).into_iter().collect();
        let lb: HashSet<u64> = collect_load_lines(&mut b, 100).into_iter().collect();
        assert!(la.is_disjoint(&lb));
    }

    #[test]
    fn tiled_pattern_reuses_each_tile() {
        let p = profile(AccessPattern::Tiled {
            tile_lines: 4,
            reuse: 3,
        });
        let mut s = stream_of(p, 0, 0, 0, 7);
        let lines = collect_load_lines(&mut s, 12);
        // First 12 loads: tile of 4 lines swept 3 times.
        assert_eq!(&lines[0..4], &lines[4..8]);
        assert_eq!(&lines[0..4], &lines[8..12]);
    }

    #[test]
    fn random_uniform_rarely_repeats() {
        let p = profile(AccessPattern::RandomUniform {
            span_lines: 1 << 20,
        });
        let mut s = stream_of(p, 0, 0, 0, 7);
        let lines = collect_load_lines(&mut s, 200);
        let distinct: HashSet<u64> = lines.iter().copied().collect();
        assert!(distinct.len() > 190);
    }

    #[test]
    fn coalesce_degree_controls_lines_per_load() {
        let mut p = profile(AccessPattern::Stream { stride_lines: 1 });
        p.coalesce_degree = 4;
        let mut s = stream_of(p, 0, 0, 0, 7);
        loop {
            if let Some(Inst::Load { addrs }) = s.next_inst() {
                let distinct: HashSet<u64> = addrs.iter().map(|a| a.line().raw()).collect();
                assert_eq!(distinct.len(), 4);
                break;
            }
        }
    }

    #[test]
    fn wide_loads_of_neighbour_warps_do_not_overlap() {
        let mut p = profile(AccessPattern::Stream { stride_lines: 1 });
        p.coalesce_degree = 4;
        let mut w0 = stream_of(p, 0, 0, 0, 7);
        let mut w1 = stream_of(p, 0, 0, 1, 7);
        let l0: HashSet<u64> = collect_load_lines(&mut w0, 16).into_iter().collect();
        let l1: HashSet<u64> = collect_load_lines(&mut w1, 16).into_iter().collect();
        assert!(
            l0.is_disjoint(&l1),
            "stream unit must cover the coalesce degree"
        );
    }

    #[test]
    fn phased_pattern_alternates_locality() {
        let p = profile(AccessPattern::Phased {
            hot_lines: 8,
            hot_frac: 0.95,
            phase_insts: 200,
        });
        let mut s = stream_of(p, 0, 0, 0, 7);
        // Phase A (first 200 insts): heavy reuse; phase B: streaming.
        let mut phase_a = Vec::new();
        let mut phase_b = Vec::new();
        for i in 0..400 {
            if let Some(Inst::Load { addrs }) = s.next_inst() {
                let lines: Vec<u64> = addrs.iter().map(|a| a.line().raw()).collect();
                if i < 200 {
                    phase_a.extend(lines);
                } else {
                    phase_b.extend(lines);
                }
            }
        }
        let da: HashSet<u64> = phase_a.iter().copied().collect();
        let db: HashSet<u64> = phase_b.iter().copied().collect();
        assert!(
            (da.len() as f64) / (phase_a.len() as f64) < 0.5,
            "phase A must reuse ({} distinct of {})",
            da.len(),
            phase_a.len()
        );
        assert!(
            (db.len() as f64) / (phase_b.len() as f64) > 0.9,
            "phase B must stream ({} distinct of {})",
            db.len(),
            phase_b.len()
        );
    }

    #[test]
    fn instruction_mix_respects_ratios() {
        let mut p = profile(AccessPattern::Stream { stride_lines: 1 });
        p.mem_ratio = 0.3;
        p.store_ratio = 0.1;
        let mut s = stream_of(p, 0, 0, 0, 9);
        let (mut loads, mut stores, mut alus) = (0, 0, 0);
        for _ in 0..10_000 {
            match s.next_inst().unwrap() {
                Inst::Load { .. } => loads += 1,
                Inst::Store { .. } => stores += 1,
                Inst::Alu { .. } => alus += 1,
            }
        }
        assert!((2800..3200).contains(&loads), "loads {loads}");
        assert!((800..1200).contains(&stores), "stores {stores}");
        assert!((5600..6400).contains(&alus), "alus {alus}");
    }
}
