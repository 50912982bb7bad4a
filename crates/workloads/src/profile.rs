//! Application profiles: the statistical description of one GPGPU kernel.

use gpu_simt::core::{CoreParams, EGRESS_CAPACITY};
use gpu_simt::MAX_ALU_CYCLES;
use gpu_types::canon::{Canon, CanonBuf};
use std::fmt;

/// The benchmark suite an application is drawn from (Table IV citations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia.
    Rodinia,
    /// Parboil.
    Parboil,
    /// CUDA SDK.
    CudaSdk,
    /// SHOC.
    Shoc,
    /// Synthetic kernels used in the paper (DS, GUPS).
    Synthetic,
}

/// The paper's effective-bandwidth groups G1–G4 (Table IV): each application
/// is categorized by its alone-run EB at bestTLP, lowest (G1) to highest
/// (G4). Group averages serve as user-supplied scaling factors for EB-FI and
/// EB-HS (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EbGroup {
    /// Lowest effective bandwidth (compute- or latency-bound).
    G1,
    /// Low-moderate effective bandwidth.
    G2,
    /// High attained bandwidth, cache-insensitive (EB ≈ BW).
    G3,
    /// Highest effective bandwidth (cache-amplified).
    G4,
}

impl fmt::Display for EbGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EbGroup::G1 => write!(f, "G1"),
            EbGroup::G2 => write!(f, "G2"),
            EbGroup::G3 => write!(f, "G3"),
            EbGroup::G4 => write!(f, "G4"),
        }
    }
}

/// How a warp generates global-memory addresses.
///
/// All sizes are in 128-byte cache lines. Regions are laid out by
/// [`crate::stream::AppStream`] so that distinct applications, warps and
/// cores never alias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Per-warp sequential streaming with the given line stride: no reuse,
    /// maximal row-buffer locality. Models dense streaming kernels
    /// (BlackScholes, transpose, reductions).
    Stream {
        /// Stride between consecutive accesses, in lines.
        stride_lines: u64,
    },
    /// With probability `hot_frac`, a uniform access into a *per-warp* hot
    /// region of `hot_lines` lines; otherwise streams. Cache-sensitive: the
    /// aggregate hot footprint grows with TLP and thrashes the L1 once
    /// `active_warps × hot_lines` exceeds it — the mechanism behind the
    /// paper's Fig. 2 CMR curve.
    HotStream {
        /// Hot-region size per warp, in lines.
        hot_lines: u64,
        /// Fraction of accesses hitting the hot region.
        hot_frac: f64,
    },
    /// Like [`AccessPattern::HotStream`] but the hot region is shared by all
    /// warps of a core, so its footprint does *not* grow with TLP
    /// (lookup-table kernels: histograms, texture-like tables).
    SharedHotStream {
        /// Hot-region size per core, in lines.
        hot_lines: u64,
        /// Fraction of accesses hitting the hot region.
        hot_frac: f64,
    },
    /// Two locality tiers plus a cold stream: with probability `l1_frac` a
    /// uniform access into a *per-warp* hot region of `l1_lines` (L1-scale
    /// reuse, footprint grows with TLP); with probability `l2_frac` a
    /// uniform access into a *per-core* region of `l2_lines` sized for the
    /// shared L2 — the tier a co-runner's cache pollution destroys, which
    /// is the cross-application coupling the paper's §IV analysis builds
    /// on; otherwise a grid-stride cold stream.
    TwoTierHot {
        /// Per-warp hot-region size in lines.
        l1_lines: u64,
        /// Fraction of accesses to the per-warp tier.
        l1_frac: f64,
        /// Per-core shared-region size in lines.
        l2_lines: u64,
        /// Fraction of accesses to the per-core tier.
        l2_frac: f64,
    },
    /// Uniform random accesses over a large per-warp span: no cache reuse
    /// *and* no row locality (GUPS-style scatter/gather).
    RandomUniform {
        /// Span of the random region per warp, in lines.
        span_lines: u64,
    },
    /// Alternates between a cache-friendly phase (per-warp hot region, as
    /// [`AccessPattern::HotStream`]) and a pure streaming phase every
    /// `phase_insts` instructions — modeling applications whose consecutive
    /// kernel launches have different memory behaviour. The paper's online
    /// PBS outperforms its offline variant exactly on such workloads
    /// (§VI-A: "the runtime tuning of TLP combination provides benefits").
    Phased {
        /// Hot-region size per warp during the cache-friendly phase.
        hot_lines: u64,
        /// Fraction of that phase's accesses hitting the hot region.
        hot_frac: f64,
        /// Instructions per phase before switching.
        phase_insts: u64,
    },
    /// The warp sweeps a tile of `tile_lines` lines `reuse` times, then
    /// advances to the next tile — stencil/factorization kernels with
    /// phase-local reuse.
    Tiled {
        /// Tile size per warp, in lines.
        tile_lines: u64,
        /// Sweeps over each tile before moving on.
        reuse: u32,
    },
}

/// Full statistical model of one application (one row of Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Table IV abbreviation (e.g. "BFS").
    pub name: &'static str,
    /// Human-readable kernel name.
    pub full_name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// EB group the paper assigns (used as the user-supplied scaling factor
    /// for EB-FI / EB-HS).
    pub group: EbGroup,
    /// Fraction of instructions that are global loads (the paper's `r_m`).
    pub mem_ratio: f64,
    /// Fraction of instructions that are global stores.
    pub store_ratio: f64,
    /// Latency of one ALU instruction in cycles (models arithmetic
    /// intensity per issue slot), at most [`MAX_ALU_CYCLES`]: a core's
    /// ready calendar books a warp no further ahead.
    pub alu_cycles: u32,
    /// Address-generation pattern.
    pub pattern: AccessPattern,
    /// Distinct lines one memory instruction touches after coalescing
    /// (1 = perfectly coalesced), at most [`EGRESS_CAPACITY`]: a core
    /// issues an instruction's transactions together, so a wider one could
    /// never enter its egress queue.
    pub coalesce_degree: usize,
    /// Outstanding-load tolerance per warp (dependency distance).
    pub max_outstanding: usize,
}

impl AppProfile {
    /// Core-level parameters derived from the profile.
    pub fn core_params(&self) -> CoreParams {
        CoreParams {
            max_outstanding_loads: self.max_outstanding,
            max_txn_per_inst: self.coalesce_degree,
        }
    }

    /// Sanity-checks the profile's numeric ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters; profiles are static data, so this
    /// is exercised by tests rather than returning a `Result`.
    pub fn assert_valid(&self) {
        assert!(
            self.mem_ratio >= 0.0 && self.mem_ratio <= 1.0,
            "{}: mem_ratio",
            self.name
        );
        assert!(self.store_ratio >= 0.0, "{}: store_ratio", self.name);
        assert!(
            self.mem_ratio + self.store_ratio <= 1.0,
            "{}: memory ratios exceed 1",
            self.name
        );
        assert!(
            (1..=MAX_ALU_CYCLES).contains(&self.alu_cycles),
            "{}: alu_cycles {} outside 1..={MAX_ALU_CYCLES}",
            self.name,
            self.alu_cycles
        );
        assert!(
            (1..=EGRESS_CAPACITY).contains(&self.coalesce_degree),
            "{}: coalesce_degree {} outside 1..={EGRESS_CAPACITY}",
            self.name,
            self.coalesce_degree
        );
        assert!(self.max_outstanding >= 1, "{}: max_outstanding", self.name);
        match self.pattern {
            AccessPattern::Stream { stride_lines } => assert!(stride_lines >= 1),
            AccessPattern::HotStream {
                hot_lines,
                hot_frac,
            }
            | AccessPattern::SharedHotStream {
                hot_lines,
                hot_frac,
            } => {
                assert!(hot_lines >= 1, "{}: hot_lines", self.name);
                assert!((0.0..=1.0).contains(&hot_frac), "{}: hot_frac", self.name);
            }
            AccessPattern::TwoTierHot {
                l1_lines,
                l1_frac,
                l2_lines,
                l2_frac,
            } => {
                assert!(l1_lines >= 1 && l2_lines >= 1, "{}: tier sizes", self.name);
                assert!(
                    l1_frac >= 0.0 && l2_frac >= 0.0 && l1_frac + l2_frac <= 1.0,
                    "{}: tier fractions",
                    self.name
                );
            }
            AccessPattern::RandomUniform { span_lines } => {
                assert!(span_lines >= 1, "{}: span_lines", self.name)
            }
            AccessPattern::Tiled { tile_lines, reuse } => {
                assert!(tile_lines >= 1 && reuse >= 1, "{}: tiled", self.name)
            }
            AccessPattern::Phased {
                hot_lines,
                hot_frac,
                phase_insts,
            } => {
                assert!(hot_lines >= 1, "{}: hot_lines", self.name);
                assert!((0.0..=1.0).contains(&hot_frac), "{}: hot_frac", self.name);
                assert!(phase_insts >= 1, "{}: phase_insts", self.name);
            }
        }
    }
}

impl Canon for Suite {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u8(match self {
            Suite::Rodinia => 0,
            Suite::Parboil => 1,
            Suite::CudaSdk => 2,
            Suite::Shoc => 3,
            Suite::Synthetic => 4,
        });
    }
}

impl Canon for EbGroup {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u8(match self {
            EbGroup::G1 => 0,
            EbGroup::G2 => 1,
            EbGroup::G3 => 2,
            EbGroup::G4 => 3,
        });
    }
}

impl Canon for AccessPattern {
    fn canon(&self, buf: &mut CanonBuf) {
        match *self {
            AccessPattern::Stream { stride_lines } => {
                buf.push_u8(0);
                buf.push_u64(stride_lines);
            }
            AccessPattern::HotStream {
                hot_lines,
                hot_frac,
            } => {
                buf.push_u8(1);
                buf.push_u64(hot_lines);
                buf.push_f64(hot_frac);
            }
            AccessPattern::SharedHotStream {
                hot_lines,
                hot_frac,
            } => {
                buf.push_u8(2);
                buf.push_u64(hot_lines);
                buf.push_f64(hot_frac);
            }
            AccessPattern::TwoTierHot {
                l1_lines,
                l1_frac,
                l2_lines,
                l2_frac,
            } => {
                buf.push_u8(3);
                buf.push_u64(l1_lines);
                buf.push_f64(l1_frac);
                buf.push_u64(l2_lines);
                buf.push_f64(l2_frac);
            }
            AccessPattern::RandomUniform { span_lines } => {
                buf.push_u8(4);
                buf.push_u64(span_lines);
            }
            AccessPattern::Phased {
                hot_lines,
                hot_frac,
                phase_insts,
            } => {
                buf.push_u8(5);
                buf.push_u64(hot_lines);
                buf.push_f64(hot_frac);
                buf.push_u64(phase_insts);
            }
            AccessPattern::Tiled { tile_lines, reuse } => {
                buf.push_u8(6);
                buf.push_u64(tile_lines);
                buf.push_u32(reuse);
            }
        }
    }
}

// The full profile content — not just the name — feeds the fingerprint, so
// synthetic/phased profiles built at runtime and any future retuning of a
// Table IV row key distinct cache entries.
impl Canon for AppProfile {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_str(self.name);
        buf.push(&self.suite);
        buf.push(&self.group);
        buf.push_f64(self.mem_ratio);
        buf.push_f64(self.store_ratio);
        buf.push_u32(self.alu_cycles);
        buf.push(&self.pattern);
        buf.push_usize(self.coalesce_degree);
        buf.push_usize(self.max_outstanding);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AppProfile {
        AppProfile {
            name: "TST",
            full_name: "test kernel",
            suite: Suite::Synthetic,
            group: EbGroup::G2,
            mem_ratio: 0.2,
            store_ratio: 0.05,
            alu_cycles: 2,
            pattern: AccessPattern::Stream { stride_lines: 1 },
            coalesce_degree: 1,
            max_outstanding: 2,
        }
    }

    #[test]
    fn valid_profile_passes() {
        profile().assert_valid();
    }

    #[test]
    #[should_panic(expected = "mem_ratio")]
    fn bad_mem_ratio_panics() {
        let mut p = profile();
        p.mem_ratio = 1.5;
        p.assert_valid();
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn ratios_must_sum_below_one() {
        let mut p = profile();
        p.mem_ratio = 0.8;
        p.store_ratio = 0.4;
        p.assert_valid();
    }

    #[test]
    fn an_instruction_as_wide_as_the_egress_queue_is_valid() {
        let mut p = profile();
        p.coalesce_degree = EGRESS_CAPACITY;
        p.assert_valid();
    }

    #[test]
    #[should_panic(expected = "TST: coalesce_degree 17 outside 1..=16")]
    fn a_wider_instruction_is_not() {
        // It used to pass here (up to 32) and abort `Gpu::new` instead.
        let mut p = profile();
        p.coalesce_degree = EGRESS_CAPACITY + 1;
        p.assert_valid();
    }

    #[test]
    #[should_panic(expected = "TST: alu_cycles 33 outside 1..=32")]
    fn an_alu_latency_past_the_ready_calendar_is_not() {
        let mut p = profile();
        p.alu_cycles = MAX_ALU_CYCLES + 1;
        p.assert_valid();
    }

    #[test]
    fn core_params_copy_tolerance() {
        assert_eq!(profile().core_params().max_outstanding_loads, 2);
    }

    #[test]
    fn groups_are_ordered() {
        assert!(EbGroup::G1 < EbGroup::G4);
        assert_eq!(EbGroup::G3.to_string(), "G3");
    }
}
