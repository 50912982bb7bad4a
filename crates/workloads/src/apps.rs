//! The 26 applications of Table IV, as statistical kernel models.
//!
//! Parameters are tuned only against *alone-run* characteristics (the
//! IPC/EB spread and G1–G4 grouping of Table IV); co-run behaviour is an
//! emergent prediction. The paper's suites are Rodinia, Parboil, the CUDA
//! SDK and SHOC; DS and GUPS are synthetic kernels.
//!
//! Group intuition (§II-B, §III) — groups are assigned from each model's
//! *measured* alone `EB@bestTLP` (regenerate with the `tab04` harness):
//! * **G1** (EB < 1) — compute/latency-bound kernels or bandwidth-hostile
//!   access (GUPS' random scatter kills row locality).
//! * **G2** (EB ≈ 1) — streaming, cache-insensitive bandwidth hogs:
//!   CMR ≈ 1 so EB ≈ BW ≈ peak (BLK is the paper's canonical example of
//!   EB = BW).
//! * **G3** (1 < EB ≲ 2) — moderately cache-amplified kernels.
//! * **G4** (EB > 2) — strongly cache-sensitive kernels whose low CMR
//!   amplifies attained bandwidth well past what the DRAM alone delivers
//!   (BFS is the paper's canonical example).

use crate::profile::{AccessPattern, AppProfile, EbGroup, Suite};
use crate::stream::AppStream;
use gpu_simt::inst::InstStream;
use gpu_types::AppId;

use AccessPattern::{HotStream, RandomUniform, SharedHotStream, Stream, Tiled, TwoTierHot};
use EbGroup::{G1, G2, G3, G4};
use Suite::{CudaSdk, Parboil, Rodinia, Shoc, Synthetic};

macro_rules! app {
    ($name:literal, $full:literal, $suite:expr, $group:expr,
     rm: $rm:literal, st: $st:literal, alu: $alu:literal,
     pat: $pat:expr, d: $d:literal, mo: $mo:literal) => {
        AppProfile {
            name: $name,
            full_name: $full,
            suite: $suite,
            group: $group,
            mem_ratio: $rm,
            store_ratio: $st,
            alu_cycles: $alu,
            pattern: $pat,
            coalesce_degree: $d,
            max_outstanding: $mo,
        }
    };
}

/// All 26 application models, in Table IV order (G1 → G4 within columns).
pub const APPS: [AppProfile; 26] = [
    // ---- G1: compute/latency-bound, lowest EB -------------------------
    app!("LUD", "LU decomposition", Rodinia, G1,
        rm: 0.05, st: 0.01, alu: 2, pat: Tiled { tile_lines: 128, reuse: 2 }, d: 1, mo: 1),
    app!("NW", "Needleman-Wunsch", Rodinia, G3,
        rm: 0.05, st: 0.02, alu: 4, pat: Tiled { tile_lines: 8, reuse: 4 }, d: 1, mo: 1),
    app!("HISTO", "histogram", Parboil, G3,
        rm: 0.08, st: 0.04, alu: 1, pat: SharedHotStream { hot_lines: 512, hot_frac: 0.5 },
        d: 4, mo: 2),
    app!("SAD", "sum of absolute differences", Parboil, G1,
        rm: 0.06, st: 0.02, alu: 2, pat: Stream { stride_lines: 1 }, d: 1, mo: 2),
    app!("QTC", "quality threshold clustering", Shoc, G1,
        rm: 0.08, st: 0.00, alu: 2, pat: RandomUniform { span_lines: 4096 }, d: 2, mo: 1),
    app!("RED", "reduction", Shoc, G1,
        rm: 0.04, st: 0.01, alu: 1, pat: Stream { stride_lines: 1 }, d: 1, mo: 2),
    app!("SCAN", "parallel prefix sum", Shoc, G2,
        rm: 0.06, st: 0.03, alu: 2, pat: Stream { stride_lines: 1 }, d: 1, mo: 2),
    // ---- G2: moderate EB ----------------------------------------------
    app!("LIB", "LIBOR Monte Carlo", CudaSdk, G3,
        rm: 0.20, st: 0.02, alu: 1,
        pat: TwoTierHot { l1_lines: 6, l1_frac: 0.25, l2_lines: 192, l2_frac: 0.25 },
        d: 2, mo: 2),
    app!("LUH", "LULESH hydrodynamics", Synthetic, G3,
        rm: 0.15, st: 0.04, alu: 1, pat: Tiled { tile_lines: 64, reuse: 2 }, d: 2, mo: 2),
    app!("SRAD", "speckle-reducing anisotropic diffusion", Rodinia, G3,
        rm: 0.25, st: 0.08, alu: 1, pat: HotStream { hot_lines: 6, hot_frac: 0.4 },
        d: 1, mo: 3),
    app!("CONS", "separable convolution", CudaSdk, G3,
        rm: 0.22, st: 0.05, alu: 1, pat: SharedHotStream { hot_lines: 64, hot_frac: 0.25 },
        d: 1, mo: 2),
    app!("FWT", "fast Walsh transform", CudaSdk, G1,
        rm: 0.08, st: 0.03, alu: 1, pat: Stream { stride_lines: 2 }, d: 1, mo: 4),
    app!("BP", "back propagation", Rodinia, G3,
        rm: 0.25, st: 0.05, alu: 1, pat: HotStream { hot_lines: 4, hot_frac: 0.3 },
        d: 2, mo: 2),
    app!("GUPS", "giga-updates per second", Synthetic, G1,
        rm: 0.35, st: 0.15, alu: 1, pat: RandomUniform { span_lines: 1 << 20 }, d: 8, mo: 8),
    // ---- G3: streaming bandwidth hogs, EB ≈ BW ------------------------
    app!("BLK", "BlackScholes", CudaSdk, G2,
        rm: 0.35, st: 0.10, alu: 1, pat: Stream { stride_lines: 1 }, d: 1, mo: 6),
    app!("TRD", "matrix transpose (diagonal)", Shoc, G2,
        rm: 0.30, st: 0.15, alu: 1, pat: Stream { stride_lines: 1 }, d: 4, mo: 6),
    app!("SC", "streamcluster", Rodinia, G2,
        rm: 0.32, st: 0.05, alu: 1, pat: Stream { stride_lines: 1 }, d: 1, mo: 4),
    app!("SCP", "scalar product", CudaSdk, G2,
        rm: 0.35, st: 0.02, alu: 1, pat: Stream { stride_lines: 1 }, d: 1, mo: 6),
    app!("CFD", "CFD Euler solver", Rodinia, G2,
        rm: 0.30, st: 0.08, alu: 1, pat: Stream { stride_lines: 2 }, d: 2, mo: 4),
    app!("JPEG", "JPEG decode", CudaSdk, G2,
        rm: 0.28, st: 0.10, alu: 1, pat: Stream { stride_lines: 1 }, d: 1, mo: 4),
    app!("LPS", "3D Laplace solver", CudaSdk, G2,
        rm: 0.30, st: 0.10, alu: 1, pat: Stream { stride_lines: 1 }, d: 2, mo: 4),
    // ---- G4: cache-amplified, highest EB -------------------------------
    app!("FFT", "fast Fourier transform", Parboil, G4,
        rm: 0.30, st: 0.08, alu: 1, pat: HotStream { hot_lines: 40, hot_frac: 0.80 },
        d: 2, mo: 3),
    app!("BFS", "breadth-first search", CudaSdk, G4,
        rm: 0.30, st: 0.05, alu: 1, pat: HotStream { hot_lines: 48, hot_frac: 0.85 },
        d: 2, mo: 2),
    app!("DS", "device-side scatter/gather", Synthetic, G4,
        rm: 0.35, st: 0.05, alu: 1, pat: HotStream { hot_lines: 32, hot_frac: 0.85 },
        d: 2, mo: 3),
    app!("HS", "hotspot", Rodinia, G4,
        rm: 0.28, st: 0.08, alu: 1, pat: Tiled { tile_lines: 4, reuse: 8 }, d: 1, mo: 2),
    app!("RAY", "ray tracing", CudaSdk, G4,
        rm: 0.25, st: 0.03, alu: 1, pat: SharedHotStream { hot_lines: 48, hot_frac: 0.6 },
        d: 3, mo: 2),
];

/// All application models in Table IV order.
pub fn all_apps() -> &'static [AppProfile] {
    &APPS
}

/// Looks an application up by its Table IV abbreviation (case-sensitive).
pub fn by_name(name: &str) -> Option<&'static AppProfile> {
    APPS.iter().find(|a| a.name == name)
}

impl AppProfile {
    /// The stream of warp `slot` of this application's `core_rank`-th core
    /// behind a box, for cores that mix stream kinds.
    pub fn stream(
        &self,
        app: AppId,
        core_rank: usize,
        slot: usize,
        warps_per_core: usize,
        seed: u64,
    ) -> Box<dyn InstStream> {
        let stream = AppStream::new(*self, app, core_rank, slot, warps_per_core, seed);
        Box::new(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn twenty_six_apps_with_unique_names() {
        assert_eq!(APPS.len(), 26);
        let names: HashSet<&str> = APPS.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn all_profiles_are_valid() {
        for a in all_apps() {
            a.assert_valid();
        }
    }

    #[test]
    fn every_group_is_populated() {
        for g in [G1, G2, G3, G4] {
            assert!(
                APPS.iter().any(|a| a.group == g),
                "group {g} has no applications"
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("BFS").unwrap().group, G4);
        assert_eq!(by_name("BLK").unwrap().group, G2);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn paper_canonical_examples_have_expected_shapes() {
        // §III-B: "EB is equal to BW for cache insensitive applications
        // (e.g., BLK)" — BLK must be pure streaming.
        assert!(matches!(by_name("BLK").unwrap().pattern, Stream { .. }));
        // "...which is the case for cache-sensitive applications (e.g.,
        // BFS)" — BFS must have a per-warp hot region whose aggregate
        // footprint scales with TLP.
        assert!(matches!(by_name("BFS").unwrap().pattern, HotStream { .. }));
    }

    #[test]
    fn streams_are_constructible_for_all_apps() {
        for a in all_apps() {
            let mut s = a.stream(AppId::new(0), 0, 0, 48, 1);
            for _ in 0..10 {
                assert!(s.next_inst().is_some(), "{} stream ended", a.name);
            }
        }
    }

    #[test]
    fn table_iv_workload_apps_exist() {
        for n in [
            "DS", "TRD", "BFS", "FFT", "BLK", "FWT", "JPEG", "CFD", "LIB", "LUH", "SCP",
        ] {
            assert!(by_name(n).is_some(), "{n} missing");
        }
    }
}
