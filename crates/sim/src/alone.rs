//! Alone-run profiling across the TLP ladder.
//!
//! Produces each application's `bestTLP` (the best-performing TLP when it
//! runs alone on its core partition), `IPC@bestTLP` and `EB@bestTLP` — the
//! inputs to Table IV, the bestTLP baseline, the SD denominators and the
//! exact EB scaling factors.

use crate::harness::{measure_fixed, RunSpec};
use crate::machine::Gpu;
use gpu_types::canon::{CanonBuf, CanonReader, Record};
use gpu_types::{AppWindow, GpuConfig, TlpCombo, TlpLevel};
use gpu_workloads::AppProfile;

/// Measurements of one alone run at one TLP level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AloneSample {
    /// TLP level of the run.
    pub tlp: TlpLevel,
    /// Warp-instruction IPC.
    pub ipc: f64,
    /// Attained DRAM bandwidth, normalized to peak.
    pub bw: f64,
    /// Combined (L1 × L2) miss rate.
    pub cmr: f64,
    /// Effective bandwidth `BW / CMR`.
    pub eb: f64,
    /// L1 miss rate (diagnostics / Fig. 3).
    pub l1_miss_rate: f64,
    /// L2 miss rate (diagnostics / Fig. 3).
    pub l2_miss_rate: f64,
}

impl AloneSample {
    fn from_window(tlp: TlpLevel, w: &AppWindow) -> Self {
        AloneSample {
            tlp,
            ipc: w.ipc(),
            bw: w.attained_bw(),
            cmr: w.combined_miss_rate(),
            eb: w.effective_bandwidth(),
            l1_miss_rate: w.counters.l1_miss_rate(),
            l2_miss_rate: w.counters.l2_miss_rate(),
        }
    }
}

/// The level, then the six rates in declaration order.
impl Record for AloneSample {
    fn put(&self, buf: &mut CanonBuf) {
        self.tlp.put(buf);
        for v in [
            self.ipc,
            self.bw,
            self.cmr,
            self.eb,
            self.l1_miss_rate,
            self.l2_miss_rate,
        ] {
            buf.push_f64(v);
        }
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        Some(AloneSample {
            tlp: <TlpLevel as Record>::get(r)?,
            ipc: r.read_f64()?,
            bw: r.read_f64()?,
            cmr: r.read_f64()?,
            eb: r.read_f64()?,
            l1_miss_rate: r.read_f64()?,
            l2_miss_rate: r.read_f64()?,
        })
    }
}

/// An application's alone-run profile over the full TLP ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct AloneProfile {
    /// Application abbreviation.
    pub app: &'static str,
    /// One sample per ladder level, in ladder order (clamped levels are
    /// deduplicated, so small test machines have fewer entries).
    pub samples: Vec<AloneSample>,
}

impl AloneProfile {
    /// The best-performing TLP: the *highest* ladder level whose alone IPC
    /// is within 0.5 % of the maximum. The tolerance makes the choice robust
    /// to measurement noise on the flat plateau that bandwidth-bound
    /// applications exhibit past their saturation point (where any real
    /// profiling methodology would report the plateau's edge rather than a
    /// noise-picked interior level).
    pub fn best_tlp(&self) -> TlpLevel {
        let max = self.samples.iter().map(|s| s.ipc).fold(0.0f64, f64::max);
        self.samples
            .iter()
            .filter(|s| s.ipc >= 0.995 * max)
            .map(|s| s.tlp)
            .max()
            .expect("profile is never empty")
    }

    /// The sample at `level` (exact match on the ladder).
    pub fn at(&self, level: TlpLevel) -> Option<&AloneSample> {
        self.samples.iter().find(|s| s.tlp == level)
    }

    /// The sample at the best-performing TLP.
    pub fn best(&self) -> &AloneSample {
        self.at(self.best_tlp())
            .expect("best_tlp comes from samples")
    }

    /// `IPC@bestTLP` (Table IV column A; the SD denominator).
    pub fn ipc_at_best(&self) -> f64 {
        self.best().ipc
    }

    /// `EB@bestTLP` (Table IV column B; the exact EB scaling factor).
    pub fn eb_at_best(&self) -> f64 {
        self.best().eb
    }
}

/// Profiles `app` running alone on `n_cores` cores across the TLP ladder.
///
/// The machine keeps its full complement of L2 slices and memory channels
/// (the paper's IPC-Alone runs the application "alone on the same set of
/// cores with bestTLP" — the rest of the GPU is idle, not absent).
///
/// Each ladder level is an independent run on a fresh same-seed machine, so
/// the levels fan out across [`crate::exec::worker_count`] threads; results
/// are collected in ladder order and are identical to a sequential sweep.
pub fn profile_alone(
    cfg: &GpuConfig,
    app: &AppProfile,
    n_cores: usize,
    seed: u64,
    spec: RunSpec,
) -> AloneProfile {
    profile_alone_with_threads(cfg, app, n_cores, seed, spec, crate::exec::worker_count())
}

/// Cache key of [`profile_alone`] — public so a campaign planner can name
/// the unit without running it.
pub fn alone_fingerprint(
    cfg: &GpuConfig,
    app: &AppProfile,
    n_cores: usize,
    seed: u64,
    spec: RunSpec,
) -> gpu_types::Fingerprint {
    let mut key = crate::cache::KeyBuilder::new("alone");
    key.push(cfg)
        .push(app)
        .push_usize(n_cores)
        .push_u64(seed)
        .push(&spec);
    key.finish()
}

/// [`profile_alone`] with an explicit thread count (1 = fully sequential).
///
/// The whole profile is memoized through [`crate::cache`] under a
/// fingerprint of `(cfg, app, n_cores, seed, spec)`; a hit skips every
/// ladder run.
pub fn profile_alone_with_threads(
    cfg: &GpuConfig,
    app: &AppProfile,
    n_cores: usize,
    seed: u64,
    spec: RunSpec,
    threads: usize,
) -> AloneProfile {
    let fp = alone_fingerprint(cfg, app, n_cores, seed, spec);
    let samples = crate::cache::memoize(fp, || {
        crate::exec::par_map_with(threads, ladder_levels(cfg), |clamped| {
            let mut gpu = Gpu::with_core_split(cfg, &[app], &[n_cores], seed);
            let w = measure_fixed(&mut gpu, &TlpCombo::new(vec![clamped]), spec);
            AloneSample::from_window(clamped, &w[0])
        })
    });
    AloneProfile {
        app: app.name,
        samples,
    }
}

/// The TLP ladder clamped to `cfg`, deduplicated in first-seen order (small
/// machines collapse the upper rungs).
fn ladder_levels(cfg: &GpuConfig) -> Vec<TlpLevel> {
    let mut seen = gpu_types::FxHashSet::default();
    TlpLevel::ladder()
        .map(|level| cfg.clamp_tlp(level))
        .filter(|clamped| seen.insert(*clamped))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workloads::by_name;

    fn quick_profile(name: &str) -> AloneProfile {
        profile_alone(
            &GpuConfig::small(),
            by_name(name).unwrap(),
            2,
            5,
            RunSpec::new(500, 2_000),
        )
    }

    #[test]
    fn ladder_is_deduplicated_on_small_machine() {
        // small() clamps at 8, so levels 12/16/24 collapse into 8:
        // 1, 2, 4, 6, 8 remain.
        let p = quick_profile("BLK");
        assert_eq!(p.samples.len(), 5);
    }

    #[test]
    fn best_tlp_is_on_the_ladder() {
        let p = quick_profile("BFS");
        assert!(p.best_tlp().get() >= 1);
        assert!(p.at(p.best_tlp()).is_some());
        assert!(p.ipc_at_best() > 0.0);
        assert!(p.eb_at_best() > 0.0);
    }

    #[test]
    fn streaming_app_gains_bw_with_tlp() {
        let p = quick_profile("BLK");
        let low = p.at(TlpLevel::new(1).unwrap()).unwrap();
        let high = p.at(TlpLevel::new(8).unwrap()).unwrap();
        assert!(
            high.bw > low.bw,
            "BLK bandwidth should grow with TLP ({} vs {})",
            low.bw,
            high.bw
        );
    }

    #[test]
    fn best_tlp_prefers_plateau_edge_within_tolerance() {
        // Synthetic profile: IPC plateaus from level 4 upward within 0.5%.
        let samples = [1u32, 2, 4, 6, 8]
            .into_iter()
            .map(|l| AloneSample {
                tlp: TlpLevel::new(l).unwrap(),
                ipc: if l >= 4 { 2.0 - 0.001 * l as f64 } else { 1.0 },
                bw: 0.5,
                cmr: 1.0,
                eb: 0.5,
                l1_miss_rate: 1.0,
                l2_miss_rate: 1.0,
            })
            .collect();
        let p = AloneProfile { app: "X", samples };
        assert_eq!(p.best_tlp().get(), 8, "plateau edge wins within tolerance");
    }

    #[test]
    fn best_tlp_respects_real_peaks() {
        // A clear interior peak (more than 0.5% above everything else)
        // must win.
        let samples = [1u32, 2, 4, 8]
            .into_iter()
            .map(|l| AloneSample {
                tlp: TlpLevel::new(l).unwrap(),
                ipc: if l == 2 { 3.0 } else { 2.0 },
                bw: 0.5,
                cmr: 1.0,
                eb: 0.5,
                l1_miss_rate: 1.0,
                l2_miss_rate: 1.0,
            })
            .collect();
        let p = AloneProfile { app: "X", samples };
        assert_eq!(p.best_tlp().get(), 2);
    }

    #[test]
    fn cache_sensitive_app_cmr_grows_with_tlp() {
        let p = quick_profile("BFS");
        let low = p.at(TlpLevel::new(1).unwrap()).unwrap();
        let high = p.at(TlpLevel::new(8).unwrap()).unwrap();
        assert!(
            high.cmr > low.cmr,
            "BFS CMR should grow with TLP ({} vs {})",
            low.cmr,
            high.cmr
        );
    }
}
