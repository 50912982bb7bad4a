//! Exhaustive TLP-combination profiling.
//!
//! A [`ComboSweep`] holds one measurement per TLP combination of a
//! workload — 64 entries for two applications. It feeds the `opt*` oracles
//! (best SD metric), the `BF-*` schemes (best EB metric), the offline PBS
//! variants, and the pattern surfaces of Figs. 6 and 7.

use gpu_sim::exec;
use gpu_sim::harness::{measure_fixed, RunSpec};
use gpu_sim::machine::Gpu;
use gpu_types::canon::{CanonBuf, CanonReader, Record};
use gpu_types::{FxHashMap, FxHashSet, GpuConfig, TlpCombo, TlpLevel};
use gpu_workloads::Workload;
use std::collections::BTreeSet;

/// Cache key of [`ComboSweep::measure`] — public so a campaign planner can
/// name the unit without running it.
pub fn sweep_fingerprint(
    cfg: &GpuConfig,
    workload: &Workload,
    seed: u64,
    spec: RunSpec,
) -> gpu_types::Fingerprint {
    let mut key = gpu_sim::cache::KeyBuilder::new("sweep");
    key.push(cfg).push_usize(workload.n_apps());
    for app in workload.apps() {
        key.push(*app);
    }
    key.push_u64(seed).push(&spec);
    key.finish()
}

/// One application's measurements at one TLP combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComboSample {
    /// Warp-instruction IPC under sharing.
    pub ipc: f64,
    /// Attained DRAM bandwidth (normalized to peak).
    pub bw: f64,
    /// Combined miss rate.
    pub cmr: f64,
    /// Effective bandwidth.
    pub eb: f64,
}

/// The four rates in declaration order.
impl Record for ComboSample {
    fn put(&self, buf: &mut CanonBuf) {
        ((self.ipc, self.bw), (self.cmr, self.eb)).put(buf);
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        let ((ipc, bw), (cmr, eb)) = Record::get(r)?;
        Some(ComboSample { ipc, bw, cmr, eb })
    }
}

/// Exhaustive measurements over the clamped TLP ladder of a workload.
///
/// # Examples
///
/// ```
/// use ebm_core::sweep::ComboSweep;
/// use gpu_sim::harness::RunSpec;
/// use gpu_types::GpuConfig;
/// use gpu_workloads::Workload;
///
/// let cfg = GpuConfig::small(); // 25 combinations on the test machine
/// let sweep = ComboSweep::measure(
///     &cfg,
///     &Workload::pair("BLK", "BFS"),
///     42,
///     RunSpec::new(300, 1_000),
/// );
/// assert_eq!(sweep.len(), 25);
/// ```
#[derive(Debug, Clone)]
pub struct ComboSweep {
    /// Workload name (diagnostics).
    pub workload: String,
    entries: FxHashMap<TlpCombo, Vec<ComboSample>>,
    n_apps: usize,
}

impl ComboSweep {
    /// Runs every ladder combination of `workload` on a fresh machine (same
    /// seed, so combinations differ only in their TLP settings) and records
    /// per-application samples.
    ///
    /// Ladder levels above the machine's realizable maximum collapse into
    /// it, so small test machines sweep fewer combinations.
    ///
    /// Every combination is an independent simulation on a fresh same-seed
    /// machine, so they fan out across [`exec::worker_count`] threads; the
    /// resulting table is identical to a sequential sweep.
    pub fn measure(cfg: &GpuConfig, workload: &Workload, seed: u64, spec: RunSpec) -> Self {
        Self::measure_with_threads(cfg, workload, seed, spec, exec::worker_count())
    }

    /// [`ComboSweep::measure`] with an explicit thread count (1 = fully
    /// sequential).
    ///
    /// The whole sweep is memoized through [`gpu_sim::cache`] under a
    /// fingerprint of `(cfg, apps, seed, spec)`; a hit skips every
    /// combination run, and only a disk hit rebuilds the table from the
    /// stored samples.
    pub fn measure_with_threads(
        cfg: &GpuConfig,
        workload: &Workload,
        seed: u64,
        spec: RunSpec,
        threads: usize,
    ) -> Self {
        let fp = sweep_fingerprint(cfg, workload, seed, spec);
        let n_apps = workload.n_apps();
        let mut sweep = gpu_sim::cache::memoize(fp, || {
            let measured = exec::par_map_with(threads, Self::combos(cfg, n_apps), |combo| {
                let mut gpu = Gpu::new(cfg, workload.apps(), seed);
                let windows = measure_fixed(&mut gpu, &combo, spec);
                let samples: Vec<ComboSample> = windows
                    .iter()
                    .map(|w| ComboSample {
                        ipc: w.ipc(),
                        bw: w.attained_bw(),
                        cmr: w.combined_miss_rate(),
                        eb: w.effective_bandwidth(),
                    })
                    .collect();
                (combo, samples)
            });
            ComboSweep {
                workload: String::new(),
                entries: measured.into_iter().collect(),
                n_apps,
            }
        });
        sweep.workload = workload.name();
        sweep
    }

    /// The distinct clamped ladder combinations for `n_apps` applications on
    /// this machine, in first-seen ladder order.
    pub fn combos(cfg: &GpuConfig, n_apps: usize) -> Vec<TlpCombo> {
        Self::combos_up_to(cfg.max_tlp(), n_apps)
    }

    /// [`ComboSweep::combos`] on a machine whose realizable maximum is `max`.
    fn combos_up_to(max: TlpLevel, n_apps: usize) -> Vec<TlpCombo> {
        let mut seen = FxHashSet::default();
        TlpCombo::all(n_apps)
            .into_iter()
            .map(|combo| TlpCombo::new(combo.levels().iter().map(|&l| l.min(max)).collect()))
            .filter(|clamped| seen.insert(clamped.clone()))
            .collect()
    }

    /// Number of co-scheduled applications.
    pub fn n_apps(&self) -> usize {
        self.n_apps
    }

    /// The samples at `combo` (one per application), if measured.
    pub fn get(&self, combo: &TlpCombo) -> Option<&[ComboSample]> {
        self.entries.get(combo).map(Vec::as_slice)
    }

    /// Per-application EBs at `combo`.
    ///
    /// # Panics
    ///
    /// Panics if the combination was not measured (off-ladder).
    pub fn ebs(&self, combo: &TlpCombo) -> Vec<f64> {
        self.entries
            .get(combo)
            .unwrap_or_else(|| panic!("combination {combo} not in sweep"))
            .iter()
            .map(|s| s.eb)
            .collect()
    }

    /// Per-application IPCs at `combo`.
    ///
    /// # Panics
    ///
    /// Panics if the combination was not measured.
    pub fn ipcs(&self, combo: &TlpCombo) -> Vec<f64> {
        self.entries
            .get(combo)
            .unwrap_or_else(|| panic!("combination {combo} not in sweep"))
            .iter()
            .map(|s| s.ipc)
            .collect()
    }

    /// Iterates over all measured combinations.
    pub fn iter(&self) -> impl Iterator<Item = (&TlpCombo, &[ComboSample])> {
        self.entries.iter().map(|(c, s)| (c, s.as_slice()))
    }

    /// Number of measured combinations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no combinations were measured (never happens for a valid
    /// sweep).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ladder levels actually present in the sweep (ascending), across
    /// *all* applications' axes — not just app 0's.
    pub fn levels(&self) -> Vec<TlpLevel> {
        // A BTreeSet already iterates in ascending order; derive the ladder
        // in one pass with no re-sort.
        self.entries
            .keys()
            .flat_map(|c| c.levels().iter().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }
}

/// `n_apps`, then the combinations in [`ComboSweep::combos`] order, each
/// followed by its `n_apps` samples. The machine's top level is the top
/// level measured, so the record states that order without the config, and
/// a record whose combinations are not exactly it is corrupt. The workload
/// name is not part of the record: [`ComboSweep::measure`] sets it.
impl Record for ComboSweep {
    fn put(&self, buf: &mut CanonBuf) {
        let combos = Self::combos_up_to(*self.levels().last().expect("a sweep"), self.n_apps);
        buf.push_usize(self.n_apps);
        buf.push_usize(combos.len());
        for combo in &combos {
            combo.put(buf);
            for s in &self.entries[combo] {
                s.put(buf);
            }
        }
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        let n_apps = r.read_usize()?;
        let n_combos = r.read_usize()?;
        let mut combos = Vec::new();
        let mut entries = FxHashMap::default();
        for _ in 0..n_combos {
            let combo = TlpCombo::get(r)?;
            let samples = (0..n_apps)
                .map(|_| ComboSample::get(r))
                .collect::<Option<_>>()?;
            entries.insert(combo.clone(), samples);
            combos.push(combo);
        }
        let sweep = ComboSweep {
            workload: String::new(),
            entries,
            n_apps,
        };
        // `combos` lists every combination of the ladder clamped at the top
        // level, in ascending order. Checked without listing it, so a bad
        // `n_apps` cannot ask for 8^n_apps combinations.
        let levels = sweep.levels();
        let max = *levels.last()?;
        let mut ladder: Vec<_> = TlpLevel::ladder().map(|l| l.min(max)).collect();
        ladder.dedup();
        let every = u32::try_from(n_apps).map(|n| levels.len().checked_pow(n));
        let canonical = levels == ladder
            && every == Ok(Some(combos.len()))
            && combos.iter().all(|c| c.len() == n_apps)
            && combos.windows(2).all(|w| w[0].levels() < w[1].levels());
        canonical.then_some(sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> ComboSweep {
        let cfg = GpuConfig::small();
        let w = Workload::pair("BLK", "BFS");
        ComboSweep::measure(&cfg, &w, 3, RunSpec::new(300, 1_500))
    }

    #[test]
    fn paper_machine_has_64_two_app_combos() {
        assert_eq!(ComboSweep::combos(&GpuConfig::paper(), 2).len(), 64);
    }

    #[test]
    fn small_machine_clamps_to_25_combos() {
        // Ladder collapses to {1,2,4,6,8}: 5 x 5.
        assert_eq!(ComboSweep::combos(&GpuConfig::small(), 2).len(), 25);
    }

    #[test]
    fn sweep_measures_every_combo() {
        let s = small_sweep();
        assert_eq!(s.len(), 25);
        assert_eq!(s.n_apps(), 2);
        for (_, samples) in s.iter() {
            assert_eq!(samples.len(), 2);
            assert!(samples.iter().all(|x| x.ipc > 0.0 && x.eb > 0.0));
        }
    }

    #[test]
    fn accessors_agree_with_entries() {
        let s = small_sweep();
        let combo = TlpCombo::pair(TlpLevel::new(2).unwrap(), TlpLevel::new(4).unwrap());
        let ebs = s.ebs(&combo);
        let samples = s.get(&combo).unwrap();
        assert_eq!(ebs, vec![samples[0].eb, samples[1].eb]);
        assert_eq!(s.ipcs(&combo).len(), 2);
    }

    #[test]
    fn levels_are_the_clamped_ladder() {
        let s = small_sweep();
        let ls: Vec<u32> = s.levels().iter().map(|l| l.get()).collect();
        assert_eq!(ls, vec![1, 2, 4, 6, 8]);
    }

    /// A sweep record of `combos`, every sample alike.
    fn record(n_apps: usize, combos: &[TlpCombo]) -> Vec<u8> {
        let mut buf = CanonBuf::new();
        buf.push_usize(n_apps);
        buf.push_usize(combos.len());
        for combo in combos {
            combo.put(&mut buf);
            for _ in 0..n_apps {
                let (ipc, bw, cmr, eb) = (1.5, 0.25, 0.5, 0.5);
                ComboSample { ipc, bw, cmr, eb }.put(&mut buf);
            }
        }
        buf.into_bytes()
    }

    #[test]
    fn a_record_holds_exactly_the_clamped_ladder_in_order() {
        let tops = TlpLevel::ladder().chain([3, 10].map(|l| TlpLevel::new(l).unwrap()));
        for max in tops {
            for n_apps in 1..=3 {
                let mut combos = ComboSweep::combos_up_to(max, n_apps);
                let what = format!("top level {max}, {n_apps} apps");
                // The record check reads `combos` as ascending.
                assert!(
                    combos.windows(2).all(|w| w[0].levels() < w[1].levels()),
                    "{what}"
                );
                let bytes = record(n_apps, &combos);
                let sweep = ComboSweep::from_bytes(&bytes).expect(&what);
                assert_eq!(sweep.len(), combos.len(), "{what}");
                assert_eq!(sweep.to_bytes(), bytes, "{what}");
                assert!(ComboSweep::from_bytes(&record(n_apps + 1, &combos)).is_none());
                if combos.len() > 1 {
                    let missing = record(n_apps, &combos[1..]);
                    assert!(ComboSweep::from_bytes(&missing).is_none(), "{what}");
                    let last = combos.len() - 1;
                    combos.swap(0, last);
                    let swapped = record(n_apps, &combos);
                    assert!(ComboSweep::from_bytes(&swapped).is_none(), "{what}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in sweep")]
    fn off_ladder_combo_panics() {
        let s = small_sweep();
        let _ = s.ebs(&TlpCombo::pair(
            TlpLevel::new(3).unwrap(),
            TlpLevel::new(3).unwrap(),
        ));
    }
}
