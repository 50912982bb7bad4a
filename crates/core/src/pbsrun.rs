//! Memoized controller runs: one record per controlled simulation.
//!
//! Several figures end in the same shape of experiment: build a machine,
//! install a window controller, run it for a fixed span, and read the
//! overall windows. [`run_controller_cached`] memoizes that whole
//! experiment through [`gpu_sim::cache`] under a `"pbsrun"` fingerprint of
//! the machine inputs, the starting combination, the run span, and a
//! declarative [`ControllerSpec`]: a [`Pbs`] controller with its knobs
//! ([`PbsRunSpec`]), ++DynCTA or Mod+Bypass. So the ablation grid, the
//! phased online runs, the sampling-mode comparison, the three-application
//! workloads, Fig. 11 and the evaluator's `Scheme::{Pbs, DynCta,
//! ModBypass}` each re-simulate once per cache lifetime, and the campaign
//! planner can name every one of these units up front.
//!
//! A traced run is the same pure function of those inputs — the sink only
//! observes — so the record is what Fig. 11 reads too. Only when a caller
//! hands [`run_controller_traced`] an *enabled* sink does the run simulate
//! inline: the events are what was asked for, and a cache hit would emit
//! none.

use crate::metrics::EbObjective;
use crate::policy::pbs::{Pbs, PbsScaling};
use crate::policy::{DynCta, ModBypass};
use gpu_sim::cache;
use gpu_sim::control::Controller;
use gpu_sim::harness::{run_controlled_traced, FixedRunInputs};
use gpu_sim::trace::{NullSink, TraceSink};
use gpu_types::canon::{Canon, CanonBuf, CanonReader, Record};
use gpu_types::{AppWindow, Fingerprint, MemCounters, TlpCombo, TlpLevel};

/// Declarative description of a [`Pbs`] controller build: everything the
/// builder chain can set, as data, so it can feed a cache fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbsRunSpec {
    /// Objective the search optimizes.
    pub objective: EbObjective,
    /// `true` selects [`PbsScaling::Sampled`], `false` raw EBs
    /// ([`PbsScaling::None`]). Fixed factors are not cacheable here — they
    /// depend on a campaign-global table, not on the run inputs.
    pub scaling_sampled: bool,
    /// Windows to hold a committed combination before re-searching.
    pub hold_windows: u64,
    /// Ablation override of the probe level (`None` = the paper's 4).
    pub probe: Option<TlpLevel>,
    /// Keep the settle window after each TLP change (paper: `true`).
    pub settle: bool,
    /// Pick the final combination from the sampling table (paper: `true`).
    pub table_pick: bool,
}

impl PbsRunSpec {
    /// The paper configuration: raw EBs, all design choices on.
    pub fn paper(objective: EbObjective, hold_windows: u64) -> Self {
        PbsRunSpec {
            objective,
            scaling_sampled: false,
            hold_windows,
            probe: None,
            settle: true,
            table_pick: true,
        }
    }

    /// The evaluator's `Scheme::Pbs(objective)` (and Fig. 11's runs): the
    /// paper configuration, with sampled scaling factors for the objectives
    /// that are defined on scaled EBs.
    pub fn scheme(objective: EbObjective, hold_windows: u64) -> Self {
        PbsRunSpec {
            scaling_sampled: objective.wants_scaling(),
            ..Self::paper(objective, hold_windows)
        }
    }

    /// Builds the controller this spec describes for a machine whose
    /// realizable maximum TLP is `max_level`.
    pub fn build(&self, max_level: TlpLevel) -> Pbs {
        let scaling = if self.scaling_sampled {
            PbsScaling::Sampled
        } else {
            PbsScaling::None
        };
        let mut pbs =
            Pbs::new(self.objective, max_level, scaling).with_hold_windows(self.hold_windows);
        if let Some(level) = self.probe {
            pbs = pbs.with_probe(level);
        }
        if !self.settle {
            pbs = pbs.without_settle();
        }
        if !self.table_pick {
            pbs = pbs.without_table_pick();
        }
        pbs
    }
}

impl Canon for PbsRunSpec {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push(&self.objective);
        buf.push_bool(self.scaling_sampled);
        buf.push_u64(self.hold_windows);
        match self.probe {
            None => buf.push_bool(false),
            Some(level) => {
                buf.push_bool(true);
                buf.push(&level);
            }
        }
        buf.push_bool(self.settle);
        buf.push_bool(self.table_pick);
    }
}

/// The window controller a controlled run installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerSpec {
    /// A [`Pbs`] controller built from these knobs.
    Pbs(PbsRunSpec),
    /// `++DynCTA`: per-application [`DynCta`] modulation.
    DynCta,
    /// Mod+Bypass: [`ModBypass`] modulation plus L1 bypassing.
    ModBypass,
}

impl ControllerSpec {
    /// The campaign planner's label prefix for a run of this controller.
    pub fn label(&self) -> &'static str {
        match self {
            ControllerSpec::Pbs(_) => "pbs",
            ControllerSpec::DynCta => "dyncta",
            ControllerSpec::ModBypass => "modbypass",
        }
    }
}

impl Canon for ControllerSpec {
    /// A PBS controller is its knobs' bytes alone, which open with the
    /// objective's tag (0–2); DynCTA and Mod+Bypass are the tags past
    /// those, so no two controllers share a key and a PBS key does not
    /// depend on the others.
    fn canon(&self, buf: &mut CanonBuf) {
        match self {
            ControllerSpec::Pbs(spec) => spec.canon(buf),
            ControllerSpec::DynCta => buf.push_u8(3),
            ControllerSpec::ModBypass => buf.push_u8(4),
        }
    }
}

/// The cached record of one controller run: a
/// [`gpu_sim::harness::ControlledRun`] plus what a PBS controller reports
/// about its search.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerRun {
    /// One overall window per application over the measured region.
    pub overall: Vec<AppWindow>,
    /// Every TLP change the controller made, including the initial setting.
    pub tlp_trace: Vec<(u64, Vec<TlpLevel>)>,
    /// Number of sampling windows the controller observed.
    pub n_windows: u64,
    /// `(window-end cycle, per-app windows)` for every sampling window —
    /// Fig. 11's per-window series ([`gpu_sim::harness::series_csv`]
    /// renders it). All windows are one sampling window long and
    /// normalized like `overall` (the payload relies on it).
    pub window_series: Vec<(u64, Vec<AppWindow>)>,
    /// Combinations probed by a PBS controller's last completed search (0
    /// for the controllers that do not search).
    pub samples_last_search: usize,
}

/// Cache key of [`run_controller_cached`] — public so a campaign planner
/// can name the unit without running it.
pub fn controller_run_fingerprint(
    inputs: &FixedRunInputs<'_>,
    start: &TlpCombo,
    run_cycles: u64,
    measure_from: u64,
    spec: &ControllerSpec,
) -> Fingerprint {
    let mut key = cache::KeyBuilder::new("pbsrun");
    inputs.push_key(&mut key);
    key.push(start);
    key.push_u64(run_cycles);
    key.push_u64(measure_from);
    key.push(spec);
    key.finish()
}

/// `overall`, `tlp_trace`, `n_windows` and `samples_last_search` as their
/// generic records, then the series. Every sampling window has the same
/// length and shares the overall windows' peak-bandwidth normalizer, so
/// the series is its length, that window length, and per entry its end
/// cycle plus each application's counters, all as LEB128 varints (~20
/// bytes per window where an [`AppWindow`] record takes 80).
impl Record for ControllerRun {
    fn put(&self, buf: &mut CanonBuf) {
        self.overall.put(buf);
        self.tlp_trace.put(buf);
        buf.push_u64(self.n_windows);
        buf.push_usize(self.samples_last_search);
        let first = self.window_series.first().and_then(|(_, ws)| ws.first());
        let window_cycles = first.map_or(0, |w| w.cycles);
        buf.push_usize(self.window_series.len());
        buf.push_u64(window_cycles);
        for (cycle, windows) in &self.window_series {
            push_varint(buf, *cycle);
            debug_assert_eq!(windows.len(), self.overall.len());
            for w in windows {
                debug_assert_eq!(w.cycles, window_cycles);
                // The counters' own record, one varint per 8-byte word.
                for word in w.counters.to_bytes().chunks_exact(8) {
                    push_varint(buf, u64::from_le_bytes(word.try_into().unwrap()));
                }
            }
        }
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        let overall = Vec::<AppWindow>::get(r)?;
        let tlp_trace = Vec::get(r)?;
        let n_windows = r.read_u64()?;
        let samples_last_search = r.read_usize()?;
        let (n, window_cycles) = (r.read_usize()?, r.read_u64()?);
        if n > 0 && !overall.is_empty() && window_cycles == 0 {
            return None;
        }
        let mut window_series = Vec::with_capacity(n);
        for _ in 0..n {
            let cycle = read_varint(r)?;
            let mut windows = Vec::with_capacity(overall.len());
            for app in &overall {
                let mut words = [0u8; 64];
                for word in words.chunks_exact_mut(8) {
                    word.copy_from_slice(&read_varint(r)?.to_le_bytes());
                }
                let counters = MemCounters::from_bytes(&words)?;
                let w = AppWindow::new(counters, window_cycles, app.peak_bw_bytes_per_cycle);
                windows.push(w);
            }
            window_series.push((cycle, windows));
        }
        Some(ControllerRun {
            overall,
            tlp_trace,
            n_windows,
            window_series,
            samples_last_search,
        })
    }
}

/// LEB128: seven value bits per byte, low group first.
fn push_varint(buf: &mut CanonBuf, mut v: u64) {
    while v >= 0x80 {
        buf.push_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push_u8(v as u8);
}

fn read_varint(r: &mut CanonReader<'_>) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = r.read_u8()?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Builds the machine described by `inputs`, applies `start`, and runs the
/// controller described by `spec` for `run_cycles` (measuring from
/// `measure_from`). Memoized under [`controller_run_fingerprint`];
/// bit-identical to the equivalent inline
/// [`gpu_sim::harness::run_controlled`] call.
pub fn run_controller_cached(
    inputs: &FixedRunInputs<'_>,
    start: &TlpCombo,
    run_cycles: u64,
    measure_from: u64,
    spec: &ControllerSpec,
) -> ControllerRun {
    run_controller_traced(inputs, start, run_cycles, measure_from, spec, &mut NullSink)
}

/// [`run_controller_cached`] with a [`TraceSink`] for the run's events. A
/// disabled sink reads the record; an enabled one bypasses the cache on
/// read and simulates inline so the events exist — same bytes out, and the
/// record is still published, so a traced cold run leaves a warm cache.
pub fn run_controller_traced(
    inputs: &FixedRunInputs<'_>,
    start: &TlpCombo,
    run_cycles: u64,
    measure_from: u64,
    spec: &ControllerSpec,
    sink: &mut dyn TraceSink,
) -> ControllerRun {
    let fp = controller_run_fingerprint(inputs, start, run_cycles, measure_from, spec);
    let traced = sink.enabled();
    let mut simulate = || {
        let max = inputs.cfg.max_tlp();
        let mut gpu = inputs.build();
        gpu.set_combo(start);
        let mut run = |controller: &mut dyn Controller| {
            run_controlled_traced(&mut gpu, controller, run_cycles, measure_from, sink)
        };
        let (run, samples_last_search) = match spec {
            ControllerSpec::Pbs(knobs) => {
                let mut pbs = knobs.build(max);
                (run(&mut pbs), pbs.samples_last_search())
            }
            ControllerSpec::DynCta => (run(&mut DynCta::new(max)), 0),
            ControllerSpec::ModBypass => (run(&mut ModBypass::new(max)), 0),
        };
        ControllerRun {
            overall: run.overall,
            tlp_trace: run.tlp_trace,
            n_windows: run.n_windows,
            window_series: run.window_series,
            samples_last_search,
        }
    };
    if traced {
        let run = simulate();
        cache::memoize(fp, || run.clone());
        run
    } else {
        cache::memoize(fp, simulate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::harness::series_csv;
    use gpu_types::GpuConfig;
    use gpu_workloads::by_name;

    #[test]
    fn spec_round_trips_through_canon_distinctly() {
        let paper = PbsRunSpec::paper(EbObjective::Ws, 8);
        let variants = [
            paper,
            PbsRunSpec {
                probe: Some(TlpLevel::MAX),
                ..paper
            },
            PbsRunSpec {
                settle: false,
                ..paper
            },
            PbsRunSpec {
                table_pick: false,
                ..paper
            },
            PbsRunSpec {
                scaling_sampled: true,
                ..paper
            },
            PbsRunSpec {
                hold_windows: 9,
                ..paper
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for v in &variants {
            let mut buf = CanonBuf::new();
            buf.push(v);
            let bytes = buf.into_bytes();
            // A PBS controller's bytes are its knobs' bytes, unchanged.
            let mut wrapped = CanonBuf::new();
            wrapped.push(&ControllerSpec::Pbs(*v));
            assert_eq!(wrapped.into_bytes(), bytes, "{v:?}");
            assert!(seen.insert(bytes), "canon collision for {v:?}");
        }
        for other in [ControllerSpec::DynCta, ControllerSpec::ModBypass] {
            let mut buf = CanonBuf::new();
            buf.push(&other);
            assert!(
                seen.insert(buf.into_bytes()),
                "canon collision for {other:?}"
            );
        }
    }

    #[test]
    fn cached_record_matches_inline_traced_run() {
        let cfg = GpuConfig::small();
        let apps = [by_name("BLK").unwrap(), by_name("BFS").unwrap()];
        let inputs = FixedRunInputs {
            cfg: &cfg,
            apps: &apps,
            core_split: None,
            seed: 7,
            ccws: false,
        };
        let start = TlpCombo::uniform(cfg.max_tlp(), 2);
        let max = cfg.max_tlp();
        let specs = [
            ControllerSpec::Pbs(PbsRunSpec::scheme(EbObjective::Ws, 4)),
            ControllerSpec::Pbs(PbsRunSpec::scheme(EbObjective::Fi, 4)),
            ControllerSpec::DynCta,
            ControllerSpec::ModBypass,
        ];
        for spec in specs {
            let cached = run_controller_cached(&inputs, &start, 20_000, 1_000, &spec);

            let mut gpu = inputs.build();
            gpu.set_combo(&start);
            let mut ring = gpu_sim::trace::RingSink::new(1 << 16);
            let mut go = |controller: &mut dyn Controller| {
                run_controlled_traced(&mut gpu, controller, 20_000, 1_000, &mut ring)
            };
            let (inline, samples) = match spec {
                ControllerSpec::Pbs(knobs) => {
                    let mut pbs = knobs.build(max);
                    (go(&mut pbs), pbs.samples_last_search())
                }
                ControllerSpec::DynCta => (go(&mut DynCta::new(max)), 0),
                ControllerSpec::ModBypass => (go(&mut ModBypass::new(max)), 0),
            };
            assert_eq!(cached.overall, inline.overall, "{spec:?}");
            assert_eq!(cached.tlp_trace, inline.tlp_trace, "{spec:?}");
            assert_eq!(cached.n_windows, inline.n_windows, "{spec:?}");
            assert_eq!(
                series_csv(&cached.window_series),
                inline.series_csv(),
                "{spec:?}"
            );
            assert_eq!(
                series_csv(&cached.window_series),
                gpu_sim::trace::series_csv(ring.events()),
                "{spec:?}: the record's series is the traced run's"
            );
            assert_eq!(cached.samples_last_search, samples, "{spec:?}");

            // The record is lossless, and no proper prefix of it decodes.
            let bytes = cached.to_bytes();
            assert_eq!(
                ControllerRun::from_bytes(&bytes).as_ref(),
                Some(&cached),
                "{spec:?}"
            );
            for cut in 0..bytes.len() {
                let prefix = ControllerRun::from_bytes(&bytes[..cut]);
                assert_eq!(prefix, None, "{spec:?}: cut at {cut}");
            }

            // An enabled sink simulates inline and returns the same record.
            let mut ring2 = gpu_sim::trace::RingSink::new(1 << 16);
            let traced = run_controller_traced(&inputs, &start, 20_000, 1_000, &spec, &mut ring2);
            assert_eq!(traced, cached, "{spec:?}");
            assert_eq!(ring2.events(), ring.events(), "{spec:?}");
        }
    }
}
