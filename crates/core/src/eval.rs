//! Evaluation driver: run any scheme on any workload, report SD-based
//! system metrics.
//!
//! This is the engine behind Figs. 9 and 10 and the `hs` table. A
//! [`SchemeResult`] is arithmetic over run records: the alone profiles give
//! the SD denominators and the ++bestTLP combination, the 64-combination
//! sweep gives the offline schemes' combination, and exactly one run gives
//! the measured windows — a fixed-combination run ([`measure_fixed_cached`]:
//! the static and offline schemes, `++CCWS`) or a controlled run
//! ([`run_controller_cached`]: PBS, ++DynCTA, Mod+Bypass). Every one of
//! them — alone profiles and sweeps included — is a record of
//! [`gpu_sim::cache`], keyed by the fingerprint of its inputs, so schemes
//! picking the same combination, and campaign units naming the same run,
//! share one simulation, and a scheme evaluation keeps no record of its
//! own.

use crate::metrics::EbObjective;
use crate::pattern::pbs_offline_search;
use crate::pbsrun::{run_controller_cached, ControllerSpec, PbsRunSpec};
use crate::scaling::ScalingFactors;
use crate::search::{best_combo_by_eb, best_combo_by_it, best_combo_by_sd};
use crate::sweep::ComboSweep;
use gpu_sim::alone::{profile_alone, AloneProfile};
use gpu_sim::harness::{measure_fixed_cached, FixedRunInputs, RunSpec};
use gpu_sim::metrics::SystemMetrics;
use gpu_types::canon::{Canon, CanonBuf};
use gpu_types::{AppWindow, GpuConfig, TlpCombo, TlpLevel};
use gpu_workloads::{AppProfile, Workload};
use std::fmt;
use std::sync::Arc;

/// All evaluated TLP-management schemes (the bar groups of Figs. 9/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// `++bestTLP`: each application at its alone best-performing TLP — the
    /// normalization baseline.
    BestTlp,
    /// `++maxTLP`: each application at the maximum TLP.
    MaxTlp,
    /// `++DynCTA`: per-application DynCTA modulation.
    DynCta,
    /// `++CCWS`: per-application cache-conscious warp throttling (the other
    /// prior-art single-application TLP finder the paper names).
    Ccws,
    /// Mod+Bypass: modulation plus L1 bypassing.
    ModBypass,
    /// Online pattern-based searching for the given EB objective.
    Pbs(EbObjective),
    /// PBS's search rules on an offline table, run without overheads.
    PbsOffline(EbObjective),
    /// Brute force over the EB objective (offline, 64 combinations).
    BruteForce(EbObjective),
    /// The SD-based oracle (offline, 64 combinations + alone profiles).
    Opt(EbObjective),
    /// The instruction-throughput oracle: the combination maximizing the
    /// raw sum of IPCs (§IV Observation 2's foil — high IT is not high WS).
    OptIt,
}

impl Canon for EbObjective {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u8(match self {
            EbObjective::Ws => 0,
            EbObjective::Fi => 1,
            EbObjective::Hs => 2,
        });
    }
}

impl Canon for Scheme {
    fn canon(&self, buf: &mut CanonBuf) {
        match self {
            Scheme::BestTlp => buf.push_u8(0),
            Scheme::MaxTlp => buf.push_u8(1),
            Scheme::DynCta => buf.push_u8(2),
            Scheme::Ccws => buf.push_u8(3),
            Scheme::ModBypass => buf.push_u8(4),
            Scheme::Pbs(o) => {
                buf.push_u8(5);
                o.canon(buf);
            }
            Scheme::PbsOffline(o) => {
                buf.push_u8(6);
                o.canon(buf);
            }
            Scheme::BruteForce(o) => {
                buf.push_u8(7);
                o.canon(buf);
            }
            Scheme::Opt(o) => {
                buf.push_u8(8);
                o.canon(buf);
            }
            Scheme::OptIt => buf.push_u8(9),
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::BestTlp => write!(f, "++bestTLP"),
            Scheme::MaxTlp => write!(f, "++maxTLP"),
            Scheme::DynCta => write!(f, "++DynCTA"),
            Scheme::Ccws => write!(f, "++CCWS"),
            Scheme::ModBypass => write!(f, "Mod+Bypass"),
            Scheme::Pbs(o) => write!(f, "PBS-{o}"),
            Scheme::PbsOffline(o) => write!(f, "PBS-{o} (Offline)"),
            Scheme::BruteForce(o) => write!(f, "BF-{o}"),
            Scheme::Opt(o) => write!(f, "opt{o}"),
            Scheme::OptIt => write!(f, "optIT"),
        }
    }
}

/// Run-length and measurement parameters of an evaluation campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluatorConfig {
    /// Machine description.
    pub gpu: GpuConfig,
    /// Seed shared by every run (combinations differ only in settings).
    pub seed: u64,
    /// Warmup/window for alone-run profiling.
    pub alone_spec: RunSpec,
    /// Warmup/window for each entry of a 64-combination sweep.
    pub sweep_spec: RunSpec,
    /// Total cycles of each scheme run.
    pub run_cycles: u64,
    /// Cycle at which scheme-run measurement starts (cache warmup).
    pub measure_from: u64,
    /// Hold length of the online PBS controller, in windows.
    pub pbs_hold_windows: u64,
}

impl EvaluatorConfig {
    /// Paper-machine campaign parameters.
    pub fn paper() -> Self {
        EvaluatorConfig {
            gpu: GpuConfig::paper(),
            seed: 42,
            alone_spec: RunSpec::new(3_000, 10_000),
            sweep_spec: RunSpec::new(3_000, 15_000),
            run_cycles: 600_000,
            measure_from: 3_000,
            pbs_hold_windows: 220,
        }
    }

    /// Scaled-down campaign for tests.
    pub fn quick() -> Self {
        EvaluatorConfig {
            gpu: GpuConfig::small(),
            seed: 42,
            alone_spec: RunSpec::new(500, 2_000),
            sweep_spec: RunSpec::new(300, 1_500),
            run_cycles: 60_000,
            measure_from: 500,
            pbs_hold_windows: 8,
        }
    }

    /// The measured span of a scheme run as a fixed-run specification:
    /// warm up to `measure_from`, measure the rest of `run_cycles`.
    pub fn scheme_span(&self) -> RunSpec {
        RunSpec::new(self.measure_from, self.run_cycles - self.measure_from)
    }
}

/// Result of evaluating one scheme on one workload.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// The evaluated scheme.
    pub scheme: Scheme,
    /// SD-based system metrics (the ones the paper finally reports).
    pub metrics: SystemMetrics,
    /// The fixed combination used, for static/offline schemes.
    pub combo: Option<TlpCombo>,
    /// TLP changes over time (Fig. 11), for dynamic schemes.
    pub tlp_trace: Vec<(u64, Vec<TlpLevel>)>,
    /// Per-application overall windows (IPC, BW, CMR, EB of the whole run).
    pub windows: Vec<AppWindow>,
}

/// The evaluation driver: a cheaply clonable **view** over a campaign
/// configuration.
///
/// Every method takes `&self` and reads through [`gpu_sim::cache`], so any
/// number of views — one per figure generator, one per campaign-scheduler
/// worker — fill and read the same records concurrently. Cloning an
/// evaluator clones an `Arc`, nothing else.
///
/// # Examples
///
/// ```
/// use ebm_core::eval::{Evaluator, EvaluatorConfig, Scheme};
/// use gpu_workloads::Workload;
///
/// let ev = Evaluator::new(EvaluatorConfig::quick());
/// let result = ev.evaluate(&Workload::pair("BLK", "BFS"), Scheme::BestTlp);
/// assert!(result.metrics.ws > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    cfg: Arc<EvaluatorConfig>,
}

fn metrics_for(alone_ipcs: &[f64], windows: &[AppWindow]) -> SystemMetrics {
    let sds = windows
        .iter()
        .zip(alone_ipcs)
        .map(|(w, &a)| w.ipc() / a)
        .collect();
    SystemMetrics::from_slowdowns(sds)
}

/// The scaling factors `objective` reads off `sweep`: sampled for the
/// objectives defined on scaled EBs, none otherwise.
fn scaling_for(sweep: &ComboSweep, objective: EbObjective) -> ScalingFactors {
    if objective.wants_scaling() {
        ScalingFactors::sampled(sweep)
    } else {
        ScalingFactors::none(sweep.n_apps())
    }
}

/// The machine every scheme of `workload` runs on, as the run-level caches
/// key it.
fn machine_of<'a>(
    cfg: &'a EvaluatorConfig,
    workload: &'a Workload,
    ccws: bool,
) -> FixedRunInputs<'a> {
    FixedRunInputs {
        cfg: &cfg.gpu,
        apps: workload.apps(),
        core_split: None,
        seed: cfg.seed,
        ccws,
    }
}

impl Evaluator {
    /// Creates a driver for the given campaign.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid.
    pub fn new(cfg: EvaluatorConfig) -> Self {
        cfg.gpu.validate().expect("invalid machine configuration");
        Evaluator { cfg: Arc::new(cfg) }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &EvaluatorConfig {
        &self.cfg
    }

    fn cores_per_app(&self, workload: &Workload) -> usize {
        self.cfg.gpu.n_cores / workload.n_apps()
    }

    /// The (cached) alone profile of `app` on `n_cores` cores.
    pub fn alone(&self, app: &AppProfile, n_cores: usize) -> AloneProfile {
        let cfg = &self.cfg;
        profile_alone(&cfg.gpu, app, n_cores, cfg.seed, cfg.alone_spec)
    }

    /// The (cached) 64-combination sweep of `workload`.
    pub fn sweep(&self, workload: &Workload) -> ComboSweep {
        let cfg = &self.cfg;
        ComboSweep::measure(&cfg.gpu, workload, cfg.seed, cfg.sweep_spec)
    }

    /// Per-application alone `IPC@bestTLP` (the SD denominators).
    pub fn alone_ipcs(&self, workload: &Workload) -> Vec<f64> {
        let n = self.cores_per_app(workload);
        workload
            .apps()
            .iter()
            .map(|a| self.alone(a, n).ipc_at_best())
            .collect()
    }

    /// Per-application alone `bestTLP` (the ++bestTLP combination).
    pub fn best_tlp_combo(&self, workload: &Workload) -> TlpCombo {
        let n = self.cores_per_app(workload);
        TlpCombo::new(
            workload
                .apps()
                .iter()
                .map(|a| self.alone(a, n).best_tlp())
                .collect(),
        )
    }

    /// Runs `scheme` on `workload` and reports its SD-based metrics.
    ///
    /// The result is arithmetic over records: the alone profiles (SD
    /// denominators, the ++bestTLP combination), the sweep for the offline
    /// schemes' pick, and exactly one run — a fixed-combination run
    /// ([`measure_fixed_cached`]) or a controlled run
    /// ([`run_controller_cached`]) over the scheme span. Each is memoized
    /// where it is computed, so a scheme whose inputs are recorded simulates
    /// nothing.
    pub fn evaluate(&self, workload: &Workload, scheme: Scheme) -> SchemeResult {
        let cfg = self.config();
        let max = TlpCombo::uniform(cfg.gpu.max_tlp(), workload.n_apps());
        let alone_ipcs = self.alone_ipcs(workload);
        let result = |combo: Option<TlpCombo>, tlp_trace, windows: Vec<AppWindow>| SchemeResult {
            scheme,
            metrics: metrics_for(&alone_ipcs, &windows),
            combo,
            tlp_trace,
            windows,
        };
        let fixed = |combo: TlpCombo| {
            let windows =
                measure_fixed_cached(&machine_of(cfg, workload, false), &combo, cfg.scheme_span());
            let tlp_trace = vec![(0, combo.levels().to_vec())];
            result(Some(combo), tlp_trace, windows)
        };
        let controlled = |spec: ControllerSpec| {
            let run = run_controller_cached(
                &machine_of(cfg, workload, false),
                &max,
                cfg.run_cycles,
                cfg.measure_from,
                &spec,
            );
            result(None, run.tlp_trace, run.overall)
        };
        match scheme {
            Scheme::BestTlp => fixed(self.best_tlp_combo(workload)),
            Scheme::MaxTlp => fixed(max.clone()),
            Scheme::DynCta => controlled(ControllerSpec::DynCta),
            Scheme::ModBypass => controlled(ControllerSpec::ModBypass),
            Scheme::Pbs(objective) => controlled(ControllerSpec::Pbs(PbsRunSpec::scheme(
                objective,
                cfg.pbs_hold_windows,
            ))),
            Scheme::Ccws => {
                // CCWS throttles inside the cores; no window controller.
                let inputs = machine_of(cfg, workload, true);
                result(
                    None,
                    Vec::new(),
                    measure_fixed_cached(&inputs, &max, cfg.scheme_span()),
                )
            }
            Scheme::PbsOffline(objective) => {
                let sweep = self.sweep(workload);
                let scaling = scaling_for(&sweep, objective);
                fixed(pbs_offline_search(&sweep, objective, &scaling).0)
            }
            Scheme::BruteForce(objective) => {
                let sweep = self.sweep(workload);
                let scaling = scaling_for(&sweep, objective);
                fixed(best_combo_by_eb(&sweep, objective, &scaling).0)
            }
            Scheme::OptIt => fixed(best_combo_by_it(&self.sweep(workload)).0),
            Scheme::Opt(objective) => {
                let sweep = self.sweep(workload);
                let candidate = fixed(best_combo_by_sd(&sweep, objective, &alone_ipcs).0);
                // The exhaustive search space contains the ++bestTLP
                // combination, so the oracle can never do worse than the
                // baseline; if the (shorter-window) sweep mis-ranked the
                // two, take the baseline's run instead.
                let baseline = self.evaluate(workload, Scheme::BestTlp);
                let metric = |m: &SystemMetrics| match objective {
                    EbObjective::Ws => m.ws,
                    EbObjective::Fi => m.fi,
                    EbObjective::Hs => m.hs,
                };
                if metric(&candidate.metrics) >= metric(&baseline.metrics) {
                    candidate
                } else {
                    SchemeResult { scheme, ..baseline }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluator() -> Evaluator {
        Evaluator::new(EvaluatorConfig::quick())
    }

    fn workload() -> Workload {
        Workload::pair("BLK", "BFS")
    }

    #[test]
    fn best_tlp_baseline_produces_metrics() {
        let e = evaluator();
        let r = e.evaluate(&workload(), Scheme::BestTlp);
        assert_eq!(r.metrics.sds.len(), 2);
        assert!(r.metrics.ws > 0.0);
        assert!(r.metrics.fi > 0.0 && r.metrics.fi <= 1.0);
        assert!(r.combo.is_some());
    }

    #[test]
    fn opt_ws_at_least_matches_best_tlp() {
        let e = evaluator();
        let base = e.evaluate(&workload(), Scheme::BestTlp);
        let opt = e.evaluate(&workload(), Scheme::Opt(EbObjective::Ws));
        // The oracle picked the best combo on the sweep; the full-length
        // re-run can deviate slightly, so allow a small tolerance.
        assert!(
            opt.metrics.ws >= 0.95 * base.metrics.ws,
            "optWS {} should not lose to ++bestTLP {}",
            opt.metrics.ws,
            base.metrics.ws
        );
    }

    #[test]
    fn dynamic_schemes_produce_traces() {
        let e = evaluator();
        let r = e.evaluate(&workload(), Scheme::Pbs(EbObjective::Ws));
        assert!(r.tlp_trace.len() > 1, "PBS must explore combinations");
        assert!(r.metrics.ws > 0.0);
    }

    #[test]
    fn alone_profiles_are_memoized_per_core_count() {
        let e = evaluator();
        let cfg = e.config().clone();
        let bfs = gpu_workloads::by_name("BFS").unwrap();
        let fresh = |n| profile_alone(&cfg.gpu, bfs, n, cfg.seed, cfg.alone_spec);
        let (on_two, on_four) = (e.alone(bfs, 2), e.alone(bfs, 4));
        assert_ne!(on_two, on_four, "a second core count is a second profile");
        assert_eq!(on_two, fresh(2));
        assert_eq!(on_four, fresh(4));
    }

    #[test]
    fn caches_are_reused() {
        let e = evaluator();
        let schemes = [Scheme::BestTlp, Scheme::Opt(EbObjective::Fi)];
        let first: Vec<_> = schemes
            .iter()
            .map(|&s| e.evaluate(&workload(), s))
            .collect();
        // A repeat evaluation — through a clone of the view, too — reads
        // the alone profiles, the sweep and the runs the first one left in
        // the cache, and simulates nothing. It runs on a fan-out worker,
        // where nothing fans out further, so that thread's cycle count is
        // the whole evaluation's, whatever the tests alongside simulate.
        let view = e.clone();
        let repeats = gpu_sim::exec::par_map_with(2, vec![(); 2], |()| {
            let before = gpu_sim::metrics::thread_cycles_simulated();
            let again: Vec<_> = schemes
                .iter()
                .map(|&s| view.evaluate(&workload(), s))
                .collect();
            (again, gpu_sim::metrics::thread_cycles_simulated() - before)
        });
        for (again, cycles) in repeats {
            assert_eq!(cycles, 0, "a repeat evaluation simulated");
            for (a, b) in first.iter().zip(&again) {
                assert_eq!(a.metrics.sds, b.metrics.sds, "{}", a.scheme);
                assert_eq!(a.windows, b.windows, "{}", a.scheme);
            }
        }
    }

    #[test]
    fn scheme_names_match_figures() {
        assert_eq!(Scheme::BestTlp.to_string(), "++bestTLP");
        assert_eq!(Scheme::Pbs(EbObjective::Ws).to_string(), "PBS-WS");
        assert_eq!(
            Scheme::PbsOffline(EbObjective::Fi).to_string(),
            "PBS-FI (Offline)"
        );
        assert_eq!(Scheme::BruteForce(EbObjective::Hs).to_string(), "BF-HS");
        assert_eq!(Scheme::Opt(EbObjective::Ws).to_string(), "optWS");
        assert_eq!(Scheme::OptIt.to_string(), "optIT");
    }

    #[test]
    fn ccws_scheme_runs() {
        let e = evaluator();
        let r = e.evaluate(&workload(), Scheme::Ccws);
        assert!(r.metrics.ws > 0.0);
        assert_eq!(Scheme::Ccws.to_string(), "++CCWS");
    }

    #[test]
    fn opt_it_runs_and_reports() {
        let e = evaluator();
        let r = e.evaluate(&workload(), Scheme::OptIt);
        assert!(r.metrics.ws > 0.0);
        assert!(r.combo.is_some());
    }

    #[test]
    fn hs_and_offline_variants_run() {
        let e = evaluator();
        let w = workload();
        for s in [
            Scheme::PbsOffline(EbObjective::Hs),
            Scheme::BruteForce(EbObjective::Fi),
            Scheme::Opt(EbObjective::Hs),
            Scheme::Pbs(EbObjective::Hs),
        ] {
            let r = e.evaluate(&w, s);
            assert!(r.metrics.hs > 0.0, "{s}: HS {}", r.metrics.hs);
        }
    }

    #[test]
    fn best_tlp_combo_is_on_the_clamped_ladder() {
        let e = evaluator();
        let combo = e.best_tlp_combo(&workload());
        let max = e.config().gpu.max_tlp();
        assert!(combo.levels().iter().all(|&l| l <= max));
    }

    #[test]
    fn sampled_factors_are_positive() {
        let e = evaluator();
        let f = ScalingFactors::sampled(&e.sweep(&workload()));
        assert_eq!(f.len(), 2);
        assert!(f.factors().iter().all(|&x| x > 0.0));
    }
}
