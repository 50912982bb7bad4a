//! Campaign work-graph scheduler: fingerprint-deduped, cost-ordered,
//! whole-campaign parallelism.
//!
//! Rendered one after another ([`run_serial`]), the 21 artifacts
//! parallelize only their own inner loops — the alone-profile ladder, one
//! workload's 64-combination sweep, one batch of scheme runs. Between
//! those bursts the worker pool sits idle, and several artifacts quietly
//! re-demand measurements an earlier artifact already produced.
//!
//! This module compiles the campaign into an explicit work graph instead:
//!
//! * [`plan`] walks the artifact list ([`ARTIFACTS`]) and emits one
//!   **work unit** per underlying measurement — an alone
//!   profile, a sweep, a fixed-combination run, a memoized PBS run, a
//!   sampling-error run, a scheme evaluation — keyed by the *same
//!   content-addressed fingerprint*
//!   the persistent result cache uses ([`alone_fingerprint`],
//!   [`sweep_fingerprint`], [`FixedRunInputs::fingerprint`],
//!   [`pbsrun_fingerprint`], [`scheme_fingerprint`]). Planning never
//!   simulates; it is a pure function of the campaign configuration.
//!   Units demanded twice (Fig. 9 and Fig. 10 share every baseline; the
//!   ablation and sampling studies and Fig. 11 share their PBS paper runs;
//!   the GTO/open-page sensitivity arms are bit-identical to the base
//!   config) collapse into one node — the plan's *dedup ratio*. Units that
//!   name the same simulation at two levels (a `scheme:` unit resolves to
//!   the `fixed` or `pbsrun` record a `bestfixed:` or `pbs:` unit also
//!   writes) meet in the cache's single-flight tier instead.
//! * [`run`] executes the unit graph over a [`gpu_sim::exec::with_workers`]
//!   pool. The frontier is a max-heap ordered by a per-unit **cost model**
//!   ([`CostModel`]) seeded from the previous run's `PROFILE.json` span
//!   history and falling back to static cycle estimates — so the longest
//!   measurements start first (LPT scheduling) and the tail stays short.
//!   Figures are dependent consumer nodes: the coordinator renders each
//!   one — in the exact serial order — as soon as its units finish, so
//!   artifacts are **byte-identical** to the serial campaign while the
//!   pool keeps simulating ahead.
//! * [`run_serial`] is the reference the scheduler is held to: the same
//!   plan's figures rendered in order with no unit executed.
//!
//! Determinism is inherited, not re-proved: every unit is a pure function
//! of its fingerprint inputs, results land in the shared
//! [`ebm_core::ResultStore`] / [`gpu_sim::cache`] tiers, and renders only
//! read memoized state — no render simulates, so an untraced campaign's
//! `unit` spans add up to its simulated cycles and a warm one simulates
//! none (`tests/campaign_warm.rs`). A unit the planner missed is
//! recomputed inline by the render (correct, merely slower); a unit
//! computed twice is collapsed by the cache's single-flight tier. Worker
//! panics are caught, flagged, and re-raised on the caller after the pool
//! drains — the "catch-and-flag" pattern [`gpu_sim::exec::with_workers`]
//! documents.
//!
//! [`alone_fingerprint`]: gpu_sim::alone::alone_fingerprint
//! [`sweep_fingerprint`]: ebm_core::sweep::sweep_fingerprint
//! [`FixedRunInputs::fingerprint`]: gpu_sim::harness::FixedRunInputs::fingerprint
//! [`pbsrun_fingerprint`]: ebm_core::pbsrun::pbsrun_fingerprint
//! [`scheme_fingerprint`]: ebm_core::eval::scheme_fingerprint

use crate::figures;
use crate::util::{BenchArgs, Report};
use ebm_core::eval::{scheme_fingerprint, Evaluator, EvaluatorConfig, Scheme};
use ebm_core::metrics::EbObjective;
use ebm_core::pattern::pbs_offline_search;
use ebm_core::pbsrun::{pbsrun_fingerprint, run_pbs_cached, PbsRunSpec};
use ebm_core::scaling::ScalingFactors;
use ebm_core::sweep::{sweep_fingerprint, ComboSweep};
use gpu_sim::alone::{alone_fingerprint, profile_alone};
use gpu_sim::harness::{measure_fixed_cached, sampling_error_cached, FixedRunInputs, RunSpec};
use gpu_sim::trace::{TraceEvent, TraceSink};
use gpu_sim::{cache, exec};
use gpu_types::{Fingerprint, FxHashMap, GpuConfig, TlpCombo, TlpLevel};
use gpu_workloads::{all_apps, by_name, representative_workloads, AppProfile, Workload};
use std::collections::BinaryHeap;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Every campaign artifact, in generation order: the only artifact list
/// there is (`--only` ids are checked against it, `plan_artifact` pairs
/// each id with its units and render). Serial walk and scheduled
/// coordinator both render in exactly this order, so stdout and the
/// `results/` files are byte-identical between them.
pub const ARTIFACTS: [&str; 21] = [
    "tab04",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "hs",
    "fig11",
    "sens_part",
    "ablation",
    "phased",
    "sampling",
    "sched",
    "ccws",
    "dram_policy",
    "threeapp",
];

/// A work unit's executable body. Results are not returned: they land in
/// the shared [`ebm_core::ResultStore`] and [`gpu_sim::cache`] tiers,
/// where the dependent figure renders re-read them warm.
type UnitFn = Box<dyn FnOnce(&Evaluator) + Send>;

/// A figure render: runs on the coordinator thread only, in serial
/// artifact order, once its units are done.
type RenderFn = Box<dyn FnOnce(&Evaluator, &mut dyn TraceSink) -> Report>;

/// One content-addressed measurement node of the work graph.
struct Unit {
    /// Stable human-readable label (also the cost-model history key).
    label: String,
    /// Content-address of the computation (the dedup key), kept for the
    /// `sched_unit` trace event.
    fp: Fingerprint,
    /// Estimated cost in simulated cycles (higher runs earlier).
    cost: u64,
    /// Indices of units that must finish before this one starts.
    deps: Vec<usize>,
    /// The body, taken exactly once by whichever worker claims the unit.
    run: Mutex<Option<UnitFn>>,
}

/// One artifact: a consumer node depending on the units it reads.
struct FigureNode {
    id: &'static str,
    deps: Vec<usize>,
    render: RenderFn,
}

/// A compiled campaign: the deduplicated unit graph plus the figure
/// consumer nodes, ready for [`run`].
pub struct Campaign {
    units: Vec<Unit>,
    figures: Vec<FigureNode>,
    requested: usize,
}

impl Campaign {
    /// Distinct work units after fingerprint deduplication.
    pub fn planned(&self) -> usize {
        self.units.len()
    }

    /// Unit demands before deduplication (every planning site counts).
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Number of artifacts the plan will render.
    pub fn n_figures(&self) -> usize {
        self.figures.len()
    }

    /// Fraction of demanded units served by sharing: `1 - planned /
    /// requested` (0 when nothing was demanded).
    pub fn dedup_ratio(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            1.0 - self.planned() as f64 / self.requested as f64
        }
    }
}

/// Per-unit cost estimates, in simulated cycles.
///
/// Seeded from a previous run's `PROFILE.json`: each `unit`-level span's
/// recorded cycle count (or, for cache-served spans that simulated
/// nothing, its wall time converted through the campaign-level
/// cycles-per-second rate) becomes the history entry for that unit's
/// label. Units without history fall back to a static estimate derived
/// from their run specification. Costs only order the ready queue —
/// a wrong estimate costs wall-clock, never correctness.
pub struct CostModel {
    history: FxHashMap<String, u64>,
}

impl CostModel {
    /// An empty model: every unit uses its static fallback estimate.
    pub fn empty() -> Self {
        CostModel {
            history: FxHashMap::default(),
        }
    }

    /// Loads span history from a `PROFILE.json` written by a previous
    /// campaign run; missing or malformed files yield [`CostModel::empty`].
    pub fn load(path: &Path) -> Self {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Self::empty();
        };
        Self::from_profile_json(&text)
    }

    /// Parses the `PROFILE.json` document text (see [`CostModel::load`]).
    pub fn from_profile_json(text: &str) -> Self {
        let mut model = Self::empty();
        let Ok(doc) = crate::json::parse(text) else {
            return model;
        };
        let Some(spans) = doc.get("spans").and_then(crate::json::Json::as_arr) else {
            return model;
        };
        // Cycles-per-second from the campaign root span converts wall time
        // of cache-served (zero-cycle) spans into comparable cost units.
        let mut cps = 0.0f64;
        for s in spans {
            if s.get("level").and_then(crate::json::Json::as_str) == Some("campaign") {
                let cycles = num_field(s, "cycles");
                let wall = num_field(s, "wall_s");
                if wall > 0.0 && cycles > 0.0 {
                    cps = cycles / wall;
                }
            }
        }
        for s in spans {
            if s.get("level").and_then(crate::json::Json::as_str) != Some("unit") {
                continue;
            }
            let Some(name) = s.get("name").and_then(crate::json::Json::as_str) else {
                continue;
            };
            let est = num_field(s, "cycles").max(num_field(s, "wall_s") * cps);
            if est > 0.0 {
                model.history.insert(name.to_owned(), est as u64);
            }
        }
        model
    }

    /// The cost of the unit labelled `label`: its history entry if one
    /// exists, otherwise `fallback` (never 0, so every unit outranks a
    /// hypothetical free one).
    pub fn cost(&self, label: &str, fallback: u64) -> u64 {
        self.history.get(label).copied().unwrap_or(fallback).max(1)
    }

    /// Records an observed cost for `label` (zero observations are
    /// ignored — a cache-served unit teaches the model nothing). This is
    /// how `sched_unit` trace events round-trip into the next run's model:
    /// feed each event's `label` and actual `cycles` back in.
    pub fn observe(&mut self, label: &str, cycles: u64) {
        if cycles > 0 {
            self.history.insert(label.to_owned(), cycles);
        }
    }
}

fn num_field(obj: &crate::json::Json, key: &str) -> f64 {
    obj.get(key)
        .and_then(crate::json::Json::as_num)
        .unwrap_or(0.0)
}

/// Ready-queue entry: max-heap by cost (longest-processing-time first),
/// ties broken toward the lower unit index (earlier in serial order).
#[derive(Debug, PartialEq, Eq)]
struct Ready {
    cost: u64,
    idx: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .cmp(&other.cost)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Builds the unit graph by walking the artifact list.
struct Planner {
    cfg: EvaluatorConfig,
    costs: CostModel,
    units: Vec<Unit>,
    by_fp: FxHashMap<Fingerprint, usize>,
    requested: usize,
}

impl Planner {
    fn new(cfg: EvaluatorConfig, costs: CostModel) -> Self {
        Planner {
            cfg,
            costs,
            units: Vec::new(),
            by_fp: FxHashMap::default(),
            requested: 0,
        }
    }

    /// Registers (or dedups) the unit with content address `fp`. The first
    /// registration wins: a later demand with the same fingerprint names
    /// the same computation, so its label, cost and dependencies are
    /// already correct.
    fn unit(
        &mut self,
        fp: Fingerprint,
        label: String,
        fallback_cost: u64,
        deps: Vec<usize>,
        run: UnitFn,
    ) -> usize {
        self.requested += 1;
        if let Some(&idx) = self.by_fp.get(&fp) {
            return idx;
        }
        let idx = self.units.len();
        let cost = self.costs.cost(&label, fallback_cost);
        self.units.push(Unit {
            label,
            fp,
            cost,
            deps,
            run: Mutex::new(Some(run)),
        });
        self.by_fp.insert(fp, idx);
        idx
    }

    /// Distinct clamped ladder levels on `g` (alone-profile runs per app).
    fn ladder_len(g: &GpuConfig) -> u64 {
        ComboSweep::combos(g, 1).len() as u64
    }

    /// An alone profile through the evaluator's store (base config only).
    fn alone(&mut self, app: &'static AppProfile, n_cores: usize) -> usize {
        let cfg = self.cfg.clone();
        let fp = alone_fingerprint(&cfg.gpu, app, n_cores, cfg.seed, cfg.alone_spec);
        let label = format!("alone:{}@{}", app.name, n_cores);
        let est = Self::ladder_len(&cfg.gpu) * (cfg.alone_spec.warmup + cfg.alone_spec.window);
        self.unit(
            fp,
            label,
            est,
            Vec::new(),
            Box::new(move |ev| {
                ev.alone(app, n_cores);
            }),
        )
    }

    /// An alone profile under a modified machine config (sensitivity arms),
    /// memoized by [`gpu_sim::cache`] rather than the evaluator store.
    fn alone_at(
        &mut self,
        g: &GpuConfig,
        app: &'static AppProfile,
        n_cores: usize,
        spec: RunSpec,
    ) -> usize {
        let seed = self.cfg.seed;
        let fp = alone_fingerprint(g, app, n_cores, seed, spec);
        let label = format!("alone:{}@{}#{}", app.name, n_cores, &fp.to_hex()[..8]);
        let est = Self::ladder_len(g) * (spec.warmup + spec.window);
        let g = g.clone();
        self.unit(
            fp,
            label,
            est,
            Vec::new(),
            Box::new(move |_ev| {
                profile_alone(&g, app, n_cores, seed, spec);
            }),
        )
    }

    /// A 64-combination sweep through the evaluator's store.
    fn sweep(&mut self, w: &Workload) -> usize {
        let cfg = self.cfg.clone();
        let fp = sweep_fingerprint(&cfg.gpu, w, cfg.seed, cfg.sweep_spec);
        let label = format!("sweep:{}", w.name());
        let est = ComboSweep::combos(&cfg.gpu, w.n_apps()).len() as u64
            * (cfg.sweep_spec.warmup + cfg.sweep_spec.window);
        let wl = w.clone();
        self.unit(
            fp,
            label,
            est,
            Vec::new(),
            Box::new(move |ev| {
                ev.sweep(&wl);
            }),
        )
    }

    /// A sweep under a modified machine config.
    fn sweep_at(&mut self, g: &GpuConfig, w: &Workload, spec: RunSpec) -> usize {
        let seed = self.cfg.seed;
        let fp = sweep_fingerprint(g, w, seed, spec);
        let label = format!("sweep:{}#{}", w.name(), &fp.to_hex()[..8]);
        let est = ComboSweep::combos(g, w.n_apps()).len() as u64 * (spec.warmup + spec.window);
        let g = g.clone();
        let wl = w.clone();
        self.unit(
            fp,
            label,
            est,
            Vec::new(),
            Box::new(move |_ev| {
                ComboSweep::measure(&g, &wl, seed, spec);
            }),
        )
    }

    /// A full scheme evaluation. Depends on the workload's alone profiles
    /// (SD denominators, ++bestTLP combination), the sweep for offline
    /// schemes and the ++bestTLP result for `opt*`'s baseline guard — so
    /// the run's warm-up phase is all store hits.
    fn scheme(&mut self, w: &Workload, s: Scheme) -> usize {
        let n = self.cfg.gpu.n_cores / w.n_apps();
        let mut deps: Vec<usize> = Vec::new();
        for app in w.apps() {
            deps.push(self.alone(app, n));
        }
        if matches!(
            s,
            Scheme::PbsOffline(_) | Scheme::BruteForce(_) | Scheme::Opt(_) | Scheme::OptIt
        ) {
            deps.push(self.sweep(w));
        }
        if matches!(s, Scheme::Opt(_)) {
            deps.push(self.scheme(w, Scheme::BestTlp));
        }
        let fp = scheme_fingerprint(&self.cfg, w, s);
        let label = format!("scheme:{}/{}", w.name(), s);
        let est = self.cfg.run_cycles;
        let wl = w.clone();
        self.unit(
            fp,
            label,
            est,
            deps,
            Box::new(move |ev| {
                ev.evaluate(&wl, s);
            }),
        )
    }

    /// A fixed-combination measurement on an explicitly described machine.
    #[allow(clippy::too_many_arguments)]
    fn fixed(
        &mut self,
        g: &GpuConfig,
        apps: Vec<&'static AppProfile>,
        split: Option<Vec<usize>>,
        ccws: bool,
        combo: TlpCombo,
        spec: RunSpec,
    ) -> usize {
        let seed = self.cfg.seed;
        let fp = FixedRunInputs {
            cfg: g,
            apps: &apps,
            core_split: split.as_deref(),
            seed,
            ccws,
        }
        .fingerprint(&combo, spec);
        let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        let label = format!("fixed:{}@{}#{}", names.join("_"), combo, &fp.to_hex()[..8]);
        let g = g.clone();
        self.unit(
            fp,
            label,
            spec.warmup + spec.window,
            Vec::new(),
            Box::new(move |_ev| {
                let inputs = FixedRunInputs {
                    cfg: &g,
                    apps: &apps,
                    core_split: split.as_deref(),
                    seed,
                    ccws,
                };
                measure_fixed_cached(&inputs, &combo, spec);
            }),
        )
    }

    /// A memoized PBS controller run.
    #[allow(clippy::too_many_arguments)]
    fn pbs(
        &mut self,
        g: &GpuConfig,
        apps: Vec<&'static AppProfile>,
        split: Option<Vec<usize>>,
        start: TlpCombo,
        run_cycles: u64,
        measure_from: u64,
        spec: PbsRunSpec,
    ) -> usize {
        let seed = self.cfg.seed;
        let fp = pbsrun_fingerprint(
            &FixedRunInputs {
                cfg: g,
                apps: &apps,
                core_split: split.as_deref(),
                seed,
                ccws: false,
            },
            &start,
            run_cycles,
            measure_from,
            &spec,
        );
        let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        let label = format!("pbs:{}#{}", names.join("_"), &fp.to_hex()[..8]);
        let g = g.clone();
        self.unit(
            fp,
            label,
            run_cycles,
            Vec::new(),
            Box::new(move |_ev| {
                let inputs = FixedRunInputs {
                    cfg: &g,
                    apps: &apps,
                    core_split: split.as_deref(),
                    seed,
                    ccws: false,
                };
                run_pbs_cached(&inputs, &start, run_cycles, measure_from, &spec);
            }),
        )
    }

    /// A run of a workload on the equal-split machine at its ++bestTLP
    /// combination: the combination comes from the alone profiles (its
    /// dependencies), so the unit's content address is synthetic — a
    /// fingerprint over everything the composite reads, `params` being the
    /// run's own.
    fn at_best_tlp(
        &mut self,
        kind: &str,
        w: &Workload,
        cost: u64,
        params: &[u64],
        run: impl Fn(&FixedRunInputs<'_>, &TlpCombo) + Send + 'static,
    ) -> usize {
        let n = self.cfg.gpu.n_cores / w.n_apps();
        let deps: Vec<usize> = w.apps().iter().map(|a| self.alone(a, n)).collect();
        let mut key = cache::KeyBuilder::new(&format!("campaign-{kind}"));
        key.push(&self.cfg.gpu)
            .push_u64(self.cfg.seed)
            .push(&self.cfg.alone_spec)
            .push_usize(w.n_apps());
        for app in w.apps() {
            key.push(*app);
        }
        for &v in params {
            key.push_u64(v);
        }
        let fp = key.finish();
        let label = format!("{kind}:{}", w.name());
        let wl = w.clone();
        self.unit(
            fp,
            label,
            cost,
            deps,
            Box::new(move |ev| {
                let combo = ev.best_tlp_combo(&wl);
                let cfg = ev.config();
                let inputs = FixedRunInputs {
                    cfg: &cfg.gpu,
                    apps: wl.apps(),
                    core_split: None,
                    seed: cfg.seed,
                    ccws: false,
                };
                run(&inputs, &combo);
            }),
        )
    }

    /// The ++bestTLP fixed run of a workload.
    fn best_fixed(&mut self, w: &Workload, spec: RunSpec) -> usize {
        self.at_best_tlp(
            "bestfixed",
            w,
            spec.warmup + spec.window,
            &[spec.warmup, spec.window],
            move |inputs, combo| {
                measure_fixed_cached(inputs, combo, spec);
            },
        )
    }

    /// The designated-vs-exact estimation-error run of a workload
    /// (`figures::sampling`, part 1).
    fn sampling_error(&mut self, w: &Workload) -> usize {
        let spec = figures::SAMPLING_ERROR_SPEC;
        let n_windows = figures::SAMPLING_ERROR_WINDOWS;
        self.at_best_tlp(
            "sampling",
            w,
            spec.warmup + n_windows * spec.window,
            &[spec.warmup, spec.window, n_windows],
            move |inputs, combo| {
                sampling_error_cached(inputs, combo, spec, n_windows);
            },
        )
    }

    /// The offline-PBS fixed run of a workload: the combination comes from
    /// the sweep (its dependency) via [`pbs_offline_search`] on raw EBs.
    fn offline_fixed(&mut self, w: &Workload, spec: RunSpec) -> usize {
        let deps = vec![self.sweep(w)];
        let mut key = cache::KeyBuilder::new("campaign-offlinefixed");
        key.push(&self.cfg.gpu)
            .push_u64(self.cfg.seed)
            .push(&self.cfg.sweep_spec)
            .push_usize(w.n_apps());
        for app in w.apps() {
            key.push(*app);
        }
        key.push(&spec);
        let fp = key.finish();
        let label = format!("offlinefixed:{}", w.name());
        let wl = w.clone();
        self.unit(
            fp,
            label,
            spec.warmup + spec.window,
            deps,
            Box::new(move |ev| {
                let sweep = ev.sweep(&wl);
                let scaling = ScalingFactors::none(wl.n_apps());
                let (combo, _) = pbs_offline_search(&sweep, EbObjective::Ws, &scaling);
                let cfg = ev.config();
                let inputs = FixedRunInputs {
                    cfg: &cfg.gpu,
                    apps: wl.apps(),
                    core_split: None,
                    seed: cfg.seed,
                    ccws: false,
                };
                measure_fixed_cached(&inputs, &combo, spec);
            }),
        )
    }

    /// The ++bestTLP fixed run of an explicit-split mix (three-application
    /// workloads): the combination comes from per-split alone profiles.
    fn best_fixed_split(
        &mut self,
        apps: Vec<&'static AppProfile>,
        per_app: usize,
        alone_spec: RunSpec,
        spec: RunSpec,
        deps: Vec<usize>,
    ) -> usize {
        let seed = self.cfg.seed;
        let mut key = cache::KeyBuilder::new("campaign-bestfixed-split");
        key.push(&self.cfg.gpu)
            .push_u64(seed)
            .push(&alone_spec)
            .push_usize(per_app)
            .push_usize(apps.len());
        for app in &apps {
            key.push(*app);
        }
        key.push(&spec);
        let fp = key.finish();
        let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        let label = format!("bestfixed3:{}", names.join("_"));
        let g = self.cfg.gpu.clone();
        self.unit(
            fp,
            label,
            spec.warmup + spec.window,
            deps,
            Box::new(move |_ev| {
                let best = TlpCombo::new(
                    apps.iter()
                        .map(|a| profile_alone(&g, a, per_app, seed, alone_spec).best_tlp())
                        .collect(),
                );
                let split = vec![per_app; apps.len()];
                let inputs = FixedRunInputs {
                    cfg: &g,
                    apps: &apps,
                    core_split: Some(&split),
                    seed,
                    ccws: false,
                };
                measure_fixed_cached(&inputs, &best, spec);
            }),
        )
    }
}

/// Compiles the campaign selected by `args` into a [`Campaign`] work
/// graph. Pure: no simulation happens until [`run`]. The cost model is
/// seeded from the output directory's `PROFILE.json` when one exists.
pub fn plan(args: &BenchArgs, ev: &Evaluator) -> Campaign {
    let costs = CostModel::load(&crate::util::out_path("PROFILE.json"));
    plan_with_costs(args, ev, costs)
}

/// [`plan`] with an explicit cost model (tests, benchmarks).
pub fn plan_with_costs(args: &BenchArgs, ev: &Evaluator, costs: CostModel) -> Campaign {
    let mut p = Planner::new(ev.config().clone(), costs);
    let workloads = gpu_workloads::all_workloads();
    let mut figure_nodes = Vec::new();
    for id in ARTIFACTS {
        if !args.wants(id) {
            continue;
        }
        let (deps, render) = plan_artifact(&mut p, id, &workloads);
        figure_nodes.push(FigureNode { id, deps, render });
    }
    Campaign {
        units: p.units,
        figures: figure_nodes,
        requested: p.requested,
    }
}

/// The scheme set of one Fig. 9/10/`hs` column group, baseline first —
/// must stay in step with `figures::scheme_figure`.
fn scheme_set(objective: EbObjective) -> [Scheme; 7] {
    [
        Scheme::BestTlp,
        Scheme::DynCta,
        Scheme::ModBypass,
        Scheme::Pbs(objective),
        Scheme::PbsOffline(objective),
        Scheme::BruteForce(objective),
        Scheme::Opt(objective),
    ]
}

/// Plans one artifact: registers its units and returns the figure node's
/// dependency list plus its render closure. The unit demands here mirror,
/// one for one, what the corresponding generator in [`figures`] reads.
fn plan_artifact(
    p: &mut Planner,
    id: &'static str,
    workloads: &[Workload],
) -> (Vec<usize>, RenderFn) {
    let cfg = p.cfg.clone();
    let gpu = cfg.gpu.clone();
    let n2 = gpu.n_cores / 2;
    let mut deps: Vec<usize> = Vec::new();
    let render: RenderFn = match id {
        "tab04" => {
            for app in all_apps() {
                deps.push(p.alone(app, n2));
            }
            Box::new(|ev, _| figures::tab04(ev))
        }
        "fig01" => {
            let w = Workload::pair("BFS", "FFT");
            for s in [
                Scheme::BestTlp,
                Scheme::MaxTlp,
                Scheme::Opt(EbObjective::Ws),
                Scheme::Opt(EbObjective::Fi),
            ] {
                deps.push(p.scheme(&w, s));
            }
            Box::new(|ev, _| figures::fig01(ev))
        }
        "fig02" => {
            deps.push(p.alone(by_name("BFS").expect("BFS exists"), n2));
            Box::new(|ev, _| figures::fig02(ev))
        }
        "fig03" => {
            for name in ["BFS", "BLK"] {
                deps.push(p.alone(by_name(name).expect("known app"), n2));
            }
            Box::new(|ev, _| figures::fig03(ev))
        }
        "fig04" => {
            for w in representative_workloads() {
                for app in w.apps() {
                    deps.push(p.alone(app, n2));
                }
                deps.push(p.sweep(&w));
            }
            Box::new(|ev, _| figures::fig04(ev))
        }
        "fig05" => {
            for app in all_apps() {
                deps.push(p.alone(app, n2));
            }
            Box::new(|ev, _| figures::fig05(ev))
        }
        "fig06" => {
            deps.push(p.sweep(&Workload::pair("BLK", "TRD")));
            Box::new(|ev, _| figures::fig06(ev))
        }
        "fig07" => {
            let w = Workload::pair("BLK", "TRD");
            for app in w.apps() {
                deps.push(p.alone(app, n2));
            }
            deps.push(p.sweep(&w));
            Box::new(|ev, _| figures::fig07(ev))
        }
        "fig08" => Box::new(|_, _| figures::fig08()),
        "fig09" | "fig10" | "hs" => {
            let objective = match id {
                "fig09" => EbObjective::Ws,
                "fig10" => EbObjective::Fi,
                _ => EbObjective::Hs,
            };
            for w in workloads {
                for s in scheme_set(objective) {
                    deps.push(p.scheme(w, s));
                }
            }
            let ws = workloads.to_vec();
            match id {
                "fig09" => Box::new(move |ev, _| figures::fig09(ev, &ws)),
                "fig10" => Box::new(move |ev, _| figures::fig10(ev, &ws)),
                _ => Box::new(move |ev, _| figures::hs_results(ev, &ws)),
            }
        }
        // Fig. 11 reads two ordinary PBS records (the WS one is the
        // ablation's paper run of BLK_BFS). Only an enabled sink makes the
        // render simulate them again inline, for the events `--trace`
        // asked to record.
        "fig11" => {
            let w = Workload::pair("BLK", "BFS");
            for objective in [EbObjective::Ws, EbObjective::Fi] {
                deps.push(p.pbs(
                    &gpu,
                    w.apps().to_vec(),
                    None,
                    TlpCombo::uniform(gpu.max_tlp(), 2),
                    cfg.run_cycles,
                    cfg.measure_from,
                    PbsRunSpec::scheme(objective, cfg.pbs_hold_windows),
                ));
            }
            Box::new(|ev, sink| figures::fig11_traced(ev, sink))
        }
        "sens_part" => {
            let spec = RunSpec::new(10_000, 25_000);
            let w = Workload::pair("BLK", "BFS");
            let total = gpu.n_cores;
            let quarter = (total / 4).max(1);
            for (c0, c1) in [
                (quarter, total - quarter),
                (total / 2, total - total / 2),
                (total - quarter, quarter),
            ] {
                for (app, c) in w.apps().iter().zip([c0, c1]) {
                    deps.push(p.alone_at(&gpu, app, c, spec));
                }
                for combo in ComboSweep::combos(&gpu, 2) {
                    deps.push(p.fixed(
                        &gpu,
                        w.apps().to_vec(),
                        Some(vec![c0, c1]),
                        false,
                        combo,
                        spec,
                    ));
                }
            }
            let w2 = Workload::pair("BFS", "FFT");
            for l2_kb in [64u64, 128, 256] {
                let mut g = gpu.clone();
                g.l2.capacity_bytes = l2_kb * 1024;
                let n = g.n_cores / 2;
                for app in w2.apps() {
                    deps.push(p.alone_at(&g, app, n, spec));
                }
                deps.push(p.sweep_at(&g, &w2, spec));
            }
            Box::new(|ev, _| figures::sens_part(ev))
        }
        "ablation" => {
            let spec = RunSpec::new(cfg.measure_from, cfg.run_cycles - cfg.measure_from);
            let paper = PbsRunSpec::paper(EbObjective::Ws, cfg.pbs_hold_windows);
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
            ];
            for (a, b) in [
                ("BLK", "BFS"),
                ("BFS", "FFT"),
                ("DS", "TRD"),
                ("JPEG", "LIB"),
            ] {
                let w = Workload::pair(a, b);
                deps.push(p.best_fixed(&w, spec));
                for v in variants {
                    deps.push(p.pbs(
                        &gpu,
                        w.apps().to_vec(),
                        None,
                        TlpCombo::uniform(gpu.max_tlp(), 2),
                        cfg.run_cycles,
                        cfg.measure_from,
                        v,
                    ));
                }
            }
            Box::new(|ev, _| figures::ablation(ev))
        }
        "phased" => {
            let spec = RunSpec::new(cfg.measure_from, cfg.run_cycles - cfg.measure_from);
            let mixes = [
                Workload::from_profiles(vec![
                    &gpu_workloads::PH1,
                    by_name("TRD").expect("known app"),
                ]),
                Workload::from_profiles(vec![
                    &gpu_workloads::PH1,
                    by_name("BLK").expect("known app"),
                ]),
                Workload::from_profiles(vec![
                    &gpu_workloads::PH2,
                    by_name("SCP").expect("known app"),
                ]),
            ];
            for w in mixes {
                deps.push(p.best_fixed(&w, spec));
                deps.push(p.offline_fixed(&w, spec));
                deps.push(p.pbs(
                    &gpu,
                    w.apps().to_vec(),
                    None,
                    TlpCombo::uniform(gpu.max_tlp(), 2),
                    cfg.run_cycles,
                    cfg.measure_from,
                    PbsRunSpec::paper(EbObjective::Ws, 60),
                ));
            }
            Box::new(|ev, _| figures::phased(ev))
        }
        "sampling" => {
            let spec = RunSpec::new(cfg.measure_from, cfg.run_cycles - cfg.measure_from);
            for (a, b) in [
                ("BLK", "BFS"),
                ("BFS", "FFT"),
                ("JPEG", "LIB"),
                ("DS", "TRD"),
            ] {
                let w = Workload::pair(a, b);
                deps.push(p.sampling_error(&w));
                deps.push(p.best_fixed(&w, spec));
                // designated = false is bit-identical to the base config,
                // so that arm's PBS run dedups against the ablation's
                // paper-variant run of the same mix.
                for designated in [false, true] {
                    let mut g = gpu.clone();
                    g.sampling.designated = designated;
                    deps.push(p.pbs(
                        &g,
                        w.apps().to_vec(),
                        None,
                        TlpCombo::uniform(g.max_tlp(), 2),
                        cfg.run_cycles,
                        cfg.measure_from,
                        PbsRunSpec::paper(EbObjective::Ws, cfg.pbs_hold_windows),
                    ));
                }
            }
            Box::new(|ev, _| figures::sampling(ev))
        }
        "sched" => {
            let spec = RunSpec::new(10_000, 25_000);
            let policies = [
                gpu_types::WarpSchedPolicy::Gto,
                gpu_types::WarpSchedPolicy::Lrr,
            ];
            for policy in policies {
                let mut g = gpu.clone();
                g.scheduler = policy;
                deps.push(p.alone_at(&g, by_name("BFS").expect("BFS exists"), g.n_cores / 2, spec));
            }
            for (a, b) in [("BLK", "BFS"), ("BFS", "FFT")] {
                let w = Workload::pair(a, b);
                for policy in policies {
                    let mut g = gpu.clone();
                    g.scheduler = policy;
                    let n = g.n_cores / 2;
                    for app in w.apps() {
                        deps.push(p.alone_at(&g, app, n, spec));
                    }
                    deps.push(p.sweep_at(&g, &w, spec));
                }
            }
            Box::new(|ev, _| figures::sched(ev))
        }
        "ccws" => {
            for name in ["BFS", "FFT", "HS", "BLK"] {
                let app = by_name(name).expect("known app");
                deps.push(p.alone(app, n2));
                deps.push(p.fixed(
                    &gpu,
                    vec![app],
                    Some(vec![n2]),
                    true,
                    TlpCombo::uniform(gpu.max_tlp(), 1),
                    RunSpec::new(80_000, 40_000),
                ));
            }
            for (a, b) in [("BLK", "BFS"), ("BFS", "FFT"), ("DS", "TRD")] {
                let w = Workload::pair(a, b);
                for s in [
                    Scheme::BestTlp,
                    Scheme::Ccws,
                    Scheme::DynCta,
                    Scheme::Pbs(EbObjective::Ws),
                ] {
                    deps.push(p.scheme(&w, s));
                }
            }
            Box::new(|ev, _| figures::ccws(ev))
        }
        "dram_policy" => {
            let spec = RunSpec::new(10_000, 25_000);
            let policies = [gpu_types::PagePolicy::Open, gpu_types::PagePolicy::Closed];
            for name in ["BLK", "GUPS"] {
                let app = by_name(name).expect("known app");
                for policy in policies {
                    let mut g = gpu.clone();
                    g.dram.page_policy = policy;
                    deps.push(p.fixed(
                        &g,
                        vec![app],
                        Some(vec![g.n_cores / 2]),
                        false,
                        TlpCombo::uniform(g.max_tlp(), 1),
                        spec,
                    ));
                }
            }
            let w = Workload::pair("BFS", "FFT");
            for policy in policies {
                let mut g = gpu.clone();
                g.dram.page_policy = policy;
                let n = g.n_cores / 2;
                for app in w.apps() {
                    deps.push(p.alone_at(&g, app, n, spec));
                }
                deps.push(p.sweep_at(&g, &w, spec));
            }
            Box::new(|ev, _| figures::dram_policy(ev))
        }
        "threeapp" => {
            let per_app = (gpu.n_cores / 3).max(1);
            let alone_spec = RunSpec::new(10_000, 25_000);
            let run_spec = RunSpec::new(3_000, 300_000);
            let mixes: [[&str; 3]; 4] = [
                ["BLK", "BFS", "FFT"],
                ["TRD", "DS", "JPEG"],
                ["SCP", "HS", "GUPS"],
                ["LIB", "BLK", "BFS"],
            ];
            for mix in mixes {
                let apps: Vec<&'static AppProfile> = mix
                    .iter()
                    .map(|name| by_name(name).expect("known app"))
                    .collect();
                let adeps: Vec<usize> = apps
                    .iter()
                    .map(|a| p.alone_at(&gpu, a, per_app, alone_spec))
                    .collect();
                deps.extend(adeps.iter().copied());
                deps.push(p.best_fixed_split(apps.clone(), per_app, alone_spec, run_spec, adeps));
                deps.push(p.fixed(
                    &gpu,
                    apps.clone(),
                    Some(vec![per_app; 3]),
                    false,
                    TlpCombo::uniform(gpu.max_tlp(), 3),
                    run_spec,
                ));
                deps.push(p.pbs(
                    &gpu,
                    apps,
                    Some(vec![per_app; 3]),
                    TlpCombo::uniform(gpu.max_tlp(), 3),
                    300_000,
                    3_000,
                    PbsRunSpec::paper(EbObjective::Ws, 150),
                ));
            }
            Box::new(|ev, _| figures::threeapp(ev))
        }
        other => unreachable!("unknown artifact id {other}"),
    };
    (deps, render)
}

/// Execution statistics of one scheduled campaign run (the `sched:` log
/// line; the benchmark's `campaign.*` metrics).
#[derive(Debug, Clone)]
pub struct CampaignStats {
    /// Unit demands before deduplication.
    pub requested: usize,
    /// Distinct units in the executed graph.
    pub planned: usize,
    /// Units actually executed (== planned unless a panic aborted the run).
    pub executed: usize,
    /// Pool width the graph ran over.
    pub workers: usize,
    /// Peak ready-queue depth observed.
    pub peak_ready: usize,
    /// Wall-clock of the whole scheduled campaign, seconds.
    pub wall_s: f64,
    /// Summed busy time across all workers, seconds.
    pub busy_s: f64,
    /// Result-cache hits (memory + disk) during the run.
    pub cache_hits: u64,
    /// Concurrent duplicate computations joined by the cache's
    /// single-flight tier during the run.
    pub inflight_joined: u64,
}

impl CampaignStats {
    /// `1 - planned / requested` (see [`Campaign::dedup_ratio`]).
    pub fn dedup_ratio(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            1.0 - self.planned as f64 / self.requested as f64
        }
    }

    /// Fraction of the pool's wall-clock capacity spent executing units.
    pub fn utilization(&self) -> f64 {
        let capacity = self.workers as f64 * self.wall_s;
        if capacity > 0.0 {
            (self.busy_s / capacity).min(1.0)
        } else {
            0.0
        }
    }
}

/// Runtime record of one executed unit, captured by the worker that ran
/// it and folded into the `sched_unit` trace events after the pool drains.
#[derive(Clone, Copy, Default)]
struct UnitRuntime {
    /// Pool worker index that claimed the unit.
    worker: u64,
    /// Milliseconds from campaign start to unit start.
    start_ms: f64,
    /// Wall-clock milliseconds the unit ran for.
    wall_ms: f64,
    /// Simulated cycles the worker thread attributed to the unit.
    cycles: u64,
}

struct SchedState {
    ready: BinaryHeap<Ready>,
    blocked: Vec<usize>,
    done: Vec<bool>,
    remaining: usize,
    executed: usize,
    peak_ready: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

fn lock<'a>(state: &'a Mutex<SchedState>) -> MutexGuard<'a, SchedState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Executes a compiled [`Campaign`]: units run over an
/// [`exec::with_workers`] pool, longest-estimated first; the coordinator
/// renders each figure in serial artifact order as soon as its units are
/// done and hands the report to `emit` (the `experiments` binary passes
/// [`crate::util::run_and_save`]; benchmarks pass a no-op to keep stdout
/// clean). Worker panics re-raise on the caller after the pool drains.
pub fn run(
    campaign: Campaign,
    ev: &Evaluator,
    sink: &mut dyn TraceSink,
    emit: &mut dyn FnMut(&Report),
) -> CampaignStats {
    run_with(exec::worker_count(), campaign, ev, sink, emit)
}

/// [`run`] over a pool of exactly `workers` threads.
fn run_with(
    workers: usize,
    campaign: Campaign,
    ev: &Evaluator,
    sink: &mut dyn TraceSink,
    emit: &mut dyn FnMut(&Report),
) -> CampaignStats {
    let Campaign {
        units,
        figures: figure_nodes,
        requested,
    } = campaign;
    let planned = units.len();
    let stats0 = cache::stats();
    let t0 = Instant::now();

    // Dependency edges: per-unit blocker counts plus the reverse adjacency
    // (self-edges and duplicates dropped — a unit never waits on itself).
    let mut blocked = vec![0usize; planned];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); planned];
    for (i, u) in units.iter().enumerate() {
        let mut ds: Vec<usize> = u.deps.iter().copied().filter(|&d| d != i).collect();
        ds.sort_unstable();
        ds.dedup();
        blocked[i] = ds.len();
        for d in ds {
            dependents[d].push(i);
        }
    }
    let state = Mutex::new(SchedState {
        ready: BinaryHeap::new(),
        blocked,
        done: vec![false; planned],
        remaining: planned,
        executed: 0,
        peak_ready: 0,
        panic: None,
    });
    {
        let mut s = lock(&state);
        for (i, u) in units.iter().enumerate() {
            if s.blocked[i] == 0 {
                s.ready.push(Ready {
                    cost: u.cost,
                    idx: i,
                });
            }
        }
        s.peak_ready = s.ready.len();
    }
    let cvar = Condvar::new();
    let busy_ns = AtomicU64::new(0);
    let runtimes: Vec<Mutex<Option<UnitRuntime>>> =
        (0..planned).map(|_| Mutex::new(None)).collect();
    let units = &units;
    let dependents = &dependents;
    let state = &state;
    let cvar = &cvar;
    let busy_ns = &busy_ns;
    let runtimes = &runtimes;

    let worker = |w: usize| loop {
        let idx = {
            let mut s = lock(state);
            loop {
                if s.panic.is_some() || s.remaining == 0 {
                    return;
                }
                if let Some(top) = s.ready.pop() {
                    break top.idx;
                }
                s = cvar.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        };
        let job = units[idx]
            .run
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let started = Instant::now();
        let cycles0 = gpu_sim::metrics::thread_cycles_simulated();
        // Catch the panic instead of dying: a dead worker would leave the
        // coordinator (and its siblings) blocked on the condvar forever.
        // The payload is stored first-wins and re-raised by the caller.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(job) = job {
                let _span = crate::profiler::span("unit", &units[idx].label);
                job(ev);
            }
        }));
        let wall = started.elapsed();
        busy_ns.fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        *runtimes[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(UnitRuntime {
            worker: w as u64,
            start_ms: started.duration_since(t0).as_secs_f64() * 1e3,
            wall_ms: wall.as_secs_f64() * 1e3,
            cycles: gpu_sim::metrics::thread_cycles_simulated().saturating_sub(cycles0),
        });
        let mut s = lock(state);
        if let Err(payload) = outcome {
            if s.panic.is_none() {
                s.panic = Some(payload);
            }
        }
        s.done[idx] = true;
        s.remaining -= 1;
        s.executed += 1;
        // A panicked unit still unblocks its dependents: with the panic
        // flag set every worker exits before claiming them, and on the
        // (impossible) path where it is raced, a dependent merely
        // recomputes its missing input inline.
        for &d in &dependents[idx] {
            s.blocked[d] -= 1;
            if s.blocked[d] == 0 {
                s.ready.push(Ready {
                    cost: units[d].cost,
                    idx: d,
                });
            }
        }
        s.peak_ready = s.peak_ready.max(s.ready.len());
        drop(s);
        cvar.notify_all();
    };

    // Reborrow the sink for the coordinator so it is available again for
    // the sched_unit emission after the pool drains.
    let sink2: &mut dyn TraceSink = &mut *sink;
    let coordinator = move || {
        let sink = sink2;
        for fig in figure_nodes {
            {
                let mut s = lock(state);
                while s.panic.is_none() && fig.deps.iter().any(|&d| !s.done[d]) {
                    s = cvar.wait(s).unwrap_or_else(|e| e.into_inner());
                }
                if s.panic.is_some() {
                    return;
                }
            }
            crate::log!(debug, "starting {}", fig.id);
            let _span = crate::profiler::span("figure", fig.id);
            let report = (fig.render)(ev, sink);
            emit(&report);
        }
    };

    exec::with_workers(workers, worker, coordinator);

    if let Some(payload) = lock(state).panic.take() {
        std::panic::resume_unwind(payload);
    }

    let (executed, peak_ready) = {
        let s = lock(state);
        (s.executed, s.peak_ready)
    };
    // One sched_unit event per unit, in plan order. The identity fields
    // are deterministic; the runtime fields describe this execution and
    // feed the next run's cost model (`CostModel::observe`).
    if sink.enabled() {
        for (i, u) in units.iter().enumerate() {
            let rt = runtimes[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .unwrap_or_default();
            sink.emit(TraceEvent::SchedUnit {
                cycle: 0,
                unit: i as u64,
                label: u.label.clone(),
                fp: u.fp.to_hex(),
                deps: u.deps.len() as u64,
                est: u.cost,
                worker: rt.worker,
                start_ms: rt.start_ms,
                wall_ms: rt.wall_ms,
                cycles: rt.cycles,
            });
        }
    }
    let stats1 = cache::stats();
    let stats = CampaignStats {
        requested,
        planned,
        executed,
        workers,
        peak_ready,
        wall_s: t0.elapsed().as_secs_f64(),
        busy_s: busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
        // `disk_hits` is a subset of `hits`, not a second tally.
        cache_hits: stats1.hits.saturating_sub(stats0.hits),
        inflight_joined: stats1
            .inflight_joined
            .saturating_sub(stats0.inflight_joined),
    };
    crate::log!(
        info,
        "sched: {} units scheduled ({} requested, {:.0}% deduped), {} cache hits, \
         {} in-flight joins, peak ready {}, {} workers, utilization {:.2}",
        stats.planned,
        stats.requested,
        100.0 * stats.dedup_ratio(),
        stats.cache_hits,
        stats.inflight_joined,
        stats.peak_ready,
        stats.workers,
        stats.utilization()
    );
    stats
}

/// The serial reference path: renders the plan's figures in artifact
/// order on the calling thread, each inside its `figure` profiling span,
/// and executes no unit — a render computes whatever it reads inline on a
/// miss. [`run`] is held to this byte for byte (`scripts/ci.sh`, the
/// tests below and `tests/campaign_sched.rs`). The trace still gets the
/// plan's `sched_unit` records, runtime fields zeroed ([`emit_plan`]), so
/// `trace-tools report` renders the same deterministic sections from
/// either path.
pub fn run_serial(
    mut campaign: Campaign,
    ev: &Evaluator,
    sink: &mut dyn TraceSink,
    emit: &mut dyn FnMut(&Report),
) {
    for fig in std::mem::take(&mut campaign.figures) {
        crate::log!(debug, "starting {}", fig.id);
        let _span = crate::profiler::span("figure", fig.id);
        emit(&(fig.render)(ev, sink));
    }
    emit_plan(&campaign, sink);
}

/// Emits one `sched_unit` event per planned unit with the runtime fields
/// zeroed: the deterministic plan records (`unit`, `label`, `fp`, `deps`,
/// `est`) a scheduled run emits with its runtimes filled in.
pub fn emit_plan(campaign: &Campaign, sink: &mut dyn TraceSink) {
    if !sink.enabled() {
        return;
    }
    for (i, u) in campaign.units.iter().enumerate() {
        sink.emit(TraceEvent::SchedUnit {
            cycle: 0,
            unit: i as u64,
            label: u.label.clone(),
            fp: u.fp.to_hex(),
            deps: u.deps.len() as u64,
            est: u.cost,
            worker: 0,
            start_ms: 0.0,
            wall_ms: 0.0,
            cycles: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebm_core::eval::EvaluatorConfig;

    #[test]
    fn ready_orders_by_cost_then_index() {
        let mut heap = BinaryHeap::new();
        heap.push(Ready { cost: 5, idx: 9 });
        heap.push(Ready { cost: 20, idx: 3 });
        heap.push(Ready { cost: 20, idx: 1 });
        heap.push(Ready { cost: 1, idx: 0 });
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop().map(|r| r.idx)).collect();
        // Highest cost first; equal costs break toward the lower index.
        assert_eq!(order, vec![1, 3, 9, 0]);
    }

    #[test]
    fn cost_model_reads_unit_spans_and_cps() {
        let profile = r#"{"schema":1,"workers":4,"spans":[
            {"level":"campaign","name":"experiments","depth":0,"wall_s":2.0,
             "cycles":2000000,"cache_hits":0,"cache_misses":0,"workers":4},
            {"level":"unit","name":"sweep:BLK_BFS","depth":0,"wall_s":0.4,
             "cycles":450000,"cache_hits":0,"cache_misses":1,"workers":4},
            {"level":"unit","name":"alone:BFS@8","depth":0,"wall_s":0.1,
             "cycles":0,"cache_hits":1,"cache_misses":0,"workers":4},
            {"level":"figure","name":"fig09","depth":0,"wall_s":1.0,
             "cycles":1,"cache_hits":0,"cache_misses":0,"workers":4}
        ]}"#;
        let m = CostModel::from_profile_json(profile);
        // Simulated spans report their own cycles (which exceed the
        // wall-time estimate of 0.4 s x 1M cycles/s here).
        assert_eq!(m.cost("sweep:BLK_BFS", 7), 450_000);
        // Cache-served spans convert wall time at 1M cycles/s.
        assert_eq!(m.cost("alone:BFS@8", 7), 100_000);
        // Figure spans are not unit history; unknown labels use the
        // fallback.
        assert_eq!(m.cost("fig09", 7), 7);
        assert_eq!(m.cost("unseen", 123), 123);
    }

    #[test]
    fn cost_model_tolerates_garbage() {
        assert_eq!(CostModel::from_profile_json("not json").cost("x", 9), 9);
        assert_eq!(CostModel::from_profile_json("{}").cost("x", 9), 9);
    }

    #[test]
    fn full_plan_dedups_shared_units() {
        let ev = Evaluator::new(EvaluatorConfig::quick());
        let args = BenchArgs::default();
        let plan = plan_with_costs(&args, &ev, CostModel::empty());
        assert_eq!(plan.n_figures(), ARTIFACTS.len());
        // Fig. 9/10/hs share baselines, tab04/fig05 share every alone
        // profile, the sensitivity arms fold into the base config: the
        // full campaign must dedup substantially.
        assert!(
            plan.requested() > plan.planned(),
            "campaign shares no units? requested {} planned {}",
            plan.requested(),
            plan.planned()
        );
        assert!(plan.dedup_ratio() > 0.2, "ratio {}", plan.dedup_ratio());
        // Dependencies stay in bounds and acyclic-by-construction (deps
        // always point at already-registered, lower-indexed units).
        for (i, u) in plan.units.iter().enumerate() {
            assert!(u.deps.iter().all(|&d| d < i), "unit {i} has forward dep");
            assert!(u.cost >= 1);
        }
    }

    #[test]
    fn only_subset_plans_sub_dag() {
        let ev = Evaluator::new(EvaluatorConfig::quick());
        let full = plan_with_costs(&BenchArgs::default(), &ev, CostModel::empty());
        let args = BenchArgs {
            only: Some(vec!["fig02".into(), "fig06".into()]),
            ..BenchArgs::default()
        };
        let sub = plan_with_costs(&args, &ev, CostModel::empty());
        assert_eq!(sub.n_figures(), 2);
        assert!(sub.planned() < full.planned());
        // fig02 needs one alone profile, fig06 one sweep.
        assert_eq!(sub.planned(), 2);
    }

    #[test]
    fn overlapping_figures_dedup_across_the_only_subset() {
        let ev = Evaluator::new(EvaluatorConfig::quick());
        // tab04 and fig05 read the same 26 alone profiles.
        let args = BenchArgs {
            only: Some(vec!["tab04".into(), "fig05".into()]),
            ..BenchArgs::default()
        };
        let plan = plan_with_costs(&args, &ev, CostModel::empty());
        assert_eq!(plan.planned(), all_apps().len());
        assert_eq!(plan.requested(), 2 * all_apps().len());
        assert!(plan.dedup_ratio() > 0.49);
    }

    /// Plans `only` on a fresh quick evaluator with an empty result
    /// cache and collects what `go` emits, in emission order.
    fn rendered(
        only: &[&str],
        go: impl FnOnce(Campaign, &Evaluator, &mut dyn FnMut(&Report)),
    ) -> Vec<(String, String)> {
        cache::clear_memory();
        let ev = Evaluator::new(EvaluatorConfig::quick());
        let args = BenchArgs {
            only: Some(only.iter().map(|s| s.to_string()).collect()),
            ..BenchArgs::default()
        };
        let plan = plan_with_costs(&args, &ev, CostModel::empty());
        let mut out = Vec::new();
        go(plan, &ev, &mut |r| {
            out.push((r.id().to_owned(), r.render()))
        });
        out
    }

    #[test]
    fn scheduled_run_matches_serial_render() {
        // Listed out of artifact order: both paths emit in ARTIFACTS order.
        let only = ["fig07", "fig02", "fig03"];
        let serial = rendered(&only, |plan, ev, emit| {
            run_serial(plan, ev, &mut gpu_sim::trace::NullSink, emit)
        });
        let ids: Vec<&str> = serial.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["fig02", "fig03", "fig07"]);
        for workers in [1, 2, 4] {
            let scheduled = rendered(&only, |plan, ev, emit| {
                let stats = run_with(workers, plan, ev, &mut gpu_sim::trace::NullSink, emit);
                assert_eq!(stats.executed, stats.planned);
                assert_eq!(stats.workers, workers);
            });
            assert_eq!(scheduled, serial, "{workers} workers diverge from serial");
        }
    }

    #[test]
    fn panicking_unit_propagates_after_drain() {
        let ev = Evaluator::new(EvaluatorConfig::quick());
        let campaign = Campaign {
            units: vec![Unit {
                label: "boom".into(),
                fp: Fingerprint(0),
                cost: 1,
                deps: Vec::new(),
                run: Mutex::new(Some(Box::new(|_| panic!("unit exploded")))),
            }],
            figures: Vec::new(),
            requested: 1,
        };
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(campaign, &ev, &mut gpu_sim::trace::NullSink, &mut |_| {});
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("unit exploded"), "payload: {msg}");
    }
}
