//! Campaign work-graph scheduler: fingerprint-deduped, cost-ordered,
//! whole-campaign parallelism.
//!
//! Rendered one after another ([`run_serial`]), the 21 artifacts
//! parallelize only the inner loops of one measurement — the alone-profile
//! ladder, one workload's 64-combination sweep. Between those bursts the
//! worker pool sits idle, and several artifacts quietly re-demand
//! measurements an earlier artifact already produced.
//!
//! This module compiles the campaign into an explicit work graph instead:
//!
//! * [`plan`] runs each selected artifact's declaration
//!   ([`crate::figures`], in [`ARTIFACTS`] order) against one planner. A
//!   declaration calls the planner's constructors for what its render is
//!   going to read — an alone profile, a sweep, a fixed-combination run, a
//!   memoized controller run, a sampling-error run, a scheme evaluation —
//!   and each call registers one **work unit**, keyed by the *same
//!   content-addressed fingerprint* the persistent result cache uses
//!   ([`alone_fingerprint`], [`sweep_fingerprint`],
//!   [`FixedRunInputs::fingerprint`], [`controller_run_fingerprint`]) or,
//!   for a unit that composes records, by a synthetic `campaign-*` node
//!   name over what it reads, and hands back a `Demand<T>`: a typed handle
//!   on the unit's closure. That one closure is
//!   the unit's body (a worker calls it and drops the value, which stays
//!   behind in the caches) *and* the render's read (`Demand::get`), and a
//!   render has no other way to a measured value — so an artifact is
//!   described once, its figure node depends on exactly the units its
//!   declaration demanded, and a read the plan does not know about cannot
//!   be written. Planning never simulates; it is a pure function of the
//!   campaign configuration. Units demanded twice (Fig. 9 and Fig. 10
//!   share every baseline; the ablation and sampling studies and Fig. 11
//!   share their PBS paper runs; the GTO/open-page sensitivity arms are
//!   bit-identical to the base config) collapse into one node whose
//!   closure every demand of that fingerprint shares — the plan's *dedup
//!   ratio*. Units that name the same simulation at two levels (a
//!   `scheme:` unit is arithmetic over the `fixed` or `pbsrun` record a
//!   `bestfixed:` or `pbs:` unit also writes) meet in the cache's
//!   single-flight tier instead.
//! * [`run`] executes the unit graph over a [`gpu_sim::exec::with_workers`]
//!   pool. The frontier is a max-heap ordered by each unit's static
//!   **cost estimate** — the simulated cycles its run specification names,
//!   fixed at planning — so the longest measurements start first (LPT
//!   scheduling) and the tail stays short. Each executed unit is recorded
//!   once, as its `sched_unit` trace event (worker, start, wall time and
//!   the cycles its worker thread stepped).
//!   Figures are dependent consumer nodes: the coordinator renders each
//!   one — in the exact serial order — as soon as its units finish, so
//!   artifacts are **byte-identical** to the serial campaign while the
//!   pool keeps simulating ahead.
//! * [`run_serial`] is the reference the scheduler is held to: the same
//!   plan's figures rendered in order with no unit executed, every
//!   `Demand::get` computing inline through the same closure.
//!
//! Determinism is inherited, not re-proved: every unit is a pure function
//! of its fingerprint inputs, results land in the [`gpu_sim::cache`]
//! tiers, and a scheduled render reads only what its units left there — no
//! render simulates (bar `fig11` under an enabled sink, which re-runs its
//! two controller runs inline to stream their events), so a cold
//! campaign's `sched_unit` cycles add up to its simulated cycles and a
//! warm one simulates none (`tests/campaign_warm.rs`). A unit computed
//! twice is collapsed by the cache's single-flight tier. Worker panics are
//! caught, flagged, and the first is re-raised on the caller after the pool
//! drains, naming the unit's label and fingerprint — the "catch-and-flag"
//! pattern [`gpu_sim::exec::with_workers`] documents.
//!
//! [`alone_fingerprint`]: gpu_sim::alone::alone_fingerprint
//! [`sweep_fingerprint`]: ebm_core::sweep::sweep_fingerprint
//! [`FixedRunInputs::fingerprint`]: gpu_sim::harness::FixedRunInputs::fingerprint
//! [`controller_run_fingerprint`]: ebm_core::pbsrun::controller_run_fingerprint

use crate::figures;
use crate::util::{BenchArgs, Report};
use ebm_core::eval::{Evaluator, EvaluatorConfig, Scheme, SchemeResult};
use ebm_core::metrics::EbObjective;
use ebm_core::pattern::pbs_offline_search;
use ebm_core::pbsrun::{
    controller_run_fingerprint, run_controller_traced, ControllerRun, ControllerSpec,
};
use ebm_core::scaling::ScalingFactors;
use ebm_core::sweep::{sweep_fingerprint, ComboSweep};
use gpu_sim::alone::{alone_fingerprint, profile_alone, AloneProfile};
use gpu_sim::harness::{measure_fixed_cached, sampling_error_cached, FixedRunInputs, RunSpec};
use gpu_sim::trace::{NullSink, TraceEvent, TraceSink};
use gpu_sim::{cache, exec};
use gpu_types::{AppWindow, Fingerprint, FxHashMap, GpuConfig, TlpCombo};
use gpu_workloads::{AppProfile, Workload};
use std::any::Any;
use std::collections::BinaryHeap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Every campaign artifact, in generation order — the ids of
/// `figures::TABLE`, the only artifact list there is (`--only` ids are
/// checked against it). Serial walk and scheduled coordinator both render
/// in exactly this order, so stdout and the `results/` files are
/// byte-identical between them.
pub const ARTIFACTS: [&str; 21] = {
    let mut ids = [""; 21];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = figures::TABLE[i].0;
        i += 1;
    }
    ids
};

/// A measurement as a function of the evaluator (the view schemes and
/// ++bestTLP runs read their records through). The sink is for the one
/// kind of run that can stream events while it simulates (a controller run
/// under `--trace`); workers and plain reads pass a [`NullSink`].
type Read<T> = Arc<dyn Fn(&Evaluator, &mut dyn TraceSink) -> T + Send + Sync>;

/// A typed handle on one planned measurement: what a [`Planner`]
/// constructor returns and the only way a render obtains a measured value.
/// The closure behind it is the work unit's body — a worker calls it and
/// drops the value, which stays behind in the [`gpu_sim::cache`] tiers —
/// so [`Demand::get`] after the unit ran is a warm read of exactly that
/// computation, and without one (`--serial`, a standalone figure) computes
/// it inline.
pub(crate) struct Demand<T> {
    /// Index of the unit in the plan (a dependency edge's target).
    unit: usize,
    read: Read<T>,
}

impl<T> Demand<T> {
    /// The measured value.
    pub(crate) fn get(&self, ev: &Evaluator) -> T {
        (self.read)(ev, &mut NullSink)
    }

    /// [`Demand::get`] with a sink for the events of a run that streams
    /// them: an enabled sink makes a controller run simulate inline.
    pub(crate) fn get_traced(&self, ev: &Evaluator, sink: &mut dyn TraceSink) -> T {
        (self.read)(ev, sink)
    }
}

/// A unit's computation with its value type erased: what a worker runs,
/// and what a later demand of the same fingerprint recovers its typed
/// [`Read`] from.
trait Body: Any + Send + Sync {
    fn run(&self, ev: &Evaluator);
}

impl<T: 'static> Body for Read<T> {
    fn run(&self, ev: &Evaluator) {
        drop(self(ev, &mut NullSink));
    }
}

/// A figure render: runs on the coordinator thread only, in serial
/// artifact order, once the units it demanded are done.
pub(crate) type Render = Box<dyn FnOnce(&Evaluator, &mut dyn TraceSink) -> Report>;

/// One content-addressed measurement node of the work graph.
struct Unit {
    /// Stable human-readable label.
    label: String,
    /// Content-address of the computation (the dedup key), kept for the
    /// `sched_unit` trace event.
    fp: Fingerprint,
    /// Estimated cost in simulated cycles (higher runs earlier).
    cost: u64,
    /// Indices of units that must finish before this one starts.
    deps: Vec<usize>,
    /// The computation, shared with every [`Demand`] of this fingerprint.
    body: Box<dyn Body>,
}

/// One artifact: a consumer node depending on the units it reads.
struct FigureNode {
    id: &'static str,
    deps: Vec<usize>,
    render: Render,
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

/// What `plan_with_costs` takes: nothing, since a unit's cost is its
/// static cycle estimate. Public for the benchmark's adapter only.
#[doc(hidden)]
pub struct CostModel;

impl CostModel {
    /// The one cost model.
    pub fn empty() -> Self {
        CostModel
    }
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

/// The machine a fixed-combination or controller run simulates, owned so
/// that a unit's closure can carry it ([`FixedRunInputs`] borrows).
struct Machine {
    gpu: GpuConfig,
    w: Workload,
    split: Option<Vec<usize>>,
    seed: u64,
    ccws: bool,
}

impl Machine {
    fn inputs(&self) -> FixedRunInputs<'_> {
        FixedRunInputs {
            cfg: &self.gpu,
            apps: self.w.apps(),
            core_split: self.split.as_deref(),
            seed: self.seed,
            ccws: self.ccws,
        }
    }
}

fn units_of<T>(demands: &[Demand<T>]) -> Vec<usize> {
    demands.iter().map(|d| d.unit).collect()
}

/// Builds the unit graph. An artifact declaration in [`figures`] calls the
/// constructors below for what its render is going to read; each registers
/// (or dedups) one unit and returns the [`Demand`] to read it through.
pub(crate) struct Planner {
    /// The campaign configuration: the base machine, seed and run lengths
    /// every unit that names no other is keyed on.
    pub(crate) cfg: EvaluatorConfig,
    units: Vec<Unit>,
    by_fp: FxHashMap<Fingerprint, usize>,
    requested: usize,
    /// Every unit demanded since the last figure node was cut: the
    /// dependency list of the artifact being declared.
    demanded: Vec<usize>,
}

impl Planner {
    pub(crate) fn new(cfg: EvaluatorConfig) -> Self {
        Planner {
            cfg,
            units: Vec::new(),
            by_fp: FxHashMap::default(),
            requested: 0,
            demanded: Vec::new(),
        }
    }

    /// Registers (or dedups) the unit with content address `fp` and
    /// estimated cost `est` simulated cycles. The first registration wins:
    /// a later demand with the same fingerprint names the same
    /// computation, so it shares the first one's closure, and the unit's
    /// label, cost and dependencies are already correct.
    fn unit<T: 'static>(
        &mut self,
        fp: Fingerprint,
        label: String,
        est: u64,
        deps: Vec<usize>,
        read: impl Fn(&Evaluator, &mut dyn TraceSink) -> T + Send + Sync + 'static,
    ) -> Demand<T> {
        self.requested += 1;
        let unit = *self.by_fp.entry(fp).or_insert(self.units.len());
        if unit == self.units.len() {
            let read: Read<T> = Arc::new(read);
            self.units.push(Unit {
                label,
                fp,
                // Never 0, so every unit outranks a hypothetical free one.
                cost: est.max(1),
                deps,
                body: Box::new(read),
            });
        }
        self.demanded.push(unit);
        let first: &dyn Any = &*self.units[unit].body;
        let read = first
            .downcast_ref::<Read<T>>()
            .expect("one fingerprint names one computation, of one type");
        Demand {
            unit,
            read: read.clone(),
        }
    }

    /// Distinct clamped ladder levels on `g` (alone-profile runs per app).
    fn ladder_len(g: &GpuConfig) -> u64 {
        ComboSweep::combos(g, 1).len() as u64
    }

    /// The label suffix of a unit on machine `g` at `spec`: none on the
    /// campaign's own machine at its `base` spec, the fingerprint's first
    /// eight hex digits anywhere else, so each label names one fingerprint.
    fn variant(&self, g: &GpuConfig, spec: RunSpec, base: RunSpec, fp: Fingerprint) -> String {
        if *g == self.cfg.gpu && spec == base {
            String::new()
        } else {
            format!("#{}", &fp.to_hex()[..8])
        }
    }

    /// The alone profile of `app` on `n_cores` cores of machine `g`.
    pub(crate) fn alone(
        &mut self,
        g: &GpuConfig,
        app: &'static AppProfile,
        n_cores: usize,
        spec: RunSpec,
    ) -> Demand<AloneProfile> {
        let seed = self.cfg.seed;
        let fp = alone_fingerprint(g, app, n_cores, seed, spec);
        let variant = self.variant(g, spec, self.cfg.alone_spec, fp);
        let label = format!("alone:{}@{n_cores}{variant}", app.name);
        let est = Self::ladder_len(g) * (spec.warmup + spec.window);
        let g = g.clone();
        self.unit(fp, label, est, Vec::new(), move |_, _| {
            profile_alone(&g, app, n_cores, seed, spec)
        })
    }

    /// The alone profiles of `w`'s applications, each on its equal share of
    /// the base machine's cores: the SD denominators and the ++bestTLP
    /// combination of every run of `w` there.
    pub(crate) fn alones(&mut self, w: &Workload) -> Vec<Demand<AloneProfile>> {
        let (g, spec) = (self.cfg.gpu.clone(), self.cfg.alone_spec);
        let n = g.n_cores / w.n_apps();
        w.apps()
            .iter()
            .map(|a| self.alone(&g, a, n, spec))
            .collect()
    }

    /// The 64-combination sweep of `w` on machine `g`.
    pub(crate) fn sweep(
        &mut self,
        g: &GpuConfig,
        w: &Workload,
        spec: RunSpec,
    ) -> Demand<ComboSweep> {
        let seed = self.cfg.seed;
        let fp = sweep_fingerprint(g, w, seed, spec);
        let variant = self.variant(g, spec, self.cfg.sweep_spec, fp);
        let label = format!("sweep:{}{variant}", w.name());
        let est = ComboSweep::combos(g, w.n_apps()).len() as u64 * (spec.warmup + spec.window);
        let (g, wl) = (g.clone(), w.clone());
        self.unit(fp, label, est, Vec::new(), move |_, _| {
            ComboSweep::measure(&g, &wl, seed, spec)
        })
    }

    /// A full scheme evaluation. Depends on the workload's alone profiles
    /// (SD denominators, ++bestTLP combination), the sweep for offline
    /// schemes and the ++bestTLP result for `opt*`'s baseline guard, so
    /// everything but the scheme's own run is read, not simulated. The
    /// evaluation is arithmetic over records and writes none of its own:
    /// its fingerprint is a synthetic `campaign-scheme` node name over
    /// every [`EvaluatorConfig`] field, the applications and the scheme.
    pub(crate) fn scheme(&mut self, w: &Workload, s: Scheme) -> Demand<SchemeResult> {
        let mut deps = units_of(&self.alones(w));
        if matches!(
            s,
            Scheme::PbsOffline(_) | Scheme::BruteForce(_) | Scheme::Opt(_) | Scheme::OptIt
        ) {
            let (g, spec) = (self.cfg.gpu.clone(), self.cfg.sweep_spec);
            deps.push(self.sweep(&g, w, spec).unit);
        }
        if matches!(s, Scheme::Opt(_)) {
            deps.push(self.scheme(w, Scheme::BestTlp).unit);
        }
        let cfg = &self.cfg;
        let mut key = cache::KeyBuilder::new("campaign-scheme");
        key.push(&cfg.gpu)
            .push_u64(cfg.seed)
            .push(&cfg.alone_spec)
            .push(&cfg.sweep_spec)
            .push_u64(cfg.run_cycles)
            .push_u64(cfg.measure_from)
            .push_u64(cfg.pbs_hold_windows)
            .push_usize(w.n_apps());
        for app in w.apps() {
            key.push(*app);
        }
        key.push(&s);
        let label = format!("scheme:{}/{}", w.name(), s);
        let est = self.cfg.run_cycles;
        let wl = w.clone();
        self.unit(key.finish(), label, est, deps, move |ev, _| {
            ev.evaluate(&wl, s)
        })
    }

    /// A fixed-combination measurement on an explicitly described machine.
    pub(crate) fn fixed(
        &mut self,
        g: &GpuConfig,
        w: &Workload,
        split: Option<Vec<usize>>,
        ccws: bool,
        combo: TlpCombo,
        spec: RunSpec,
    ) -> Demand<Vec<AppWindow>> {
        let m = Machine {
            gpu: g.clone(),
            w: w.clone(),
            split,
            seed: self.cfg.seed,
            ccws,
        };
        let fp = m.inputs().fingerprint(&combo, spec);
        let label = format!("fixed:{}@{}#{}", w.name(), combo, &fp.to_hex()[..8]);
        let est = spec.warmup + spec.window;
        self.unit(fp, label, est, Vec::new(), move |_, _| {
            measure_fixed_cached(&m.inputs(), &combo, spec)
        })
    }

    /// A memoized controller run. The one demand whose sink matters: read
    /// through [`Demand::get_traced`] with an enabled sink, the run
    /// simulates inline and streams its events.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pbs(
        &mut self,
        g: &GpuConfig,
        w: &Workload,
        split: Option<Vec<usize>>,
        start: TlpCombo,
        run_cycles: u64,
        measure_from: u64,
        spec: ControllerSpec,
    ) -> Demand<ControllerRun> {
        let m = Machine {
            gpu: g.clone(),
            w: w.clone(),
            split,
            seed: self.cfg.seed,
            ccws: false,
        };
        let fp = controller_run_fingerprint(&m.inputs(), &start, run_cycles, measure_from, &spec);
        let label = format!("{}:{}#{}", spec.label(), w.name(), &fp.to_hex()[..8]);
        self.unit(fp, label, run_cycles, Vec::new(), move |_, sink| {
            run_controller_traced(&m.inputs(), &start, run_cycles, measure_from, &spec, sink)
        })
    }

    /// [`Planner::pbs`] of `w` as the scheme runs do it: on the equal-split
    /// machine `g`, from ++maxTLP, over the campaign's run length.
    pub(crate) fn pbs_of(
        &mut self,
        g: &GpuConfig,
        w: &Workload,
        spec: ControllerSpec,
    ) -> Demand<ControllerRun> {
        let start = TlpCombo::uniform(g.max_tlp(), w.n_apps());
        let (run_cycles, measure_from) = (self.cfg.run_cycles, self.cfg.measure_from);
        self.pbs(g, w, None, start, run_cycles, measure_from, spec)
    }

    /// The equal-split base machine running `w`, as scheme runs key it.
    fn machine(&self, w: &Workload) -> Machine {
        Machine {
            gpu: self.cfg.gpu.clone(),
            w: w.clone(),
            split: None,
            seed: self.cfg.seed,
            ccws: false,
        }
    }

    /// A run of a workload on the equal-split machine at its ++bestTLP
    /// combination: the combination comes from the alone profiles (its
    /// dependencies), so the unit's content address is synthetic — a
    /// fingerprint over everything the composite reads, `params` being the
    /// run's own.
    fn at_best_tlp<T: 'static>(
        &mut self,
        kind: &str,
        w: &Workload,
        cost: u64,
        params: &[u64],
        run: impl Fn(&FixedRunInputs<'_>, &TlpCombo) -> T + Send + Sync + 'static,
    ) -> Demand<T> {
        let deps = units_of(&self.alones(w));
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
        let label = format!("{kind}:{}", w.name());
        let m = self.machine(w);
        self.unit(key.finish(), label, cost, deps, move |ev, _| {
            run(&m.inputs(), &ev.best_tlp_combo(&m.w))
        })
    }

    /// The ++bestTLP fixed run of a workload.
    pub(crate) fn best_fixed(&mut self, w: &Workload, spec: RunSpec) -> Demand<Vec<AppWindow>> {
        self.at_best_tlp(
            "bestfixed",
            w,
            spec.warmup + spec.window,
            &[spec.warmup, spec.window],
            move |inputs, combo| measure_fixed_cached(inputs, combo, spec),
        )
    }

    /// The designated-vs-exact estimation-error run of a workload: mean
    /// per-application error over `n_windows` windows of `spec`.
    pub(crate) fn sampling_error(
        &mut self,
        w: &Workload,
        spec: RunSpec,
        n_windows: u64,
    ) -> Demand<Vec<f64>> {
        self.at_best_tlp(
            "sampling",
            w,
            spec.warmup + n_windows * spec.window,
            &[spec.warmup, spec.window, n_windows],
            move |inputs, combo| sampling_error_cached(inputs, combo, spec, n_windows),
        )
    }

    /// The offline-PBS fixed run of a workload: the combination comes from
    /// the sweep (its dependency) via [`pbs_offline_search`] on raw EBs.
    pub(crate) fn offline_fixed(&mut self, w: &Workload, spec: RunSpec) -> Demand<Vec<AppWindow>> {
        let (g, sweep_spec) = (self.cfg.gpu.clone(), self.cfg.sweep_spec);
        let sweep = self.sweep(&g, w, sweep_spec);
        let mut key = cache::KeyBuilder::new("campaign-offlinefixed");
        key.push(&self.cfg.gpu)
            .push_u64(self.cfg.seed)
            .push(&self.cfg.sweep_spec)
            .push_usize(w.n_apps());
        for app in w.apps() {
            key.push(*app);
        }
        key.push(&spec);
        let label = format!("offlinefixed:{}", w.name());
        let (est, deps, m) = (spec.warmup + spec.window, vec![sweep.unit], self.machine(w));
        self.unit(key.finish(), label, est, deps, move |ev, _| {
            let scaling = ScalingFactors::none(m.w.n_apps());
            let (combo, _) = pbs_offline_search(&sweep.get(ev), EbObjective::Ws, &scaling);
            measure_fixed_cached(&m.inputs(), &combo, spec)
        })
    }

    /// The ++bestTLP fixed run of an explicit-split mix (three-application
    /// workloads): the combination comes from the applications' alone
    /// profiles on `per_app` cores each.
    pub(crate) fn best_fixed_split(
        &mut self,
        w: &Workload,
        per_app: usize,
        alone_spec: RunSpec,
        spec: RunSpec,
    ) -> Demand<Vec<AppWindow>> {
        let m = Machine {
            split: Some(vec![per_app; w.n_apps()]),
            ..self.machine(w)
        };
        let alones: Vec<_> = w
            .apps()
            .iter()
            .map(|a| self.alone(&m.gpu, a, per_app, alone_spec))
            .collect();
        let mut key = cache::KeyBuilder::new("campaign-bestfixed-split");
        key.push(&m.gpu)
            .push_u64(m.seed)
            .push(&alone_spec)
            .push_usize(per_app)
            .push_usize(w.n_apps());
        for app in w.apps() {
            key.push(*app);
        }
        key.push(&spec);
        let label = format!("bestfixed3:{}", w.name());
        let (est, deps) = (spec.warmup + spec.window, units_of(&alones));
        self.unit(key.finish(), label, est, deps, move |ev, _| {
            let best = TlpCombo::new(alones.iter().map(|d| d.get(ev).best_tlp()).collect());
            measure_fixed_cached(&m.inputs(), &best, spec)
        })
    }
}

/// Compiles the campaign selected by `args` into a [`Campaign`] work
/// graph: a pure function of `args` and `ev`'s configuration, which reads
/// no file, and no simulation happens until [`run`]. Each selected
/// artifact's declaration runs against one planner; the units it demanded
/// on the way are its figure node's dependencies.
pub fn plan(args: &BenchArgs, ev: &Evaluator) -> Campaign {
    let mut p = Planner::new(ev.config().clone());
    let mut nodes = Vec::new();
    for (id, declare) in figures::TABLE {
        if args.wants(id) {
            let render = declare(&mut p);
            let mut deps = std::mem::take(&mut p.demanded);
            deps.sort_unstable();
            deps.dedup();
            nodes.push(FigureNode { id, deps, render });
        }
    }
    Campaign {
        units: p.units,
        figures: nodes,
        requested: p.requested,
    }
}

/// [`plan`]. Public for the benchmark's adapter only.
#[doc(hidden)]
pub fn plan_with_costs(args: &BenchArgs, ev: &Evaluator, _costs: CostModel) -> Campaign {
    plan(args, ev)
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
    /// The first panicked unit and its payload.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

fn lock<'a>(state: &'a Mutex<SchedState>) -> MutexGuard<'a, SchedState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Executes a compiled [`Campaign`]: units run over an
/// [`exec::with_workers`] pool, longest-estimated first; the coordinator
/// renders each figure in serial artifact order as soon as its units are
/// done and hands the report to `emit` (the `experiments` binary passes
/// [`crate::util::run_and_save`]; benchmarks pass a no-op to keep stdout
/// clean). The first worker panic re-raises on the caller after the pool
/// drains, naming the unit's label and fingerprint.
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
        let started = Instant::now();
        let cycles0 = gpu_sim::metrics::thread_cycles_simulated();
        // Catch the panic instead of dying: a dead worker would leave the
        // coordinator (and its siblings) blocked on the condvar forever.
        // The unit and payload are stored first-wins and re-raised by the
        // caller.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| units[idx].body.run(ev)));
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
            s.panic.get_or_insert((idx, payload));
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
            render_figure(fig, ev, sink, emit);
        }
    };

    exec::with_workers(workers, worker, coordinator);

    if let Some((idx, payload)) = lock(state).panic.take() {
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>");
        let unit = &units[idx];
        panic!(
            "campaign unit {} ({}) panicked: {text}",
            unit.label,
            unit.fp.to_hex()
        );
    }

    let (executed, peak_ready) = {
        let s = lock(state);
        (s.executed, s.peak_ready)
    };
    // One sched_unit event per unit, in plan order.
    if sink.enabled() {
        for (i, u) in units.iter().enumerate() {
            let rt = runtimes[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .unwrap_or_default();
            sink.emit(sched_unit(i, u, rt));
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

/// Renders one figure inside its `figure` profiling span and hands the
/// report to `emit`. What the report attaches (Fig. 11's CSVs) is saved
/// here rather than by `emit`, so every caller of [`run`] / [`run_serial`]
/// leaves the same files in the output directory whatever it does with
/// the text.
fn render_figure(
    fig: FigureNode,
    ev: &Evaluator,
    sink: &mut dyn TraceSink,
    emit: &mut dyn FnMut(&Report),
) {
    let _span = crate::profiler::span("figure", fig.id);
    let report = (fig.render)(ev, sink);
    for (name, text) in report.attachments() {
        crate::util::save(name, text);
    }
    emit(&report);
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
        render_figure(fig, ev, sink, emit);
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
        sink.emit(sched_unit(i, u, UnitRuntime::default()));
    }
}

/// The `sched_unit` event of unit `i`: its plan record (`unit`, `label`,
/// `fp`, `deps`, `est`), which is deterministic, plus how this execution
/// ran it (`rt`).
fn sched_unit(i: usize, u: &Unit, rt: UnitRuntime) -> TraceEvent {
    TraceEvent::SchedUnit {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workloads::all_apps;

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
    fn full_plan_dedups_shared_units() {
        let ev = Evaluator::new(EvaluatorConfig::quick());
        let args = BenchArgs::default();
        let plan = plan(&args, &ev);
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
        // The shape of the full `--quick` graph, as the header of
        // `trace-tools report` prints it. The schedule and the cache
        // traffic follow from it, so an edit that moves one of these is a
        // change to review, not a detail.
        let with_deps = plan.units.iter().filter(|u| !u.deps.is_empty()).count();
        let estimate: u64 = plan.units.iter().map(|u| u.cost).sum();
        assert_eq!(
            (plan.planned(), with_deps, estimate, plan.requested()),
            (602, 397, 44_981_000, 2_430)
        );
    }

    #[test]
    fn a_deduped_demand_is_the_first_registrations_computation() {
        let ev = Evaluator::new(EvaluatorConfig::quick());
        let mut p = Planner::new(ev.config().clone());
        let (gpu, bfs) = (ev.config().gpu.clone(), &all_apps()[0]);
        let spec = RunSpec::new(300, 1_000);
        // Two artifacts demanding one fingerprint: one unit, one closure.
        let first = p.alone(&gpu, bfs, 2, spec);
        let deps = std::mem::take(&mut p.demanded);
        let second = p.alone(&gpu, bfs, 2, spec);
        assert_eq!((p.units.len(), p.requested), (1, 2));
        assert_eq!((deps, &p.demanded), (vec![0], &vec![0]));
        assert!(Arc::ptr_eq(&first.read, &second.read));
        assert_eq!(first.get(&ev), second.get(&ev));
        // A different computation is a different unit.
        let other = p.alone(&gpu, bfs, 1, spec);
        assert_eq!((other.unit, p.units.len()), (1, 2));
    }

    #[test]
    fn only_subset_plans_sub_dag() {
        let ev = Evaluator::new(EvaluatorConfig::quick());
        let full = plan(&BenchArgs::default(), &ev);
        let args = BenchArgs {
            only: Some(vec!["fig02".into(), "fig06".into()]),
            ..BenchArgs::default()
        };
        let sub = plan(&args, &ev);
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
        let plan = plan(&args, &ev);
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
        let plan = plan(&args, &ev);
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
        let fp = Fingerprint(0xfeed_f00d_dead_beef);
        let str_payload: Read<()> = Arc::new(|_, _| panic!("unit exploded"));
        let string_payload: Read<()> = Arc::new(|_, _| panic!("unit {} exploded", 7));
        for (body, text) in [
            (str_payload, "unit exploded"),
            (string_payload, "unit 7 exploded"),
        ] {
            let campaign = Campaign {
                units: vec![Unit {
                    label: "boom".into(),
                    fp,
                    cost: 1,
                    deps: Vec::new(),
                    body: Box::new(body),
                }],
                figures: Vec::new(),
                requested: 1,
            };
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run(campaign, &ev, &mut gpu_sim::trace::NullSink, &mut |_| {});
            }));
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .map_or("<non-String payload>", String::as_str);
            let want = format!("campaign unit boom ({}) panicked: {text}", fp.to_hex());
            assert_eq!(msg, want);
        }
    }
}
