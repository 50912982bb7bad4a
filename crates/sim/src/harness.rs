//! Measurement harness: fixed-combination runs and controlled runs.

use crate::control::{AppObservation, Controller, Decision, Observation};
use crate::machine::{EngineStats, Gpu, PartitionTelemetry};
use crate::trace::{NullSink, StallBreakdown, TraceEvent, TraceSink};
use gpu_simt::{CoreStats, WarpStalls};
use gpu_types::canon::{Canon, CanonBuf};
use gpu_types::{AppId, AppWindow, GpuConfig, Histogram, MemCounters, TlpCombo, TlpLevel};
use gpu_workloads::AppProfile;

/// Warmup/measurement lengths for a fixed-combination measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Cycles run before measurement starts (cache/row-buffer warmup).
    pub warmup: u64,
    /// Measured cycles.
    pub window: u64,
}

impl RunSpec {
    /// A spec with the given warmup and window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(warmup: u64, window: u64) -> Self {
        assert!(window > 0, "measurement window must be non-empty");
        RunSpec { warmup, window }
    }

    /// Short spec for unit tests on the small machine.
    pub fn quick() -> Self {
        RunSpec::new(1_000, 4_000)
    }
}

impl Canon for RunSpec {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u64(self.warmup);
        buf.push_u64(self.window);
    }
}

fn snapshot_all(gpu: &Gpu) -> Vec<MemCounters> {
    let mut buf = Vec::new();
    snapshot_all_into(gpu, &mut buf);
    buf
}

fn snapshot_all_into(gpu: &Gpu, buf: &mut Vec<MemCounters>) {
    buf.clear();
    buf.extend((0..gpu.n_apps()).map(|a| gpu.counters(AppId::new(a as u8))));
}

/// Counters as the controller's sampling hardware sees them: exact
/// aggregates, or the Fig. 8 designated core/partition estimate.
fn snapshot_sampled_into(gpu: &Gpu, buf: &mut Vec<MemCounters>) {
    if gpu.config().sampling.designated {
        buf.clear();
        buf.extend((0..gpu.n_apps()).map(|a| gpu.designated_counters(AppId::new(a as u8))));
    } else {
        snapshot_all_into(gpu, buf);
    }
}

fn core_stats_all_into(gpu: &Gpu, buf: &mut Vec<CoreStats>) {
    buf.clear();
    buf.extend((0..gpu.n_apps()).map(|a| gpu.core_stats(AppId::new(a as u8))));
}

fn windows_between(
    gpu: &Gpu,
    before: &[MemCounters],
    after: &[MemCounters],
    cycles: u64,
) -> Vec<AppWindow> {
    let peak = gpu.config().peak_bw_bytes_per_cycle();
    before
        .iter()
        .zip(after)
        .map(|(b, a)| AppWindow::new(*a - *b, cycles, peak))
        .collect()
}

/// Applies `combo`, warms up, then measures `spec.window` cycles; returns
/// one [`AppWindow`] per application.
pub fn measure_fixed(gpu: &mut Gpu, combo: &TlpCombo, spec: RunSpec) -> Vec<AppWindow> {
    gpu.set_combo(combo);
    gpu.run(spec.warmup);
    let before = snapshot_all(gpu);
    gpu.run(spec.window);
    let after = snapshot_all(gpu);
    windows_between(gpu, &before, &after, spec.window)
}

/// The complete machine-construction inputs of one fixed-combination
/// measurement, for [`measure_fixed_cached`]: everything needed to rebuild
/// the [`Gpu`] from scratch, and therefore everything that must feed the
/// cache fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct FixedRunInputs<'a> {
    /// Machine description.
    pub cfg: &'a GpuConfig,
    /// Co-scheduled applications, in core-partition order.
    pub apps: &'a [&'a AppProfile],
    /// Explicit cores-per-application split ([`Gpu::with_core_split`]);
    /// `None` divides the cores equally ([`Gpu::new`]).
    pub core_split: Option<&'a [usize]>,
    /// Machine seed.
    pub seed: u64,
    /// Enables CCWS-style throttling on every application before measuring.
    pub ccws: bool,
}

impl FixedRunInputs<'_> {
    /// Builds the machine these inputs describe.
    pub fn build(&self) -> Gpu {
        let mut gpu = match self.core_split {
            Some(split) => Gpu::with_core_split(self.cfg, self.apps, split, self.seed),
            None => Gpu::new(self.cfg, self.apps, self.seed),
        };
        if self.ccws {
            for a in 0..self.apps.len() {
                gpu.set_ccws(AppId::new(a as u8), true);
            }
        }
        gpu
    }

    /// Appends the machine-construction inputs to a cache key. Shared by
    /// [`FixedRunInputs::fingerprint`] and by controller-run fingerprints
    /// one crate up (which add their own knobs on top).
    pub fn push_key(&self, key: &mut crate::cache::KeyBuilder) {
        key.push(self.cfg);
        key.push_usize(self.apps.len());
        for app in self.apps {
            key.push(*app);
        }
        match self.core_split {
            None => {
                key.push_bool(false);
            }
            Some(split) => {
                key.push_bool(true);
                key.push_usize(split.len());
                for &n in split {
                    key.push_usize(n);
                }
            }
        }
        key.push_u64(self.seed);
        key.push_bool(self.ccws);
    }

    /// Cache key of [`measure_fixed_cached`] for these inputs — public so a
    /// campaign planner can name the unit without running it.
    pub fn fingerprint(&self, combo: &TlpCombo, spec: RunSpec) -> gpu_types::Fingerprint {
        let mut key = crate::cache::KeyBuilder::new("fixed");
        self.push_key(&mut key);
        key.push(combo).push(&spec);
        key.finish()
    }
}

/// Cache-aware [`measure_fixed`] for runs on a freshly built machine: the
/// result is memoized under a fingerprint of `inputs`, `combo` and `spec`
/// (see [`crate::cache`]), so repeated figure generations re-simulate each
/// distinct static run once per cache lifetime. Bit-identical to building
/// the machine and calling [`measure_fixed`] directly.
pub fn measure_fixed_cached(
    inputs: &FixedRunInputs<'_>,
    combo: &TlpCombo,
    spec: RunSpec,
) -> Vec<AppWindow> {
    let fp = inputs.fingerprint(combo, spec);
    crate::cache::memoize(fp, || measure_fixed(&mut inputs.build(), combo, spec))
}

/// The Fig. 8 designated-sampling estimate held against exact aggregation:
/// applies `combo`, warms up, then measures `n_windows` consecutive windows
/// of `spec.window` cycles and returns, per application, the mean relative
/// error of the designated core + partition EB estimate, in percent
/// (windows whose exact EB is ~0 are skipped).
fn sampling_error(gpu: &mut Gpu, combo: &TlpCombo, spec: RunSpec, n_windows: u64) -> Vec<f64> {
    gpu.set_combo(combo);
    gpu.run(spec.warmup);
    let peak = gpu.config().peak_bw_bytes_per_cycle();
    let apps: Vec<AppId> = (0..gpu.n_apps()).map(|a| AppId::new(a as u8)).collect();
    let mut errs = vec![Vec::new(); apps.len()];
    let mut prev_exact = snapshot_all(gpu);
    let mut prev_des: Vec<_> = apps.iter().map(|&a| gpu.designated_counters(a)).collect();
    for _ in 0..n_windows {
        gpu.run(spec.window);
        for (i, &app) in apps.iter().enumerate() {
            let exact = gpu.counters(app);
            let des = gpu.designated_counters(app);
            let e = AppWindow::new(exact - prev_exact[i], spec.window, peak).effective_bandwidth();
            let d = AppWindow::new(des - prev_des[i], spec.window, peak).effective_bandwidth();
            if e > 1e-6 {
                errs[i].push(((d - e) / e).abs());
            }
            prev_exact[i] = exact;
            prev_des[i] = des;
        }
    }
    errs.iter()
        .map(|v| 100.0 * v.iter().sum::<f64>() / v.len().max(1) as f64)
        .collect()
}

/// Mean per-window error (percent, one entry per application) of the
/// Fig. 8 designated-sampling EB estimate against exact aggregation, on a
/// freshly built machine held at `combo`: `spec.warmup` cycles, then
/// `n_windows` windows of `spec.window` cycles each. Memoized like
/// [`measure_fixed_cached`], under a `"sampling"` fingerprint of `inputs`,
/// `combo`, `spec` and `n_windows`.
pub fn sampling_error_cached(
    inputs: &FixedRunInputs<'_>,
    combo: &TlpCombo,
    spec: RunSpec,
    n_windows: u64,
) -> Vec<f64> {
    let mut key = crate::cache::KeyBuilder::new("sampling");
    inputs.push_key(&mut key);
    key.push(combo).push(&spec).push_u64(n_windows);
    crate::cache::memoize(key.finish(), || {
        sampling_error(&mut inputs.build(), combo, spec, n_windows)
    })
}

/// Result of a controlled (policy-driven) run.
#[derive(Debug, Clone)]
pub struct ControlledRun {
    /// One overall measurement window per application, covering the entire
    /// measured region (search overheads included, as in the paper's PBS
    /// results).
    pub overall: Vec<AppWindow>,
    /// `(cycle, per-app TLP)` — every TLP change the controller made,
    /// including the initial setting (Fig. 11's traces).
    pub tlp_trace: Vec<(u64, Vec<TlpLevel>)>,
    /// Per-window observations handed to the controller (diagnostics).
    pub n_windows: u64,
    /// The full per-window time series `(window-end cycle, per-app
    /// windows)` — what the controller saw, for Fig. 11-style plots and
    /// CSV export.
    pub window_series: Vec<(u64, Vec<AppWindow>)>,
}

impl ControlledRun {
    /// [`series_csv`] of this run's window series.
    pub fn series_csv(&self) -> String {
        series_csv(&self.window_series)
    }
}

/// Renders a per-window series ([`ControlledRun::window_series`], or the
/// copy a cached controller-run record carries) as the
/// `cycle,app,ipc,bw,cmr,eb` CSV of the Fig. 11 exports (TLP comes from the
/// trace).
pub fn series_csv(series: &[(u64, Vec<AppWindow>)]) -> String {
    let mut out = String::from("cycle,app,ipc,bw,cmr,eb\n");
    for (cycle, windows) in series {
        for (a, w) in windows.iter().enumerate() {
            out.push_str(&format!(
                "{cycle},{a},{:.4},{:.4},{:.4},{:.4}\n",
                w.ipc(),
                w.attained_bw(),
                w.combined_miss_rate(),
                w.effective_bandwidth()
            ));
        }
    }
    out
}

/// Runs `gpu` for `total_cycles` under `controller`.
///
/// Every `sampling.window_cycles` the harness snapshots per-application
/// counters; the controller is invoked `sampling.relay_latency` cycles later
/// (modeling the designated-partition relay of Fig. 8) and its decision is
/// applied immediately. The overall measurement covers everything from
/// `measure_from` to the end, *including* all sampling-phase disturbance.
///
/// The harness advances the machine in *spans* — straight to the next event
/// boundary (window mark, measurement start, or run end) — instead of
/// interrogating the clock after every cycle. Nothing observable happens
/// between boundaries, so the span walk is cycle-for-cycle identical to a
/// per-cycle loop (the `span_equivalence` regression test pins this down).
pub fn run_controlled(
    gpu: &mut Gpu,
    controller: &mut dyn Controller,
    total_cycles: u64,
    measure_from: u64,
) -> ControlledRun {
    run_controlled_traced(gpu, controller, total_cycles, measure_from, &mut NullSink)
}

/// What a traced run keeps between windows: the telemetry snapshots and
/// engine accounting the trace layer differences window-over-window. The
/// machine's components record the rest (stall breakdowns, DRAM latency
/// histograms) while tracing turns metrics recording on. Only maintained
/// when the sink is enabled; the simulation never reads it.
struct TraceState {
    prev_cycle: u64,
    prev_parts: Vec<PartitionTelemetry>,
    prev_cores: Vec<(AppId, CoreStats)>,
    /// Engine accounting at the previous window (at tracing start for the
    /// first), so every window's skip fractions are window-local.
    prev_engine: EngineStats,
    last_phase: Option<&'static str>,
}

impl TraceState {
    fn capture(gpu: &Gpu) -> Self {
        TraceState {
            prev_cycle: gpu.now(),
            prev_parts: (0..gpu.n_partitions())
                .map(|p| gpu.partition_telemetry(p))
                .collect(),
            prev_cores: (0..gpu.n_cores()).map(|c| gpu.core_telemetry(c)).collect(),
            prev_engine: gpu.engine_stats(),
            last_phase: None,
        }
    }

    /// Emits the `PartitionWindow` and `CoreWindow` events of the window
    /// that just ended, then re-snapshots.
    fn emit_window<S: TraceSink + ?Sized>(&mut self, gpu: &Gpu, sink: &mut S) {
        let now = gpu.now();
        let elapsed = (now - self.prev_cycle).max(1) as f64;
        let peak = gpu.config().peak_bw_bytes_per_cycle();
        for p in 0..gpu.n_partitions() {
            let cur = gpu.partition_telemetry(p);
            let prev = &self.prev_parts[p];
            let per_app_bw = cur
                .per_app_dram_bytes
                .iter()
                .zip(&prev.per_app_dram_bytes)
                .map(|(c, b)| (c - b) as f64 / (elapsed * peak))
                .collect();
            let hits = cur.row_hits - prev.row_hits;
            let misses = cur.row_misses - prev.row_misses;
            let total = hits + misses;
            sink.emit(TraceEvent::PartitionWindow {
                cycle: now,
                partition: p as u32,
                per_app_bw,
                rowbuf_hit_rate: if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                },
                queue_depth: cur.queue_depth,
            });
            self.prev_parts[p] = cur;
        }
        for c in 0..gpu.n_cores() {
            let (app, cur) = gpu.core_telemetry(c);
            let prev = &self.prev_cores[c].1;
            sink.emit(TraceEvent::CoreWindow {
                cycle: now,
                core: c as u32,
                app: app.index() as u8,
                ipc: (cur.insts - prev.insts) as f64 / elapsed,
                active_warps: (cur.active_warp_cycles - prev.active_warp_cycles) as f64 / elapsed,
                stall: StallBreakdown {
                    mem: (cur.mem_stall_cycles - prev.mem_stall_cycles) as f64 / elapsed,
                    structural: (cur.struct_stall_cycles - prev.struct_stall_cycles) as f64
                        / elapsed,
                    idle: (cur.idle_cycles - prev.idle_cycles) as f64 / elapsed,
                },
            });
            self.prev_cores[c].1 = cur;
        }
        self.prev_cycle = now;
    }

    /// Rolls up the window's machine-wide metrics: takes every app's stall
    /// breakdown and DRAM latency histogram, samples the occupancy gauges,
    /// and emits one [`TraceEvent::MetricsWindow`] per application plus
    /// one machine-wide aggregate (`app: None`) carrying the window's
    /// engine skip fractions.
    fn rollover<S: TraceSink + ?Sized>(&mut self, gpu: &mut Gpu, sink: &mut S) {
        let cycle = gpu.now();
        let (mut mshr_occ, mut queue_depth) = (Histogram::new(), Histogram::new());
        gpu.sample_occupancy(&mut mshr_occ, &mut queue_depth);
        let mut all_stalls = WarpStalls::default();
        let mut all_lat = Histogram::new();
        for a in 0..gpu.n_apps() {
            let app = AppId::new(a as u8);
            let stalls = gpu.take_warp_stalls(app);
            let dram_lat = gpu.take_dram_latency(app);
            all_stalls.merge(&stalls);
            all_lat.merge(&dram_lat);
            sink.emit(TraceEvent::MetricsWindow {
                cycle,
                app: Some(a as u8),
                stalls,
                dram_lat,
                mshr_occ: Histogram::new(),
                queue_depth: Histogram::new(),
                machine_fast_forward_fraction: None,
                component_idle_skip_fraction: None,
            });
        }
        let (machine_ff, comp_skip) = self.engine_fractions(gpu.engine_stats());
        sink.emit(TraceEvent::MetricsWindow {
            cycle,
            app: None,
            stalls: all_stalls,
            dram_lat: all_lat,
            mshr_occ,
            queue_depth,
            machine_fast_forward_fraction: Some(machine_ff),
            component_idle_skip_fraction: Some(comp_skip),
        });
    }

    /// Window-local engine skip fractions: diffs the cumulative
    /// [`EngineStats`] against the previous window's and reduces the delta
    /// to the two distinct quantities of the engine's skip accounting —
    /// whole-machine fast-forwarded cycles over total cycles, and skipped
    /// component steps over total component steps.
    fn engine_fractions(&mut self, eng: EngineStats) -> (f64, f64) {
        let prev = std::mem::replace(&mut self.prev_engine, eng);
        let cycles = (eng.stepped + eng.fast_forwarded) - (prev.stepped + prev.fast_forwarded);
        let ff = eng.fast_forwarded - prev.fast_forwarded;
        let steps = (eng.core_steps + eng.partition_steps + eng.xbar_steps)
            - (prev.core_steps + prev.partition_steps + prev.xbar_steps);
        let skipped = (eng.core_steps_skipped
            + eng.partition_steps_skipped
            + eng.xbar_steps_skipped)
            - (prev.core_steps_skipped + prev.partition_steps_skipped + prev.xbar_steps_skipped);
        let machine_ff = ff as f64 / cycles.max(1) as f64;
        let comp_skip = skipped as f64 / (steps + skipped).max(1) as f64;
        (machine_ff, comp_skip)
    }
}

/// [`run_controlled`] with a [`TraceSink`] receiving the run's structured
/// events (see [`crate::trace`] for the event kinds and
/// `docs/TRACE_SCHEMA.md` for the serialized contract).
///
/// Tracing is strictly off the decision path: the sink only *observes*
/// simulator state at window boundaries, every emission site is gated on
/// [`TraceSink::enabled`], and the returned [`ControlledRun`] is bit-for-bit
/// identical whichever sink is passed. [`run_controlled`] is exactly this
/// function with a [`NullSink`].
pub fn run_controlled_traced<S: TraceSink + ?Sized>(
    gpu: &mut Gpu,
    controller: &mut dyn Controller,
    total_cycles: u64,
    measure_from: u64,
    sink: &mut S,
) -> ControlledRun {
    let n_apps = gpu.n_apps();
    let window = gpu.config().sampling.window_cycles;
    let relay = gpu.config().sampling.relay_latency;
    let peak = gpu.config().peak_bw_bytes_per_cycle();

    let mut tlp_trace = vec![(
        gpu.now(),
        (0..n_apps)
            .map(|a| gpu.tlp_of(AppId::new(a as u8)))
            .collect::<Vec<_>>(),
    )];
    let mut measure_start: Option<Vec<MemCounters>> = None;
    // Window-boundary snapshots live in reused buffers: `win_*` hold the
    // window's opening state, `after_*` its closing state, and the pair is
    // swapped instead of reallocated every window.
    let mut win_counters = Vec::new();
    snapshot_sampled_into(gpu, &mut win_counters);
    let mut win_core = Vec::new();
    core_stats_all_into(gpu, &mut win_core);
    let mut after_counters: Vec<MemCounters> = Vec::new();
    let mut after_core: Vec<CoreStats> = Vec::new();
    let mut n_windows = 0;
    let mut window_series = Vec::new();
    // Telemetry baselines exist only when tracing is on; with a `NullSink`
    // the whole tracing path is dead code.  An enabled sink also turns on
    // machine-wide metrics recording (stall breakdowns, latency histograms)
    // for the duration of the run.
    let metrics_before = gpu.metrics_enabled();
    let mut trace_state = if sink.enabled() {
        gpu.set_metrics_enabled(true);
        Some(TraceState::capture(gpu))
    } else {
        None
    };

    let end = gpu.now() + total_cycles;
    let mut next_mark = gpu.now() + window;
    while gpu.now() < end {
        if measure_start.is_none() && gpu.now() >= measure_from {
            measure_start = Some(snapshot_all(gpu));
        }
        // Advance to the next boundary in one span. `measure_from` is a
        // stop only until its snapshot has been taken.
        let mut stop = end.min(next_mark);
        if measure_start.is_none() && measure_from > gpu.now() {
            stop = stop.min(measure_from);
        }
        gpu.run(stop - gpu.now());
        if gpu.now() == next_mark {
            // Window complete: capture it, then let the relay latency pass
            // before the controller sees the data.
            snapshot_sampled_into(gpu, &mut after_counters);
            core_stats_all_into(gpu, &mut after_core);
            let obs_windows = windows_between(gpu, &win_counters, &after_counters, window);
            window_series.push((gpu.now(), obs_windows.clone()));
            if let Some(ts) = trace_state.as_mut() {
                for (a, w) in obs_windows.iter().enumerate() {
                    sink.emit(TraceEvent::WindowSample {
                        cycle: gpu.now(),
                        app: a as u8,
                        eb: w.effective_bandwidth(),
                        bw: w.attained_bw(),
                        cmr: w.combined_miss_rate(),
                        l1mr: w.counters.l1_miss_rate(),
                        l2mr: w.counters.l2_miss_rate(),
                        ipc: w.ipc(),
                    });
                }
                ts.emit_window(gpu, sink);
                ts.rollover(gpu, sink);
            }
            let obs_core: Vec<CoreStats> = win_core
                .iter()
                .zip(&after_core)
                .map(|(b, a)| CoreStats {
                    cycles: a.cycles - b.cycles,
                    insts: a.insts - b.insts,
                    mem_stall_cycles: a.mem_stall_cycles - b.mem_stall_cycles,
                    struct_stall_cycles: a.struct_stall_cycles - b.struct_stall_cycles,
                    idle_cycles: a.idle_cycles - b.idle_cycles,
                    warp_mem_wait_cycles: a.warp_mem_wait_cycles - b.warp_mem_wait_cycles,
                    active_warp_cycles: a.active_warp_cycles - b.active_warp_cycles,
                })
                .collect();
            gpu.run(relay.min(end.saturating_sub(gpu.now())));
            let obs = Observation {
                now: gpu.now(),
                window_cycles: window,
                apps: (0..n_apps)
                    .map(|a| AppObservation {
                        window: obs_windows[a],
                        core: obs_core[a],
                        tlp: gpu.tlp_of(AppId::new(a as u8)),
                        bypassed: gpu.bypass_l1_of(AppId::new(a as u8)),
                    })
                    .collect(),
            };
            let decision: Decision = controller.on_window(&obs);
            let mut changed = false;
            for a in 0..n_apps {
                if let Some(level) = decision.tlp.get(a).copied().flatten() {
                    let old = gpu.tlp_of(AppId::new(a as u8));
                    let new = gpu.config().clamp_tlp(level);
                    if old != new {
                        changed = true;
                        if trace_state.is_some() {
                            sink.emit(TraceEvent::TlpDecision {
                                cycle: gpu.now(),
                                app: a as u8,
                                old: old.get(),
                                new: new.get(),
                                reason: decision.reason.unwrap_or("policy"),
                            });
                        }
                    }
                    gpu.set_tlp(AppId::new(a as u8), level);
                }
                if let Some(b) = decision.bypass.get(a).copied().flatten() {
                    gpu.set_bypass_l1(AppId::new(a as u8), b);
                }
            }
            if let Some(ts) = trace_state.as_mut() {
                let phase = controller.phase();
                if phase != ts.last_phase {
                    ts.last_phase = phase;
                    if let Some(phase) = phase {
                        sink.emit(TraceEvent::SearchPhase {
                            cycle: gpu.now(),
                            scheme: controller.name().to_owned(),
                            phase: phase.to_owned(),
                        });
                    }
                }
            }
            if changed {
                tlp_trace.push((
                    gpu.now(),
                    (0..n_apps)
                        .map(|a| gpu.tlp_of(AppId::new(a as u8)))
                        .collect(),
                ));
            }
            n_windows += 1;
            snapshot_sampled_into(gpu, &mut win_counters);
            core_stats_all_into(gpu, &mut win_core);
            next_mark = gpu.now() + window;
        }
    }

    if trace_state.is_some() {
        sink.flush();
        gpu.set_metrics_enabled(metrics_before);
    }
    let start = measure_start.unwrap_or_else(|| snapshot_all(gpu));
    let final_counters = snapshot_all(gpu);
    let measured_cycles = (gpu.now() - measure_from.min(gpu.now())).max(1);
    let overall = start
        .iter()
        .zip(&final_counters)
        .map(|(b, a)| AppWindow::new(*a - *b, measured_cycles, peak))
        .collect();
    ControlledRun {
        overall,
        tlp_trace,
        n_windows,
        window_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::StaticController;
    use gpu_types::GpuConfig;
    use gpu_workloads::by_name;

    fn gpu() -> Gpu {
        Gpu::new(
            &GpuConfig::small(),
            &[by_name("BLK").unwrap(), by_name("BFS").unwrap()],
            11,
        )
    }

    #[test]
    fn measure_fixed_reports_positive_ipc() {
        let mut g = gpu();
        let combo = TlpCombo::uniform(TlpLevel::MAX, 2);
        let w = measure_fixed(&mut g, &combo, RunSpec::quick());
        assert_eq!(w.len(), 2);
        assert!(w[0].ipc() > 0.0);
        assert!(w[1].ipc() > 0.0);
    }

    #[test]
    fn measure_fixed_is_deterministic() {
        let combo = TlpCombo::uniform(TlpLevel::MAX, 2);
        let mut a = gpu();
        let mut b = gpu();
        let wa = measure_fixed(&mut a, &combo, RunSpec::quick());
        let wb = measure_fixed(&mut b, &combo, RunSpec::quick());
        assert_eq!(wa[0].counters, wb[0].counters);
    }

    #[test]
    fn controlled_run_invokes_controller_per_window() {
        let mut g = gpu();
        let window = g.config().sampling.window_cycles;
        let mut c = StaticController;
        let run = run_controlled(&mut g, &mut c, window * 4 + 100, 0);
        assert!(
            run.n_windows >= 3,
            "expected >=3 windows, got {}",
            run.n_windows
        );
        assert_eq!(run.overall.len(), 2);
        assert!(run.overall[0].ipc() > 0.0);
    }

    #[test]
    fn static_controller_leaves_single_trace_entry() {
        let mut g = gpu();
        let mut c = StaticController;
        let run = run_controlled(&mut g, &mut c, 10_000, 0);
        assert_eq!(run.tlp_trace.len(), 1, "no TLP changes expected");
    }

    struct FlipFlop(bool);
    impl Controller for FlipFlop {
        fn on_window(&mut self, obs: &Observation) -> Decision {
            self.0 = !self.0;
            let lvl = if self.0 {
                TlpLevel::MIN
            } else {
                TlpLevel::new(8).unwrap()
            };
            Decision::set_all(&vec![lvl; obs.apps.len()])
        }
        fn name(&self) -> &str {
            "flipflop"
        }
    }

    #[test]
    fn dynamic_controller_changes_are_traced() {
        let mut g = gpu();
        let window = g.config().sampling.window_cycles;
        let mut c = FlipFlop(false);
        let run = run_controlled(&mut g, &mut c, window * 4 + 100, 0);
        assert!(run.tlp_trace.len() >= 3, "trace: {:?}", run.tlp_trace);
    }

    #[test]
    fn window_series_records_every_window() {
        let mut g = gpu();
        let mut c = StaticController;
        let run = run_controlled(&mut g, &mut c, 10_000, 0);
        assert_eq!(run.window_series.len() as u64, run.n_windows);
        let cycles: Vec<u64> = run.window_series.iter().map(|(c, _)| *c).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] < w[1]),
            "series must be time-ordered"
        );
        let csv = run.series_csv();
        assert!(csv.starts_with("cycle,app,"));
        assert!(csv.lines().count() as u64 >= run.n_windows * 2);
    }

    /// The skip fractions of a traced run's first window cover that window
    /// alone, even on a machine that ran before tracing started.
    #[test]
    fn first_traced_window_reports_window_local_engine_fractions() {
        let (mut traced, mut twin) = (gpu(), gpu());
        let window = traced.config().sampling.window_cycles;
        for g in [&mut traced, &mut twin] {
            g.set_tlp(AppId::new(0), TlpLevel::MIN);
            g.run(3 * window);
            g.set_tlp(AppId::new(0), TlpLevel::new(8).unwrap());
        }
        let mut sink = crate::trace::RingSink::new(1 << 12);
        run_controlled_traced(&mut traced, &mut StaticController, window, 0, &mut sink);
        let first = sink.events().iter().find_map(|e| match e {
            TraceEvent::MetricsWindow {
                app: None,
                machine_fast_forward_fraction: Some(ff),
                component_idle_skip_fraction: Some(skip),
                ..
            } => Some((*ff, *skip)),
            _ => None,
        });

        let before = twin.engine_stats();
        twin.run(window);
        let after = twin.engine_stats();
        let steps = |e: EngineStats| e.core_steps + e.partition_steps + e.xbar_steps;
        let skipped = |e: EngineStats| {
            e.core_steps_skipped + e.partition_steps_skipped + e.xbar_steps_skipped
        };
        let (ran, missed) = (
            steps(after) - steps(before),
            skipped(after) - skipped(before),
        );
        let want = (
            (after.fast_forwarded - before.fast_forwarded) as f64 / window as f64,
            missed as f64 / (ran + missed) as f64,
        );
        assert_eq!(first, Some(want));
    }

    #[test]
    fn measure_from_skips_early_cycles() {
        let mut g1 = gpu();
        let mut g2 = gpu();
        let mut c = StaticController;
        let full = run_controlled(&mut g1, &mut c, 8_000, 0);
        let late = run_controlled(&mut g2, &mut c, 8_000, 4_000);
        assert!(late.overall[0].cycles < full.overall[0].cycles);
    }
}
