//! The multi-application GPU machine.

mod engine;
mod oracle;

use engine::WakeState;
use gpu_mem::req::MemRequest;
use gpu_mem::{Crossbar, MemoryPartition};
use gpu_simt::core::EGRESS_CAPACITY;
use gpu_simt::{CoreStats, SimtCore, WarpStalls};
use gpu_types::{
    AppId, CoreId, GpuConfig, Histogram, MemCounters, PartitionId, TlpCombo, TlpLevel,
};
use gpu_workloads::{AppProfile, AppStream};
use std::collections::VecDeque;

/// The machine's cores: statically dispatched over the one stream type
/// applications are built from.
type Core = SimtCore<AppStream>;

/// A GPU running one or more applications on exclusive core partitions
/// sharing L2 and DRAM (§II-A).
///
/// # Examples
///
/// ```
/// use gpu_sim::machine::Gpu;
/// use gpu_types::{AppId, GpuConfig};
/// use gpu_workloads::Workload;
///
/// let workload = Workload::pair("BLK", "BFS");
/// let mut gpu = Gpu::new(&GpuConfig::small(), workload.apps(), 42);
/// gpu.run(2_000);
/// assert!(gpu.counters(AppId::new(0)).warp_insts > 0);
/// ```
pub struct Gpu {
    cfg: GpuConfig,
    cores: Vec<Core>,
    /// Core indices assigned to each application.
    app_cores: Vec<Vec<usize>>,
    req_net: Crossbar<MemRequest>,
    resp_net: Crossbar<MemRequest>,
    partitions: Vec<MemoryPartition>,
    /// Responses waiting for response-network input space, per partition.
    resp_backlog: Vec<VecDeque<MemRequest>>,
    /// Requests ejected from the request network but refused by a full
    /// partition ingress queue, per partition.
    ingress_backlog: Vec<VecDeque<MemRequest>>,
    now: u64,
    /// Whether run spans go to the reference oracle (`machine/oracle.rs`)
    /// instead of the production engine (`machine/engine.rs`). Read only by
    /// [`Gpu::run`].
    reference_mode: bool,
    /// Whether metrics recording is enabled machine-wide (mirrors the
    /// per-component flags; see [`Gpu::set_metrics_enabled`]).
    metrics: bool,
    /// The production engine's state kept between run spans (wake times,
    /// credit watermarks, egress-pending set, crossbar due cycles).
    wake: WakeState,
    /// False when `wake` may be stale; the next production span re-derives
    /// it. Cleared only by [`Gpu::invalidate_wake_state`].
    wake_valid: bool,
    /// Cycles advanced by stepping at least one component; the rest of
    /// `now` was jumped over.
    stepped_cycles: u64,
    /// Individual core step calls (fast path or full).
    core_steps: u64,
    /// Individual partition step calls.
    partition_steps: u64,
    /// Individual crossbar step calls (request + response networks).
    xbar_steps: u64,
}

/// Cycle- and component-step accounting of the engine
/// ([`Gpu::engine_stats`]): what the benchmark's `machine.*` per-layer
/// metrics are computed from (`benchmark/README.md`).
///
/// The cycle counters split total simulated time into cycles where at
/// least one component was stepped (`stepped`) and whole-machine jumps
/// over event-free stretches (`fast_forwarded`). The per-class step
/// counters record how many *individual component steps* actually ran;
/// comparing them against `class size × total cycles` (the per-cycle
/// engines always step everything) gives the per-component idle-skip
/// fractions — the quantity that stays visible even when some component
/// is always busy and whole-machine fast-forward never engages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cycles advanced by stepping at least one component.
    pub stepped: u64,
    /// Cycles advanced by whole-machine jumps (no component work at all).
    pub fast_forwarded: u64,
    /// SIMT core step calls executed.
    pub core_steps: u64,
    /// Core step calls skipped relative to stepping every core every cycle.
    pub core_steps_skipped: u64,
    /// Memory partition step calls executed.
    pub partition_steps: u64,
    /// Partition step calls skipped relative to every-cycle stepping.
    pub partition_steps_skipped: u64,
    /// Crossbar step calls executed (request + response networks).
    pub xbar_steps: u64,
    /// Crossbar step calls skipped relative to every-cycle stepping.
    pub xbar_steps_skipped: u64,
    // Always zero: read only by the frozen benchmark's `domain.*` probe.
    #[doc(hidden)]
    pub sync_points: u64,
    #[doc(hidden)]
    pub barrier_waits: u64,
    #[doc(hidden)]
    pub windows: u64,
    #[doc(hidden)]
    pub window_cycles: u64,
}

impl EngineStats {
    // Always zero: called only by the frozen benchmark's `domain.*` probe.
    #[doc(hidden)]
    pub fn mean_window_cycles(&self) -> f64 {
        0.0
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("now", &self.now)
            .field("n_cores", &self.cores.len())
            .field("n_apps", &self.app_cores.len())
            .finish()
    }
}

impl Gpu {
    /// Builds a machine running `apps` on equal exclusive core partitions
    /// (the paper's default; see [`Gpu::with_core_split`] for the §VI-D
    /// sensitivity study).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the cores cannot be split
    /// evenly.
    pub fn new(cfg: &GpuConfig, apps: &[&AppProfile], seed: u64) -> Self {
        assert!(!apps.is_empty(), "need at least one application");
        assert_eq!(
            cfg.n_cores % apps.len(),
            0,
            "{} cores cannot be split evenly among {} applications",
            cfg.n_cores,
            apps.len()
        );
        let per_app = cfg.n_cores / apps.len();
        Self::with_core_split(cfg, apps, &vec![per_app; apps.len()], seed)
    }

    /// Builds a machine with an explicit number of cores per application.
    /// The L2 and DRAM are always fully shared.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the split length mismatches
    /// `apps`, any share is zero, the total exceeds `cfg.n_cores`, or an
    /// application's memory instructions are wider than a core's egress
    /// queue.
    pub fn with_core_split(
        cfg: &GpuConfig,
        apps: &[&AppProfile],
        split: &[usize],
        seed: u64,
    ) -> Self {
        cfg.validate().expect("invalid configuration");
        assert_eq!(split.len(), apps.len(), "one core share per application");
        assert!(
            split.iter().all(|&s| s > 0),
            "every application needs at least one core"
        );
        let total: usize = split.iter().sum();
        assert!(total <= cfg.n_cores, "core split exceeds the machine");
        for profile in apps {
            assert!(
                profile.coalesce_degree <= EGRESS_CAPACITY,
                "{}: coalesce_degree {} exceeds the {EGRESS_CAPACITY}-entry core egress \
                 queue; such an instruction could never issue",
                profile.name,
                profile.coalesce_degree
            );
        }

        let mut cores = Vec::with_capacity(total);
        let mut app_cores = Vec::with_capacity(apps.len());
        let mut next_core = 0usize;
        for (ai, (profile, &share)) in apps.iter().zip(split).enumerate() {
            let app = AppId::new(ai as u8);
            let mut mine = Vec::with_capacity(share);
            for rank in 0..share {
                let streams = AppStream::core(profile, app, rank, cfg.warps_per_core, seed);
                cores.push(SimtCore::new(
                    CoreId(next_core),
                    app,
                    cfg,
                    profile.core_params(),
                    streams,
                ));
                mine.push(next_core);
                next_core += 1;
            }
            app_cores.push(mine);
        }

        let partitions = (0..cfg.n_partitions)
            .map(|p| MemoryPartition::new(PartitionId(p), cfg, apps.len()))
            .collect();
        Gpu {
            req_net: Crossbar::new(
                total,
                cfg.n_partitions,
                cfg.xbar_latency as u64,
                cfg.xbar_requests_per_cycle,
                8,
            ),
            resp_net: Crossbar::new(
                cfg.n_partitions,
                total,
                cfg.xbar_latency as u64,
                cfg.xbar_requests_per_cycle,
                8,
            ),
            partitions,
            resp_backlog: vec![VecDeque::new(); cfg.n_partitions],
            ingress_backlog: vec![VecDeque::new(); cfg.n_partitions],
            cores,
            app_cores,
            cfg: cfg.clone(),
            now: 0,
            reference_mode: false,
            metrics: false,
            wake: WakeState::new(total, cfg.n_partitions),
            wake_valid: false,
            stepped_cycles: 0,
            core_steps: 0,
            partition_steps: 0,
            xbar_steps: 0,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Number of co-scheduled applications.
    pub fn n_apps(&self) -> usize {
        self.app_cores.len()
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Core indices assigned to `app`.
    pub fn cores_of(&self, app: AppId) -> &[usize] {
        &self.app_cores[app.index()]
    }

    /// Applies `knob` to every core of `app`. Knobs clear the affected
    /// cores' sleep states, so every wake time derived from them is stale.
    fn set_core_knob(&mut self, app: AppId, knob: impl Fn(&mut Core)) {
        for &c in &self.app_cores[app.index()] {
            knob(&mut self.cores[c]);
        }
        self.invalidate_wake_state();
    }

    /// Applies a TLP level to every core of `app` (SWL, clamped to the
    /// machine's realizable maximum).
    pub fn set_tlp(&mut self, app: AppId, level: TlpLevel) {
        let level = self.cfg.clamp_tlp(level);
        self.set_core_knob(app, |core| core.set_tlp(level));
    }

    /// Applies a full TLP combination (one level per application).
    ///
    /// # Panics
    ///
    /// Panics if the combination size mismatches the application count.
    pub fn set_combo(&mut self, combo: &TlpCombo) {
        assert_eq!(combo.len(), self.n_apps(), "combination size mismatch");
        for a in 0..self.n_apps() {
            self.set_tlp(AppId::new(a as u8), combo.level(a));
        }
    }

    /// The TLP level currently applied to `app`.
    pub fn tlp_of(&self, app: AppId) -> TlpLevel {
        let c = self.app_cores[app.index()][0];
        TlpLevel::new(self.cores[c].tlp() as u32).expect("core TLP is always valid")
    }

    /// Enables/disables L1 bypassing for every core of `app`
    /// (the Mod+Bypass baseline's knob).
    pub fn set_bypass_l1(&mut self, app: AppId, bypass: bool) {
        self.set_core_knob(app, |core| core.set_bypass_l1(bypass));
    }

    /// True when `app`'s cores currently bypass their L1s.
    pub fn bypass_l1_of(&self, app: AppId) -> bool {
        self.cores[self.app_cores[app.index()][0]].bypass_l1()
    }

    /// Enables/disables CCWS cache-conscious throttling on every core of
    /// `app` (the ++CCWS baseline).
    pub fn set_ccws(&mut self, app: AppId, enabled: bool) {
        self.set_core_knob(app, |core| core.set_ccws(enabled));
    }

    /// Marks the production engine's derived state — wake times, credit
    /// watermarks, egress-pending set, crossbar due cycles — stale. The one
    /// rule: it is stale after anything other than the production engine
    /// changed what it was derived from, i.e. a knob change (TLP/bypass/CCWS
    /// clear core sleep states) or a reference-engine stretch. The next
    /// production span re-derives it.
    fn invalidate_wake_state(&mut self) {
        self.wake_valid = false;
    }

    /// Advances the machine one cycle: exactly a one-cycle [`Gpu::run`]
    /// span, so manual stepping skips idle components, counts toward
    /// [`crate::metrics::cycles_simulated`] and reports the same
    /// [`EngineStats`] as `run` over the same cycles.
    pub fn step(&mut self) {
        self.run(1);
    }

    /// Runs the machine for `cycles` cycles. The engine jumps from event
    /// to event: each iteration either steps the due components of one
    /// cycle or fast-forwards to the next scheduled wake, with skipped
    /// cores' per-cycle counters credited lazily in batch. `now`,
    /// statistics and traced output advance exactly as if every component
    /// had been stepped every cycle (the reference oracle checks this
    /// bit-for-bit in `engine_equivalence`).
    pub fn run(&mut self, cycles: u64) {
        crate::metrics::add_cycles_simulated(cycles);
        if self.reference_mode {
            self.run_reference(cycles);
        } else {
            self.run_direct(cycles);
        }
    }

    // No-op: called only by the frozen benchmark's `domain.*` probe.
    #[doc(hidden)]
    pub fn set_sim_threads(&mut self, _threads: usize) {}

    /// Enables or disables metrics recording machine-wide (per-warp stall
    /// breakdowns in every core, DRAM request-latency histograms in every
    /// memory controller).  Purely an accounting switch, gated exactly
    /// like `TraceSink::enabled()`: toggling it never changes simulation
    /// results, and when off (the default) the hot path pays only one
    /// untaken branch per step.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics = on;
        for core in &mut self.cores {
            core.set_metrics_enabled(on);
        }
        for p in &mut self.partitions {
            p.set_metrics_enabled(on);
        }
    }

    /// Whether metrics recording is currently enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics
    }

    /// Returns and resets `app`'s per-warp stall breakdown, merged over
    /// its cores (all zero unless metrics recording is enabled).
    pub fn take_warp_stalls(&mut self, app: AppId) -> WarpStalls {
        let mut total = WarpStalls::default();
        for &ci in &self.app_cores[app.index()] {
            total.merge(&self.cores[ci].take_warp_stalls());
        }
        total
    }

    /// Returns and resets `app`'s DRAM queue-to-data latency histogram,
    /// merged over every memory partition (empty unless metrics recording
    /// is enabled).
    pub fn take_dram_latency(&mut self, app: AppId) -> Histogram {
        let mut total = Histogram::new();
        for p in &mut self.partitions {
            total.merge(&p.take_dram_latency(app));
        }
        total
    }

    /// Samples machine-wide occupancy gauges into the given histograms:
    /// one L2-MSHR occupancy sample per partition, one queue-depth sample
    /// per partition (L2 ingress + controller queue), and the since-last-
    /// sample peak in-flight depth of each crossbar.  Called by a traced
    /// run at window rollover; the crossbar peaks are re-armed as a side
    /// effect (invisible to the simulation).
    pub fn sample_occupancy(&mut self, mshr_occ: &mut Histogram, queue_depth: &mut Histogram) {
        for p in &self.partitions {
            let (used, _cap) = p.l2_mshr_occupancy();
            mshr_occ.record(used as u64);
            queue_depth.record(p.queue_depth() as u64);
        }
        queue_depth.record(self.req_net.take_peak_in_flight() as u64);
        queue_depth.record(self.resp_net.take_peak_in_flight() as u64);
    }

    /// Cycle-advance and per-component-class step accounting. Skipped
    /// counts are relative to the per-cycle engines, which step every
    /// component every cycle (`class size × total cycles`); the reference
    /// engine therefore always reports zero skips.
    pub fn engine_stats(&self) -> EngineStats {
        let total = self.now;
        EngineStats {
            stepped: self.stepped_cycles,
            fast_forwarded: self.now - self.stepped_cycles,
            core_steps: self.core_steps,
            core_steps_skipped: total * self.cores.len() as u64 - self.core_steps,
            partition_steps: self.partition_steps,
            partition_steps_skipped: total * self.partitions.len() as u64 - self.partition_steps,
            xbar_steps: self.xbar_steps,
            xbar_steps_skipped: total * 2 - self.xbar_steps,
            sync_points: 0,
            barrier_waits: 0,
            windows: 0,
            window_cycles: 0,
        }
    }

    /// Cumulative per-application counters, aggregated over the app's cores
    /// (L1, instructions) and every memory partition (L2, DRAM).
    ///
    /// The paper's hardware samples one designated core and one designated
    /// partition per application; because miss rates and bandwidth are
    /// uniformly distributed across cores/partitions (§V-E observes this and
    /// we verify it in tests), exact aggregation is behaviourally equivalent
    /// and the runtime overhead is modeled by the sampling window and relay
    /// latency instead.
    pub fn counters(&self, app: AppId) -> MemCounters {
        let mut c = MemCounters::new();
        for &ci in &self.app_cores[app.index()] {
            let l1 = self.cores[ci].l1_counters(app);
            c.l1_accesses += l1.accesses;
            c.l1_misses += l1.misses;
            c.warp_insts += self.cores[ci].stats().insts;
        }
        for p in &self.partitions {
            let pk = p.counters(app);
            c.l2_accesses += pk.l2_accesses;
            c.l2_misses += pk.l2_misses;
            c.dram_bytes += pk.mc.dram_bytes;
            c.row_hits += pk.mc.row_hits;
            c.row_misses += pk.mc.row_misses;
        }
        c
    }

    /// The Fig. 8 designated-sampling estimate of `app`'s counters: L1
    /// statistics from one designated core (scaled by the app's core
    /// count), L2/DRAM statistics from one designated memory partition
    /// (scaled by the partition count). §V-E argues miss rates and
    /// bandwidth are uniformly distributed, so this estimate tracks
    /// [`Gpu::counters`]; the `sampling` experiment quantifies the error.
    pub fn designated_counters(&self, app: AppId) -> MemCounters {
        let mut c = MemCounters::new();
        let cores = &self.app_cores[app.index()];
        let designated_core = cores[0];
        let l1 = self.cores[designated_core].l1_counters(app);
        let n_cores = cores.len() as u64;
        c.l1_accesses = l1.accesses * n_cores;
        c.l1_misses = l1.misses * n_cores;
        // Instruction counts stay exact: the SD-based metrics we *report*
        // are not part of the sampled hardware path; only the EB inputs are.
        for &ci in cores {
            c.warp_insts += self.cores[ci].stats().insts;
        }
        let n_parts = self.partitions.len() as u64;
        let pk = self.partitions[0].counters(app);
        c.l2_accesses = pk.l2_accesses * n_parts;
        c.l2_misses = pk.l2_misses * n_parts;
        c.dram_bytes = pk.mc.dram_bytes * n_parts;
        c.row_hits = pk.mc.row_hits * n_parts;
        c.row_misses = pk.mc.row_misses * n_parts;
        c
    }

    /// Aggregated core-pipeline statistics for `app` (sums over its cores).
    pub fn core_stats(&self, app: AppId) -> CoreStats {
        let mut total = CoreStats::default();
        for &ci in &self.app_cores[app.index()] {
            let s = self.cores[ci].stats();
            total.cycles += s.cycles;
            total.insts += s.insts;
            total.mem_stall_cycles += s.mem_stall_cycles;
            total.struct_stall_cycles += s.struct_stall_cycles;
            total.idle_cycles += s.idle_cycles;
            total.warp_mem_wait_cycles += s.warp_mem_wait_cycles;
            total.active_warp_cycles += s.active_warp_cycles;
        }
        total
    }

    /// Per-partition L2 access counts for `app` (used by tests to verify the
    /// uniformity assumption behind designated-partition sampling).
    pub fn per_partition_l2_accesses(&self, app: AppId) -> Vec<u64> {
        self.partitions
            .iter()
            .map(|p| p.counters(app).l2_accesses)
            .collect()
    }

    /// Number of memory partitions in the machine.
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of instantiated cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Cumulative telemetry of one memory partition: per-application DRAM
    /// bytes, row-buffer hits/misses, and the current queue depth. The trace
    /// layer differences consecutive snapshots into
    /// [`crate::trace::TraceEvent::PartitionWindow`] events; the simulation
    /// itself never reads this.
    pub fn partition_telemetry(&self, partition: usize) -> PartitionTelemetry {
        let p = &self.partitions[partition];
        let per_app: Vec<_> = (0..self.n_apps())
            .map(|a| p.counters(AppId::new(a as u8)).mc)
            .collect();
        PartitionTelemetry {
            per_app_dram_bytes: per_app.iter().map(|c| c.dram_bytes).collect(),
            row_hits: per_app.iter().map(|c| c.row_hits).sum(),
            row_misses: per_app.iter().map(|c| c.row_misses).sum(),
            queue_depth: p.queue_depth(),
        }
    }

    /// Cumulative telemetry of one core: its application plus the pipeline
    /// statistics. The trace layer differences consecutive snapshots into
    /// [`crate::trace::TraceEvent::CoreWindow`] events.
    pub fn core_telemetry(&self, core: usize) -> (AppId, CoreStats) {
        let c = &self.cores[core];
        (c.app, c.stats())
    }
}

/// Cumulative counters of one memory partition, as sampled by
/// [`Gpu::partition_telemetry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionTelemetry {
    /// DRAM bytes transferred per application (in `AppId` order).
    pub per_app_dram_bytes: Vec<u64>,
    /// Row-buffer hits, summed over applications.
    pub row_hits: u64,
    /// Row-buffer misses (activations), summed over applications.
    pub row_misses: u64,
    /// Requests queued in the partition right now (not cumulative).
    pub queue_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workloads::by_name;

    fn small_two_app() -> Gpu {
        let cfg = GpuConfig::small();
        Gpu::new(
            &cfg,
            &[by_name("BLK").unwrap(), by_name("BFS").unwrap()],
            42,
        )
    }

    #[test]
    fn equal_split_assigns_disjoint_cores() {
        let gpu = small_two_app();
        let a = gpu.cores_of(AppId::new(0));
        let b = gpu.cores_of(AppId::new(1));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert!(a.iter().all(|c| !b.contains(c)));
    }

    #[test]
    fn both_apps_make_progress() {
        let mut gpu = small_two_app();
        gpu.run(3_000);
        for a in 0..2 {
            let c = gpu.counters(AppId::new(a));
            assert!(
                c.warp_insts > 100,
                "App-{a} issued only {} insts",
                c.warp_insts
            );
            assert!(c.dram_bytes > 0, "App-{a} never reached DRAM");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = small_two_app();
        let mut b = small_two_app();
        a.run(2_000);
        b.run(2_000);
        assert_eq!(a.counters(AppId::new(0)), b.counters(AppId::new(0)));
        assert_eq!(a.counters(AppId::new(1)), b.counters(AppId::new(1)));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GpuConfig::small();
        let apps = [by_name("BFS").unwrap(), by_name("BLK").unwrap()];
        let mut a = Gpu::new(&cfg, &apps, 1);
        let mut b = Gpu::new(&cfg, &apps, 2);
        a.run(2_000);
        b.run(2_000);
        assert_ne!(a.counters(AppId::new(0)), b.counters(AppId::new(0)));
    }

    #[test]
    fn tlp_knob_reaches_all_cores() {
        let mut gpu = small_two_app();
        gpu.set_tlp(AppId::new(0), TlpLevel::new(2).unwrap());
        assert_eq!(gpu.tlp_of(AppId::new(0)).get(), 2);
        // The other app is untouched (clamped machine max = 8).
        assert_eq!(gpu.tlp_of(AppId::new(1)).get(), 8);
    }

    #[test]
    fn set_combo_applies_per_app_levels() {
        let mut gpu = small_two_app();
        gpu.set_combo(&TlpCombo::pair(
            TlpLevel::new(1).unwrap(),
            TlpLevel::new(4).unwrap(),
        ));
        assert_eq!(gpu.tlp_of(AppId::new(0)).get(), 1);
        assert_eq!(gpu.tlp_of(AppId::new(1)).get(), 4);
    }

    #[test]
    fn lower_tlp_reduces_bandwidth_consumption() {
        let apps = [by_name("BLK").unwrap(), by_name("BLK").unwrap()];
        let cfg = GpuConfig::small();
        let mut high = Gpu::new(&cfg, &apps, 7);
        let mut low = Gpu::new(&cfg, &apps, 7);
        low.set_tlp(AppId::new(0), TlpLevel::new(1).unwrap());
        high.run(5_000);
        low.run(5_000);
        let bw_high = high.counters(AppId::new(0)).dram_bytes;
        let bw_low = low.counters(AppId::new(0)).dram_bytes;
        assert!(
            bw_low < bw_high,
            "TLP=1 should consume less bandwidth ({bw_low} vs {bw_high})"
        );
    }

    #[test]
    fn bypass_knob_silences_l1() {
        let mut gpu = small_two_app();
        gpu.set_bypass_l1(AppId::new(0), true);
        assert!(gpu.bypass_l1_of(AppId::new(0)));
        gpu.run(2_000);
        assert_eq!(gpu.counters(AppId::new(0)).l1_accesses, 0);
        assert!(gpu.counters(AppId::new(1)).l1_accesses > 0);
    }

    #[test]
    fn l2_traffic_is_roughly_uniform_across_partitions() {
        // Underpins the designated-partition sampling argument (§V-E).
        let mut gpu = small_two_app();
        gpu.run(8_000);
        let per = gpu.per_partition_l2_accesses(AppId::new(0));
        let total: u64 = per.iter().sum();
        assert!(total > 0);
        for &p in &per {
            let share = p as f64 / total as f64;
            let even = 1.0 / per.len() as f64;
            assert!(
                (share - even).abs() < 0.25,
                "partition share {share:.2} far from uniform {even:.2}"
            );
        }
    }

    #[test]
    fn designated_sampling_tracks_exact_aggregates() {
        let mut gpu = small_two_app();
        gpu.run(8_000);
        for a in 0..2u8 {
            let exact = gpu.counters(AppId::new(a));
            let est = gpu.designated_counters(AppId::new(a));
            let close = |x: u64, y: u64| {
                let (x, y) = (x as f64, y as f64);
                x == y || (x - y).abs() / x.max(y).max(1.0) < 0.4
            };
            assert!(
                close(exact.l1_accesses, est.l1_accesses),
                "App-{a}: L1 accesses exact {} vs designated {}",
                exact.l1_accesses,
                est.l1_accesses
            );
            assert!(
                close(exact.dram_bytes, est.dram_bytes),
                "App-{a}: DRAM bytes exact {} vs designated {}",
                exact.dram_bytes,
                est.dram_bytes
            );
            assert_eq!(
                exact.warp_insts, est.warp_insts,
                "instruction counts stay exact"
            );
        }
    }

    #[test]
    fn custom_split_sizes_respected() {
        let cfg = GpuConfig::small();
        let gpu = Gpu::with_core_split(
            &cfg,
            &[by_name("BLK").unwrap(), by_name("BFS").unwrap()],
            &[3, 1],
            1,
        );
        assert_eq!(gpu.cores_of(AppId::new(0)).len(), 3);
        assert_eq!(gpu.cores_of(AppId::new(1)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "split evenly")]
    fn uneven_split_panics() {
        let mut cfg = GpuConfig::small();
        cfg.n_cores = 5;
        // 5 cores cannot be split over 2 apps — but 5 cores also fails
        // validate? No: n_cores 5 is fine; the even split fails.
        let _ = Gpu::new(&cfg, &[by_name("BLK").unwrap(), by_name("BFS").unwrap()], 1);
    }

    #[test]
    #[should_panic(expected = "WIDE: coalesce_degree 17 exceeds the 16-entry core egress queue")]
    fn an_app_wider_than_the_egress_queue_is_rejected() {
        // The backstop behind `AppProfile::assert_valid`, for a profile
        // nobody validated: every memory instruction of this one would
        // struct-stall its warp forever.
        let mut wide = *by_name("GUPS").unwrap();
        wide.name = "WIDE";
        wide.coalesce_degree = EGRESS_CAPACITY + 1;
        let _ = Gpu::with_core_split(&GpuConfig::small(), &[&wide], &[2], 1);
    }

    #[test]
    fn an_app_as_wide_as_the_egress_queue_runs() {
        let mut wide = *by_name("GUPS").unwrap();
        wide.coalesce_degree = EGRESS_CAPACITY;
        wide.assert_valid();
        let mut gpu = Gpu::with_core_split(&GpuConfig::small(), &[&wide], &[2], 1);
        gpu.run(3_000);
        let c = gpu.counters(AppId::new(0));
        assert!(c.warp_insts > 100 && c.dram_bytes > 0, "{c:?}");
    }

    #[test]
    fn single_app_alone_runs() {
        let cfg = GpuConfig::small();
        let mut gpu = Gpu::with_core_split(&cfg, &[by_name("SCP").unwrap()], &[2], 3);
        gpu.run(3_000);
        assert!(gpu.counters(AppId::new(0)).warp_insts > 100);
    }

    #[test]
    fn manual_steps_are_visible_to_telemetry_like_a_run_span() {
        // The thread-local counter: the process-global one races with the
        // other tests of this binary.
        let cycles = || crate::metrics::thread_cycles_simulated();
        let (mut stepped, mut ran) = (small_two_app(), small_two_app());
        let c0 = cycles();
        for _ in 0..300 {
            stepped.step();
        }
        let by_step = cycles() - c0;
        ran.run(300);
        assert_eq!(by_step, 300);
        assert_eq!(cycles() - c0 - by_step, by_step);
        assert_eq!(stepped.now(), ran.now());
        assert_eq!(
            stepped.engine_stats(),
            ran.engine_stats(),
            "a step is a one-cycle span of the same engine"
        );
    }
}
