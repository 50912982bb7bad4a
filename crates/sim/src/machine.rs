//! The multi-application GPU machine.

mod oracle;

use crate::domain::{self, DirectFabric, DomainState};
use gpu_mem::req::MemRequest;
use gpu_mem::{Crossbar, MemoryPartition};
use gpu_simt::{CoreStats, SimtCore, WarpStalls};
use gpu_types::{
    AppId, CoreId, GpuConfig, Histogram, MemCounters, PartitionId, TlpCombo, TlpLevel,
};
use gpu_workloads::AppProfile;
use std::collections::VecDeque;

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
    cores: Vec<SimtCore>,
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
    /// instead of the production engine. Read only by [`Gpu::run`].
    reference_mode: bool,
    /// Cycles advanced by stepping at least one component.
    stepped_cycles: u64,
    /// Cycles advanced by jumping over event-free stretches.
    skipped_cycles: u64,
    /// Whether metrics recording is enabled machine-wide (mirrors the
    /// per-component flags; see [`Gpu::set_metrics_enabled`]).
    metrics: bool,
    /// The machine's domain layout — one domain per intra-simulation
    /// worker, a single one when serial — with each domain's engine state
    /// (wake times, credit watermarks, egress-pending set). Laid out at
    /// construction and again only by [`Gpu::set_sim_threads`].
    domains: Vec<DomainState>,
    /// False when the domains' derived state may be stale; the next
    /// production span re-derives it. Cleared only by
    /// [`Gpu::invalidate_wake_state`].
    wake_valid: bool,
    /// Individual core step calls (fast path or full).
    core_steps: u64,
    /// Individual partition step calls.
    partition_steps: u64,
    /// Individual crossbar step calls (request + response networks).
    xbar_steps: u64,
    /// Gate broadcasts issued by the windowed parallel engine (one per
    /// lookahead window, plus one exit broadcast per run span).
    sync_points: u64,
    /// Latch collections by the windowed parallel engine (one per window).
    barrier_waits: u64,
    /// Lookahead windows executed by the parallel engine.
    windows: u64,
    /// Total cycles covered by those windows (stepped or skipped).
    window_cycles: u64,
    /// Per-domain accounting of the parallel engine, indexed by domain
    /// (empty until the first parallel run span; monotonic afterwards).
    domain_stats: Vec<DomainWindowStats>,
}

/// One intra-simulation domain's share of the parallel engine's
/// accounting: windows synchronized through and component steps executed
/// by the domain's worker. Monotonic since machine construction; exported
/// through [`Gpu::domain_window_stats`] and the `domain_window` trace
/// event (docs/TRACE_SCHEMA.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainWindowStats {
    /// Lookahead windows the domain synchronized through.
    pub windows: u64,
    /// Simulated cycles those windows covered.
    pub window_cycles: u64,
    /// Core steps the domain's worker executed.
    pub core_steps: u64,
    /// Partition steps the domain's worker executed.
    pub partition_steps: u64,
}

/// Cycle- and component-step accounting of the engine
/// ([`Gpu::engine_stats`]): what the benchmark's `machine.*` and
/// `domain.*` per-layer metrics are computed from (`benchmark/README.md`).
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
    /// Coordinator-to-worker gate broadcasts by the windowed parallel
    /// engine: one per lookahead window plus one exit broadcast per run
    /// span. Zero on serial runs. Deterministic for any worker count > 1
    /// (window boundaries depend only on machine state and the crossbar
    /// latency, never on thread scheduling).
    pub sync_points: u64,
    /// Worker-to-coordinator latch collections (one per window). Zero on
    /// serial runs.
    pub barrier_waits: u64,
    /// Lookahead windows executed by the parallel engine. Zero on serial
    /// runs.
    pub windows: u64,
    /// Total cycles covered by those windows; `window_cycles / windows`
    /// is the mean window length ([`EngineStats::mean_window_cycles`]).
    pub window_cycles: u64,
}

impl EngineStats {
    /// Mean lookahead-window length in cycles (0 when no window ran —
    /// serial and reference runs).
    pub fn mean_window_cycles(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.window_cycles as f64 / self.windows as f64
        }
    }

    /// This accounting with the parallel-engine synchronization counters
    /// zeroed. The simulated machine — and every other field here — is
    /// bit-identical across engines and worker counts, but only the
    /// parallel engine crosses barriers; differential tests compare
    /// serial and parallel runs through this view.
    pub fn sans_sync(&self) -> EngineStats {
        EngineStats {
            sync_points: 0,
            barrier_waits: 0,
            windows: 0,
            window_cycles: 0,
            ..*self
        }
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
    /// `apps`, any share is zero, or the total exceeds `cfg.n_cores`.
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

        let mut cores = Vec::with_capacity(total);
        let mut app_cores = Vec::with_capacity(apps.len());
        let mut next_core = 0usize;
        for (ai, (profile, &share)) in apps.iter().zip(split).enumerate() {
            let app = AppId::new(ai as u8);
            let mut mine = Vec::with_capacity(share);
            for rank in 0..share {
                let streams = (0..cfg.warps_per_core)
                    .map(|slot| profile.stream(app, rank, slot, cfg.warps_per_core, seed))
                    .collect();
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
        let mut gpu = Gpu {
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
            stepped_cycles: 0,
            skipped_cycles: 0,
            metrics: false,
            domains: Vec::new(),
            wake_valid: false,
            core_steps: 0,
            partition_steps: 0,
            xbar_steps: 0,
            sync_points: 0,
            barrier_waits: 0,
            windows: 0,
            window_cycles: 0,
            domain_stats: Vec::new(),
        };
        // The worker count is resolved once per machine, here, on the
        // thread that builds (and, throughout this repository, runs) it.
        gpu.set_sim_threads(crate::exec::sim_worker_count());
        gpu
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
    fn set_core_knob(&mut self, app: AppId, knob: impl Fn(&mut SimtCore)) {
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

    /// Marks the domains' derived engine state — wake times, credit
    /// watermarks, egress-pending sets — stale. The one rule: it is stale
    /// after anything other than the production engine changed what it was
    /// derived from, i.e. a knob change (TLP/bypass/CCWS clear core sleep
    /// states) or a reference-engine stretch. The next production span
    /// re-derives it. A layout change ([`Gpu::set_sim_threads`]) only
    /// regroups components and carries their state over.
    fn invalidate_wake_state(&mut self) {
        self.wake_valid = false;
    }

    /// Advances the machine one cycle: exactly a one-cycle [`Gpu::run`]
    /// span, so manual stepping skips idle components, counts toward
    /// [`crate::metrics::cycles_simulated`] and reports the same
    /// [`EngineStats`] as `run` over the same cycles. On a machine with
    /// several intra-simulation workers every call is a one-cycle window
    /// with its own worker threads — correct, but slow.
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
    ///
    /// A machine laid out as several domains ([`Gpu::set_sim_threads`] or
    /// `EBM_SIM_THREADS`) steps them on worker threads in lookahead
    /// windows — the same cycle kernel over a different crossbar fabric,
    /// bit-identical for every worker count (docs/PARALLELISM.md).
    pub fn run(&mut self, cycles: u64) {
        crate::metrics::add_cycles_simulated(cycles);
        if self.reference_mode {
            self.run_reference(cycles);
        } else {
            if !self.wake_valid {
                let domains = domain::views(
                    &mut self.domains,
                    &mut self.cores,
                    &mut self.partitions,
                    &mut self.resp_backlog,
                    &mut self.ingress_backlog,
                    &self.cfg,
                );
                for mut dom in domains {
                    dom.derive_wake_state(self.now);
                }
                self.wake_valid = true;
            }
            if self.domains.len() > 1 {
                self.run_windowed(cycles);
            } else {
                self.run_direct(cycles);
            }
        }
    }

    /// A span of the one-domain machine: the cycle kernel over the direct
    /// fabric, on the calling thread.
    fn run_direct(&mut self, cycles: u64) {
        let (from, end) = (self.now, self.now + cycles);
        let latency = self.cfg.xbar_latency as u64;
        let mut fabric = DirectFabric::new(&mut self.req_net, &mut self.resp_net, latency, from);
        let mut dom = domain::views(
            &mut self.domains,
            &mut self.cores,
            &mut self.partitions,
            &mut self.resp_backlog,
            &mut self.ingress_backlog,
            &self.cfg,
        )
        .next()
        .expect("a machine has at least one domain");
        dom.advance(from, end, &mut fabric);
        dom.flush_credits(end);
        let (core_steps, partition_steps) = dom.state.take_steps();
        self.core_steps += core_steps;
        self.partition_steps += partition_steps;
        self.xbar_steps += fabric.xbar_steps;
        self.stepped_cycles += fabric.stepped_cycles;
        self.skipped_cycles += cycles - fabric.stepped_cycles;
        self.now = end;
    }

    /// A span of a machine laid out as several domains: each domain is
    /// owned by one scoped worker thread for the span and steps the cycle
    /// kernel over its windowed fabric ([`domain::Mailbox`]); this
    /// coordinator keeps both crossbars and every scalar counter. The
    /// crossbars' traversal latency `L` is conservative lookahead — a flit
    /// pushed at `t` is deliverable no earlier than `t + L` — so each gate
    /// broadcast releases the workers for an `L`-cycle window: the
    /// coordinator forward-simulates all in-window crossbar arbitration at
    /// the window start (exact, since in-window pushes cannot be granted
    /// in-window), hands each domain its cycle-tagged deliveries and exact
    /// per-port admission budgets, and replays the workers' origin-tagged
    /// pushes into the crossbars at the boundary — restoring a machine
    /// byte-identical to the one-domain span for every worker count
    /// (docs/PARALLELISM.md). Machine-wide fast-forward happens between
    /// windows from the domains' reported next-event times.
    fn run_windowed(&mut self, cycles: u64) {
        let end = self.now + cycles;
        let n_cores = self.cores.len();
        let n_parts = self.partitions.len();
        let d = self.domains.len();
        // Every domain but the last owns a full chunk.
        let core_chunk = self.domains[0].cores.len();
        let part_chunk = self.domains[0].parts.len();
        let lookahead = (self.cfg.xbar_latency as u64).min(domain::MAX_WINDOW);
        debug_assert!(lookahead >= 1, "zero-latency machines are one domain");

        let mailboxes: Vec<std::sync::Mutex<domain::Mailbox>> = self
            .domains
            .iter()
            .map(|st| std::sync::Mutex::new(domain::Mailbox::new(st.cores.len(), st.parts.len())))
            .collect();
        // What each domain owns, for naming a culprit (the workers hold
        // the domains themselves for the whole span).
        let owned: Vec<_> = self
            .domains
            .iter()
            .map(|st| (st.cores.clone(), st.parts.clone()))
            .collect();
        let gate = domain::Gate::new();
        let latch = domain::Latch::new();
        // The domain count depends on the worker count; grow (never
        // shrink) so stats stay monotonic if the count changes mid-life.
        if self.domain_stats.len() < d {
            self.domain_stats.resize(d, DomainWindowStats::default());
        }

        // Disjoint mutable borrows of the machine: the chunked state the
        // workers own, and everything the coordinator keeps.
        let Gpu {
            cores,
            partitions,
            resp_backlog,
            ingress_backlog,
            domains,
            req_net,
            resp_net,
            cfg,
            now,
            stepped_cycles,
            skipped_cycles,
            core_steps,
            partition_steps,
            xbar_steps,
            sync_points,
            barrier_waits,
            windows,
            window_cycles,
            domain_stats,
            ..
        } = self;

        let span_start = *now;
        std::thread::scope(|scope| {
            let views = domain::views(
                domains,
                cores,
                partitions,
                resp_backlog,
                ingress_backlog,
                cfg,
            );
            for (w, dom) in views.enumerate() {
                let (gate, latch, mailbox) = (&gate, &latch, &mailboxes[w]);
                scope.spawn(move || domain::worker_loop(dom, w, gate, latch, mailbox));
            }

            // Crossbar dueness carried between windows, recomputed from the
            // physical nets at every window boundary.
            let mut next_due_req = domain::net_due(req_net, *now);
            let mut next_due_resp = domain::net_due(resp_net, *now);
            // Per-domain next-event reports; `span_start` until each
            // domain's first report, which forbids jumping before it.
            let mut domain_next: Vec<u64> = vec![span_start; d];
            // Coordinator scratch, reused across windows (refunds indexed
            // by global port, counters by window offset).
            let mut req_refund: Vec<u64> = vec![0; n_cores];
            let mut resp_refund: Vec<u64> = vec![0; n_parts];
            let mut req_grant_cnt = [0u32; domain::MAX_WINDOW as usize];
            let mut resp_grant_cnt = [0u32; domain::MAX_WINDOW as usize];
            let mut req_push_cnt = [0u32; domain::MAX_WINDOW as usize];
            let mut resp_push_cnt = [0u32; domain::MAX_WINDOW as usize];

            while *now < end {
                // Machine-wide fast-forward between windows: every domain
                // reported its earliest future event at its last window
                // end, the crossbars contribute theirs, and the span jumps
                // over the gap — idle domains never shrink a window, they
                // just don't bound the jump.
                let mut global_next = next_due_req.min(next_due_resp);
                for &dn in &domain_next {
                    global_next = global_next.min(dn);
                }
                if global_next > *now {
                    let to = global_next.min(end);
                    *skipped_cycles += to - *now;
                    *now = to;
                    if to == end {
                        break;
                    }
                }

                let t0 = *now;
                let win = lookahead.min(end - t0);
                // Occupancy snapshots for the peak-buffered
                // reconstruction, taken before forward simulation pops.
                let b0_req = req_net.in_flight();
                let b0_resp = resp_net.in_flight();
                let mut xbar_mask = 0u64;

                {
                    // Fill every mailbox: window length, exact per-port
                    // admission budgets (free slots now, plus refunds from
                    // forward-simulated grants), and the window's tagged
                    // crossbar deliveries.
                    let mut guards: Vec<_> = mailboxes
                        .iter()
                        .map(|m| m.lock().expect("mailbox poisoned"))
                        .collect();
                    for (w, mb) in guards.iter_mut().enumerate() {
                        mb.win_len = win;
                        let cb = w * core_chunk;
                        for (lc, free) in mb.req.free.iter_mut().enumerate() {
                            *free = req_net.free_slots(cb + lc) as u32;
                        }
                        let pb = w * part_chunk;
                        for (lp, free) in mb.resp.free.iter_mut().enumerate() {
                            *free = resp_net.free_slots(pb + lp) as u32;
                        }
                    }
                    // Forward-simulate both crossbars across the whole
                    // window. Exact: an in-window push is ready no earlier
                    // than the window end (ready = origin + latency ≥ t0 +
                    // win), so it can neither be granted here nor change
                    // which head-of-line flits the round-robin sees.
                    for t in t0..t0 + win {
                        let off = t - t0;
                        if next_due_resp <= t {
                            *xbar_steps += 1;
                            xbar_mask |= 1u64 << off;
                            resp_net.step_routed(t, |inp, core_idx, resp| {
                                resp_refund[inp] |= 1u64 << off;
                                resp_grant_cnt[off as usize] += 1;
                                let w = core_idx / core_chunk;
                                guards[w]
                                    .grants
                                    .push_back((off, core_idx - w * core_chunk, resp));
                            });
                            next_due_resp = domain::net_due(resp_net, t + 1);
                        }
                        if next_due_req <= t {
                            *xbar_steps += 1;
                            xbar_mask |= 1u64 << off;
                            req_net.step_routed(t, |inp, part_idx, req| {
                                req_refund[inp] |= 1u64 << off;
                                req_grant_cnt[off as usize] += 1;
                                let w = part_idx / part_chunk;
                                guards[w]
                                    .ejects
                                    .push_back((off, part_idx - w * part_chunk, req));
                            });
                            next_due_req = domain::net_due(req_net, t + 1);
                        }
                    }
                    for (w, mb) in guards.iter_mut().enumerate() {
                        let cb = w * core_chunk;
                        for (lc, refund) in mb.req.refund.iter_mut().enumerate() {
                            *refund = std::mem::take(&mut req_refund[cb + lc]);
                        }
                        let pb = w * part_chunk;
                        for (lp, refund) in mb.resp.refund.iter_mut().enumerate() {
                            *refund = std::mem::take(&mut resp_refund[pb + lp]);
                        }
                    }
                } // guards dropped before the release

                latch.reset(d);
                gate.release(domain::PHASE_WINDOW, t0);
                *sync_points += 1;
                latch.wait();
                *barrier_waits += 1;
                if let Some(w) = gate.failed() {
                    gate.release(domain::PHASE_EXIT, 0);
                    let (cores, parts) = owned[w].clone();
                    panic!("{}", domain::failure_message(w, cores, parts, t0));
                }
                *windows += 1;
                *window_cycles += win;

                // Collect: replay staged flits into the crossbars with
                // their origin-cycle semantics. Ascending domain order and
                // ascending offset within a domain preserve per-input-port
                // FIFO order — ports are single-writer, so that is the
                // only order the crossbars can observe.
                let mut stepped_bits = xbar_mask;
                for (w, mailbox) in mailboxes.iter().enumerate() {
                    let mut mb = mailbox.lock().expect("mailbox poisoned");
                    stepped_bits |= mb.stepped_mask;
                    domain_next[w] = mb.next_event;
                    let ds = &mut domain_stats[w];
                    ds.windows += 1;
                    ds.window_cycles += win;
                    ds.core_steps += mb.core_steps;
                    ds.partition_steps += mb.partition_steps;
                    *core_steps += mb.core_steps;
                    *partition_steps += mb.partition_steps;
                    for (off, lp, dest, resp) in mb.staged_resps.drain(..) {
                        resp_push_cnt[off as usize] += 1;
                        resp_net
                            .push(w * part_chunk + lp, dest, resp, t0 + off)
                            .expect("staged within the admission budget");
                    }
                    for (off, lc, dest, req) in mb.staged_reqs.drain(..) {
                        req_push_cnt[off as usize] += 1;
                        req_net
                            .push(w * core_chunk + lc, dest, req, t0 + off)
                            .expect("staged within the admission budget");
                    }
                }

                let stepped = u64::from(stepped_bits.count_ones());
                *stepped_cycles += stepped;
                *skipped_cycles += win - stepped;

                // Reconstruct the serial running peak of buffered flits:
                // the serial candidate at a cycle with pushes is the
                // window-start occupancy plus pushes so far minus grants
                // at strictly earlier cycles (within a cycle pushes
                // precede grants on both nets). The replay above never
                // exceeds the maximum candidate — grants were popped
                // before any push went back in — so raising to it
                // restores the serial peak exactly.
                for (net, b0, push_cnt, grant_cnt) in [
                    (&mut *req_net, b0_req, &mut req_push_cnt, &mut req_grant_cnt),
                    (
                        &mut *resp_net,
                        b0_resp,
                        &mut resp_push_cnt,
                        &mut resp_grant_cnt,
                    ),
                ] {
                    let (mut cum_p, mut cum_g, mut peak) = (0usize, 0usize, 0usize);
                    for off in 0..win as usize {
                        cum_p += push_cnt[off] as usize;
                        if push_cnt[off] > 0 {
                            peak = peak.max(b0 + cum_p - cum_g);
                        }
                        cum_g += grant_cnt[off] as usize;
                        push_cnt[off] = 0;
                        grant_cnt[off] = 0;
                    }
                    if peak > 0 {
                        net.raise_peak(peak);
                    }
                }

                // Boundary dueness, recomputed from the physical nets.
                let boundary = t0 + win;
                next_due_req = domain::net_due(req_net, boundary);
                next_due_resp = domain::net_due(resp_net, boundary);
                *now = boundary;
            }

            gate.release(domain::PHASE_EXIT, end);
            *sync_points += 1;
        });
    }

    /// Pins the number of intra-simulation domain workers for this machine,
    /// overriding the `EBM_SIM_THREADS` environment variable it was built
    /// under (clamped to at least 1 and at most one per core). Results are
    /// bit-identical for every value — the knob trades wall-clock for
    /// barrier overhead only (docs/PARALLELISM.md). Tests use this setter
    /// instead of the environment variable because environment mutation is
    /// racy under the multi-threaded test harness.
    pub fn set_sim_threads(&mut self, threads: usize) {
        // The windowed fabric's lookahead is the crossbar traversal
        // latency; a zero-latency machine has none to exploit, so it stays
        // one domain whatever the worker count.
        let workers = if self.cfg.xbar_latency > 0 {
            threads
        } else {
            1
        };
        let old = if self.wake_valid {
            &self.domains[..]
        } else {
            &[]
        };
        self.domains = domain::layout(workers, self.cores.len(), self.partitions.len(), old);
    }

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
    /// sample peak in-flight depth of each crossbar.  Called by the
    /// metrics registry at window rollover; the crossbar peaks are
    /// re-armed as a side effect (invisible to the simulation).
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
        let total = self.stepped_cycles + self.skipped_cycles;
        EngineStats {
            stepped: self.stepped_cycles,
            fast_forwarded: self.skipped_cycles,
            core_steps: self.core_steps,
            core_steps_skipped: total * self.cores.len() as u64 - self.core_steps,
            partition_steps: self.partition_steps,
            partition_steps_skipped: total * self.partitions.len() as u64 - self.partition_steps,
            xbar_steps: self.xbar_steps,
            xbar_steps_skipped: total * 2 - self.xbar_steps,
            sync_points: self.sync_points,
            barrier_waits: self.barrier_waits,
            windows: self.windows,
            window_cycles: self.window_cycles,
        }
    }

    /// Per-domain accounting of the parallel engine, indexed by domain.
    /// Empty until the machine has run a parallel span (serial and
    /// reference runs never populate it); monotonic afterwards. The
    /// domain count is derived from the worker count, so entries appear
    /// when the first multi-worker span runs.
    pub fn domain_window_stats(&self) -> &[DomainWindowStats] {
        &self.domain_stats
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

    #[test]
    fn domain_parallel_run_matches_serial_exactly() {
        let mut serial = small_two_app();
        serial.set_sim_threads(1);
        serial.run(4_000);
        for threads in [2, 3, 4, 7] {
            let mut parallel = small_two_app();
            parallel.set_sim_threads(threads);
            parallel.run(4_000);
            for a in 0..2u8 {
                assert_eq!(
                    serial.counters(AppId::new(a)),
                    parallel.counters(AppId::new(a)),
                    "counters diverged at {threads} sim threads"
                );
                assert_eq!(
                    serial.core_stats(AppId::new(a)),
                    parallel.core_stats(AppId::new(a)),
                    "core stats diverged at {threads} sim threads"
                );
            }
            let stats = parallel.engine_stats();
            assert_eq!(
                serial.engine_stats().sans_sync(),
                stats.sans_sync(),
                "engine accounting diverged at {threads} sim threads"
            );
            assert!(
                stats.windows > 0
                    && stats.barrier_waits == stats.windows
                    && stats.sync_points > stats.windows,
                "windowed run must record its synchronization: {stats:?}"
            );
            assert!(
                stats.mean_window_cycles() >= 1.0,
                "windows are at least one cycle: {stats:?}"
            );
            assert_eq!(
                serial.engine_stats().sync_points,
                0,
                "serial runs never synchronize"
            );
        }
    }

    #[test]
    fn domain_parallel_survives_multiple_run_spans_and_knobs() {
        // Knob changes invalidate the wheel between spans; both engines
        // must rebuild identically and stay in lock-step.
        let mut serial = small_two_app();
        let mut parallel = small_two_app();
        parallel.set_sim_threads(4);
        for (i, span) in [700u64, 1, 1300, 250].iter().enumerate() {
            let level = TlpLevel::new(1 + (i as u32 * 3) % 8).unwrap();
            serial.set_tlp(AppId::new(0), level);
            parallel.set_tlp(AppId::new(0), level);
            serial.run(*span);
            parallel.run(*span);
            assert_eq!(serial.now(), parallel.now());
            for a in 0..2u8 {
                assert_eq!(
                    serial.counters(AppId::new(a)),
                    parallel.counters(AppId::new(a)),
                    "span {i} diverged"
                );
            }
        }
    }
}
