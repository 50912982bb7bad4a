//! Every call `ebm-layers` makes into `crates/*` lives in this file.
//!
//! The probes time public functions from outside; nothing in the crates is
//! instrumented for them. When an API below changes, this is the only file
//! of the benchmark that needs to follow — and until it does, `run.sh` still
//! reports the end-to-end metrics from `ebm-e2e`.
//!
//! Conventions: a `budget` is the wall-clock seconds a timing probe may
//! spend; host times are those of the fastest of repeated batches
//! ([`ebm_benchmark::stats::ns_per_op`]); counts are exact.

use ebm_bench::campaign::{self, CostModel};
use ebm_bench::{figures, profiler, BenchArgs, Report};
use ebm_benchmark::cli::{CoRun, Machine, WARMUP_CYCLES};
use ebm_benchmark::span::Recorder;
use ebm_benchmark::stats::{self, ns_per_op};
use ebm_core::eval::{Evaluator, EvaluatorConfig, Scheme};
use ebm_core::pbsrun::PbsRunSpec;
use ebm_core::scaling::ScalingFactors;
use ebm_core::sweep::ComboSweep;
use ebm_core::{search, EbObjective, Pbs};
use gpu_mem::{
    AccessKind, Cache, Crossbar, DramChannel, Lookup, MemRequest, MemoryPartition, ReqId,
};
use gpu_sim::control::{Controller, Decision, Observation, StaticController};
use gpu_sim::harness::{run_controlled, run_controlled_traced, FixedRunInputs, RunSpec};
use gpu_sim::machine::{EngineStats, Gpu};
use gpu_sim::timeq::TimeQ;
use gpu_sim::trace::{JsonlSink, NullSink, RingSink, TraceSink};
use gpu_sim::{alone, cache, exec};
use gpu_simt::SimtCore;
use gpu_types::{Address, AppId, CoreId, GpuConfig, PartitionId, SplitMix64, TlpCombo};
use gpu_workloads::{all_workloads, apps, Workload};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The preset configuration of `machine`.
pub fn config(machine: Machine) -> GpuConfig {
    match machine {
        Machine::Small => GpuConfig::small(),
        Machine::Volta => GpuConfig::volta(),
    }
}

fn fresh_gpu(cfg: &GpuConfig, pair: [&str; 2], seed: u64) -> Gpu {
    let workload = Workload::pair(pair[0], pair[1]);
    let mut gpu = Gpu::new(cfg, workload.apps(), seed);
    gpu.set_combo(&TlpCombo::uniform(cfg.max_tlp(), 2));
    gpu.run(WARMUP_CYCLES);
    gpu
}

/// The end state two runs must share to count as the same simulation.
fn end_state(gpu: &Gpu) -> Vec<gpu_types::MemCounters> {
    (0..gpu.n_apps())
        .map(|a| gpu.counters(AppId::new(a as u8)))
        .collect()
}

// ------------------------------------------------------------ sim.machine

/// What the engine did over the profiled slices of one co-run.
pub struct MachineProfile {
    /// `Gpu::new` wall time, milliseconds (median of the set-ups).
    pub new_ms: f64,
    /// Simulated kilocycles profiled.
    pub kcycles: f64,
    /// Engine accounting over the profiled slices.
    pub stats: EngineStats,
    /// Heap allocations over the profiled slices.
    pub allocs: u64,
    /// Host nanoseconds of the fastest slice with spans recorded.
    pub slice_ns_traced: f64,
    /// Host nanoseconds of the fastest slice with the recorder disabled.
    pub slice_ns_untraced: f64,
    /// Component steps (cores + partitions + crossbars) per slice.
    pub steps_per_slice: f64,
    /// L1 hits ÷ L1 accesses over the profiled slices, all applications.
    pub l1_hit_share: f64,
}

fn stats_delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        stepped: after.stepped - before.stepped,
        fast_forwarded: after.fast_forwarded - before.fast_forwarded,
        core_steps: after.core_steps - before.core_steps,
        core_steps_skipped: after.core_steps_skipped - before.core_steps_skipped,
        partition_steps: after.partition_steps - before.partition_steps,
        partition_steps_skipped: after.partition_steps_skipped - before.partition_steps_skipped,
        xbar_steps: after.xbar_steps - before.xbar_steps,
        xbar_steps_skipped: after.xbar_steps_skipped - before.xbar_steps_skipped,
        sync_points: after.sync_points - before.sync_points,
        barrier_waits: after.barrier_waits - before.barrier_waits,
        windows: after.windows - before.windows,
        window_cycles: after.window_cycles - before.window_cycles,
    }
}

/// Runs `n_slices` slices of `w`, one span each, alternating the recorder on
/// and off so the two halves see the same host conditions.
pub fn machine_profile(
    rec: &mut Recorder,
    w: CoRun,
    seed: u64,
    n_slices: usize,
    heap_ops: impl Fn() -> u64,
) -> MachineProfile {
    let cfg = config(w.machine);
    let workload = Workload::pair(w.apps[0], w.apps[1]);
    let mut new_ms = Vec::new();
    let mut gpu = None;
    for _ in 0..3 {
        gpu = Some(rec.scope("sim.machine/Gpu::new", |_| {
            let t = Instant::now();
            let g = Gpu::new(&cfg, workload.apps(), seed);
            new_ms.push(t.elapsed().as_secs_f64() * 1e3);
            g
        }));
    }
    let mut gpu = gpu.expect("three set-ups ran");
    rec.scope("sim.machine/warm_up", |_| {
        gpu.set_combo(&TlpCombo::uniform(cfg.max_tlp(), 2));
        gpu.run(WARMUP_CYCLES);
    });

    let stats0 = gpu.engine_stats();
    let counters0 = end_state(&gpu);
    let allocs0 = heap_ops();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for i in 0..n_slices.max(2) {
        let on = i % 2 == 0;
        rec.set_enabled(on);
        let t = Instant::now();
        rec.scope("sim.machine/run_slice", |rec| {
            gpu.run(w.slice_cycles);
            rec.count("cycles", w.slice_cycles as f64);
        });
        let ns = t.elapsed().as_nanos() as f64;
        if on { &mut traced } else { &mut untraced }.push(ns);
    }
    rec.set_enabled(true);
    let allocs = heap_ops() - allocs0;
    let stats = stats_delta(gpu.engine_stats(), stats0);
    let (mut accesses, mut misses) = (0u64, 0u64);
    for (now, then) in end_state(&gpu).iter().zip(&counters0) {
        accesses += now.l1_accesses - then.l1_accesses;
        misses += now.l1_misses - then.l1_misses;
    }
    let slices = n_slices.max(2) as f64;
    MachineProfile {
        new_ms: stats::median(&new_ms),
        kcycles: slices * w.slice_cycles as f64 / 1e3,
        stats,
        allocs,
        slice_ns_traced: stats::fastest(&traced),
        slice_ns_untraced: stats::fastest(&untraced),
        steps_per_slice: (stats.core_steps + stats.partition_steps + stats.xbar_steps) as f64
            / slices,
        l1_hit_share: 1.0 - misses as f64 / accesses.max(1) as f64,
    }
}

/// Simulated kilocycles per host second of a `Gpu::step()` loop: the same
/// engine used one cycle at a time.
pub fn single_step_kcps(w: CoRun, seed: u64, budget: f64) -> f64 {
    let mut gpu = fresh_gpu(&config(w.machine), w.apps, seed);
    let cycles = (w.slice_cycles / 10).max(100);
    let ns = ns_per_op(budget, || {
        for _ in 0..cycles {
            gpu.step();
        }
        cycles
    });
    1e6 / ns
}

/// Simulated kilocycles per host second of `GpuConfig::paper` on BLK_BFS.
pub fn paper_kcps(seed: u64, budget: f64) -> f64 {
    let mut gpu = fresh_gpu(&GpuConfig::paper(), ["BLK", "BFS"], seed);
    let ns = ns_per_op(budget, || {
        gpu.run(2_000);
        2_000
    });
    1e6 / ns
}

// -------------------------------------------------------------- simt.core

/// Cycles after which the stub memory answers a load.
const STUB_LATENCY: u64 = 200;

/// Result of stepping one `SimtCore` against the stub memory.
pub struct SimtProbe {
    /// Host nanoseconds per executed `SimtCore::step`.
    pub step_ns: f64,
    /// Warp instructions issued per executed step.
    pub insts_per_step: f64,
}

/// One core of `cfg` running `app`'s real instruction streams; loads are
/// answered by a benchmark-owned stub after [`STUB_LATENCY`] cycles. Like
/// the engine, the loop steps the core only when it has an event due and
/// credits the idle stretch in one batch otherwise.
pub fn simt_probe(cfg: &GpuConfig, app: &str, seed: u64, budget: f64) -> SimtProbe {
    let profile = apps::by_name(app).expect("probe applications are Table IV names");
    let id = AppId::new(0);
    let streams = (0..cfg.warps_per_core)
        .map(|slot| profile.stream(id, 0, slot, cfg.warps_per_core, seed))
        .collect();
    let mut core = SimtCore::new(CoreId(0), id, cfg, profile.core_params(), streams);
    core.set_tlp(cfg.max_tlp());
    let mut in_flight: VecDeque<(u64, MemRequest)> = VecDeque::new();
    let mut now = 0u64;
    let insts0 = core.stats().insts;
    let mut steps_total = 0u64;
    let step_ns = ns_per_op(budget, || {
        let mut steps = 0u64;
        while steps < 20_000 {
            while matches!(in_flight.front(), Some((at, _)) if *at <= now) {
                let (_, resp) = in_flight.pop_front().expect("peeked");
                core.receive(resp);
            }
            let due = core.next_event(now);
            if due > now {
                let wake = in_flight.front().map_or(due, |(at, _)| due.min(*at));
                // A core with nothing scheduled and nothing in flight has
                // retired; the streams model steady state, so this is a bug.
                assert!(wake != u64::MAX, "probe core went permanently idle");
                core.credit_idle_cycles(wake - now);
                now = wake;
                continue;
            }
            core.step(now);
            steps += 1;
            while let Some(req) = core.pop_request() {
                if req.needs_response() {
                    in_flight.push_back((now + STUB_LATENCY, req));
                }
            }
            now += 1;
        }
        steps_total += steps;
        steps
    });
    SimtProbe {
        step_ns,
        insts_per_step: (core.stats().insts - insts0) as f64 / steps_total.max(1) as f64,
    }
}

/// Host nanoseconds per instruction generated by an `AppStream`.
pub fn stream_ns_per_inst(app: &str, seed: u64, budget: f64) -> f64 {
    let profile = apps::by_name(app).expect("probe applications are Table IV names");
    let mut stream = profile.stream(AppId::new(0), 0, 0, 16, seed);
    ns_per_op(budget, || {
        for _ in 0..10_000 {
            black_box(stream.next_inst());
        }
        10_000
    })
}

// -------------------------------------------------------------- mem.cache

/// Isolated L1-sized cache timings.
pub struct CacheProbe {
    /// Host nanoseconds per load that hits.
    pub ns_per_hit: f64,
    /// Host nanoseconds per load that misses plus the fill that resolves it.
    pub ns_per_miss_fill: f64,
}

/// Times `gpu_mem::Cache` configured as `cfg`'s L1.
pub fn cache_probe(cfg: &GpuConfig, budget: f64) -> CacheProbe {
    let app = AppId::new(0);
    let line = |i: u64| Address::new(i * gpu_types::LINE_SIZE);
    let resident = cfg.l1.n_lines() as u64;
    let mut cache = Cache::new(&cfg.l1, 1);
    for i in 0..resident {
        cache.access_load(app, line(i), ReqId(i));
        cache.fill(line(i));
    }
    let ns_per_hit = ns_per_op(budget / 2.0, || {
        for i in 0..resident {
            assert_eq!(cache.access_load(app, line(i), ReqId(i)), Lookup::Hit);
        }
        resident
    });
    let mut next = resident;
    let mut waiters = Vec::new();
    let ns_per_miss_fill = ns_per_op(budget / 2.0, || {
        for _ in 0..4_096 {
            assert_eq!(
                cache.access_load(app, line(next), ReqId(next)),
                Lookup::MissToLower
            );
            cache.fill_into(line(next), &mut waiters);
            waiters.clear();
            next += 1;
        }
        4_096
    });
    CacheProbe {
        ns_per_hit,
        ns_per_miss_fill,
    }
}

// --------------------------------------------------------------- mem.xbar

/// Isolated crossbar timings at one machine size.
pub struct XbarProbe {
    /// Host nanoseconds per delivered flit at 50 % injection.
    pub ns_per_flit: f64,
    /// Host nanoseconds per `step_with` at 50 % injection.
    pub ns_per_step: f64,
    /// Host nanoseconds per `step_with` on an empty crossbar.
    pub ns_per_idle_step: f64,
}

/// Times the request crossbar of `cfg`: every cycle each input pushes with
/// probability one half to a uniformly random output.
pub fn xbar_probe(cfg: &GpuConfig, seed: u64, budget: f64) -> XbarProbe {
    let (n_in, n_out) = (cfg.n_cores, cfg.n_partitions);
    let new = || {
        Crossbar::<u64>::new(
            n_in,
            n_out,
            cfg.xbar_latency as u64,
            cfg.xbar_requests_per_cycle,
            8,
        )
    };
    let mut xbar = new();
    let mut rng = SplitMix64::new(seed);
    let mut now = 0u64;
    let (mut flits, mut steps) = (0u64, 0u64);
    let ns_per_flit = ns_per_op(budget * 0.7, || {
        let mut delivered = 0u64;
        for _ in 0..2_000 {
            for input in 0..n_in {
                if rng.next_u64() & 1 == 0 {
                    let dest = rng.next_below(n_out as u64) as usize;
                    let _ = xbar.push(input, dest, now, now);
                }
            }
            xbar.step_with(now, |_, payload| {
                black_box(payload);
                delivered += 1;
            });
            now += 1;
        }
        flits += delivered;
        steps += 2_000;
        delivered
    });
    let ns_per_step = ns_per_flit * flits as f64 / steps as f64;
    let mut idle = new();
    let ns_per_idle_step = ns_per_op(budget * 0.3, || {
        for t in 0..10_000 {
            idle.step_with(t, |_, payload| {
                black_box(payload);
            });
        }
        10_000
    });
    XbarProbe {
        ns_per_flit,
        ns_per_step,
        ns_per_idle_step,
    }
}

// ---------------------------------------------------------- mem.partition

/// Isolated memory-partition (L2 + controller + DRAM) timings.
pub struct PartitionProbe {
    /// Host nanoseconds per request, sequential line stream.
    pub ns_per_req_stream: f64,
    /// Host nanoseconds per request, uniformly random lines.
    pub ns_per_req_random: f64,
    /// Host nanoseconds per `step_into` under the sequential stream.
    pub ns_per_step_stream: f64,
    /// DRAM row-hit share under the sequential stream.
    pub row_hit_share: f64,
    /// Host nanoseconds per `step_into` on an idle partition.
    pub ns_per_idle_step: f64,
}

/// Address of the `i`-th line that maps to partition 0 of `cfg`.
fn partition0_line(cfg: &GpuConfig, i: u64) -> Address {
    let lines_per_chunk = gpu_types::addr::INTERLEAVE_BYTES / gpu_types::LINE_SIZE;
    let chunk = i / lines_per_chunk * cfg.n_partitions as u64;
    Address::new(
        chunk * gpu_types::addr::INTERLEAVE_BYTES + i % lines_per_chunk * gpu_types::LINE_SIZE,
    )
}

fn drive_partition(
    cfg: &GpuConfig,
    budget: f64,
    mut next_line: impl FnMut() -> u64,
) -> (f64, f64, MemoryPartition) {
    let app = AppId::new(0);
    let mut part = MemoryPartition::new(PartitionId(0), cfg, 1);
    let mut responses = VecDeque::new();
    let (mut now, mut id) = (0u64, 0u64);
    let (mut reqs, mut steps) = (0u64, 0u64);
    let ns_per_req = ns_per_op(budget, || {
        let mut accepted = 0u64;
        for _ in 0..4_000 {
            if part.can_accept() {
                let addr = partition0_line(cfg, next_line());
                let req = MemRequest::new(ReqId(id), app, CoreId(0), 0, addr, AccessKind::Load);
                if part.push(req).is_ok() {
                    id += 1;
                    accepted += 1;
                }
            }
            part.step_into(now, &mut responses);
            responses.clear();
            now += 1;
        }
        reqs += accepted;
        steps += 4_000;
        accepted
    });
    (ns_per_req, ns_per_req * reqs as f64 / steps as f64, part)
}

/// Times partition 0 of `cfg` under a one-request-per-cycle offered load.
pub fn partition_probe(cfg: &GpuConfig, seed: u64, budget: f64) -> PartitionProbe {
    let mut seq = 0u64;
    let (ns_per_req_stream, ns_per_step_stream, streamed) =
        drive_partition(cfg, budget * 0.4, || {
            seq += 1;
            seq
        });
    let mc = streamed.counters(AppId::new(0)).mc;
    let mut rng = SplitMix64::new(seed);
    let (ns_per_req_random, _, _) = drive_partition(cfg, budget * 0.4, || rng.next_below(1 << 24));
    let mut idle = MemoryPartition::new(PartitionId(0), cfg, 1);
    let mut responses = VecDeque::new();
    let ns_per_idle_step = ns_per_op(budget * 0.2, || {
        for t in 0..10_000 {
            idle.step_into(t, &mut responses);
        }
        10_000
    });
    PartitionProbe {
        ns_per_req_stream,
        ns_per_req_random,
        ns_per_step_stream,
        row_hit_share: mc.row_hits as f64 / (mc.row_hits + mc.row_misses).max(1) as f64,
        ns_per_idle_step,
    }
}

/// Host nanoseconds per `DramChannel::service` on a sequential line stream.
pub fn dram_ns_per_service(cfg: &GpuConfig, budget: f64) -> f64 {
    let mut dram = DramChannel::new(cfg.dram.clone(), cfg.n_partitions);
    let (mut now, mut i) = (0u64, 0u64);
    ns_per_op(budget, || {
        for _ in 0..10_000 {
            let addr = partition0_line(cfg, i);
            i += 1;
            now = now.max(dram.bank_busy_until(dram.bank_of(addr)));
            black_box(dram.service(addr, now));
        }
        10_000
    })
}

// -------------------------------------------------------------- sim.timeq

/// Host nanoseconds per fired event of a timing wheel over the components
/// of `cfg` (cores + partitions + two crossbars), each rescheduled 1–64
/// cycles ahead whenever it fires.
pub fn timeq_ns_per_event(cfg: &GpuConfig, seed: u64, budget: f64) -> f64 {
    let n = cfg.n_cores + cfg.n_partitions + 2;
    let mut q = TimeQ::new(n);
    let mut rng = SplitMix64::new(seed);
    for comp in 0..n {
        q.schedule(comp, 1 + rng.next_below(64));
    }
    let mut fired = Vec::new();
    ns_per_op(budget, || {
        let mut events = 0u64;
        while events < 20_000 {
            let now = q.next_at();
            q.advance(now, |comp| fired.push(comp));
            events += fired.len() as u64;
            for comp in fired.drain(..) {
                q.schedule(comp as usize, now + 1 + rng.next_below(64));
            }
        }
        events
    })
}

// ------------------------------------------------------------- sim.domain

/// The windowed parallel engine on `volta-busy` at two domain workers.
pub struct DomainProbe {
    /// Simulated kilocycles per host second at two workers.
    pub kcps_t2: f64,
    /// One-worker time ÷ two-worker time.
    pub speedup_t2: f64,
    /// Engine accounting of the two-worker run.
    pub stats: EngineStats,
    /// Simulated kilocycles each run covered.
    pub kcycles: f64,
    /// Whether both runs ended in the same state.
    pub same_end_state: bool,
}

/// Runs `cycles` of `w` at one and at two intra-simulation workers.
pub fn domain_probe(w: CoRun, seed: u64, cycles: u64) -> DomainProbe {
    let cfg = config(w.machine);
    let run = |threads: usize| {
        let mut gpu = fresh_gpu(&cfg, w.apps, seed);
        gpu.set_sim_threads(threads);
        let before = gpu.engine_stats();
        let t = Instant::now();
        gpu.run(cycles);
        let secs = t.elapsed().as_secs_f64();
        (
            secs,
            stats_delta(gpu.engine_stats(), before),
            end_state(&gpu),
        )
    };
    let (t1, _, state1) = run(1);
    let (t2, stats, state2) = run(2);
    DomainProbe {
        kcps_t2: cycles as f64 / 1e3 / t2,
        speedup_t2: t1 / t2,
        stats,
        kcycles: cycles as f64 / 1e3,
        same_end_state: state1 == state2,
    }
}

// ------------------------------------------------- sim.harness / sim.alone

/// Cost of the controlled-run harness over a plain `Gpu::run`.
pub struct HarnessProbe {
    /// `(controlled − plain) ÷ plain`, percent.
    pub controlled_overhead_pct: f64,
    /// Extra host microseconds per sampling window.
    pub window_snapshot_us: f64,
    /// `(traced into a ring − untraced) ÷ untraced`, percent.
    pub traced_run_overhead_pct: f64,
    /// `(metrics on − metrics off) ÷ metrics off`, percent.
    pub metrics_on_overhead_pct: f64,
    /// Host nanoseconds per event written by a `JsonlSink`.
    pub jsonl_ns_per_event: f64,
}

/// Times `cycles` of small BLK_TRD four ways, interleaved `reps` times:
/// plain, under `run_controlled` with a `StaticController`, the same traced
/// into a `RingSink`, and plain with the metrics registry on. The ring's
/// events are then replayed into a `JsonlSink` under `scratch`.
pub fn harness_probe(seed: u64, cycles: u64, reps: usize, scratch: &Path) -> HarnessProbe {
    let cfg = GpuConfig::small();
    let pair = ["BLK", "TRD"];
    let (mut plain, mut controlled, mut traced, mut metered) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut windows = 1u64;
    let mut ring = RingSink::new(1 << 16);
    for _ in 0..reps.max(3) {
        let mut gpu = fresh_gpu(&cfg, pair, seed);
        let t = Instant::now();
        gpu.run(cycles);
        plain.push(t.elapsed().as_secs_f64());

        let mut gpu = fresh_gpu(&cfg, pair, seed);
        let t = Instant::now();
        let run = run_controlled(&mut gpu, &mut StaticController, cycles, 0);
        controlled.push(t.elapsed().as_secs_f64());
        windows = run.n_windows.max(1);

        let mut gpu = fresh_gpu(&cfg, pair, seed);
        ring = RingSink::new(1 << 16);
        let t = Instant::now();
        run_controlled_traced(&mut gpu, &mut StaticController, cycles, 0, &mut ring);
        traced.push(t.elapsed().as_secs_f64());

        let mut gpu = fresh_gpu(&cfg, pair, seed);
        gpu.set_metrics_enabled(true);
        let t = Instant::now();
        gpu.run(cycles);
        metered.push(t.elapsed().as_secs_f64());
    }
    let (plain, controlled) = (stats::fastest(&plain), stats::fastest(&controlled));
    let pct = |x: f64, base: f64| 100.0 * (x - base) / base;

    let events = ring.drain();
    let path = scratch.join("probe-trace.jsonl");
    let mut sink = JsonlSink::create(&path).expect("scratch directory is writable");
    let jsonl_ns_per_event = ns_per_op(0.0, || {
        for e in &events {
            sink.emit(e.clone());
        }
        sink.flush();
        events.len() as u64
    });
    drop(sink);
    let _ = std::fs::remove_file(&path);

    HarnessProbe {
        controlled_overhead_pct: pct(controlled, plain),
        window_snapshot_us: (controlled - plain) * 1e6 / windows as f64,
        traced_run_overhead_pct: pct(stats::fastest(&traced), controlled),
        metrics_on_overhead_pct: pct(stats::fastest(&metered), plain),
        jsonl_ns_per_event,
    }
}

/// Wall seconds of one cold `profile_alone` of BLK on the quick machine.
pub fn alone_profile_s(seed: u64) -> f64 {
    let cfg = EvaluatorConfig::quick();
    let app = apps::by_name("BLK").expect("BLK is a Table IV name");
    cache::clear_memory();
    let t = Instant::now();
    black_box(alone::profile_alone(
        &cfg.gpu,
        app,
        cfg.gpu.n_cores / 2,
        seed,
        cfg.alone_spec,
    ));
    t.elapsed().as_secs_f64()
}

// -------------------------------------------------- sim.cache / sim.exec

/// Isolated result-cache timings.
pub struct ResultCacheProbe {
    /// Host nanoseconds to build and finish one fixed-run fingerprint.
    pub key_ns: f64,
    /// Host nanoseconds per memory-tier hit.
    pub mem_hit_ns: f64,
    /// Host microseconds per `DiskStore::load` of a 1 KiB payload.
    pub disk_load_us: f64,
    /// Host microseconds per `DiskStore::store` of a 1 KiB payload.
    pub disk_store_us: f64,
}

/// Times the fingerprint, the memory tier and the disk tier (under
/// `scratch`) of `gpu_sim::cache`.
pub fn result_cache_probe(seed: u64, budget: f64, scratch: &Path) -> ResultCacheProbe {
    let cfg = GpuConfig::small();
    let workload = Workload::pair("BLK", "TRD");
    let inputs = FixedRunInputs {
        cfg: &cfg,
        apps: workload.apps(),
        core_split: None,
        seed,
        ccws: false,
    };
    let combo = TlpCombo::uniform(cfg.max_tlp(), 2);
    let spec = RunSpec::quick();
    let key_ns = ns_per_op(budget / 4.0, || {
        for _ in 0..1_000 {
            black_box(inputs.fingerprint(&combo, spec));
        }
        1_000
    });

    cache::set_dir(None);
    cache::clear_memory();
    let fp = inputs.fingerprint(&combo, spec);
    let payload = vec![0xA5u8; 1024];
    cache::get_or_compute(fp, || payload.clone());
    let mem_hit_ns = ns_per_op(budget / 4.0, || {
        for _ in 0..1_000 {
            black_box(cache::get_or_compute(fp, || {
                unreachable!("memory tier holds the key")
            }));
        }
        1_000
    });
    cache::clear_memory();

    let dir = scratch.join("probe-disk-cache");
    let store = cache::DiskStore::new(&dir);
    let mut keys = Vec::new();
    let mut n = 0u64;
    let disk_store_ns = ns_per_op(budget / 4.0, || {
        for _ in 0..64 {
            let mut key = cache::KeyBuilder::new("probe");
            key.push_u64(n);
            n += 1;
            let fp = key.finish();
            assert!(store.store(fp, &payload), "probe record was not written");
            keys.push(fp);
        }
        64
    });
    let mut at = 0usize;
    let disk_load_ns = ns_per_op(budget / 4.0, || {
        for _ in 0..64 {
            assert!(
                store.load(keys[at % keys.len()]).is_some(),
                "probe record vanished"
            );
            at += 1;
        }
        64
    });
    let _ = std::fs::remove_dir_all(&dir);
    ResultCacheProbe {
        key_ns,
        mem_hit_ns,
        disk_load_us: disk_load_ns / 1e3,
        disk_store_us: disk_store_ns / 1e3,
    }
}

/// Extra host microseconds one two-thread `par_map_with` costs over running
/// the same (trivial) items inline.
pub fn par_map_overhead_us(budget: f64) -> f64 {
    let items = || (0u64..64).collect::<Vec<_>>();
    let work = |x: u64| black_box(x.wrapping_mul(0x9E37_79B9));
    let inline = ns_per_op(budget / 2.0, || {
        black_box(exec::par_map_with(1, items(), work));
        1
    });
    let threaded = ns_per_op(budget / 2.0, || {
        black_box(exec::par_map_with(2, items(), work));
        1
    });
    (threaded - inline) / 1e3
}

// ------------------------------- core.sweep / eval / policy.pbs / search

/// One cold 64-combination sweep, serial and on two threads.
pub struct SweepProbe {
    /// Wall seconds of the cold sweep at the configured worker count.
    pub cold_s: f64,
    /// Combinations the sweep measured.
    pub combos: usize,
    /// One-thread time ÷ two-thread time.
    pub speedup_t2: f64,
    /// Host microseconds of one brute-force search over the finished sweep.
    pub bruteforce_us: f64,
    /// Whether the serial and the two-thread sweep agree on every sample.
    pub threads_agree: bool,
}

/// Sweeps BLK_TRD on the quick campaign machine.
pub fn sweep_probe(seed: u64, budget: f64) -> SweepProbe {
    let cfg = EvaluatorConfig::quick();
    let workload = Workload::pair("BLK", "TRD");
    let cold = |threads: usize| {
        cache::clear_memory();
        let t = Instant::now();
        let sweep =
            ComboSweep::measure_with_threads(&cfg.gpu, &workload, seed, cfg.sweep_spec, threads);
        (t.elapsed().as_secs_f64(), sweep)
    };
    let (t1, serial) = cold(1);
    let (t2, threaded) = cold(2);
    let (cold_s, sweep) = cold(exec::worker_count());
    let same = |a: &ComboSweep, b: &ComboSweep| {
        a.len() == b.len()
            && a.iter().all(|(combo, samples)| {
                b.get(combo).is_some_and(|other| {
                    samples.iter().zip(other).all(|(x, y)| {
                        x.ipc.to_bits() == y.ipc.to_bits() && x.eb.to_bits() == y.eb.to_bits()
                    })
                })
            })
    };
    let scaling = ScalingFactors::none(2);
    let bruteforce_ns = ns_per_op(budget, || {
        for _ in 0..100 {
            black_box(search::best_combo_by_eb(&sweep, EbObjective::Ws, &scaling));
        }
        100
    });
    cache::clear_memory();
    SweepProbe {
        cold_s,
        combos: sweep.len(),
        speedup_t2: t1 / t2,
        bruteforce_us: bruteforce_ns / 1e3,
        threads_agree: same(&serial, &threaded),
    }
}

/// Wall milliseconds to evaluate `scheme` on BLK_TRD with the alone
/// profiles and the sweep already in the evaluator's store.
pub fn scheme_ms(scheme: Scheme) -> f64 {
    let workload = Workload::pair("BLK", "TRD");
    cache::clear_memory();
    let ev = Evaluator::new(EvaluatorConfig::quick());
    black_box(ev.alone_ipcs(&workload));
    black_box(ev.sweep(&workload));
    let t = Instant::now();
    black_box(ev.evaluate(&workload, scheme));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    cache::clear_memory();
    ms
}

/// The four schemes whose evaluation cost is profiled, with metric suffixes.
pub const PROFILED_SCHEMES: [(&str, Scheme); 4] = [
    ("pbs_ws", Scheme::Pbs(EbObjective::Ws)),
    ("pbs_fi", Scheme::Pbs(EbObjective::Fi)),
    ("dyncta", Scheme::DynCta),
    ("modbypass", Scheme::ModBypass),
];

/// One online PBS-WS run.
pub struct PbsProbe {
    /// Host nanoseconds per `Pbs::on_window`.
    pub on_window_ns: f64,
    /// Combinations the last completed search probed.
    pub samples_per_search: usize,
    /// TLP changes applied over the run.
    pub tlp_changes: usize,
}

struct TimedPbs {
    inner: Pbs,
    ns: u128,
    calls: u64,
}

impl Controller for TimedPbs {
    fn on_window(&mut self, obs: &Observation) -> Decision {
        let t = Instant::now();
        let decision = self.inner.on_window(obs);
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
        decision
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn phase(&self) -> Option<&'static str> {
        self.inner.phase()
    }
}

/// Runs PBS-WS online on quick-machine BLK_TRD for the campaign's run length.
pub fn pbs_probe(seed: u64) -> PbsProbe {
    let cfg = EvaluatorConfig::quick();
    let workload = Workload::pair("BLK", "TRD");
    let mut gpu = Gpu::new(&cfg.gpu, workload.apps(), seed);
    let mut pbs = TimedPbs {
        inner: PbsRunSpec::paper(EbObjective::Ws, cfg.pbs_hold_windows).build(cfg.gpu.max_tlp()),
        ns: 0,
        calls: 0,
    };
    let run = run_controlled(&mut gpu, &mut pbs, cfg.run_cycles, cfg.measure_from);
    PbsProbe {
        on_window_ns: pbs.ns as f64 / pbs.calls.max(1) as f64,
        samples_per_search: pbs.inner.samples_last_search(),
        tlp_changes: run.tlp_trace.len().saturating_sub(1),
    }
}

// ------------------------------- bench.campaign / figures / trace_tools

/// What one in-process scheduled campaign (cold, then warm from disk) did.
pub struct CampaignProfile {
    /// `campaign::plan` wall time, milliseconds.
    pub plan_ms: f64,
    /// Distinct units in the graph.
    pub units_planned: usize,
    /// Unit demands before deduplication.
    pub units_requested: usize,
    /// Scheduler statistics of the cold run.
    pub cold: campaign::CampaignStats,
    /// Wall seconds of the cold run.
    pub run_s: f64,
    /// Simulated kilocycles of the cold run.
    pub sim_kcycles: f64,
    /// Wall seconds of the warm rerun, planning included.
    pub warm_run_s: f64,
    /// Simulated kilocycles of the warm rerun (results all cached).
    pub warm_resim_kcycles: f64,
    /// Directory the cold run's artifacts were saved in.
    pub artifacts: PathBuf,
    /// Result-cache counters over the cold run.
    pub cold_cache: cache::CacheStats,
    /// Result-cache counters over the warm rerun.
    pub warm_cache: cache::CacheStats,
    /// Bytes under the cache directory after the cold run.
    pub dir_bytes: u64,
    /// Milliseconds spent rendering every artifact from the warm evaluator.
    pub render_ms_total: f64,
    /// Milliseconds spent saving artifacts in the cold run's emit callback.
    pub save_ms: f64,
    /// Milliseconds to collect and write `PROFILE.json`.
    pub profile_write_ms: f64,
    /// Path of the JSONL trace the cold run wrote.
    pub trace: PathBuf,
    /// Whether the warm rerun rendered the same bytes as the cold run.
    pub warm_equals_cold: bool,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

fn render(id: &str, ev: &Evaluator, workloads: &[Workload]) -> Option<Report> {
    Some(match id {
        "tab04" => figures::tab04(ev),
        "fig01" => figures::fig01(ev),
        "fig02" => figures::fig02(ev),
        "fig03" => figures::fig03(ev),
        "fig04" => figures::fig04(ev),
        "fig05" => figures::fig05(ev),
        "fig06" => figures::fig06(ev),
        "fig07" => figures::fig07(ev),
        "fig08" => figures::fig08(),
        "fig09" => figures::fig09(ev, workloads),
        "fig10" => figures::fig10(ev, workloads),
        "hs" => figures::hs_results(ev, workloads),
        "fig11" => figures::fig11(ev),
        "sens_part" => figures::sens_part(ev),
        "ablation" => figures::ablation(ev),
        "phased" => figures::phased(ev),
        "sampling" => figures::sampling(ev),
        "sched" => figures::sched(ev),
        "ccws" => figures::ccws(ev),
        "dram_policy" => figures::dram_policy(ev),
        "threeapp" => figures::threeapp(ev),
        _ => return None,
    })
}

/// Plans and runs the quick campaign restricted to `only` (`None` = all of
/// it) under `scratch`: cold with an empty cache directory, then warm with
/// the memory tier dropped so every result comes back from disk.
pub fn campaign_profile(
    rec: &mut Recorder,
    only: Option<&[&str]>,
    scratch: &Path,
) -> CampaignProfile {
    let out = scratch.join("campaign-out");
    let cache_dir = scratch.join("campaign-cache");
    for dir in [&out, &cache_dir] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("scratch directory is writable");
    }
    let trace = scratch.join("campaign-trace.jsonl");
    let args = BenchArgs {
        quick: true,
        only: only.map(|ids| ids.iter().map(|s| s.to_string()).collect()),
        out: Some(out.clone()),
        cache_dir: Some(cache_dir.clone()),
        ..BenchArgs::default()
    };
    cache::set_enabled(true);
    args.apply_settings();
    cache::clear_memory();
    cache::reset_stats();
    black_box(profiler::take_spans());

    let mut save_ms = 0.0;
    let mut cold_text = Vec::new();
    let ev = rec.scope("core.eval/Evaluator::new", |_| {
        Evaluator::new(args.evaluator_config())
    });
    let t = Instant::now();
    let plan = rec.scope("bench.campaign/plan", |_| {
        campaign::plan_with_costs(&args, &ev, CostModel::empty())
    });
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let (units_planned, units_requested) = (plan.planned(), plan.requested());
    let cycles0 = gpu_sim::metrics::cycles_simulated();
    let mut sink = JsonlSink::create(&trace).expect("scratch directory is writable");
    let t = Instant::now();
    let cold = rec.scope("bench.campaign/run_cold", |rec| {
        let root = profiler::span("campaign", "benchmark");
        campaign::emit_plan(&plan, &mut sink);
        let stats = campaign::run(plan, &ev, &mut sink, &mut |report| {
            rec.scope("bench.figures/save", |_| {
                let t = Instant::now();
                let text = report.render();
                std::fs::write(out.join(format!("{}.txt", report.id())), &text)
                    .expect("scratch directory is writable");
                cold_text.push(text);
                save_ms += t.elapsed().as_secs_f64() * 1e3;
            })
        });
        drop(root);
        stats
    });
    let run_s = t.elapsed().as_secs_f64();
    let sim_kcycles = (gpu_sim::metrics::cycles_simulated() - cycles0) as f64 / 1e3;
    let cold_cache = cache::stats();
    let t = Instant::now();
    rec.scope("bench.profiler/write_profile", |_| {
        let spans = profiler::take_spans();
        profiler::emit_spans(&mut sink, &spans);
        cache::emit_stats(&mut sink);
        sink.flush();
        profiler::write_profile(&out.join("PROFILE.json"), &spans)
            .expect("scratch directory is writable");
    });
    let profile_write_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(sink);

    // Warm: a new evaluator and an empty memory tier, as a new process
    // would have; the disk tier answers.
    cache::clear_memory();
    cache::reset_stats();
    let cycles0 = gpu_sim::metrics::cycles_simulated();
    let mut warm_text = Vec::new();
    let warm_ev = Evaluator::new(args.evaluator_config());
    let t = Instant::now();
    rec.scope("bench.campaign/run_warm", |_| {
        let plan = campaign::plan_with_costs(&args, &warm_ev, CostModel::empty());
        campaign::run(plan, &warm_ev, &mut NullSink, &mut |report| {
            warm_text.push(report.render())
        });
    });
    let warm_run_s = t.elapsed().as_secs_f64();
    let warm_resim_kcycles = (gpu_sim::metrics::cycles_simulated() - cycles0) as f64 / 1e3;
    let warm_cache = cache::stats();

    let workloads = all_workloads();
    let t = Instant::now();
    rec.scope("bench.figures/render_all", |rec| {
        for id in campaign::ARTIFACTS.iter().filter(|id| args.wants(id)) {
            rec.scope(&format!("bench.figures/render/{id}"), |_| {
                black_box(render(id, &warm_ev, &workloads));
            });
        }
    });
    let render_ms_total = t.elapsed().as_secs_f64() * 1e3;

    let bytes = dir_bytes(&cache_dir);
    cache::set_dir(None);
    cache::clear_memory();
    ebm_bench::set_out_dir(None);
    CampaignProfile {
        plan_ms,
        units_planned,
        units_requested,
        cold,
        run_s,
        sim_kcycles,
        warm_run_s,
        warm_resim_kcycles,
        artifacts: out,
        cold_cache,
        warm_cache,
        dir_bytes: bytes,
        render_ms_total,
        save_ms,
        profile_write_ms,
        trace,
        warm_equals_cold: warm_text == cold_text,
    }
}

/// Megabytes per second `ebm_bench::json` parses the lines of `trace` at,
/// and the size of the trace in MiB.
pub fn json_parse_probe(trace: &Path, budget: f64) -> (f64, f64) {
    let text = std::fs::read_to_string(trace).expect("the campaign wrote its trace");
    let mib = text.len() as f64 / (1024.0 * 1024.0);
    let ns_per_byte = ns_per_op(budget, || {
        for line in text.lines() {
            black_box(ebm_bench::json::parse(line).expect("the emitter writes valid JSON"));
        }
        text.len() as u64
    });
    (1e9 / ns_per_byte / (1024.0 * 1024.0), mib)
}

// ------------------------------------------------------------- code size

/// Non-blank, non-comment lines of `crates/<name>/src/**/*.rs` up to each
/// file's `#[cfg(test)]` module, plus the number of binary targets there.
pub fn code_lines(root: &Path, krate: &str) -> (u64, u64) {
    fn walk(dir: &Path, lines: &mut u64, bins: &mut u64, in_bin: bool) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let is_bin = path.file_name().is_some_and(|n| n == "bin");
                walk(&path, lines, bins, in_bin || is_bin);
            } else if path.extension().is_some_and(|e| e == "rs") {
                *bins += in_bin as u64;
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                *lines += text
                    .lines()
                    .take_while(|l| !l.starts_with("#[cfg(test)]"))
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with("//"))
                    .count() as u64;
            }
        }
    }
    let (mut lines, mut bins) = (0, 0);
    walk(
        &root.join("crates").join(krate).join("src"),
        &mut lines,
        &mut bins,
        false,
    );
    (lines, bins)
}
