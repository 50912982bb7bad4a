//! `ebm-layers`: the traced, per-layer half of the benchmark.
//!
//! One run profiles the workload it is given — a co-run's machine, or the
//! quick campaign — with a span around every call into a layer, then runs
//! the isolated probes of every layer, and reports every `per_layer` metric
//! of `BENCHMARK.json`. A metric the workload itself does not exercise is
//! measured on its fixed reference input (README.md, "Per-layer metrics"):
//! the campaign's machine is `small-membound`'s; a co-run's campaign is a
//! three-artifact sub-campaign.
//!
//! All knowledge of `crates/*` is in `adapter.rs`.
//!
//! ```text
//! ebm-layers --workload <name> --seed <n> --seconds <s> --root <checkout> --bin-dir <dir> [--smoke]
//! ```

mod adapter;

use adapter::PROFILED_SCHEMES;
use ebm_benchmark::cli::{self, Args, CoRun, Machine, CAMPAIGN, CORUNS};
use ebm_benchmark::golden;
use ebm_benchmark::report::{Kind, Metric, RunResult};
use ebm_benchmark::span::{self, Recorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator with a heap-operation counter, for
/// `machine.allocs_per_kcycle`.
struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a side effect that
// publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        let scratch = args
            .out_dir()
            .join(format!("layers-{}", std::process::id()));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        let result = profile(&args, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        cli::finish(&args, &result?)
    });
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("ebm-layers: {msg}");
            std::process::exit(2);
        }
    }
}

/// Collects metrics under their declared names.
struct Sheet(Vec<Metric>);

impl Sheet {
    fn measured(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push(Metric::new(name, value, unit, Kind::Measured));
    }

    fn exact(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push(Metric::new(name, value, unit, Kind::Exact));
    }

    /// A metric that needs two host cores: its value where there are two,
    /// `unmeasured` (never a speed-up below one) where there are not.
    fn needs_two_cores(&mut self, name: &str, value: f64, unit: &str, kind: Kind) {
        let kind = if cli::nproc() >= 2 {
            kind
        } else {
            Kind::Unmeasured
        };
        let value = if kind == Kind::Unmeasured { 0.0 } else { value };
        self.0.push(Metric::new(name, value, unit, kind));
    }
}

/// The `column`-th value of the "Gmean (all)" row of a scheme figure.
fn gmean_all(artifacts: &Path, file: &str, column: usize) -> Option<f64> {
    let text = std::fs::read_to_string(artifacts.join(file)).ok()?;
    let row = text.lines().find_map(|l| l.strip_prefix("Gmean (all)"))?;
    row.split_whitespace().nth(column)?.parse().ok()
}

/// Runs `tool <verb> <trace>` and returns its wall seconds and success.
fn trace_tool(bin_dir: &Path, verb: &str, trace: &Path) -> Result<(f64, bool, String), String> {
    let exe = bin_dir.join("trace-tools");
    let t = Instant::now();
    let out = Command::new(&exe)
        .arg(verb)
        .arg(trace)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    Ok((
        t.elapsed().as_secs_f64(),
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).trim().to_owned(),
    ))
}

fn profile(args: &Args, scratch: &Path) -> Result<RunResult, String> {
    // One process, at most min(nproc, 2) load threads.
    std::env::set_var("EBM_THREADS", cli::nproc().min(2).to_string());
    for var in [
        "EBM_SIM_THREADS",
        "EBM_CACHE",
        "EBM_CACHE_DIR",
        "EBM_CACHE_VERIFY",
    ] {
        std::env::remove_var(var);
    }
    let seed = args.seed;
    // Budget of one isolated timing probe; everything scales with --seconds.
    let unit = args.seconds / 100.0;
    let mut result = args.new_result(true);
    let mut sheet = Sheet(Vec::new());
    let mut rec = Recorder::new(true);
    rec.set_run(1);
    let heap_ops = || HEAP_OPS.load(Ordering::Relaxed);

    // The machine this run profiles: the co-run's own, or the campaign's.
    let machine_of: CoRun = cli::corun(&args.workload).unwrap_or(CORUNS[0]);
    let own_machine = args.workload != CAMPAIGN;
    let (small, volta) = (
        adapter::config(Machine::Small),
        adapter::config(Machine::Volta),
    );

    rec.scope(&args.workload.clone(), |rec| -> Result<(), String> {
        // ---- sim.machine on the workload's machine
        let share = if own_machine { 0.25 } else { 0.1 };
        let slice_s = 0.04;
        let n_slices = ((args.seconds * share / slice_s) as usize).max(4);
        let mp = rec.scope("sim.machine", |rec| {
            adapter::machine_profile(rec, machine_of, seed, n_slices, heap_ops)
        });
        let s = mp.stats;
        let slots = |stepped: u64, skipped: u64| (stepped + skipped).max(1) as f64;
        sheet.exact(
            "machine.core_steps_per_kcycle",
            s.core_steps as f64 / mp.kcycles,
            "count/kcycle",
        );
        sheet.exact(
            "machine.partition_steps_per_kcycle",
            s.partition_steps as f64 / mp.kcycles,
            "count/kcycle",
        );
        sheet.exact(
            "machine.xbar_steps_per_kcycle",
            s.xbar_steps as f64 / mp.kcycles,
            "count/kcycle",
        );
        sheet.exact(
            "machine.stepped_cycle_share",
            s.stepped as f64 / slots(s.stepped, s.fast_forwarded),
            "share",
        );
        let stepped = s.core_steps + s.partition_steps + s.xbar_steps;
        let skipped = s.core_steps_skipped + s.partition_steps_skipped + s.xbar_steps_skipped;
        sheet.exact(
            "machine.idle_skip_share",
            skipped as f64 / slots(stepped, skipped),
            "share",
        );
        sheet.exact(
            "machine.allocs_per_kcycle",
            mp.allocs as f64 / mp.kcycles,
            "count/kcycle",
        );
        sheet.measured(
            "machine.host_ns_per_component_step",
            mp.slice_ns_untraced / mp.steps_per_slice,
            "ns",
        );
        sheet.measured("machine.new_ms", mp.new_ms, "ms");
        sheet.exact("mem.cache.hit_share", mp.l1_hit_share, "share");
        sheet.measured(
            "bench.trace_overhead_pct",
            100.0 * (mp.slice_ns_traced - mp.slice_ns_untraced) / mp.slice_ns_untraced,
            "pct",
        );
        sheet.measured(
            "machine.single_step_kcps",
            rec.scope("sim.machine/step_loop", |_| {
                adapter::single_step_kcps(machine_of, seed, unit)
            }),
            "kcycles/s",
        );
        sheet.measured(
            "machine.paper_kcps",
            rec.scope("sim.machine/paper", |_| {
                adapter::paper_kcps(seed, 3.0 * unit)
            }),
            "kcycles/s",
        );

        // ---- simt.core, workloads.stream
        let simt = rec.scope("simt.core/probes", |_| {
            [
                (&small, "LUD"),
                (&small, "TRD"),
                (&volta, "LUD"),
                (&volta, "TRD"),
            ]
            .map(|(cfg, app)| adapter::simt_probe(cfg, app, seed, unit))
        });
        for (probe, name) in
            simt.iter()
                .zip(["small_compute", "small_mem", "volta_compute", "volta_mem"])
        {
            sheet.measured(&format!("simt.step_ns_{name}"), probe.step_ns, "ns");
        }
        sheet.measured("simt.insts_per_step", simt[0].insts_per_step, "insts/step");
        sheet.measured(
            "stream.ns_per_inst",
            rec.scope("workloads.stream/probe", |_| {
                adapter::stream_ns_per_inst("BLK", seed, unit)
            }),
            "ns",
        );

        // ---- mem.cache / mem.xbar / mem.partition / mem.dram
        let cache = rec.scope("mem.cache/probe", |_| adapter::cache_probe(&small, unit));
        sheet.measured("mem.cache.ns_per_hit", cache.ns_per_hit, "ns");
        sheet.measured("mem.cache.ns_per_miss_fill", cache.ns_per_miss_fill, "ns");
        let xbar = rec.scope("mem.xbar/probes", |_| {
            [&small, &volta].map(|cfg| adapter::xbar_probe(cfg, seed, unit))
        });
        sheet.measured("mem.xbar.ns_per_flit_small", xbar[0].ns_per_flit, "ns");
        sheet.measured("mem.xbar.ns_per_flit_volta", xbar[1].ns_per_flit, "ns");
        sheet.measured("mem.xbar.ns_per_idle_step", xbar[0].ns_per_idle_step, "ns");
        let part = rec.scope("mem.partition/probes", |_| {
            [&small, &volta].map(|cfg| adapter::partition_probe(cfg, seed, unit))
        });
        sheet.measured(
            "mem.partition.ns_per_req_stream",
            part[0].ns_per_req_stream,
            "ns",
        );
        sheet.measured(
            "mem.partition.ns_per_req_random",
            part[0].ns_per_req_random,
            "ns",
        );
        sheet.measured(
            "mem.partition.row_hit_share",
            part[0].row_hit_share,
            "share",
        );
        sheet.measured(
            "mem.partition.ns_per_idle_step",
            part[0].ns_per_idle_step,
            "ns",
        );
        sheet.measured(
            "mem.dram.ns_per_service",
            rec.scope("mem.dram/probe", |_| {
                adapter::dram_ns_per_service(&small, unit)
            }),
            "ns",
        );

        // ---- the share model: steps × isolated ns per step ÷ host time
        let is_volta = machine_of.machine == Machine::Volta;
        let is_compute = machine_of.apps == ["LUD", "NW"];
        let simt_step_ns = simt[2 * is_volta as usize + !is_compute as usize].step_ns;
        let host_ns = mp.slice_ns_untraced * mp.kcycles * 1e3 / machine_of.slice_cycles as f64;
        let simt_share = s.core_steps as f64 * simt_step_ns / host_ns;
        let part_share =
            s.partition_steps as f64 * part[is_volta as usize].ns_per_step_stream / host_ns;
        let xbar_share = s.xbar_steps as f64 * xbar[is_volta as usize].ns_per_step / host_ns;
        sheet.measured("simt.est_share", simt_share, "share");
        sheet.measured("mem.partition.est_share", part_share, "share");
        sheet.measured("mem.xbar.est_share", xbar_share, "share");
        sheet.measured(
            "machine.residual_share",
            1.0 - simt_share - part_share - xbar_share,
            "share",
        );

        // ---- sim.timeq
        let timeq = rec.scope("sim.timeq/probes", |_| {
            [&small, &volta].map(|cfg| adapter::timeq_ns_per_event(cfg, seed, unit))
        });
        sheet.measured("timeq.ns_per_event_small", timeq[0], "ns");
        sheet.measured("timeq.ns_per_event_volta", timeq[1], "ns");

        // ---- sim.domain (volta-busy at two workers)
        let volta_busy = CORUNS[2];
        let cycles = ((args.seconds * 0.02 * 25_000.0) as u64).clamp(500, 10_000);
        let d = rec.scope("sim.domain/probe", |_| {
            adapter::domain_probe(volta_busy, seed, cycles)
        });
        sheet.needs_two_cores("domain.kcps_t2", d.kcps_t2, "kcycles/s", Kind::Measured);
        sheet.needs_two_cores("domain.speedup_t2", d.speedup_t2, "ratio", Kind::Measured);
        sheet.needs_two_cores(
            "domain.sync_points_per_kcycle",
            d.stats.sync_points as f64 / d.kcycles,
            "count/kcycle",
            Kind::Exact,
        );
        sheet.needs_two_cores(
            "domain.mean_window_cycles",
            d.stats.mean_window_cycles(),
            "cycles",
            Kind::Exact,
        );
        sheet.needs_two_cores(
            "domain.barrier_waits_per_kcycle",
            d.stats.barrier_waits as f64 / d.kcycles,
            "count/kcycle",
            Kind::Exact,
        );
        result.check(
            "two_thread_end_state_equals_one_thread",
            d.same_end_state,
            || {
                format!(
                    "{} cycles of {} differ between 1 and 2 sim threads",
                    cycles, volta_busy.name
                )
            },
        );

        // ---- sim.harness / sim.alone / sim.trace / sim.metrics
        let cycles = ((args.seconds * 0.005 * 2_000_000.0) as u64).clamp(20_000, 200_000);
        let h = rec.scope("sim.harness/probe", |_| {
            adapter::harness_probe(seed, cycles, 3, scratch)
        });
        sheet.measured(
            "harness.controlled_overhead_pct",
            h.controlled_overhead_pct,
            "pct",
        );
        sheet.measured("harness.window_snapshot_us", h.window_snapshot_us, "us");
        sheet.measured("trace.jsonl_ns_per_event", h.jsonl_ns_per_event, "ns");
        sheet.measured(
            "trace.traced_run_overhead_pct",
            h.traced_run_overhead_pct,
            "pct",
        );
        sheet.measured("metrics.on_overhead_pct", h.metrics_on_overhead_pct, "pct");
        sheet.measured(
            "alone.profile_s",
            rec.scope("sim.alone/profile_alone", |_| {
                adapter::alone_profile_s(seed)
            }),
            "s",
        );

        // ---- sim.cache probes / sim.exec
        let rc = rec.scope("sim.cache/probes", |_| {
            adapter::result_cache_probe(seed, 2.0 * unit, scratch)
        });
        sheet.measured("cache.key_ns", rc.key_ns, "ns");
        sheet.measured("cache.mem_hit_ns", rc.mem_hit_ns, "ns");
        sheet.measured("cache.disk_load_us", rc.disk_load_us, "us");
        sheet.measured("cache.disk_store_us", rc.disk_store_us, "us");
        sheet.measured(
            "exec.par_map_overhead_us",
            rec.scope("sim.exec/par_map", |_| adapter::par_map_overhead_us(unit)),
            "us",
        );

        // ---- core.sweep / core.search / core.eval / core.policy.pbs
        let sw = rec.scope("core.sweep/measure", |_| {
            adapter::sweep_probe(seed, unit / 2.0)
        });
        sheet.measured("sweep.cold_s", sw.cold_s, "s");
        sheet.exact("sweep.combos", sw.combos as f64, "count");
        sheet.needs_two_cores(
            "exec.sweep_speedup_t2",
            sw.speedup_t2,
            "ratio",
            Kind::Measured,
        );
        sheet.measured("search.bruteforce_us", sw.bruteforce_us, "us");
        result.check("two_thread_sweep_equals_serial", sw.threads_agree, || {
            "ComboSweep differs between 1 and 2 threads".to_owned()
        });
        for (suffix, scheme) in PROFILED_SCHEMES {
            let ms = rec.scope(&format!("core.eval/evaluate/{suffix}"), |_| {
                adapter::scheme_ms(scheme)
            });
            sheet.measured(&format!("eval.scheme_ms_{suffix}"), ms, "ms");
        }
        let pbs = rec.scope("core.policy.pbs/run", |_| adapter::pbs_probe(seed));
        sheet.measured("pbs.on_window_ns", pbs.on_window_ns, "ns");
        sheet.exact(
            "pbs.samples_per_search",
            pbs.samples_per_search as f64,
            "count",
        );
        sheet.exact("pbs.tlp_changes_per_run", pbs.tlp_changes as f64, "count");

        // ---- bench.campaign / figures / profiler / trace_tools / json
        // The campaign workload profiles the whole `--quick` campaign; a
        // co-run (and any smoke run) reports the reference sub-campaign.
        let only = (own_machine || args.smoke).then_some(&cli::MINI_CAMPAIGN[..]);
        let c = rec.scope("bench.campaign", |rec| {
            adapter::campaign_profile(rec, only, scratch)
        });
        if only.is_none() {
            golden::check_or_bless(
                &mut result,
                args,
                "full",
                &golden::digest_dir(&c.artifacts)?,
            )?;
            // The paper's two headline results as this model reproduces them
            // (PBS-WS and PBS-FI over all 25 workloads, normalised to
            // ++bestTLP). Not declared metrics — the artifact digests pin
            // them — but carried in the result file so `compare` shows them.
            for (name, file) in [
                ("campaign.pbs_ws_norm", "fig09.txt"),
                ("campaign.pbs_fi_norm", "fig10.txt"),
            ] {
                let value = gmean_all(&c.artifacts, file, 2)
                    .ok_or_else(|| format!("no `Gmean (all)` row in {file}"))?;
                sheet.exact(name, value, "ratio");
            }
        }
        sheet.measured("campaign.warm_run_s", c.warm_run_s, "s");
        sheet.measured("campaign.plan_ms", c.plan_ms, "ms");
        sheet.exact("campaign.units_planned", c.units_planned as f64, "count");
        sheet.exact(
            "campaign.units_requested",
            c.units_requested as f64,
            "count",
        );
        sheet.exact("campaign.dedup_share", c.cold.dedup_ratio(), "share");
        sheet.measured("campaign.utilization", c.cold.utilization(), "share");
        sheet.measured("campaign.peak_ready", c.cold.peak_ready as f64, "count");
        sheet.measured("campaign.run_s", c.run_s, "s");
        sheet.exact("campaign.sim_kcycles", c.sim_kcycles, "kcycles");
        sheet.measured("campaign.agg_kcps", c.sim_kcycles / c.run_s, "kcycles/s");
        sheet.exact(
            "campaign.warm_resim_kcycles",
            c.warm_resim_kcycles,
            "kcycles",
        );
        sheet.exact("cache.hits", c.cold_cache.hits as f64, "count");
        sheet.exact("cache.disk_hits", c.warm_cache.disk_hits as f64, "count");
        sheet.exact("cache.misses", c.cold_cache.misses as f64, "count");
        sheet.exact("cache.stores", c.cold_cache.stores as f64, "count");
        sheet.measured(
            "cache.inflight_joined",
            c.cold_cache.inflight_joined as f64,
            "count",
        );
        sheet.exact("cache.hit_share_warm", c.warm_cache.hit_rate(), "share");
        sheet.exact("cache.dir_bytes", c.dir_bytes as f64, "bytes");
        sheet.measured("figures.render_ms_total", c.render_ms_total, "ms");
        sheet.measured("figures.save_ms", c.save_ms, "ms");
        sheet.measured("profiler.write_ms", c.profile_write_ms, "ms");
        result.check(
            "warm_campaign_renders_equal_cold",
            c.warm_equals_cold,
            || "in-process warm rerun rendered different artifact text".to_owned(),
        );
        let (validate_s, valid, why) = rec.scope("bench.trace_tools/validate", |_| {
            trace_tool(&args.bin_dir, "validate", &c.trace)
        })?;
        result.check("trace_tools_validate", valid, || why);
        let (report_s, reported, why) = rec.scope("bench.trace_tools/report", |_| {
            trace_tool(&args.bin_dir, "report", &c.trace)
        })?;
        result.check("trace_tools_report", reported, || why);
        sheet.measured("tracetools.validate_s", validate_s, "s");
        sheet.measured("tracetools.report_s", report_s, "s");
        let (parse_rate, trace_mib) = rec.scope("bench.json/parse", |_| {
            adapter::json_parse_probe(&c.trace, unit)
        });
        // Not exact: the trace carries wall times, whose digit count varies.
        sheet.measured("tracetools.trace_mib", trace_mib, "MiB");
        sheet.measured("json.parse_mib_per_s", parse_rate, "MiB/s");
        Ok(())
    })?;

    // ---- code size and the harness itself
    let (mut total, mut bins) = (0, 0);
    for krate in ["types", "mem", "simt", "workloads", "sim", "core", "bench"] {
        let (lines, b) = adapter::code_lines(&args.root, krate);
        sheet.exact(&format!("code_lines.{krate}"), lines as f64, "lines");
        total += lines;
        bins += b;
    }
    sheet.exact("code_lines.total", total as f64, "lines");
    sheet.exact("code.bins", bins as f64, "count");
    let compile_s = std::env::var("EBM_BENCH_COMPILE_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    sheet.measured("build.compile_s", compile_s, "s");
    sheet.exact("bench.spans", rec.spans().len() as f64, "count");
    sheet.exact("bench.host_parallelism", cli::nproc() as f64, "count");

    let shares: f64 = [
        "simt.est_share",
        "mem.partition.est_share",
        "mem.xbar.est_share",
        "machine.residual_share",
    ]
    .iter()
    .filter_map(|n| sheet.0.iter().find(|m| m.name == *n))
    .map(|m| m.value)
    .sum();
    result.check(
        "layer_shares_sum_to_one",
        (shares - 1.0).abs() < 1e-9,
        || format!("sum {shares}"),
    );

    // ---- the trace itself
    let pid = 1 + CORUNS
        .iter()
        .position(|w| w.name == args.workload)
        .unwrap_or(CORUNS.len()) as u32;
    let trace_path = args.out_dir().join(format!("{}.trace.json", args.workload));
    std::fs::write(
        &trace_path,
        span::chrome_trace(rec.spans(), pid, &args.workload),
    )
    .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "# self-time table ({} spans, {})",
        rec.spans().len(),
        trace_path.display()
    );
    print!(
        "{}",
        span::render_self_time_table(&span::self_time_table(rec.spans()))
    );

    result.metrics = sheet.0;
    Ok(result)
}
