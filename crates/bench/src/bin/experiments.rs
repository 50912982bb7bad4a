//! Runs the evaluation campaign: every figure and table, sharing one
//! memoizing evaluator, writing each report to `results/<id>.txt`.
//!
//! The campaign is compiled into a fingerprint-deduplicated work graph
//! ([`ebm_bench::campaign::plan`], a function of the flags alone). By
//! default the scheduler executes it over the `EBM_THREADS`-wide worker
//! pool, longest static estimate first, rendering each artifact — in
//! artifact order — as soon as its measurements finish. `--serial` walks
//! the same plan figure by figure instead, executing no unit (also forced
//! by `--no-cache`: the scheduler hands results to the renders through
//! the result-cache tiers); the two are byte-identical.
//!
//! The full paper campaign's cost is recorded in `EXPERIMENTS.md`;
//! `--quick` runs the scaled-down test machine in seconds, `--only
//! fig09,fig11` restricts the run to the listed artifacts (the plan holds
//! only the sub-graph those artifacts reach; this is how a single figure
//! is regenerated), and `--trace out.jsonl` streams the trace-enabled
//! artifacts' structured events to a JSONL file (schema:
//! `docs/TRACE_SCHEMA.md`).
//!
//! The campaign profiles itself: every artifact runs inside a
//! [`ebm_bench::profiler`] span, and the finished span tree — wall time,
//! simulated cycles, result-cache hits/misses, worker width per phase — is
//! written to `results/PROFILE.json` and, when tracing, appended to the
//! trace as `profile_span` events; a traced scheduled run records each
//! work unit once, as a `sched_unit` event. Nothing reads `PROFILE.json`
//! back. A trace write that fails (a full disk) is reported after the
//! artifacts are saved, and the run exits with status 1.

use ebm_bench::{campaign, log, profiler, run_and_save, BenchArgs};
use ebm_core::eval::Evaluator;
use gpu_sim::trace::{NullSink, TraceSink};

fn main() {
    ebm_bench::logging::pin_epoch();
    let args = BenchArgs::parse();
    args.apply_settings();
    let t0 = std::time::Instant::now();
    let ev = Evaluator::new(args.evaluator_config());
    let mut jsonl = args.open_trace();
    let mut null = NullSink;
    let trace: &mut dyn TraceSink = match jsonl.as_mut() {
        Some(sink) => sink,
        None => &mut null,
    };

    let root = profiler::span("campaign", "experiments");
    let plan = campaign::plan(&args, &ev);
    if args.serial || args.no_cache {
        campaign::run_serial(plan, &ev, trace, &mut run_and_save);
    } else {
        campaign::run(plan, &ev, trace, &mut run_and_save);
    }
    drop(root);

    let spans = profiler::take_spans();
    profiler::emit_spans(trace, &spans);
    gpu_sim::cache::emit_stats(trace);
    trace.flush();

    let profile_path = ebm_bench::out_path("PROFILE.json");
    match profiler::write_profile(&profile_path, &spans) {
        Ok(()) => log!("profile: wrote {}", profile_path.display()),
        Err(e) => eprintln!("error: cannot write {}: {e}", profile_path.display()),
    }

    let stats = gpu_sim::cache::stats();
    log!(
        "cache: {} hits ({} disk), {} misses, {} bypasses, {} stores, \
         {} verified, hit rate {:.3}",
        stats.hits,
        stats.disk_hits,
        stats.misses,
        stats.bypasses,
        stats.stores,
        stats.verified,
        stats.hit_rate()
    );
    log!("campaign completed in {:?}", t0.elapsed());

    // The artifacts are saved; a trace that lost lines still fails the run.
    if let Some(sink) = &jsonl {
        if let Some(e) = sink.error() {
            eprintln!("error: cannot write trace {}: {e}", sink.path().display());
            std::process::exit(1);
        }
    }
}
