//! Disk-warm reruns of a scheduled campaign: every lookup a hit counted
//! once, nothing simulated, the same reports — and, cold, every simulated
//! cycle inside exactly one unit's `sched_unit` record. A test binary of
//! its own: the result cache's counters, the profiler and the cycle
//! counter are process-global, so the tests here take turns and every
//! lookup they see is their own.

use ebm_bench::campaign::{self, CampaignStats};
use ebm_bench::figures;
use ebm_bench::profiler::{self, SpanRecord};
use ebm_bench::util::BenchArgs;
use ebm_core::eval::{Evaluator, EvaluatorConfig};
use gpu_sim::cache;
use gpu_sim::trace::{NullSink, RingSink, TraceEvent, TraceSink};
use std::path::PathBuf;
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

/// What one scheduled run of the quick campaign left behind.
struct Run {
    stats: CampaignStats,
    /// The campaign-level span around the run.
    root: SpanRecord,
    /// `(artifact id, rendered report)` in emission order.
    reports: Vec<(String, String)>,
}

/// Plans and runs `only` (`None` = all 21 artifacts) on a fresh quick
/// evaluator, untraced, inside a `campaign` span of its own.
fn run(only: Option<&[&str]>) -> Run {
    run_traced(only, &mut NullSink)
}

/// [`run`] with the campaign's trace going to `sink`.
fn run_traced(only: Option<&[&str]>, sink: &mut dyn TraceSink) -> Run {
    let args = BenchArgs {
        quick: true,
        only: only.map(|ids| ids.iter().map(|s| s.to_string()).collect()),
        ..BenchArgs::default()
    };
    let ev = Evaluator::new(EvaluatorConfig::quick());
    let plan = campaign::plan(&args, &ev);
    let _ = profiler::take_spans();
    let mut reports = Vec::new();
    let root = profiler::span("campaign", "test");
    let stats = campaign::run(plan, &ev, sink, &mut |r| {
        reports.push((r.id().to_owned(), r.render()))
    });
    drop(root);
    Run {
        stats,
        root: profiler::take_spans()[0].clone(),
        reports,
    }
}

/// Runs `body` with the disk tier in a fresh directory (artifact CSVs go
/// there too), both tiers empty, on a two-worker pool.
fn with_cache_dir(tag: &str, body: impl FnOnce()) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ebm_campaign_warm_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("EBM_THREADS", "2");
    ebm_bench::set_out_dir(Some(dir.clone()));
    cache::set_enabled(true);
    cache::set_dir(Some(dir.clone()));
    cache::clear_memory();
    body();
    cache::set_dir(None);
    ebm_bench::set_out_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_warm_rerun_counts_each_hit_once() {
    with_cache_dir("hits", || {
        // tab04 and fig05 demand the same 26 alone profiles: one unit each,
        // and every render's read of one is a repeat read.
        let only = ["tab04", "fig05"];
        let before = cache::stats();
        let cold = run(Some(&only));
        let after = cache::stats();
        let (planned, requested) = (cold.stats.planned as u64, cold.stats.requested as u64);
        assert_eq!(after.misses - before.misses, planned, "one miss per record");
        assert_eq!(after.disk_hits - before.disk_hits, 0);
        assert_eq!(cold.stats.cache_hits, requested, "the renders read memory");

        // Only the disk tier survives: each record is loaded from disk at
        // most once — by its unit — and every repeat read is a memory hit.
        // The cache counts both under `hits`, the loads also under
        // `disk_hits`.
        cache::clear_memory();
        let before = cache::stats();
        let warm = run(Some(&only));
        let after = cache::stats();

        assert_eq!(after.misses - before.misses, 0);
        assert_eq!(warm.stats.cache_hits, after.hits - before.hits);
        let disk_hits = after.disk_hits - before.disk_hits;
        assert_eq!(
            (disk_hits, warm.stats.cache_hits - disk_hits),
            (planned, requested),
            "(disk loads, memory hits)"
        );
        // The profiler's spans tell the same story as the `sched:` line.
        assert_eq!(warm.root.cache_hits, warm.stats.cache_hits);
    });
}

#[test]
fn every_cycle_sits_in_one_unit_and_a_warm_campaign_simulates_nothing() {
    with_cache_dir("all", || {
        // Cold, traced, two workers: no render simulates (fig11 is left
        // out: with an enabled sink its render re-runs its two controller
        // runs inline to stream their events), and a unit's `sched_unit`
        // record counts what its own worker stepped — so the units add up
        // to the campaign exactly.
        let all_but_fig11: Vec<&str> = campaign::ARTIFACTS
            .into_iter()
            .filter(|&id| id != "fig11")
            .collect();
        let mut ring = RingSink::new(1 << 12);
        let mut cold = run_traced(Some(&all_but_fig11), &mut ring);
        assert_eq!(cold.stats.workers, 2);
        assert!(cold.root.cycles > 0);
        let units: Vec<u64> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SchedUnit { cycles, .. } => Some(*cycles),
                _ => None,
            })
            .collect();
        assert_eq!((ring.dropped(), units.len()), (0, cold.stats.planned));
        assert_eq!(
            units.iter().sum::<u64>(),
            cold.root.cycles,
            "simulated cycles outside a unit, or charged to two"
        );
        // The rest of the campaign, cold and untraced: every artifact's
        // records are now on disk.
        cold.reports.extend(run(Some(&["fig11"])).reports);
        cold.reports
            .sort_by_key(|(id, _)| campaign::ARTIFACTS.iter().position(|a| a == id));
        assert_eq!(cold.reports.len(), campaign::ARTIFACTS.len());

        // Warm from disk: plan, decode, render.
        cache::clear_memory();
        let before = cache::stats();
        let warm = run(None);
        let after = cache::stats();
        assert_eq!(warm.root.cycles, 0, "a warm campaign re-simulated");
        assert_eq!(after.misses - before.misses, 0);
        assert_eq!(warm.root.cache_misses, 0);
        assert_eq!(warm.root.cache_hits, warm.stats.cache_hits);
        assert_eq!(warm.reports, cold.reports);

        // The standalone entry points are the same declarations: on a
        // fresh evaluator each renders the campaign's bytes for its id out
        // of the caches the campaign filled, and simulates nothing.
        let before = gpu_sim::metrics::cycles_simulated();
        let ev = Evaluator::new(EvaluatorConfig::quick());
        let workloads = gpu_workloads::all_workloads();
        let standalone = [
            figures::tab04(&ev),
            figures::fig01(&ev),
            figures::fig02(&ev),
            figures::fig03(&ev),
            figures::fig04(&ev),
            figures::fig05(&ev),
            figures::fig06(&ev),
            figures::fig07(&ev),
            figures::fig08(),
            figures::fig09(&ev, &workloads),
            figures::fig10(&ev, &workloads),
            figures::hs_results(&ev, &workloads),
            figures::fig11(&ev),
            figures::sens_part(&ev),
            figures::ablation(&ev),
            figures::phased(&ev),
            figures::sampling(&ev),
            figures::sched(&ev),
            figures::ccws(&ev),
            figures::dram_policy(&ev),
            figures::threeapp(&ev),
        ];
        let standalone: Vec<_> = standalone
            .iter()
            .map(|r| (r.id().to_owned(), r.render()))
            .collect();
        assert_eq!(standalone, cold.reports);
        assert_eq!(gpu_sim::metrics::cycles_simulated(), before);
    });
}

#[test]
fn a_render_computes_inline_what_nothing_memoized() {
    // The `--serial` contract, through a one-artifact plan: no unit runs,
    // so a demand's read simulates on a miss, is served on a hit, and
    // simulates the same again once the memory tier (the only tier here)
    // is dropped.
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    cache::set_enabled(true);
    cache::set_dir(None);
    let render = || {
        let before = gpu_sim::metrics::cycles_simulated();
        let text = figures::fig02(&Evaluator::new(EvaluatorConfig::quick())).render();
        (text, gpu_sim::metrics::cycles_simulated() - before)
    };
    cache::clear_memory();
    let (cold, cold_cycles) = render();
    let (warm, warm_cycles) = render();
    cache::clear_memory();
    let (again, again_cycles) = render();
    assert!(cold_cycles > 0);
    assert_eq!(warm_cycles, 0);
    assert_eq!(again_cycles, cold_cycles);
    assert_eq!((&warm, &again), (&cold, &cold));
}
