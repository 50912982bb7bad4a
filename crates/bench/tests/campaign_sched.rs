//! End-to-end checks of the campaign work-graph scheduler: a plan with
//! real dependency chains (scheme units waiting on alone profiles and
//! sweeps) must execute fully and render byte-identically to the serial
//! walk of the same plan (`campaign::run_serial`, what `experiments
//! --serial` runs).

use ebm_bench::campaign;
use ebm_bench::profiler::{self, SpanRecord};
use ebm_bench::util::{BenchArgs, Report};
use ebm_core::eval::{Evaluator, EvaluatorConfig};
use gpu_sim::cache;
use gpu_sim::trace::{NullSink, RingSink, TraceEvent, TraceSink};
use std::path::Path;
use std::sync::Mutex;

/// The output directory is process-global: tests that set it take turns.
static OUT_DIR: Mutex<()> = Mutex::new(());

fn quick_args(only: &[&str]) -> BenchArgs {
    let mut args = BenchArgs {
        quick: true,
        ..BenchArgs::default()
    };
    args.only = Some(only.iter().map(|s| s.to_string()).collect());
    args
}

/// Plans `only` on a fresh quick evaluator with an empty memory tier,
/// runs the plan (serial walk or scheduler) and returns the rendered
/// reports in emission order plus the scheduler's statistics.
fn run_campaign(
    only: &[&str],
    serial: bool,
) -> (Vec<(String, String)>, Option<campaign::CampaignStats>) {
    cache::clear_memory();
    let ev = Evaluator::new(EvaluatorConfig::quick());
    let plan = campaign::plan(&quick_args(only), &ev);
    let mut rendered = Vec::new();
    let emit = &mut |r: &Report| rendered.push((r.id().to_owned(), r.render()));
    let stats = if serial {
        campaign::run_serial(plan, &ev, &mut NullSink, emit);
        None
    } else {
        Some(campaign::run(plan, &ev, &mut NullSink, emit))
    };
    (rendered, stats)
}

fn scheduled(only: &[&str]) -> (Vec<(String, String)>, campaign::CampaignStats) {
    let (rendered, stats) = run_campaign(only, false);
    (rendered, stats.expect("scheduled runs report statistics"))
}

#[test]
fn scheme_graph_schedules_and_matches_serial() {
    // fig01 exercises the deepest chains the planner builds: scheme units
    // depending on alone profiles, the sweep, and (for opt*) the
    // ++bestTLP scheme unit.
    let (rendered, stats) = scheduled(&["fig01", "fig02", "fig06"]);
    assert_eq!(stats.executed, stats.planned, "graph must drain completely");
    assert!(
        stats.planned >= 7,
        "fig01 alone plans 2 alone + 1 sweep + 4+ schemes"
    );
    assert_eq!(
        rendered
            .iter()
            .map(|(id, _)| id.as_str())
            .collect::<Vec<_>>(),
        vec!["fig01", "fig02", "fig06"],
        "artifacts render in serial campaign order"
    );

    // The reference: nothing memoized, every render computes inline.
    let (serial, _) = run_campaign(&["fig01", "fig02", "fig06"], true);
    assert_eq!(
        rendered, serial,
        "scheduled run diverges from the serial walk"
    );
}

#[test]
fn shared_units_dedup_and_warm_the_renders() {
    cache::reset_stats();
    let (rendered, stats) = scheduled(&["tab04", "fig05"]);
    assert_eq!(rendered.len(), 2);
    // Both artifacts read the same 26 alone profiles: half the demands
    // dedup away, and the renders are pure store/cache hits.
    assert!(stats.dedup_ratio() > 0.49, "ratio {}", stats.dedup_ratio());
    assert_eq!(stats.executed, stats.planned);
    assert!(stats.peak_ready > 0);
    assert!(stats.wall_s > 0.0);
}

/// The `sched_unit` records of the plan of `only`, in plan order.
fn plan_records(only: &[&str]) -> Vec<TraceEvent> {
    let ev = Evaluator::new(EvaluatorConfig::quick());
    let plan = campaign::plan(&quick_args(only), &ev);
    let mut ring = RingSink::new(1 << 12);
    campaign::emit_plan(&plan, &mut ring);
    let records: Vec<TraceEvent> = ring.events().iter().cloned().collect();
    assert!(records
        .iter()
        .all(|e| matches!(e, TraceEvent::SchedUnit { .. })));
    assert_eq!(records.len(), plan.planned());
    records
}

/// Labels of the units `only` plans, in plan order.
fn planned_labels(only: &[&str]) -> Vec<String> {
    plan_records(only)
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::SchedUnit { label, .. } => Some(label),
            _ => None,
        })
        .collect()
}

#[test]
fn a_plan_reads_no_earlier_profile() {
    // A PROFILE.json in the output directory whose per-unit spans name
    // the very units the plan registers, with costs far from the static
    // estimates: the plan is a function of the configuration alone.
    let _turn = OUT_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let only = ["fig01", "fig07", "tab04", "fig11"];
    let dir = std::env::temp_dir().join(format!("ebm_plan_pure_{}", std::process::id()));
    let (fresh, stale) = (dir.join("fresh"), dir.join("stale"));
    std::fs::create_dir_all(&fresh).unwrap();
    std::fs::create_dir_all(&stale).unwrap();
    let spans: Vec<SpanRecord> = planned_labels(&only)
        .into_iter()
        .enumerate()
        .map(|(i, name)| SpanRecord {
            level: "unit".into(),
            name,
            depth: 0,
            wall_s: 1.0 + i as f64,
            cycles: 7_000_003 * (i as u64 + 1),
            cache_hits: 0,
            cache_misses: 1,
            workers: 2,
        })
        .collect();
    profiler::write_profile(&stale.join("PROFILE.json"), &spans).unwrap();

    ebm_bench::set_out_dir(Some(fresh));
    let from_fresh = plan_records(&only);
    ebm_bench::set_out_dir(Some(stale));
    let from_stale = plan_records(&only);
    ebm_bench::set_out_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        from_stale, from_fresh,
        "an earlier run's profile moved the plan"
    );
}

#[test]
fn fig11_and_sampling_plan_their_simulations_as_units() {
    // Fig. 11's WS run is the ablation's paper run of BLK_BFS; only the
    // FI run is new.
    let ablation = planned_labels(&["ablation"]);
    let with_fig11 = planned_labels(&["fig11", "ablation"]);
    assert_eq!(with_fig11.len(), ablation.len() + 1);
    assert_eq!(
        planned_labels(&["fig11"])
            .iter()
            .filter(|l| l.starts_with("pbs:BLK_BFS#"))
            .count(),
        2
    );
    let sampling = planned_labels(&["sampling"]);
    assert_eq!(
        sampling
            .iter()
            .filter(|l| l.starts_with("sampling:"))
            .count(),
        4,
        "one designated-error unit per mix: {sampling:?}"
    );
}

/// One run of `fig11` + `sampling` on a fresh quick evaluator, artifacts
/// under `out`: the rendered reports plus the CSVs the `fig11` report
/// carries, which the campaign must also have saved there.
fn fig11_and_sampling(
    out: &Path,
    serial: bool,
    sink: &mut dyn TraceSink,
) -> Vec<(String, Vec<u8>)> {
    ebm_bench::set_out_dir(Some(out.to_owned()));
    let ev = Evaluator::new(EvaluatorConfig::quick());
    let plan = campaign::plan(&quick_args(&["fig11", "sampling"]), &ev);
    let mut files = Vec::new();
    let emit = &mut |r: &Report| {
        files.push((format!("{}.txt", r.id()), r.render().into_bytes()));
        for (name, text) in r.attachments() {
            let saved = std::fs::read(out.join(name)).expect("the campaign saves attachments");
            assert_eq!(
                saved,
                text.as_bytes(),
                "{name} on disk is not the attachment"
            );
            files.push((name.clone(), saved));
        }
    };
    if serial {
        campaign::run_serial(plan, &ev, sink, emit);
    } else {
        campaign::run(plan, &ev, sink, emit);
    }
    ebm_bench::set_out_dir(None);
    files
}

#[test]
fn fig11_and_sampling_bytes_do_not_depend_on_who_simulated() {
    let _turn = OUT_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("ebm_campaign_sched_{}", std::process::id()));

    // Traced: the serial walk with an enabled sink simulates inline and
    // streams the events.
    cache::clear_memory();
    let mut ring = RingSink::new(1 << 16);
    let traced = fig11_and_sampling(&dir.join("traced"), true, &mut ring);
    assert_eq!(traced.len(), 4);
    assert!(
        ring.events()
            .iter()
            .any(|e| matches!(e, TraceEvent::TlpDecision { .. })),
        "a traced fig11 must stream its runs"
    );

    // Cold scheduled: units simulate, the renders read their records.
    cache::clear_memory();
    let scheduled = fig11_and_sampling(&dir.join("scheduled"), false, &mut NullSink);
    assert_eq!(scheduled, traced, "cold-scheduled vs traced-inline");
    // Warm: the same again, served from the memory tier.
    let warm = fig11_and_sampling(&dir.join("warm"), false, &mut NullSink);
    assert_eq!(warm, traced, "warm vs traced-inline");
    // Serial, cold, untraced: the renders compute their records inline.
    cache::clear_memory();
    let serial = fig11_and_sampling(&dir.join("serial"), true, &mut NullSink);
    assert_eq!(serial, traced, "serial vs traced-inline");
    let _ = std::fs::remove_dir_all(&dir);
}
