//! End-to-end checks of the campaign work-graph scheduler: a plan with
//! real dependency chains (scheme units waiting on alone profiles and
//! sweeps) must execute fully and render byte-identically to the serial
//! walk of the same plan (`campaign::run_serial`, what `experiments
//! --serial` runs).

use ebm_bench::campaign::{self, CostModel};
use ebm_bench::util::{BenchArgs, Report};
use ebm_core::eval::{Evaluator, EvaluatorConfig};
use gpu_sim::{cache, trace::NullSink};

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
    let plan = campaign::plan_with_costs(&quick_args(only), &ev, CostModel::empty());
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
