//! `CampaignStats::cache_hits` on a disk-warm rerun. A test binary of its
//! own: the result cache's counters are process-global, and here every
//! lookup they see is this test's.

use ebm_bench::campaign::{self, CampaignStats, CostModel};
use ebm_bench::util::BenchArgs;
use ebm_core::eval::{Evaluator, EvaluatorConfig};
use gpu_sim::{cache, trace::NullSink};

/// Plans and runs `tab04` + `fig05` on a fresh quick evaluator.
fn run() -> CampaignStats {
    let args = BenchArgs {
        quick: true,
        only: Some(vec!["tab04".to_owned(), "fig05".to_owned()]),
        ..BenchArgs::default()
    };
    let ev = Evaluator::new(EvaluatorConfig::quick());
    let plan = campaign::plan_with_costs(&args, &ev, CostModel::empty());
    campaign::run(plan, &ev, &mut NullSink, &mut |_| {})
}

#[test]
fn disk_warm_rerun_counts_each_hit_once() {
    let dir = std::env::temp_dir().join(format!("ebm_campaign_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::set_enabled(true);
    cache::set_dir(Some(dir.clone()));

    let cold = run();
    assert_eq!(cold.cache_hits, 0, "nothing to hit in an empty cache");

    // Only the disk tier survives: every warm lookup is a disk hit, which
    // the cache counts under `hits` and, as a subset, under `disk_hits`.
    cache::clear_memory();
    let before = cache::stats();
    let warm = run();
    let after = cache::stats();
    cache::set_dir(None);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        warm.cache_hits > 0,
        "the warm run must be served by the cache"
    );
    assert_eq!(warm.cache_hits, after.hits - before.hits);
    assert_eq!(warm.cache_hits, after.disk_hits - before.disk_hits);
}
