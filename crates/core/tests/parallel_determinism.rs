//! Regression tests pinning the parallel execution layer to sequential
//! results.
//!
//! Every fan-out in the codebase (sweep tables, alone profiles, scheme
//! batches) runs independent same-seed simulations and collects results in
//! input order, so parallel execution must be *bit-for-bit* identical to
//! sequential — not merely statistically close. These tests compare exact
//! float equality on purpose.

use ebm_core::eval::{Evaluator, EvaluatorConfig, Scheme};
use ebm_core::metrics::EbObjective;
use ebm_core::sweep::ComboSweep;
use gpu_sim::harness::RunSpec;
use gpu_sim::profile_alone_with_threads;
use gpu_types::GpuConfig;
use gpu_workloads::{by_name, Workload};

/// Disables the process-global result cache: a memoized second run would be
/// a lookup, not a parallel simulation, and these tests exist to exercise
/// the parallel path. Every test in this binary calls this, so the shared
/// global setting never flips back mid-run.
fn no_cache() {
    gpu_sim::cache::set_enabled(false);
}

#[test]
fn parallel_sweep_equals_sequential_exactly() {
    no_cache();
    let cfg = GpuConfig::small();
    let w = Workload::pair("BLK", "BFS");
    let spec = RunSpec::new(300, 1_000);
    let serial = ComboSweep::measure_with_threads(&cfg, &w, 42, spec, 1);
    let parallel = ComboSweep::measure_with_threads(&cfg, &w, 42, spec, 4);
    assert_eq!(serial.len(), 25);
    assert_eq!(parallel.len(), serial.len());
    for (combo, samples) in serial.iter() {
        let p = parallel.get(combo).expect("parallel sweep misses a combo");
        assert_eq!(samples.len(), p.len());
        for (s, q) in samples.iter().zip(p) {
            // Exact equality: same machine, same seed, same arithmetic.
            assert_eq!(s.ipc, q.ipc, "IPC diverged at {combo}");
            assert_eq!(s.bw, q.bw, "BW diverged at {combo}");
            assert_eq!(s.cmr, q.cmr, "CMR diverged at {combo}");
            assert_eq!(s.eb, q.eb, "EB diverged at {combo}");
        }
    }
}

#[test]
fn parallel_alone_profile_equals_sequential_exactly() {
    no_cache();
    let cfg = GpuConfig::small();
    let app = by_name("BFS").unwrap();
    let spec = RunSpec::new(500, 2_000);
    let serial = profile_alone_with_threads(&cfg, app, 2, 5, spec, 1);
    let parallel = profile_alone_with_threads(&cfg, app, 2, 5, spec, 4);
    assert_eq!(serial, parallel);
}

#[test]
fn batch_evaluation_equals_serial_exactly() {
    no_cache();
    let schemes = [
        Scheme::BestTlp,
        Scheme::MaxTlp,
        Scheme::DynCta,
        Scheme::Ccws,
        Scheme::Pbs(EbObjective::Ws),
        Scheme::PbsOffline(EbObjective::Fi),
        Scheme::BruteForce(EbObjective::Fi),
        Scheme::Opt(EbObjective::Ws),
        Scheme::OptIt,
    ];
    let w = Workload::pair("BLK", "BFS");

    let serial_ev = Evaluator::new(EvaluatorConfig::quick());
    let serial: Vec<_> = schemes.iter().map(|s| serial_ev.evaluate(&w, *s)).collect();

    let batch_ev = Evaluator::new(EvaluatorConfig::quick());
    let batch = batch_ev.evaluate_batch_with_threads(&w, &schemes, 4);

    assert_eq!(batch.len(), serial.len());
    for (a, b) in serial.iter().zip(&batch) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(
            a.metrics.sds, b.metrics.sds,
            "{}: slowdowns diverged",
            a.scheme
        );
        assert_eq!(a.metrics.ws, b.metrics.ws, "{}: WS diverged", a.scheme);
        assert_eq!(a.metrics.fi, b.metrics.fi, "{}: FI diverged", a.scheme);
        assert_eq!(a.metrics.hs, b.metrics.hs, "{}: HS diverged", a.scheme);
        assert_eq!(a.combo, b.combo, "{}: chosen combo diverged", a.scheme);
        assert_eq!(a.tlp_trace, b.tlp_trace, "{}: TLP trace diverged", a.scheme);
    }
}

#[test]
fn batch_results_enter_the_memo_cache() {
    no_cache();
    let w = Workload::pair("BLK", "BFS");
    let ev = Evaluator::new(EvaluatorConfig::quick());
    let batch =
        ev.evaluate_batch_with_threads(&w, &[Scheme::BestTlp, Scheme::MaxTlp, Scheme::OptIt], 2);
    // A follow-up serial evaluate must be a cache hit with identical data.
    let again = ev.evaluate(&w, Scheme::MaxTlp);
    assert_eq!(again.metrics.ws, batch[1].metrics.ws);
    assert_eq!(again.metrics.sds, batch[1].metrics.sds);
}

#[test]
fn batch_handles_duplicates_and_cached_entries() {
    no_cache();
    let w = Workload::pair("BLK", "BFS");
    let ev = Evaluator::new(EvaluatorConfig::quick());
    let first = ev.evaluate(&w, Scheme::BestTlp); // pre-populate the cache
    let batch =
        ev.evaluate_batch_with_threads(&w, &[Scheme::BestTlp, Scheme::BestTlp, Scheme::MaxTlp], 2);
    assert_eq!(batch.len(), 3);
    assert_eq!(batch[0].metrics.ws, first.metrics.ws);
    assert_eq!(batch[1].metrics.ws, first.metrics.ws);
}

#[test]
fn sweep_levels_cover_all_apps_axes() {
    no_cache();
    // levels() must report the union over every application's axis, not
    // just app 0's.
    let cfg = GpuConfig::small();
    let w = Workload::pair("BLK", "BFS");
    let sweep = ComboSweep::measure_with_threads(&cfg, &w, 3, RunSpec::new(300, 1_000), 2);
    let levels: Vec<u32> = sweep.levels().iter().map(|l| l.get()).collect();
    assert_eq!(levels, vec![1, 2, 4, 6, 8]);
    let mut sorted = levels.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        levels, sorted,
        "levels must be ascending and duplicate-free"
    );
}
