//! Regression tests pinning the parallel execution layer to sequential
//! results.
//!
//! Every fan-out in the codebase (sweep tables, alone profiles, scheme
//! evaluations on a shared evaluator) runs independent same-seed
//! simulations, so parallel execution must be *bit-for-bit* identical to
//! sequential — not merely statistically close. These tests compare exact
//! float equality on purpose.

use ebm_core::eval::{Evaluator, EvaluatorConfig, Scheme};
use ebm_core::metrics::EbObjective;
use ebm_core::sweep::ComboSweep;
use gpu_sim::harness::RunSpec;
use gpu_sim::profile_alone_with_threads;
use gpu_types::GpuConfig;
use gpu_workloads::{by_name, Workload};
use std::sync::Barrier;

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
fn concurrent_evaluation_equals_serial_exactly() {
    no_cache();
    let schemes = [
        Scheme::BestTlp,
        Scheme::MaxTlp,
        Scheme::DynCta,
        Scheme::Ccws,
        Scheme::ModBypass,
        Scheme::Pbs(EbObjective::Ws),
        Scheme::PbsOffline(EbObjective::Fi),
        Scheme::BruteForce(EbObjective::Hs),
        Scheme::Opt(EbObjective::Ws),
        Scheme::OptIt,
    ];
    let w = Workload::pair("BLK", "BFS");

    let serial_ev = Evaluator::new(EvaluatorConfig::quick());
    let serial: Vec<_> = schemes.iter().map(|s| serial_ev.evaluate(&w, *s)).collect();

    // Four threads over one shared evaluator, as the campaign scheduler's
    // workers use it: thread `t` takes every fourth scheme from `t`, all
    // four start together, and the alone profiles and sweep they share are
    // filled by whichever thread gets there first.
    let shared = Evaluator::new(EvaluatorConfig::quick());
    let start = Barrier::new(4);
    let concurrent: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (ev, w, start) = (&shared, &w, &start);
                let mine: Vec<Scheme> = schemes.iter().copied().skip(t).step_by(4).collect();
                scope.spawn(move || {
                    start.wait();
                    mine.iter().map(|&s| ev.evaluate(w, s)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut seen = 0;
    for b in concurrent.iter().flatten() {
        seen += 1;
        let a = &serial[schemes.iter().position(|&s| s == b.scheme).unwrap()];
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
        assert_eq!(a.windows, b.windows, "{}: windows diverged", a.scheme);
    }
    assert_eq!(seen, schemes.len());
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
