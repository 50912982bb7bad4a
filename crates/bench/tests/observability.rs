//! Integration tests for the campaign observability layer: profiler spans
//! under worker pools, and the `sched_unit` → [`CostModel`] calibration
//! round-trip.
//!
//! The profiler span store is process-global, so it is exercised by
//! exactly one test function here — the test harness runs functions
//! concurrently within this binary.

use ebm_bench::campaign::CostModel;
use ebm_bench::profiler;
use gpu_sim::exec::with_workers;
use gpu_sim::trace::{RingSink, TraceEvent, TraceSink};

/// Spans opened on pool worker threads must not nest under the span open
/// on the coordinating thread (depth is tracked per creating thread), at
/// every pool width the campaign scheduler actually uses.
#[test]
fn profiler_spans_are_per_thread_under_worker_pools() {
    for workers in [1usize, 2, 4] {
        let _ = profiler::take_spans(); // isolate this width's spans
        {
            let _outer = profiler::span("campaign", "obs-test");
            with_workers(
                workers,
                |w| {
                    let _span = profiler::span("run", &format!("worker-{w}"));
                },
                || {},
            );
        }
        let spans = profiler::take_spans();
        assert_eq!(
            spans.len(),
            workers + 1,
            "one span per worker plus the outer one at width {workers}"
        );
        // Spans are recorded in start order; the outer span started first.
        assert_eq!(spans[0].level, "campaign");
        assert_eq!(spans[0].depth, 0);
        for s in &spans[1..] {
            assert_eq!(s.level, "run");
            assert_eq!(
                s.depth, 0,
                "worker-thread span must not nest under the coordinator span"
            );
            assert!(s.wall_s >= 0.0);
        }
        let mut names: Vec<&str> = spans[1..].iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let want: Vec<String> = (0..workers).map(|w| format!("worker-{w}")).collect();
        assert_eq!(names, want.iter().map(String::as_str).collect::<Vec<_>>());
    }
}

/// The calibration loop the report documents: `sched_unit` events captured
/// from a traced campaign feed `CostModel::observe`, which the next plan
/// consults — and cache-served units (zero cycles) teach the model
/// nothing, so the static fallback survives for them.
#[test]
fn sched_unit_events_round_trip_into_the_cost_model() {
    let mut sink = RingSink::new(16);
    let unit = |unit: u64, label: &str, est: u64, cycles: u64| TraceEvent::SchedUnit {
        cycle: 0,
        unit,
        label: label.into(),
        fp: format!("{:032x}", unit),
        deps: 0,
        est,
        worker: 0,
        start_ms: 0.0,
        wall_ms: 0.0,
        cycles,
    };
    sink.emit(unit(0, "sweep:BLK_BFS", 450_000, 777_123));
    sink.emit(unit(1, "alone:BFS@8", 100_000, 0)); // cache-served
    let mut model = CostModel::empty();
    for e in sink.events() {
        if let TraceEvent::SchedUnit { label, cycles, .. } = e {
            model.observe(label, *cycles);
        }
    }
    assert_eq!(
        model.cost("sweep:BLK_BFS", 450_000),
        777_123,
        "observed cycles replace the static estimate"
    );
    assert_eq!(
        model.cost("alone:BFS@8", 100_000),
        100_000,
        "zero-cycle observations are ignored"
    );
    assert_eq!(model.cost("never-seen", 7), 7);
}
