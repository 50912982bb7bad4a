//! Integration test for the campaign observability layer: profiler spans
//! under worker pools.
//!
//! The profiler span store is process-global, so it is exercised by
//! exactly one test function here — the test harness runs functions
//! concurrently within this binary.

use ebm_bench::profiler;
use gpu_sim::exec::with_workers;

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
