//! Hierarchical self-profiler for campaign runs.
//!
//! A campaign is a tree of phases — campaign → figure → sweep → run — and
//! each phase is wrapped in a [`span`]: the returned guard records, on
//! drop, the phase's wall time, the deltas of the process-wide
//! simulated-cycle counter ([`gpu_sim::metrics::cycles_simulated`]) and
//! result-cache hit/miss counts ([`gpu_sim::cache::stats`]) — every
//! thread's, so a span counts what the pool simulated while it was open
//! — and the worker-pool width.  The finished spans are written to
//! `PROFILE.json` by [`write_profile`] and can be appended to a trace as
//! [`gpu_sim::TraceEvent::ProfileSpan`] events by [`emit_spans`] — so the
//! same `trace-tools` pipeline that analyzes simulator metrics can also
//! answer "where did the campaign's time go?".
//!
//! Spans are opened by the campaign's coordinating thread, never on a
//! pool thread (a scheduled unit's one record is its `sched_unit` trace
//! event), so they nest on one stack: the depth recorded at creation is
//! the number of spans open.  The record list is ordered by span *start*.
//! Guards should be dropped in LIFO order; the drop handler tolerates
//! out-of-order drops by removing its own entry wherever it sits.

use gpu_sim::trace::{TraceEvent, TraceSink};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or in-flight) profiling span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Hierarchy level: `campaign`, `figure`, `sweep` or `run`.
    pub level: String,
    /// Human-readable phase name (figure id, sweep label, …).
    pub name: String,
    /// Nesting depth at creation (0 = campaign root).
    pub depth: u32,
    /// Wall-clock duration in seconds.
    pub wall_s: f64,
    /// Simulated cycles attributed to this span: the process-wide delta,
    /// including cycles simulated by worker threads the span fanned out to.
    pub cycles: u64,
    /// Result-cache hits (memory + disk) during this span.
    pub cache_hits: u64,
    /// Result-cache misses during this span.
    pub cache_misses: u64,
    /// Worker-pool width available to this span.
    pub workers: u32,
}

impl SpanRecord {
    /// The span as a `profile_span` trace event stamped `cycle`.
    fn event(&self, cycle: u64) -> TraceEvent {
        TraceEvent::ProfileSpan {
            cycle,
            level: self.level.clone(),
            name: self.name.clone(),
            depth: self.depth,
            wall_s: self.wall_s,
            cycles: self.cycles,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            workers: self.workers,
        }
    }
}

struct OpenSpan {
    start: Instant,
    cycles0: u64,
    hits0: u64,
    misses0: u64,
}

struct ProfilerState {
    /// Finished spans, in order of span *start*.
    spans: Vec<SpanRecord>,
    /// Currently open spans: `(index into spans, deltas)`, outermost
    /// first.
    open: Vec<(usize, OpenSpan)>,
}

static STATE: Mutex<Option<ProfilerState>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut ProfilerState) -> R) -> R {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.get_or_insert_with(|| ProfilerState {
        spans: Vec::new(),
        open: Vec::new(),
    });
    f(state)
}

/// Opens a profiling span; the returned guard closes it on drop.
///
/// `level` should be one of `campaign`, `figure`, `sweep`, `run` —
/// the hierarchy documented in `docs/EXPERIMENTS.md` — but any label is
/// accepted (the profiler imposes no vocabulary). Call it from the
/// coordinating thread, not from a pool worker.
pub fn span(level: &str, name: &str) -> SpanGuard {
    debug_assert!(
        !gpu_sim::exec::in_sweep_fanout(),
        "profiler span {level}:{name} opened on a pool thread"
    );
    let stats = gpu_sim::cache::stats();
    let idx = with_state(|s| {
        let depth = s.open.len() as u32;
        let idx = s.spans.len();
        s.spans.push(SpanRecord {
            level: level.to_string(),
            name: name.to_string(),
            depth,
            wall_s: 0.0,
            cycles: 0,
            cache_hits: 0,
            cache_misses: 0,
            workers: gpu_sim::exec::worker_count() as u32,
        });
        s.open.push((
            idx,
            OpenSpan {
                start: Instant::now(),
                cycles0: gpu_sim::metrics::cycles_simulated(),
                // `disk_hits` is a subset of `hits`, not a second tally.
                hits0: stats.hits,
                misses0: stats.misses,
            },
        ));
        idx
    });
    SpanGuard { idx }
}

/// Closes its span on drop, recording the deltas accumulated while open.
#[must_use = "dropping the guard immediately records an empty span"]
pub struct SpanGuard {
    idx: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let stats = gpu_sim::cache::stats();
        let cycles = gpu_sim::metrics::cycles_simulated();
        with_state(|s| {
            let Some(pos) = s.open.iter().position(|(i, _)| *i == self.idx) else {
                return; // already closed (double drop cannot happen, but stay safe)
            };
            let (_, open) = s.open.remove(pos);
            let rec = &mut s.spans[self.idx];
            rec.wall_s = open.start.elapsed().as_secs_f64();
            rec.cycles = cycles.saturating_sub(open.cycles0);
            rec.cache_hits = stats.hits.saturating_sub(open.hits0);
            rec.cache_misses = stats.misses.saturating_sub(open.misses0);
        });
    }
}

/// Removes and returns every finished span (open spans stay registered).
pub fn take_spans() -> Vec<SpanRecord> {
    with_state(|s| {
        if s.open.is_empty() {
            return std::mem::take(&mut s.spans);
        }
        // Keep open spans in place: extract only the closed ones, then
        // remap the open indices onto the compacted vector.
        let open_idx: Vec<usize> = s.open.iter().map(|(i, _)| *i).collect();
        let mut closed = Vec::new();
        let mut kept = Vec::new();
        let mut remap = vec![usize::MAX; s.spans.len()];
        for (i, rec) in s.spans.drain(..).enumerate() {
            if open_idx.contains(&i) {
                remap[i] = kept.len();
                kept.push(rec);
            } else {
                closed.push(rec);
            }
        }
        s.spans = kept;
        for (i, _) in s.open.iter_mut() {
            *i = remap[*i];
        }
        closed
    })
}

/// Renders spans as the `PROFILE.json` document: each span is the
/// `profile_span` trace record's fields without the envelope, written by
/// the trace's own field writer.
pub fn render_profile(spans: &[SpanRecord]) -> String {
    let mut out = format!(
        "{{\"schema\":1,\"workers\":{},\"spans\":[",
        gpu_sim::exec::worker_count()
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        s.event(0).write_fields(&mut out);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Writes `render_profile(spans)` to `path`.
pub fn write_profile(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    std::fs::write(path, render_profile(spans))
}

/// Appends one [`TraceEvent::ProfileSpan`] per span to `sink`.
///
/// The event's `cycle` field carries the process-wide simulated-cycle
/// counter at emit time — profiler spans are wall-clock phenomena, not
/// simulator ones, so they share one timestamp.
pub fn emit_spans<S: TraceSink + ?Sized>(sink: &mut S, spans: &[SpanRecord]) {
    if !sink.enabled() {
        return;
    }
    let cycle = gpu_sim::metrics::cycles_simulated();
    for s in spans {
        sink.emit(s.event(cycle));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global, so tests that mutate it must not
    /// overlap.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_record_depth() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _flush = take_spans(); // isolate from earlier spans in this binary
        {
            let _c = span("campaign", "t-root");
            {
                let _f = span("figure", "t-fig");
                let _s = span("sweep", "t-sweep");
            }
        }
        let spans = take_spans();
        let mine: Vec<_> = spans.iter().filter(|s| s.name.starts_with("t-")).collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].depth, 0);
        assert_eq!(mine[1].depth, 1);
        assert_eq!(mine[2].depth, 2);
        assert!(mine.iter().all(|s| s.wall_s >= 0.0));
        assert!(mine.iter().all(|s| s.workers >= 1));
    }

    #[test]
    fn take_spans_keeps_open_spans_registered() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _flush = take_spans();
        let outer = span("campaign", "k-open");
        {
            let _inner = span("figure", "k-closed");
        }
        let closed = take_spans();
        assert!(closed.iter().any(|s| s.name == "k-closed"));
        assert!(!closed.iter().any(|s| s.name == "k-open"));
        drop(outer);
        let rest = take_spans();
        assert!(rest.iter().any(|s| s.name == "k-open"));
    }

    #[test]
    fn render_profile_is_valid_shape() {
        let spans = vec![SpanRecord {
            level: "figure".into(),
            name: "fig\"9\"".into(),
            depth: 1,
            wall_s: 0.25,
            cycles: 1000,
            cache_hits: 2,
            cache_misses: 1,
            workers: 4,
        }];
        let json = render_profile(&spans);
        assert!(json.starts_with("{\"schema\":1,"));
        assert!(json.contains("\"name\":\"fig\\\"9\\\"\""));
        assert!(json.contains("\"wall_s\":0.250000"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn non_finite_wall_time_renders_null() {
        let spans = vec![SpanRecord {
            level: "run".into(),
            name: "nan".into(),
            depth: 0,
            wall_s: f64::NAN,
            cycles: 0,
            cache_hits: 0,
            cache_misses: 0,
            workers: 1,
        }];
        assert!(render_profile(&spans).contains("\"wall_s\":null"));
    }
}
