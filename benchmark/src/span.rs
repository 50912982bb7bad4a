//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap each call the benchmark makes into a layer of the system under
//! test; nothing inside `crates/*` is instrumented. A span carries a name,
//! start and end (nanoseconds since the recorder was created), the span that
//! caused it, the id of the workload run it belongs to, and the counts taken
//! at the same boundary. Spans stay in memory and are written once, at the
//! end of the traced run, as Chrome trace-event JSON plus a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.machine/run_slice`.
    pub name: String,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one workload run.
    pub run: u32,
    /// Counts taken at this boundary (`name`, `value`).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans on one thread. A disabled recorder still runs the wrapped
/// closures but records nothing, which is what the untraced half of the
/// tracing-overhead comparison uses.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans are unaffected).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attaches a count to the innermost open span (no-op when disabled or
    /// outside any span).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let (true, Some(&id)) = (self.enabled, self.open.last()) {
            self.spans[id].counts.push((name, value));
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover. Children are clipped to the parent and overlapping
/// children (work that ran in parallel) are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// One row of the self-time table: spans aggregated by name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    /// Span name.
    pub name: String,
    /// Number of spans of that name.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Aggregates spans by name, largest self time first.
pub fn self_time_table(spans: &[Span]) -> Vec<SelfTimeRow> {
    let selfs = self_times_ns(spans);
    let mut rows: BTreeMap<&str, SelfTimeRow> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let row = rows.entry(&s.name).or_insert_with(|| SelfTimeRow {
            name: s.name.clone(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += self_ns;
    }
    let mut rows: Vec<SelfTimeRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

/// Renders the self-time table as aligned text.
pub fn render_self_time_table(rows: &[SelfTimeRow]) -> String {
    let all_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = format!(
        "{:<44} {:>7} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            r.name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / all_self.max(1) as f64
        );
    }
    out
}

/// Renders `spans` as Chrome trace-event JSON (array form, one complete
/// `"ph":"X"` event per line), loadable in Perfetto or `chrome://tracing`.
/// `process` names the process row; the run id becomes the thread id so each
/// workload run gets its own track.
pub fn chrome_trace(spans: &[Span], pid: u32, process: &str) -> String {
    let mut out = String::from("[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        crate::report::json_string(process)
    );
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
            s.run,
            crate::report::json_string(&s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        for (k, v) in &s.counts {
            let _ = write!(
                out,
                ",{}:{}",
                crate::report::json_string(k),
                crate::report::json_number(*v)
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

/// Joins several [`chrome_trace`] documents into one.
pub fn join_chrome_traces(traces: &[String]) -> String {
    let bodies: Vec<&str> = traces
        .iter()
        .map(|t| {
            t.trim()
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim()
        })
        .filter(|b| !b.is_empty())
        .collect();
    format!("[\n{}\n]\n", bodies.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            run: 1,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grand", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children 10..50 and 30..70 overlap on 30..50; 80..90 is disjoint;
        // one child overhangs the parent's end and is clipped.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 80, 90, Some(0)),
            span("d", 95, 130, Some(0)),
        ];
        // covered: 10..70 (60) + 80..90 (10) + 95..100 (5) = 75.
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn child_fully_inside_a_sibling_adds_nothing() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 90, Some(0)),
            span("b", 20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn table_aggregates_by_name_and_sorts_by_self_time() {
        let spans = [
            span("root", 0, 100, None),
            span("slice", 0, 30, Some(0)),
            span("slice", 30, 70, Some(0)),
        ];
        let rows = self_time_table(&spans);
        assert_eq!(rows[0].name, "slice");
        assert_eq!(
            (rows[0].calls, rows[0].total_ns, rows[0].self_ns),
            (2, 70, 70)
        );
        assert_eq!((rows[1].calls, rows[1].self_ns), (1, 30));
        assert!(render_self_time_table(&rows).contains("slice"));
    }

    #[test]
    fn recorder_nests_scopes_and_honours_disable() {
        let mut rec = Recorder::new(true);
        rec.set_run(7);
        let out = rec.scope("outer", |rec| {
            rec.count("items", 3.0);
            rec.scope("inner", |_| 5)
        });
        assert_eq!(out, 5);
        rec.set_enabled(false);
        rec.scope("ignored", |rec| rec.count("x", 1.0));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, 7);
        assert_eq!(spans[0].counts, vec![("items", 3.0)]);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut s = span("a \"quoted\" name", 1_000, 3_500, None);
        s.counts.push(("cycles", 75_000.0));
        let text = chrome_trace(&[s, span("b", 1_200, 1_300, Some(0))], 3, "small-membound");
        let parsed = ebm_bench::json::parse(&text).expect("valid JSON");
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("dur").unwrap().as_num(), Some(2.5));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        let joined = join_chrome_traces(&[text.clone(), text]);
        assert_eq!(
            ebm_bench::json::parse(&joined)
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            6
        );
    }
}
