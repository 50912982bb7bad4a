//! End-to-end tests of the `trace-tools` binary on a trace written by the
//! library's own emitters (`JsonlSink`, `profiler::emit_spans`) and on the
//! matching `PROFILE.json` (`profiler::write_profile`): every table the
//! report renders, the span table `profile` shares with it, the retired
//! command-line surface, and damaged inputs.

use ebm_bench::profiler::{self, SpanRecord};
use gpu_sim::trace::{JsonlSink, TraceEvent, TraceSink};
use gpu_simt::WarpStalls;
use gpu_types::Histogram;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Exit code, stdout and stderr of one `trace-tools` run.
fn tool(args: &[&Path]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace-tools"))
        .args(args)
        .output()
        .expect("trace-tools runs");
    (
        out.status.code().expect("exited"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

fn hist(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    values.iter().for_each(|&v| h.record(v));
    h
}

/// Per app (`None` = machine-wide): stalls `[mem, exec, barrier,
/// tlp_capped]` and DRAM latencies of one window; the fixture writes two.
fn window_metrics() -> Vec<(Option<u8>, [u64; 4], Vec<u64>)> {
    vec![
        (Some(0), [30, 50, 0, 20], vec![40, 90, 300]),
        (Some(1), [70, 10, 0, 20], vec![120, 700]),
        (None, [100, 60, 0, 40], vec![40, 90, 120, 300, 700]),
    ]
}

const MSHR: [u64; 2] = [3, 9];
const QUEUE: [u64; 3] = [1, 15, 60];

fn spans() -> Vec<SpanRecord> {
    let span =
        |level: &str, name: &str, wall_s: f64, cycles: u64, hits: u64, misses: u64| SpanRecord {
            level: level.into(),
            name: name.into(),
            depth: 0,
            wall_s,
            cycles,
            cache_hits: hits,
            cache_misses: misses,
            workers: 2,
        };
    vec![
        span("campaign", "experiments", 2.0, 1_000_000, 7, 3),
        span("figure", "fig11", 1.5, 600_000, 2, 0),
        span(
            "unit",
            "scheme:BLK_BFS/PBS-WS-with-a-name-longer-than-forty",
            0.5,
            0,
            0,
            0,
        ),
    ]
}

/// A fixture trace and its `PROFILE.json` in a directory removed on drop.
struct Fixture {
    dir: PathBuf,
    trace: PathBuf,
    profile: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Writes the fixture trace and its `PROFILE.json` into a fresh directory.
fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("ebm_trace_tools_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (trace, profile) = (dir.join("trace.jsonl"), dir.join("PROFILE.json"));
    let mut sink = JsonlSink::create(&trace).expect("trace file");
    for cycle in [500, 1000] {
        for app in 0..2 {
            sink.emit(TraceEvent::WindowSample {
                cycle,
                app,
                eb: 1.5,
                bw: 0.5,
                cmr: 1.0 / 3.0,
                l1mr: 0.5,
                l2mr: 2.0 / 3.0,
                ipc: 2.0,
            });
        }
        for (app, [mem, exec, barrier, tlp_capped], lat) in window_metrics() {
            let machine = app.is_none();
            sink.emit(TraceEvent::MetricsWindow {
                cycle,
                app,
                stalls: WarpStalls {
                    mem,
                    exec,
                    barrier,
                    tlp_capped,
                },
                dram_lat: hist(&lat),
                mshr_occ: hist(if machine { &MSHR[..] } else { &[] }),
                queue_depth: hist(if machine { &QUEUE[..] } else { &[] }),
                machine_fast_forward_fraction: machine.then_some(0.25),
                component_idle_skip_fraction: machine.then_some(0.5),
            });
        }
    }
    for (unit, label, worker) in [(0, "alone:BLK@2", 0), (1, "sweep:BLK_BFS", 1)] {
        sink.emit(TraceEvent::SchedUnit {
            cycle: 0,
            unit,
            label: label.into(),
            fp: format!("{unit:032x}"),
            deps: unit,
            est: 1000 * (unit + 1),
            worker,
            start_ms: 1.0,
            wall_ms: 20.0,
            cycles: 1000 * (unit + 1),
        });
    }
    let spans = spans();
    profiler::emit_spans(&mut sink, &spans);
    // Counters are cumulative: only the last snapshot counts.
    for (hits, disk_hits) in [(1, 0), (7, 2)] {
        sink.emit(TraceEvent::CacheStats {
            cycle: 0,
            hits,
            disk_hits,
            misses: 3,
            bypasses: 1,
            stores: 4,
            verified: 5,
            inflight_joined: 0,
        });
    }
    for (tier, hits, misses, stores) in
        [("memory", 1, 1, 1), ("memory", 5, 3, 3), ("disk", 2, 1, 4)]
    {
        sink.emit(TraceEvent::CacheTier {
            cycle: 0,
            tier: tier.into(),
            hits,
            misses,
            stores,
        });
    }
    sink.flush();
    assert!(sink.error().is_none());
    profiler::write_profile(&profile, &spans).expect("PROFILE.json");
    Fixture {
        dir,
        trace,
        profile,
    }
}

/// The rows of the table under `heading`, up to the next blank line, split
/// into cells (the column header row included).
fn table<'a>(out: &'a str, heading: &str) -> Vec<Vec<&'a str>> {
    let mut lines = out.lines().skip_while(|l| *l != heading);
    assert!(lines.next().is_some(), "no `{heading}` in:\n{out}");
    lines
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// The count, mean, min, p50, p95, p99 and max cells of a histogram row.
fn hist_cells(h: &Histogram) -> Vec<String> {
    let pcts = [0.50, 0.95, 0.99].map(|p| h.percentile(p).to_string());
    let mut cells = vec![
        h.count().to_string(),
        format!("{:.1}", h.mean()),
        h.min().to_string(),
    ];
    cells.extend(pcts);
    cells.push(h.max().to_string());
    cells
}

fn row(label: &str, cells: &[String]) -> Vec<String> {
    std::iter::once(label.to_string())
        .chain(cells.iter().cloned())
        .collect()
}

#[test]
fn default_report_holds_the_stall_latency_and_gauge_tables() {
    let f = fixture("default");
    let trace = &f.trace;
    let (code, out, err) = tool(&[Path::new("report"), trace]);
    assert_eq!(code, 0, "{err}");

    let stalls = table(
        &out,
        "== warp-stall breakdown (warp-cycles, summed over windows) ==",
    );
    let latency = table(&out, "== DRAM request latency (cycles, queue to data) ==");
    assert_eq!(
        stalls[0],
        ["app", "windows", "mem", "exec", "barrier", "tlp_capped"]
    );
    assert_eq!(
        latency[0],
        ["app", "requests", "mean", "min", "p50", "p95", "p99", "max"]
    );
    // Apps sort after the machine-wide `all` row.
    let mut metrics = window_metrics();
    metrics.rotate_right(1);
    assert_eq!(stalls.len(), 1 + metrics.len());
    for (i, (app, counts, lat)) in metrics.iter().enumerate() {
        let label = app.map_or("all".to_string(), |a| a.to_string());
        let mut sums = vec!["2".to_string()];
        sums.extend(counts.iter().map(|c| (2 * c).to_string()));
        assert_eq!(stalls[1 + i], row(&label, &sums));
        let mut h = hist(lat);
        h.merge(&hist(lat));
        assert_eq!(latency[1 + i], row(&label, &hist_cells(&h)));
    }

    let gauges = table(
        &out,
        "== machine-wide occupancy gauges (sampled once per window) ==",
    );
    assert_eq!(
        gauges[0],
        ["gauge", "samples", "mean", "min", "p50", "p95", "p99", "max"]
    );
    for (i, (name, values)) in [("l2_mshr", &MSHR[..]), ("queue_depth", &QUEUE[..])]
        .into_iter()
        .enumerate()
    {
        let mut h = hist(values);
        h.merge(&hist(values));
        assert_eq!(gauges[1 + i], row(name, &hist_cells(&h)));
    }

    // The default report is deterministic: no wall-clock sections.
    assert!(!out.contains("== result cache"), "{out}");
    assert!(!out.contains("== profile spans"), "{out}");
}

#[test]
fn timings_report_holds_cache_counters_tiers_and_profile_spans() {
    let f = fixture("timings");
    let (trace, profile) = (&f.trace, &f.profile);
    let (code, out, err) = tool(&[Path::new("report"), trace, Path::new("--timings")]);
    assert_eq!(code, 0, "{err}");

    let cache = table(&out, "== result cache (final snapshot) ==");
    let expected: [&[&str]; 9] = [
        &["hits", "7", "(2", "from", "disk)"],
        &["misses", "3"],
        &["bypasses", "1"],
        &["stores", "4"],
        &["verified", "5"],
        &["hit", "rate", "70.0%"],
        &["tier", "hits", "misses", "stores"],
        &["disk", "2", "1", "4"],
        &["memory", "5", "3", "3"],
    ];
    assert_eq!(cache, expected);

    let heading = "== profile spans (nondeterministic) ==";
    let rows = table(&out, heading);
    assert_eq!(
        rows[0],
        ["top", "3", "of", "3", "spans", "by", "wall", "time", "(2", "workers)"]
    );
    assert_eq!(
        rows[1],
        ["level", "wall_s", "%", "cycles", "cycles/s", "hit%", "name"]
    );
    assert_eq!(
        rows[2],
        [
            "campaign",
            "2.000",
            "100.0",
            "1000000",
            "500000",
            "70.0",
            "experiments"
        ]
    );
    assert_eq!(
        rows[3],
        ["figure", "1.500", "75.0", "600000", "400000", "100.0", "fig11"]
    );
    let long = "scheme:BLK_BFS/PBS-WS-with-a-name-longer-than-forty";
    assert_eq!(rows[4], ["unit", "0.500", "25.0", "0", "-", "-", long]);

    // `profile` on the PROFILE.json of the same spans prints the same rows.
    let (code, by_file, err) = tool(&[Path::new("profile"), profile]);
    assert_eq!(code, 0, "{err}");
    let report_rows = out.lines().skip_while(|l| *l != heading).skip(1);
    assert_eq!(
        by_file.lines().collect::<Vec<_>>(),
        report_rows.collect::<Vec<_>>()
    );
}

#[test]
fn retired_commands_and_flags_exit_2_with_the_usage_text() {
    let f = fixture("retired");
    let (p, trace, profile) = (Path::new, f.trace.as_path(), f.profile.as_path());
    for args in [
        vec![p("stalls"), trace],
        vec![p("cache"), trace],
        vec![p("report"), trace, p("--profile"), profile],
        vec![p("report"), trace, p("--lanes"), p("4")],
    ] {
        let (code, out, err) = tool(&args);
        assert_eq!(code, 2, "{args:?}");
        assert!(out.is_empty(), "{args:?}: {out}");
        assert!(err.starts_with("usage: trace-tools"), "{args:?}: {err}");
    }
    let (_, _, usage) = tool(&[]);
    let commands: Vec<&str> = usage
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(
        commands,
        ["validate", "timeline", "diff", "profile", "report"]
    );
}

#[test]
fn damaged_inputs_render_or_name_the_file() {
    let f = fixture("damaged");
    let (trace, profile) = (&f.trace, &f.profile);
    let text = std::fs::read_to_string(trace).unwrap();
    std::fs::write(trace, &text[..text.len() - 20]).unwrap();
    let (code, out, err) = tool(&[Path::new("report"), trace]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("== DRAM request latency"), "{out}");
    assert!(err.contains("skipped 1 unparsable line(s)"), "{err}");

    let text = std::fs::read_to_string(profile).unwrap();
    std::fs::write(profile, &text[..text.len() / 2]).unwrap();
    let (code, out, err) = tool(&[Path::new("profile"), profile]);
    assert_eq!(code, 1);
    assert!(out.is_empty(), "{out}");
    assert!(err.contains(&*profile.to_string_lossy()), "{err}");
}
