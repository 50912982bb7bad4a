//! Offline analysis CLI for JSONL traces (`docs/TRACE_SCHEMA.md`).
//!
//! ```text
//! trace-tools validate <trace>         strict schema check (CI gate)
//! trace-tools timeline <trace>         per-app EB/BW/CMR/IPC CSV
//! trace-tools stalls   <trace>         stall breakdown + latency percentiles
//! trace-tools cache    <trace>         result-cache counter summary
//! trace-tools diff     <a> <b>         compare two traces
//! trace-tools profile  <PROFILE.json>  top spans by wall time
//! trace-tools report   <trace> [--profile P] [--timings] [--html PATH] [--lanes N]
//! ```
//!
//! `validate` exits non-zero on the first schema violation class (all
//! offending lines are listed, capped) and on a trace with no records;
//! the analysis modes skip and count unparsable lines so a
//! partially-damaged trace still renders.
//!
//! `report` merges one trace (and optionally its `PROFILE.json`) into a
//! single self-contained run report. Its default output contains only
//! deterministic data — plan-order scheduler units, a virtual LPT
//! schedule over estimated costs and stall summaries — so
//! serial and scheduled traces of the same campaign render byte-identical
//! reports (a CI gate). `--timings` adds the nondeterministic wall-clock
//! sections (per-worker schedule, cost-model calibration, cache funnel);
//! `--html` additionally writes the report as a self-contained HTML page.

use ebm_bench::json::{parse, Json};
use ebm_bench::schema::validate_trace;
use gpu_sim::trace::TRACE_SCHEMA_VERSION;
use gpu_types::Histogram;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `println!` that treats a closed stdout (e.g. `trace-tools timeline t |
/// head`) as a normal end of output instead of a broken-pipe panic.
macro_rules! outln {
    ($($t:tt)*) => {{
        use std::io::Write;
        if let Err(e) = writeln!(std::io::stdout(), $($t)*) {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            panic!("stdout write failed: {e}");
        }
    }};
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace-tools <command> <trace.jsonl> [args]\n\
         \n\
         commands:\n\
         \x20 validate <trace>      check every record against schema v1..={TRACE_SCHEMA_VERSION}\n\
         \x20 timeline <trace>      per-app EB/BW/CMR/IPC timeline as CSV (stdout)\n\
         \x20 stalls <trace>        warp-stall breakdown and latency percentile tables\n\
         \x20 cache <trace>         result-cache counter summary\n\
         \x20 diff <a> <b>          compare two traces (kinds, windows, per-app means)\n\
         \x20 profile <PROFILE.json> [N]  top N spans by wall time (default 20)\n\
         \x20 report <trace> [--profile PROFILE.json] [--timings] [--html PATH] [--lanes N]\n\
         \x20                       self-contained run report (deterministic by default)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("validate") if args.len() == 2 => validate_cmd(&args[1]),
        Some("timeline") if args.len() == 2 => timeline_cmd(&args[1]),
        Some("stalls") if args.len() == 2 => stalls_cmd(&args[1]),
        Some("cache") if args.len() == 2 => cache_cmd(&args[1]),
        Some("diff") if args.len() == 3 => diff_cmd(&args[1], &args[2]),
        Some("profile") if args.len() == 2 => profile_cmd(&args[1], 20),
        Some("profile") if args.len() == 3 => match args[2].parse() {
            Ok(n) => profile_cmd(&args[1], n),
            Err(_) => usage(),
        },
        Some("report") if args.len() >= 2 => match ReportOpts::parse(&args[1..]) {
            Some(opts) => report_cmd(&opts),
            None => usage(),
        },
        _ => usage(),
    }
}

fn read_trace(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// validate
// ---------------------------------------------------------------------------

fn validate_cmd(path: &str) -> ExitCode {
    let text = match read_trace(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let report = validate_trace(&text);
    outln!("{path}: {} records", report.lines);
    for (kind, n) in &report.by_kind {
        outln!("  {kind:<18} {n}");
    }
    if report.is_ok() {
        outln!("OK: every record matches docs/TRACE_SCHEMA.md");
        ExitCode::SUCCESS
    } else if report.lines == 0 {
        eprintln!("INVALID: {path} holds no records");
        ExitCode::FAILURE
    } else {
        const CAP: usize = 20;
        for (line, msg) in report.errors.iter().take(CAP) {
            eprintln!("{path}:{line}: {msg}");
        }
        if report.errors.len() > CAP {
            eprintln!("... and {} more errors", report.errors.len() - CAP);
        }
        eprintln!(
            "INVALID: {} of {} records failed",
            report.errors.len(),
            report.lines
        );
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// shared parsing helpers for the analysis modes
// ---------------------------------------------------------------------------

/// Parses every well-formed JSON object line; returns the records and the
/// number of skipped (unparsable) lines.
fn parse_records(text: &str) -> (Vec<Json>, u64) {
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(v @ Json::Obj(_)) => records.push(v),
            _ => skipped += 1,
        }
    }
    (records, skipped)
}

fn kind_of(rec: &Json) -> &str {
    rec.get("kind").and_then(Json::as_str).unwrap_or("")
}

fn num(rec: &Json, key: &str) -> f64 {
    rec.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

fn int(rec: &Json, key: &str) -> u64 {
    rec.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn warn_skipped(skipped: u64) {
    if skipped > 0 {
        eprintln!("warning: skipped {skipped} unparsable line(s)");
    }
}

/// Rebuilds a histogram from its serialized object; `None` when the
/// record is malformed or internally inconsistent.
fn hist_of(rec: &Json, key: &str) -> Option<Histogram> {
    let h = rec.get(key)?;
    let buckets: Vec<u64> = h
        .get("buckets")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<_>>()?;
    Histogram::from_parts(
        h.get("count")?.as_u64()?,
        h.get("sum")?.as_u64()?,
        h.get("min")?.as_u64()?,
        h.get("max")?.as_u64()?,
        &buckets,
    )
    .ok()
}

// ---------------------------------------------------------------------------
// timeline
// ---------------------------------------------------------------------------

fn timeline_cmd(path: &str) -> ExitCode {
    let text = match read_trace(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let (records, skipped) = parse_records(&text);
    outln!("cycle,app,eb,bw,cmr,ipc");
    let mut rows = 0u64;
    for rec in records.iter().filter(|r| kind_of(r) == "window_sample") {
        outln!(
            "{},{},{},{},{},{}",
            int(rec, "cycle"),
            int(rec, "app"),
            fmt_num(num(rec, "eb")),
            fmt_num(num(rec, "bw")),
            fmt_num(num(rec, "cmr")),
            fmt_num(num(rec, "ipc")),
        );
        rows += 1;
    }
    warn_skipped(skipped);
    if rows == 0 {
        eprintln!("warning: no window_sample records in {path}");
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// stalls
// ---------------------------------------------------------------------------

#[derive(Default)]
struct StallAccum {
    mem: u64,
    exec: u64,
    barrier: u64,
    tlp_capped: u64,
    dram_lat: Histogram,
    mshr_occ: Histogram,
    queue_depth: Histogram,
    windows: u64,
}

/// Sums the `metrics_window` records per app; key `None` is the
/// machine-wide aggregate, the only one whose occupancy gauges are read.
fn fold_stalls(records: &[Json]) -> BTreeMap<Option<u64>, StallAccum> {
    let mut acc: BTreeMap<Option<u64>, StallAccum> = BTreeMap::new();
    for rec in records.iter().filter(|r| kind_of(r) == "metrics_window") {
        let a = acc
            .entry(rec.get("app").and_then(Json::as_u64))
            .or_default();
        if let Some(stalls) = rec.get("stalls") {
            a.mem += int(stalls, "mem");
            a.exec += int(stalls, "exec");
            a.barrier += int(stalls, "barrier");
            a.tlp_capped += int(stalls, "tlp_capped");
        }
        for (key, h) in [
            ("dram_lat", &mut a.dram_lat),
            ("mshr_occ", &mut a.mshr_occ),
            ("queue_depth", &mut a.queue_depth),
        ] {
            if let Some(rec_h) = hist_of(rec, key) {
                h.merge(&rec_h);
            }
        }
        a.windows += 1;
    }
    acc
}

fn stalls_cmd(path: &str) -> ExitCode {
    let text = match read_trace(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let (records, skipped) = parse_records(&text);
    let acc = fold_stalls(&records);
    warn_skipped(skipped);
    if acc.is_empty() {
        eprintln!("warning: no metrics_window records in {path} (trace predates schema v3?)");
        return ExitCode::SUCCESS;
    }
    outln!("warp-stall breakdown (warp-cycles, summed over windows)");
    outln!(
        "{:<6} {:>8} {:>14} {:>14} {:>14} {:>14}",
        "app",
        "windows",
        "mem",
        "exec",
        "barrier",
        "tlp_capped"
    );
    for (app, a) in &acc {
        let label = app.map_or("all".to_string(), |x| x.to_string());
        outln!(
            "{label:<6} {:>8} {:>14} {:>14} {:>14} {:>14}",
            a.windows,
            a.mem,
            a.exec,
            a.barrier,
            a.tlp_capped
        );
    }
    outln!();
    outln!("DRAM request latency (cycles, queue to data)");
    outln!(
        "{:<6} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "app",
        "requests",
        "mean",
        "min",
        "p50",
        "p95",
        "p99",
        "max"
    );
    for (app, a) in &acc {
        let label = app.map_or("all".to_string(), |x| x.to_string());
        let h = &a.dram_lat;
        outln!(
            "{label:<6} {:>10} {:>10.1} {:>8} {:>8} {:>8} {:>8} {:>8}",
            h.count(),
            h.mean(),
            h.min(),
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
            h.max()
        );
    }
    outln!();
    outln!("machine-wide occupancy gauges (sampled once per window)");
    outln!(
        "{:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "gauge",
        "samples",
        "mean",
        "min",
        "p50",
        "p95",
        "p99",
        "max"
    );
    let no_records = StallAccum::default();
    let machine = acc.get(&None).unwrap_or(&no_records);
    for (name, h) in [
        ("l2_mshr", &machine.mshr_occ),
        ("queue_depth", &machine.queue_depth),
    ] {
        outln!(
            "{name:<12} {:>10} {:>10.1} {:>8} {:>8} {:>8} {:>8} {:>8}",
            h.count(),
            h.mean(),
            h.min(),
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
            h.max()
        );
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// cache
// ---------------------------------------------------------------------------

fn cache_cmd(path: &str) -> ExitCode {
    let text = match read_trace(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let (records, skipped) = parse_records(&text);
    warn_skipped(skipped);
    // Counters are cumulative at emission time, so the last record wins.
    let Some(rec) = records.iter().rev().find(|r| kind_of(r) == "cache_stats") else {
        eprintln!("warning: no cache_stats records in {path}");
        return ExitCode::SUCCESS;
    };
    let (hits, disk_hits, misses) = (int(rec, "hits"), int(rec, "disk_hits"), int(rec, "misses"));
    let lookups = hits + misses;
    outln!("result-cache counters (final snapshot)");
    outln!("  hits       {hits} ({disk_hits} from disk)");
    outln!("  misses     {misses}");
    outln!("  bypasses   {}", int(rec, "bypasses"));
    outln!("  stores     {}", int(rec, "stores"));
    outln!("  verified   {}", int(rec, "verified"));
    if lookups > 0 {
        outln!("  hit rate   {:.1}%", 100.0 * hits as f64 / lookups as f64);
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

/// The spans of a `PROFILE.json` document, longest wall time first;
/// `None` when it has no `spans` array.
fn spans_by_wall(doc: &Json) -> Option<Vec<&Json>> {
    let mut rows: Vec<&Json> = doc.get("spans")?.as_arr()?.iter().collect();
    rows.sort_by(|a, b| {
        num(b, "wall_s")
            .partial_cmp(&num(a, "wall_s"))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Some(rows)
}

/// Renders the top-`top_n` spans of a `results/PROFILE.json` by wall
/// time: where a campaign actually spent its time, at what simulation
/// rate, and how often the result cache served it. In a scheduled
/// campaign this file holds one `unit` span per work unit — the same
/// labels the scheduler's cost model reads back.
fn profile_cmd(path: &str, top_n: usize) -> ExitCode {
    let text = match read_trace(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {path} is not valid JSON: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let Some(rows) = spans_by_wall(&doc) else {
        eprintln!("error: {path} has no `spans` array (not a PROFILE.json?)");
        return ExitCode::FAILURE;
    };
    let total_wall: f64 = rows
        .iter()
        .filter(|s| s.get("level").and_then(Json::as_str) == Some("campaign"))
        .map(|s| num(s, "wall_s"))
        .sum();
    outln!(
        "top {} of {} spans by wall time{}",
        top_n.min(rows.len()),
        rows.len(),
        doc.get("workers")
            .and_then(Json::as_u64)
            .map_or(String::new(), |w| format!(" ({w} workers)"))
    );
    outln!(
        "{:<10} {:<40} {:>9} {:>6} {:>13} {:>11} {:>8}",
        "level",
        "name",
        "wall_s",
        "%",
        "cycles",
        "cycles/s",
        "hit%"
    );
    for rec in rows.iter().take(top_n) {
        let wall = num(rec, "wall_s");
        let cycles = int(rec, "cycles");
        let hits = int(rec, "cache_hits");
        let misses = int(rec, "cache_misses");
        let lookups = hits + misses;
        let pct = if total_wall > 0.0 {
            format!("{:.1}", 100.0 * wall / total_wall)
        } else {
            "-".to_string()
        };
        let rate = if wall > 0.0 && cycles > 0 {
            format!("{:.0}", cycles as f64 / wall)
        } else {
            "-".to_string()
        };
        let hit_rate = if lookups > 0 {
            format!("{:.1}", 100.0 * hits as f64 / lookups as f64)
        } else {
            "-".to_string()
        };
        let mut name = rec
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        if name.len() > 40 {
            name.truncate(37);
            name.push_str("...");
        }
        outln!(
            "{:<10} {:<40} {:>9.3} {:>6} {:>13} {:>11} {:>8}",
            rec.get("level").and_then(Json::as_str).unwrap_or("?"),
            name,
            wall,
            pct,
            cycles,
            rate,
            hit_rate
        );
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

#[derive(Default)]
struct TraceSummary {
    kinds: BTreeMap<String, u64>,
    last_cycle: u64,
    /// Per app: (windows, Σeb, Σipc).
    apps: BTreeMap<u64, (u64, f64, f64)>,
    tlp_decisions: u64,
}

fn summarize(records: &[Json]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for rec in records {
        let kind = kind_of(rec).to_string();
        if kind.is_empty() {
            continue;
        }
        *s.kinds.entry(kind.clone()).or_insert(0) += 1;
        s.last_cycle = s.last_cycle.max(int(rec, "cycle"));
        match kind.as_str() {
            "window_sample" => {
                let e = s.apps.entry(int(rec, "app")).or_insert((0, 0.0, 0.0));
                e.0 += 1;
                let (eb, ipc) = (num(rec, "eb"), num(rec, "ipc"));
                if eb.is_finite() {
                    e.1 += eb;
                }
                if ipc.is_finite() {
                    e.2 += ipc;
                }
            }
            "tlp_decision" => s.tlp_decisions += 1,
            _ => {}
        }
    }
    s
}

fn diff_cmd(path_a: &str, path_b: &str) -> ExitCode {
    let (text_a, text_b) = match (read_trace(path_a), read_trace(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let (recs_a, skip_a) = parse_records(&text_a);
    let (recs_b, skip_b) = parse_records(&text_b);
    warn_skipped(skip_a + skip_b);
    let (a, b) = (summarize(&recs_a), summarize(&recs_b));

    outln!("{:<24} {:>14} {:>14} {:>14}", "metric", "A", "B", "delta");
    outln!(
        "{:<24} {:>14} {:>14} {:>14}",
        "records",
        recs_a.len(),
        recs_b.len(),
        recs_b.len() as i64 - recs_a.len() as i64
    );
    let mut all_kinds: Vec<&String> = a.kinds.keys().chain(b.kinds.keys()).collect();
    all_kinds.sort();
    all_kinds.dedup();
    let mut identical = recs_a.len() == recs_b.len();
    for kind in all_kinds {
        let (na, nb) = (
            a.kinds.get(kind).copied().unwrap_or(0),
            b.kinds.get(kind).copied().unwrap_or(0),
        );
        if na != nb {
            identical = false;
        }
        outln!(
            "{:<24} {na:>14} {nb:>14} {:>14}",
            format!("  {kind}"),
            nb as i64 - na as i64
        );
    }
    outln!(
        "{:<24} {:>14} {:>14} {:>14}",
        "last cycle",
        a.last_cycle,
        b.last_cycle,
        b.last_cycle as i64 - a.last_cycle as i64
    );
    outln!(
        "{:<24} {:>14} {:>14} {:>14}",
        "tlp decisions",
        a.tlp_decisions,
        b.tlp_decisions,
        b.tlp_decisions as i64 - a.tlp_decisions as i64
    );
    let mut apps: Vec<&u64> = a.apps.keys().chain(b.apps.keys()).collect();
    apps.sort();
    apps.dedup();
    for app in apps {
        let ma = a.apps.get(app).copied().unwrap_or((0, 0.0, 0.0));
        let mb = b.apps.get(app).copied().unwrap_or((0, 0.0, 0.0));
        let mean = |(n, sum, _): (u64, f64, f64)| if n > 0 { sum / n as f64 } else { f64::NAN };
        let mean_ipc = |(n, _, sum): (u64, f64, f64)| if n > 0 { sum / n as f64 } else { f64::NAN };
        let (ea, eb) = (mean(ma), mean(mb));
        let (ia, ib) = (mean_ipc(ma), mean_ipc(mb));
        if (ea - eb).abs() > 1e-12 || (ia - ib).abs() > 1e-12 {
            identical = false;
        }
        outln!(
            "{:<24} {:>14.4} {:>14.4} {:>+14.4}",
            format!("app {app} mean EB"),
            ea,
            eb,
            eb - ea
        );
        outln!(
            "{:<24} {:>14.4} {:>14.4} {:>+14.4}",
            format!("app {app} mean IPC"),
            ia,
            ib,
            ib - ia
        );
    }
    outln!();
    if identical {
        outln!("traces are equivalent under this summary");
    } else {
        outln!("traces differ");
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

/// Parsed `report` command line.
struct ReportOpts {
    trace: String,
    profile: Option<String>,
    timings: bool,
    html: Option<String>,
    lanes: usize,
}

impl ReportOpts {
    fn parse(args: &[String]) -> Option<ReportOpts> {
        let mut trace = None;
        let mut profile = None;
        let mut timings = false;
        let mut html = None;
        let mut lanes = 4usize;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--timings" => timings = true,
                "--profile" => {
                    profile = Some(args.get(i + 1)?.clone());
                    i += 1;
                }
                "--html" => {
                    html = Some(args.get(i + 1)?.clone());
                    i += 1;
                }
                "--lanes" => {
                    lanes = args.get(i + 1)?.parse().ok().filter(|&n| n >= 1)?;
                    i += 1;
                }
                a if !a.starts_with("--") && trace.is_none() => trace = Some(a.to_string()),
                _ => return None,
            }
            i += 1;
        }
        Some(ReportOpts {
            trace: trace?,
            profile,
            timings,
            html,
            lanes,
        })
    }
}

/// One `sched_unit` record, decoded.
struct UnitRec {
    unit: u64,
    label: String,
    fp: String,
    deps: u64,
    est: u64,
    worker: u64,
    start_ms: f64,
    wall_ms: f64,
    cycles: u64,
}

/// One bar of the virtual (or per-worker) schedule.
struct Seg {
    unit: usize,
    start: u64,
    finish: u64,
}

/// Everything a report renders, derived once from the parsed records so
/// the text and HTML outputs cannot drift apart.
struct ReportData {
    /// Record counts of the deterministic event kinds only (the
    /// nondeterministic `profile_span` / `cache_stats` / `cache_tier`
    /// counts are excluded so serial and scheduled reports stay
    /// byte-identical).
    kind_counts: BTreeMap<String, u64>,
    units: Vec<UnitRec>,
    lanes: Vec<Vec<Seg>>,
    makespan: u64,
    stalls: BTreeMap<Option<u64>, StallAccum>,
    /// Per-tier `[hits, misses, stores]`, last snapshot per tier.
    tiers: BTreeMap<String, [u64; 3]>,
}

/// Event kinds whose count (or content) varies run to run; excluded from
/// the deterministic report header.
const NONDETERMINISTIC_KINDS: [&str; 3] = ["profile_span", "cache_stats", "cache_tier"];

/// Deterministic LPT list schedule of the plan over `lanes` virtual
/// lanes: units in estimated-cost order (ties toward the lower unit
/// index, mirroring the real scheduler's ready queue), each placed on the
/// earliest-free lane. Pure function of the plan — serial and scheduled
/// traces of the same campaign produce the identical schedule.
fn virtual_schedule(units: &[UnitRec], lanes: usize) -> (Vec<Vec<Seg>>, u64) {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| {
        units[b]
            .est
            .cmp(&units[a].est)
            .then(units[a].unit.cmp(&units[b].unit))
    });
    let mut lane_segs: Vec<Vec<Seg>> = (0..lanes).map(|_| Vec::new()).collect();
    let mut free = vec![0u64; lanes];
    for i in order {
        let lane = (0..lanes)
            .min_by_key(|&l| (free[l], l))
            .expect("lanes >= 1");
        let start = free[lane];
        let finish = start + units[i].est;
        free[lane] = finish;
        lane_segs[lane].push(Seg {
            unit: i,
            start,
            finish,
        });
    }
    (lane_segs, free.into_iter().max().unwrap_or(0))
}

fn collect_report_data(records: &[Json], lanes: usize) -> ReportData {
    let mut kind_counts: BTreeMap<String, u64> = BTreeMap::new();
    for rec in records {
        let kind = kind_of(rec);
        if !kind.is_empty() && !NONDETERMINISTIC_KINDS.contains(&kind) {
            *kind_counts.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
    let mut units: Vec<UnitRec> = records
        .iter()
        .filter(|r| kind_of(r) == "sched_unit")
        .map(|r| UnitRec {
            unit: int(r, "unit"),
            label: r
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            fp: r.get("fp").and_then(Json::as_str).unwrap_or("").to_string(),
            deps: int(r, "deps"),
            est: int(r, "est"),
            worker: int(r, "worker"),
            start_ms: num(r, "start_ms"),
            wall_ms: num(r, "wall_ms"),
            cycles: int(r, "cycles"),
        })
        .collect();
    units.sort_by_key(|u| u.unit);
    let (lane_segs, makespan) = virtual_schedule(&units, lanes);
    let stalls = fold_stalls(records);
    // Tier counters are cumulative at emission, so the last snapshot per
    // tier wins (mirrors `cache_cmd`).
    let mut tiers: BTreeMap<String, [u64; 3]> = BTreeMap::new();
    for rec in records.iter().filter(|r| kind_of(r) == "cache_tier") {
        if let Some(tier) = rec.get("tier").and_then(Json::as_str) {
            tiers.insert(
                tier.to_string(),
                [int(rec, "hits"), int(rec, "misses"), int(rec, "stores")],
            );
        }
    }
    ReportData {
        kind_counts,
        units,
        lanes: lane_segs,
        makespan,
        stalls,
        tiers,
    }
}

/// Renders the deterministic body of the report (every default section).
/// Contains no file paths, timestamps or wall-clock numbers.
fn render_report_text(d: &ReportData) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "== run report ==");
    let _ = writeln!(w, "records by kind (deterministic kinds only):");
    if d.kind_counts.is_empty() {
        let _ = writeln!(w, "  none");
    }
    for (kind, n) in &d.kind_counts {
        let _ = writeln!(w, "  {kind:<18} {n}");
    }

    let _ = writeln!(w);
    let _ = writeln!(w, "== campaign plan ==");
    if d.units.is_empty() {
        let _ = writeln!(w, "no sched_unit records (untraced or pre-v5 run)");
    } else {
        let total_est: u64 = d.units.iter().map(|u| u.est).sum();
        let with_deps = d.units.iter().filter(|u| u.deps > 0).count();
        let _ = writeln!(
            w,
            "{} units, {} with dependencies, total estimated cost {} cycles",
            d.units.len(),
            with_deps,
            total_est
        );
        const TOP: usize = 40;
        let mut by_est: Vec<&UnitRec> = d.units.iter().collect();
        by_est.sort_by(|a, b| b.est.cmp(&a.est).then(a.unit.cmp(&b.unit)));
        let _ = writeln!(
            w,
            "top {} of {} units by estimated cost:",
            TOP.min(by_est.len()),
            by_est.len()
        );
        let _ = writeln!(
            w,
            "  {:>5} {:>12} {:>5}  {:<10} label",
            "unit", "est", "deps", "fp"
        );
        for u in by_est.iter().take(TOP) {
            let fp8 = u.fp.get(..8).unwrap_or(&u.fp);
            let _ = writeln!(
                w,
                "  {:>5} {:>12} {:>5}  {:<10} {}",
                u.unit, u.est, u.deps, fp8, u.label
            );
        }
    }

    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "== virtual schedule ({} lanes, LPT by estimated cost) ==",
        d.lanes.len()
    );
    if d.units.is_empty() {
        let _ = writeln!(w, "nothing to schedule");
    } else {
        let total_est: u64 = d.units.iter().map(|u| u.est).sum();
        let parallelism = total_est as f64 / d.makespan.max(1) as f64;
        let _ = writeln!(
            w,
            "makespan {} virtual cycles, parallelism {:.2} (sum of estimates / makespan)",
            d.makespan, parallelism
        );
        for (lane, segs) in d.lanes.iter().enumerate() {
            let busy: u64 = segs.iter().map(|s| s.finish - s.start).sum();
            let pct = 100.0 * busy as f64 / d.makespan.max(1) as f64;
            let _ = write!(w, "lane {lane}: {} units, busy {pct:.1}% |", segs.len());
            const SEGS: usize = 6;
            for s in segs.iter().take(SEGS) {
                let _ = write!(w, " {}@{}", d.units[s.unit].unit, s.start);
            }
            if segs.len() > SEGS {
                let _ = write!(w, " (+{} more)", segs.len() - SEGS);
            }
            let _ = writeln!(w);
        }
    }

    let _ = writeln!(w);
    let _ = writeln!(w, "== per-app stalls and DRAM latency ==");
    if d.stalls.is_empty() {
        let _ = writeln!(w, "no metrics_window records");
    } else {
        let _ = writeln!(
            w,
            "{:<6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>9} {:>8}",
            "app", "windows", "mem", "exec", "barrier", "tlp_capped", "dram_reqs", "mean", "p95"
        );
        for (app, a) in &d.stalls {
            let label = app.map_or("all".to_string(), |x| x.to_string());
            let h = &a.dram_lat;
            let _ = writeln!(
                w,
                "{label:<6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>9.1} {:>8}",
                a.windows,
                a.mem,
                a.exec,
                a.barrier,
                a.tlp_capped,
                h.count(),
                h.mean(),
                h.percentile(0.95)
            );
        }
    }
    out
}

/// Renders the `--timings` sections: real execution data that varies run
/// to run (never part of the byte-compare gate).
fn render_timings_text(d: &ReportData) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w);
    let _ = writeln!(w, "== scheduler timings (nondeterministic) ==");
    let executed: Vec<&UnitRec> = d.units.iter().filter(|u| u.wall_ms > 0.0).collect();
    if executed.is_empty() {
        let _ = writeln!(
            w,
            "no recorded unit timings (serial plan-only emission, or cache-warm run)"
        );
    } else {
        let mut workers: BTreeMap<u64, (usize, f64)> = BTreeMap::new();
        for u in &executed {
            let e = workers.entry(u.worker).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += u.wall_ms;
        }
        let _ = writeln!(w, "{:<8} {:>6} {:>12}", "worker", "units", "busy_ms");
        for (worker, (n, busy)) in &workers {
            let _ = writeln!(w, "{worker:<8} {n:>6} {busy:>12.2}");
        }
        const TOP: usize = 20;
        let mut by_wall: Vec<&&UnitRec> = executed.iter().collect();
        by_wall.sort_by(|a, b| {
            b.wall_ms
                .partial_cmp(&a.wall_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.unit.cmp(&b.unit))
        });
        let _ = writeln!(
            w,
            "top {} of {} executed units by wall time:",
            TOP.min(by_wall.len()),
            by_wall.len()
        );
        let _ = writeln!(
            w,
            "  {:>5} {:>6} {:>11} {:>10} {:>13} label",
            "unit", "worker", "start_ms", "wall_ms", "cycles"
        );
        for u in by_wall.iter().take(TOP) {
            let _ = writeln!(
                w,
                "  {:>5} {:>6} {:>11.2} {:>10.2} {:>13} {}",
                u.unit, u.worker, u.start_ms, u.wall_ms, u.cycles, u.label
            );
        }

        let _ = writeln!(w);
        let _ = writeln!(w, "== cost-model calibration ==");
        let mut simulated: Vec<&&UnitRec> = executed.iter().filter(|u| u.cycles > 0).collect();
        if simulated.is_empty() {
            let _ = writeln!(w, "no units simulated cycles (fully cache-served run)");
        } else {
            simulated.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.unit.cmp(&b.unit)));
            let _ = writeln!(
                w,
                "top {} of {} simulated units, estimate vs actual:",
                TOP.min(simulated.len()),
                simulated.len()
            );
            let _ = writeln!(w, "  {:>12} {:>13} {:>7}  label", "est", "actual", "ratio");
            for u in simulated.iter().take(TOP) {
                let ratio = u.cycles as f64 / u.est.max(1) as f64;
                let _ = writeln!(
                    w,
                    "  {:>12} {:>13} {:>7.2}  {}",
                    u.est, u.cycles, ratio, u.label
                );
            }
        }
    }

    let _ = writeln!(w);
    let _ = writeln!(w, "== result-cache hit funnel ==");
    if d.tiers.is_empty() {
        let _ = writeln!(w, "no cache_tier records (untraced or pre-v5 run)");
    } else {
        let _ = writeln!(
            w,
            "{:<8} {:>10} {:>10} {:>10}",
            "tier", "hits", "misses", "stores"
        );
        for (tier, v) in &d.tiers {
            let _ = writeln!(w, "{tier:<8} {:>10} {:>10} {:>10}", v[0], v[1], v[2]);
        }
    }
    out
}

/// Renders the `--profile` section from a `PROFILE.json` document: top
/// spans by wall time (nondeterministic; opt-in via the flag).
fn render_profile_text(doc: &Json) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w);
    let _ = writeln!(w, "== profile spans (nondeterministic) ==");
    let Some(rows) = spans_by_wall(doc) else {
        let _ = writeln!(w, "no `spans` array (not a PROFILE.json?)");
        return out;
    };
    const TOP: usize = 10;
    let _ = writeln!(
        w,
        "top {} of {} spans by wall time:",
        TOP.min(rows.len()),
        rows.len()
    );
    let _ = writeln!(
        w,
        "  {:<10} {:>9} {:>13}  name",
        "level", "wall_s", "cycles"
    );
    for rec in rows.iter().take(TOP) {
        let _ = writeln!(
            w,
            "  {:<10} {:>9.3} {:>13}  {}",
            rec.get("level").and_then(Json::as_str).unwrap_or("?"),
            num(rec, "wall_s"),
            int(rec, "cycles"),
            rec.get("name").and_then(Json::as_str).unwrap_or("?")
        );
    }
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the report as one self-contained HTML page (inline CSS, no
/// scripts, no external references): the same data as the text report,
/// with the virtual schedule drawn as proportional div bars.
fn render_report_html(d: &ReportData, text_sections: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "<!DOCTYPE html>");
    let _ = writeln!(
        w,
        "<html><head><meta charset=\"utf-8\"><title>run report</title>"
    );
    let _ = writeln!(
        w,
        "<style>body{{font-family:monospace;margin:1em}}\
         .lane{{position:relative;height:22px;background:#eee;margin:2px 0}}\
         .seg{{position:absolute;top:1px;height:20px;background:#4a90d9;\
         color:#fff;overflow:hidden;font-size:11px;border-right:1px solid #fff}}\
         pre{{background:#f7f7f7;padding:8px}}</style></head><body>"
    );
    let _ = writeln!(w, "<h1>run report</h1>");
    let _ = writeln!(
        w,
        "<h2>virtual schedule ({} lanes, LPT by estimated cost)</h2>",
        d.lanes.len()
    );
    if d.makespan > 0 {
        for segs in &d.lanes {
            let _ = writeln!(w, "<div class=\"lane\">");
            for s in segs {
                let left = 100.0 * s.start as f64 / d.makespan as f64;
                let width = 100.0 * (s.finish - s.start) as f64 / d.makespan as f64;
                let u = &d.units[s.unit];
                let _ = writeln!(
                    w,
                    "<div class=\"seg\" style=\"left:{left:.4}%;width:{width:.4}%\" \
                     title=\"{}\">{}</div>",
                    html_escape(&u.label),
                    u.unit
                );
            }
            let _ = writeln!(w, "</div>");
        }
    } else {
        let _ = writeln!(w, "<p>nothing to schedule</p>");
    }
    let _ = writeln!(w, "<h2>full report</h2>");
    let _ = writeln!(w, "<pre>{}</pre>", html_escape(text_sections));
    let _ = writeln!(w, "</body></html>");
    out
}

fn report_cmd(opts: &ReportOpts) -> ExitCode {
    let text = match read_trace(&opts.trace) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let (records, skipped) = parse_records(&text);
    warn_skipped(skipped);
    let d = collect_report_data(&records, opts.lanes);
    let mut report = render_report_text(&d);
    if opts.timings {
        report.push_str(&render_timings_text(&d));
    }
    if let Some(profile_path) = &opts.profile {
        match read_trace(profile_path) {
            Ok(ptext) => match parse(&ptext) {
                Ok(doc) => report.push_str(&render_profile_text(&doc)),
                Err(e) => {
                    eprintln!("error: {profile_path} is not valid JSON: {e:?}");
                    return ExitCode::FAILURE;
                }
            },
            Err(code) => return code,
        }
    }
    outln!("{report}");
    if let Some(html_path) = &opts.html {
        let html = render_report_html(&d, &report);
        if let Err(e) = std::fs::write(html_path, html) {
            eprintln!("error: cannot write {html_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report: wrote {html_path}");
    }
    ExitCode::SUCCESS
}
