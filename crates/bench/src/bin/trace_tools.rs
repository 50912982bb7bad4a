//! Offline analysis CLI for JSONL traces (`docs/TRACE_SCHEMA.md`). The
//! commands are declared once, in [`COMMANDS`], which also generates the
//! usage text; `docs/OBSERVABILITY.md` holds the synopsis.
//!
//! `validate` exits non-zero on the first schema violation class (all
//! offending lines are listed, capped) and on a trace with no records;
//! the analysis commands load their input through [`load`], which skips
//! and counts unparsable lines so a partially-damaged trace still renders.
//!
//! `report` renders one trace as a self-contained run report, and it is
//! the only renderer of each of its tables. Its default output contains
//! only deterministic data — plan-order scheduler units, a virtual LPT
//! schedule over estimated costs, the warp-stall breakdown, DRAM latency
//! percentiles and the occupancy gauges — so serial and scheduled traces
//! of the same campaign render byte-identical reports (a CI gate).
//! `--timings` adds the nondeterministic sections (per-worker schedule,
//! cost-model calibration, result-cache counters and tier funnel, profiler
//! spans); `--html` additionally writes the report as a self-contained
//! HTML page. `profile` prints the same span table from a `PROFILE.json`,
//! for runs that wrote no trace.

use ebm_bench::json::{parse, Json};
use ebm_bench::schema::validate_trace;
use gpu_sim::trace::TRACE_SCHEMA_VERSION;
use gpu_types::Histogram;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! put {
    ($out:expr $(, $($t:tt)*)?) => {{
        use std::fmt::Write;
        let _ = writeln!($out $(, $($t)*)?);
    }};
}

/// How a command ends: `Err` carries a failure or usage exit code (the
/// command has already said why on stderr).
type Exit = Result<(), ExitCode>;

/// One command of the CLI.
struct Command {
    name: &'static str,
    /// Argument synopsis, as the usage text prints it.
    args: &'static str,
    help: &'static str,
    run: fn(&[String]) -> Exit,
}

/// Every command, in usage order; `main` dispatches on this table.
const COMMANDS: &[Command] = &[
    Command {
        name: "validate",
        args: "<trace>",
        help: "check every record against the trace schema",
        run: validate_cmd,
    },
    Command {
        name: "timeline",
        args: "<trace>",
        help: "per-app EB/BW/CMR/IPC timeline as CSV (stdout)",
        run: timeline_cmd,
    },
    Command {
        name: "diff",
        args: "<a> <b>",
        help: "compare two traces (kinds, windows, per-app means)",
        run: diff_cmd,
    },
    Command {
        name: "profile",
        args: "<PROFILE.json> [N]",
        help: "top N spans of an untraced run by wall time (default 20)",
        run: profile_cmd,
    },
    Command {
        name: "report",
        args: "<trace> [--timings] [--html PATH]",
        help: "run report (deterministic unless --timings)",
        run: report_cmd,
    },
];

fn usage() -> ExitCode {
    let mut text = String::from("usage: trace-tools <command> [args]\n\ncommands:\n");
    for c in COMMANDS {
        put!(text, "  {:<9} {:<34} {}", c.name, c.args, c.help);
    }
    eprint!("{text}\ntraces of schema v1..={TRACE_SCHEMA_VERSION} are accepted\n");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args
        .first()
        .and_then(|a| COMMANDS.iter().find(|c| c.name == a));
    match cmd.map(|c| (c.run)(&args[1..])) {
        Some(Ok(())) => ExitCode::SUCCESS,
        Some(Err(code)) => code,
        None => usage(),
    }
}

/// Writes `text` to stdout, treating a closed stdout (e.g. `trace-tools
/// timeline t | head`) as a normal end of output instead of a broken-pipe
/// panic.
fn emit(text: &str) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("stdout write failed: {e}");
    }
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Reads `path` and parses every well-formed JSON object line, warning
/// about the unparsable lines it skips.
fn load(path: &str) -> Result<Vec<Json>, ExitCode> {
    let text = read(path)?;
    let mut skipped = 0;
    let mut records = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse(line) {
            Ok(v @ Json::Obj(_)) => records.push(v),
            _ => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!("warning: {path}: skipped {skipped} unparsable line(s)");
    }
    Ok(records)
}

fn kind_of(rec: &Json) -> &str {
    rec.get("kind").and_then(Json::as_str).unwrap_or("")
}

fn of_kind<'a>(records: &'a [Json], kind: &'a str) -> impl Iterator<Item = &'a Json> {
    records.iter().filter(move |r| kind_of(r) == kind)
}

fn num(rec: &Json, key: &str) -> f64 {
    rec.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

fn int(rec: &Json, key: &str) -> u64 {
    rec.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn text<'a>(rec: &'a Json, key: &str) -> &'a str {
    rec.get(key).and_then(Json::as_str).unwrap_or("?")
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// `part / whole` as a percentage with one decimal, `-` when `whole` is 0.
fn pct(part: f64, whole: f64) -> String {
    if whole > 0.0 {
        format!("{:.1}", 100.0 * part / whole)
    } else {
        "-".to_string()
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
// validate
// ---------------------------------------------------------------------------

fn validate_cmd(args: &[String]) -> Exit {
    let [path] = args else {
        return Err(usage());
    };
    let report = validate_trace(&read(path)?);
    let mut out = String::new();
    put!(out, "{path}: {} records", report.lines);
    for (kind, n) in &report.by_kind {
        put!(out, "  {kind:<18} {n}");
    }
    if report.is_ok() {
        put!(out, "OK: every record matches docs/TRACE_SCHEMA.md");
    }
    emit(&out);
    if report.is_ok() {
        return Ok(());
    }
    if report.lines == 0 {
        eprintln!("INVALID: {path} holds no records");
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
    }
    Err(ExitCode::FAILURE)
}

// ---------------------------------------------------------------------------
// timeline
// ---------------------------------------------------------------------------

fn timeline_cmd(args: &[String]) -> Exit {
    let [path] = args else {
        return Err(usage());
    };
    let records = load(path)?;
    let mut out = String::from("cycle,app,eb,bw,cmr,ipc\n");
    let mut rows = 0u64;
    for rec in of_kind(&records, "window_sample") {
        put!(
            out,
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
    emit(&out);
    if rows == 0 {
        eprintln!("warning: no window_sample records in {path}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

/// How many spans `profile` prints by default and `report --timings` prints.
const TOP_SPANS: usize = 20;

/// Renders the top-`top_n` profiler spans by wall time: where a campaign
/// actually spent its time, at what simulation rate, and how often the
/// result cache served it: the campaign → figure → sweep → run tree (a
/// work unit's timing is its `sched_unit` record; traces and profiles
/// written before that also hold `unit` spans, shown like any other).
/// `spans` are `PROFILE.json` span objects or `profile_span` trace
/// records: the same fields.
fn render_spans(out: &mut String, spans: &[&Json], top_n: usize) {
    let mut rows = spans.to_vec();
    rows.sort_by(|a, b| num(b, "wall_s").total_cmp(&num(a, "wall_s")));
    let total_wall: f64 = rows
        .iter()
        .filter(|s| text(s, "level") == "campaign")
        .map(|s| num(s, "wall_s"))
        .sum();
    let workers = rows.iter().map(|s| int(s, "workers")).max().unwrap_or(0);
    put!(
        out,
        "top {} of {} spans by wall time ({workers} workers)",
        top_n.min(rows.len()),
        rows.len()
    );
    put!(
        out,
        "level         wall_s      %        cycles    cycles/s     hit%  name"
    );
    for rec in rows.iter().take(top_n) {
        let wall = num(rec, "wall_s");
        let cycles = int(rec, "cycles");
        let hits = int(rec, "cache_hits");
        let lookups = hits + int(rec, "cache_misses");
        let rate = if wall > 0.0 && cycles > 0 {
            format!("{:.0}", cycles as f64 / wall)
        } else {
            "-".to_string()
        };
        put!(
            out,
            "{:<10} {wall:>9.3} {:>6} {cycles:>13} {rate:>11} {:>8}  {}",
            text(rec, "level"),
            pct(wall, total_wall),
            pct(hits as f64, lookups as f64),
            text(rec, "name")
        );
    }
}

/// `profile <PROFILE.json> [N]`: the span table of a run that wrote no
/// trace (a traced run's report carries the same table).
fn profile_cmd(args: &[String]) -> Exit {
    let (path, top_n) = match args {
        [path] => (path, TOP_SPANS),
        [path, n] => (path, n.parse().map_err(|_| usage())?),
        _ => return Err(usage()),
    };
    let records = load(path)?;
    let Some(spans) = records.iter().find_map(|r| r.get("spans")?.as_arr()) else {
        eprintln!("error: {path} has no `spans` array (not a PROFILE.json?)");
        return Err(ExitCode::FAILURE);
    };
    let mut out = String::new();
    render_spans(&mut out, &spans.iter().collect::<Vec<_>>(), top_n);
    emit(&out);
    Ok(())
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

fn diff_cmd(args: &[String]) -> Exit {
    let [path_a, path_b] = args else {
        return Err(usage());
    };
    let (recs_a, recs_b) = (load(path_a)?, load(path_b)?);
    let (a, b) = (summarize(&recs_a), summarize(&recs_b));
    let mut out = String::new();
    let row = |out: &mut String, name: &str, na: u64, nb: u64| {
        put!(
            out,
            "{name:<24} {na:>14} {nb:>14} {:>14}",
            nb as i64 - na as i64
        );
    };
    put!(
        out,
        "{:<24} {:>14} {:>14} {:>14}",
        "metric",
        "A",
        "B",
        "delta"
    );
    row(
        &mut out,
        "records",
        recs_a.len() as u64,
        recs_b.len() as u64,
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
        identical &= na == nb;
        row(&mut out, &format!("  {kind}"), na, nb);
    }
    row(&mut out, "last cycle", a.last_cycle, b.last_cycle);
    row(&mut out, "tlp decisions", a.tlp_decisions, b.tlp_decisions);
    let mut apps: Vec<&u64> = a.apps.keys().chain(b.apps.keys()).collect();
    apps.sort();
    apps.dedup();
    for app in apps {
        let ma = a.apps.get(app).copied().unwrap_or((0, 0.0, 0.0));
        let mb = b.apps.get(app).copied().unwrap_or((0, 0.0, 0.0));
        let mean = |n: u64, sum: f64| if n > 0 { sum / n as f64 } else { f64::NAN };
        for (metric, va, vb) in [
            ("EB", mean(ma.0, ma.1), mean(mb.0, mb.1)),
            ("IPC", mean(ma.0, ma.2), mean(mb.0, mb.2)),
        ] {
            if (va - vb).abs() > 1e-12 {
                identical = false;
            }
            let name = format!("app {app} mean {metric}");
            put!(out, "{name:<24} {va:>14.4} {vb:>14.4} {:>+14.4}", vb - va);
        }
    }
    put!(out);
    if identical {
        put!(out, "traces are equivalent under this summary");
    } else {
        put!(out, "traces differ");
    }
    emit(&out);
    Ok(())
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

/// Lanes of the report's virtual schedule.
const LANES: usize = 4;

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

/// One bar of the virtual schedule.
struct Seg {
    unit: usize,
    start: u64,
    finish: u64,
}

/// One app's (or, keyed `None`, the machine's) `metrics_window` records,
/// summed.
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

/// Everything a report renders, derived once from the parsed records so
/// the text and HTML outputs cannot drift apart.
struct ReportData<'a> {
    /// Record counts of the deterministic event kinds only.
    kind_counts: BTreeMap<String, u64>,
    units: Vec<UnitRec>,
    lanes: Vec<Vec<Seg>>,
    makespan: u64,
    stalls: BTreeMap<Option<u64>, StallAccum>,
    /// The last `cache_stats` record: counters are cumulative at emission.
    cache: Option<&'a Json>,
    /// Per-tier `[hits, misses, stores]`, last snapshot per tier.
    tiers: BTreeMap<String, [u64; 3]>,
    spans: Vec<&'a Json>,
}

/// Event kinds whose count (or content) varies run to run; excluded from
/// the deterministic report header so serial and scheduled reports stay
/// byte-identical.
const NONDETERMINISTIC_KINDS: [&str; 3] = ["profile_span", "cache_stats", "cache_tier"];

/// Deterministic LPT list schedule of the plan over [`LANES`] virtual
/// lanes: units in estimated-cost order (ties toward the lower unit
/// index, mirroring the real scheduler's ready queue), each placed on the
/// earliest-free lane. Pure function of the plan — serial and scheduled
/// traces of the same campaign produce the identical schedule.
fn virtual_schedule(units: &[UnitRec]) -> (Vec<Vec<Seg>>, u64) {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| {
        units[b]
            .est
            .cmp(&units[a].est)
            .then(units[a].unit.cmp(&units[b].unit))
    });
    let mut lane_segs: Vec<Vec<Seg>> = (0..LANES).map(|_| Vec::new()).collect();
    let mut free = [0u64; LANES];
    for i in order {
        let lane = (0..LANES)
            .min_by_key(|&l| (free[l], l))
            .expect("LANES >= 1");
        let start = free[lane];
        free[lane] = start + units[i].est;
        lane_segs[lane].push(Seg {
            unit: i,
            start,
            finish: free[lane],
        });
    }
    (lane_segs, free.into_iter().max().unwrap_or(0))
}

/// Sums the `metrics_window` records per app; key `None` is the
/// machine-wide aggregate, the only one whose occupancy gauges are read.
fn fold_stalls(records: &[Json]) -> BTreeMap<Option<u64>, StallAccum> {
    let mut acc: BTreeMap<Option<u64>, StallAccum> = BTreeMap::new();
    for rec in of_kind(records, "metrics_window") {
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

fn collect_report_data(records: &[Json]) -> ReportData<'_> {
    let mut kind_counts: BTreeMap<String, u64> = BTreeMap::new();
    for kind in records.iter().map(kind_of) {
        if !kind.is_empty() && !NONDETERMINISTIC_KINDS.contains(&kind) {
            *kind_counts.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
    let mut units: Vec<UnitRec> = of_kind(records, "sched_unit")
        .map(|r| UnitRec {
            unit: int(r, "unit"),
            label: text(r, "label").to_string(),
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
    let (lanes, makespan) = virtual_schedule(&units);
    let mut tiers: BTreeMap<String, [u64; 3]> = BTreeMap::new();
    for rec in of_kind(records, "cache_tier") {
        let counts = [int(rec, "hits"), int(rec, "misses"), int(rec, "stores")];
        tiers.insert(text(rec, "tier").to_string(), counts);
    }
    ReportData {
        kind_counts,
        units,
        lanes,
        makespan,
        stalls: fold_stalls(records),
        cache: of_kind(records, "cache_stats").last(),
        tiers,
        spans: of_kind(records, "profile_span").collect(),
    }
}

/// The requests/samples, mean, min, p50, p95, p99 and max cells of a
/// histogram row.
fn hist_cells(h: &Histogram) -> String {
    format!(
        "{:>10} {:>10.1} {:>8} {:>8} {:>8} {:>8} {:>8}",
        h.count(),
        h.mean(),
        h.min(),
        h.percentile(0.50),
        h.percentile(0.95),
        h.percentile(0.99),
        h.max()
    )
}

/// Renders the deterministic body of the report (every default section).
/// Contains no file paths, timestamps or wall-clock numbers.
fn render_report_text(d: &ReportData) -> String {
    let mut out = String::new();
    let w = &mut out;
    put!(w, "== run report ==");
    put!(w, "records by kind (deterministic kinds only):");
    if d.kind_counts.is_empty() {
        put!(w, "  none");
    }
    for (kind, n) in &d.kind_counts {
        put!(w, "  {kind:<18} {n}");
    }

    put!(w, "\n== campaign plan ==");
    let total_est: u64 = d.units.iter().map(|u| u.est).sum();
    if d.units.is_empty() {
        put!(w, "no sched_unit records (untraced or pre-v5 run)");
    } else {
        let with_deps = d.units.iter().filter(|u| u.deps > 0).count();
        put!(
            w,
            "{} units, {with_deps} with dependencies, total estimated cost {total_est} cycles",
            d.units.len()
        );
        const TOP: usize = 40;
        let mut by_est: Vec<&UnitRec> = d.units.iter().collect();
        by_est.sort_by(|a, b| b.est.cmp(&a.est).then(a.unit.cmp(&b.unit)));
        put!(
            w,
            "top {} of {} units by estimated cost:",
            TOP.min(by_est.len()),
            by_est.len()
        );
        put!(
            w,
            "  {:>5} {:>12} {:>5}  {:<10} label",
            "unit",
            "est",
            "deps",
            "fp"
        );
        for u in by_est.iter().take(TOP) {
            let fp8 = u.fp.get(..8).unwrap_or(&u.fp);
            put!(
                w,
                "  {:>5} {:>12} {:>5}  {fp8:<10} {}",
                u.unit,
                u.est,
                u.deps,
                u.label
            );
        }
    }

    put!(
        w,
        "\n== virtual schedule ({LANES} lanes, LPT by estimated cost) =="
    );
    if d.units.is_empty() {
        put!(w, "nothing to schedule");
    } else {
        let parallelism = total_est as f64 / d.makespan.max(1) as f64;
        put!(
            w,
            "makespan {} virtual cycles, parallelism {parallelism:.2} (sum of estimates / makespan)",
            d.makespan
        );
        for (lane, segs) in d.lanes.iter().enumerate() {
            let busy: u64 = segs.iter().map(|s| s.finish - s.start).sum();
            let pct = 100.0 * busy as f64 / d.makespan.max(1) as f64;
            let mut line = format!("lane {lane}: {} units, busy {pct:.1}% |", segs.len());
            const SEGS: usize = 6;
            for s in segs.iter().take(SEGS) {
                line += &format!(" {}@{}", d.units[s.unit].unit, s.start);
            }
            if segs.len() > SEGS {
                line += &format!(" (+{} more)", segs.len() - SEGS);
            }
            put!(w, "{line}");
        }
    }

    put!(
        w,
        "\n== warp-stall breakdown (warp-cycles, summed over windows) =="
    );
    if d.stalls.is_empty() {
        put!(w, "no metrics_window records (trace predates schema v3?)");
        return out;
    }
    let label = |app: &Option<u64>| app.map_or("all".to_string(), |x| x.to_string());
    put!(
        w,
        "app     windows            mem           exec        barrier     tlp_capped"
    );
    for (app, a) in &d.stalls {
        put!(
            w,
            "{:<6} {:>8} {:>14} {:>14} {:>14} {:>14}",
            label(app),
            a.windows,
            a.mem,
            a.exec,
            a.barrier,
            a.tlp_capped
        );
    }
    put!(w, "\n== DRAM request latency (cycles, queue to data) ==");
    put!(
        w,
        "app      requests       mean      min      p50      p95      p99      max"
    );
    for (app, a) in &d.stalls {
        put!(w, "{:<6} {}", label(app), hist_cells(&a.dram_lat));
    }
    put!(
        w,
        "\n== machine-wide occupancy gauges (sampled once per window) =="
    );
    put!(
        w,
        "gauge           samples       mean      min      p50      p95      p99      max"
    );
    let no_records = StallAccum::default();
    let machine = d.stalls.get(&None).unwrap_or(&no_records);
    for (name, h) in [
        ("l2_mshr", &machine.mshr_occ),
        ("queue_depth", &machine.queue_depth),
    ] {
        put!(w, "{name:<12} {}", hist_cells(h));
    }
    out
}

/// Renders the `--timings` sections: real execution data that varies run
/// to run (never part of the byte-compare gate).
fn render_timings_text(d: &ReportData) -> String {
    let mut out = String::new();
    let w = &mut out;
    put!(w, "\n== scheduler timings (nondeterministic) ==");
    let executed: Vec<&UnitRec> = d.units.iter().filter(|u| u.wall_ms > 0.0).collect();
    if executed.is_empty() {
        put!(
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
        put!(w, "{:<8} {:>6} {:>12}", "worker", "units", "busy_ms");
        for (worker, (n, busy)) in &workers {
            put!(w, "{worker:<8} {n:>6} {busy:>12.2}");
        }
        const TOP: usize = 20;
        let mut by_wall = executed.clone();
        by_wall.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms).then(a.unit.cmp(&b.unit)));
        put!(
            w,
            "top {} of {} executed units by wall time:",
            TOP.min(by_wall.len()),
            by_wall.len()
        );
        put!(
            w,
            "  {:>5} {:>6} {:>11} {:>10} {:>13} label",
            "unit",
            "worker",
            "start_ms",
            "wall_ms",
            "cycles"
        );
        for u in by_wall.iter().take(TOP) {
            put!(
                w,
                "  {:>5} {:>6} {:>11.2} {:>10.2} {:>13} {}",
                u.unit,
                u.worker,
                u.start_ms,
                u.wall_ms,
                u.cycles,
                u.label
            );
        }

        put!(w, "\n== cost-model calibration ==");
        let mut simulated: Vec<&UnitRec> = executed.into_iter().filter(|u| u.cycles > 0).collect();
        if simulated.is_empty() {
            put!(w, "no units simulated cycles (fully cache-served run)");
        } else {
            simulated.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.unit.cmp(&b.unit)));
            put!(
                w,
                "top {} of {} simulated units, estimate vs actual:",
                TOP.min(simulated.len()),
                simulated.len()
            );
            put!(w, "  {:>12} {:>13} {:>7}  label", "est", "actual", "ratio");
            for u in simulated.iter().take(TOP) {
                let ratio = u.cycles as f64 / u.est.max(1) as f64;
                put!(
                    w,
                    "  {:>12} {:>13} {ratio:>7.2}  {}",
                    u.est,
                    u.cycles,
                    u.label
                );
            }
        }
    }

    put!(w, "\n== result cache (final snapshot) ==");
    match d.cache {
        None => put!(w, "no cache_stats records"),
        Some(rec) => {
            let (hits, misses) = (int(rec, "hits"), int(rec, "misses"));
            put!(
                w,
                "  hits       {hits} ({} from disk)",
                int(rec, "disk_hits")
            );
            for key in ["misses", "bypasses", "stores", "verified"] {
                put!(w, "  {key:<10} {}", int(rec, key));
            }
            if hits + misses > 0 {
                put!(
                    w,
                    "  hit rate   {}%",
                    pct(hits as f64, (hits + misses) as f64)
                );
            }
        }
    }
    if d.tiers.is_empty() {
        put!(w, "no cache_tier records (untraced or pre-v5 run)");
    } else {
        put!(
            w,
            "{:<8} {:>10} {:>10} {:>10}",
            "tier",
            "hits",
            "misses",
            "stores"
        );
        for (tier, v) in &d.tiers {
            put!(w, "{tier:<8} {:>10} {:>10} {:>10}", v[0], v[1], v[2]);
        }
    }

    put!(w, "\n== profile spans (nondeterministic) ==");
    if d.spans.is_empty() {
        put!(
            w,
            "no profile_span records (the run wrote no PROFILE.json spans)"
        );
    } else {
        render_spans(w, &d.spans, TOP_SPANS);
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
    let mut out = String::new();
    let w = &mut out;
    put!(w, "<!DOCTYPE html>");
    put!(
        w,
        "<html><head><meta charset=\"utf-8\"><title>run report</title>"
    );
    put!(
        w,
        "<style>body{{font-family:monospace;margin:1em}}\
         .lane{{position:relative;height:22px;background:#eee;margin:2px 0}}\
         .seg{{position:absolute;top:1px;height:20px;background:#4a90d9;\
         color:#fff;overflow:hidden;font-size:11px;border-right:1px solid #fff}}\
         pre{{background:#f7f7f7;padding:8px}}</style></head><body>"
    );
    put!(w, "<h1>run report</h1>");
    put!(
        w,
        "<h2>virtual schedule ({LANES} lanes, LPT by estimated cost)</h2>"
    );
    if d.makespan > 0 {
        for segs in &d.lanes {
            put!(w, "<div class=\"lane\">");
            for s in segs {
                let left = 100.0 * s.start as f64 / d.makespan as f64;
                let width = 100.0 * (s.finish - s.start) as f64 / d.makespan as f64;
                let u = &d.units[s.unit];
                put!(
                    w,
                    "<div class=\"seg\" style=\"left:{left:.4}%;width:{width:.4}%\" \
                     title=\"{}\">{}</div>",
                    html_escape(&u.label),
                    u.unit
                );
            }
            put!(w, "</div>");
        }
    } else {
        put!(w, "<p>nothing to schedule</p>");
    }
    put!(w, "<h2>full report</h2>");
    put!(w, "<pre>{}</pre>", html_escape(text_sections));
    put!(w, "</body></html>");
    out
}

fn report_cmd(args: &[String]) -> Exit {
    let (mut trace, mut timings, mut html) = (None, false, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timings" => timings = true,
            "--html" => html = Some(args.next().ok_or_else(usage)?),
            a if !a.starts_with("--") && trace.is_none() => trace = Some(a),
            _ => return Err(usage()),
        }
    }
    let records = load(trace.ok_or_else(usage)?)?;
    let d = collect_report_data(&records);
    let mut report = render_report_text(&d);
    if timings {
        report.push_str(&render_timings_text(&d));
    }
    emit(&report);
    if let Some(html_path) = html {
        if let Err(e) = std::fs::write(html_path, render_report_html(&d, &report)) {
            eprintln!("error: cannot write {html_path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("report: wrote {html_path}");
    }
    Ok(())
}
