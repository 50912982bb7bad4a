//! The result of one benchmark run: metrics with their noise self-report,
//! the correctness checks, and the three renderings of both — the
//! `name value unit` lines for people, the result file under
//! `benchmark/out/`, and the one-line JSON object the driver reads.

use crate::spec::Declared;
use crate::stats::Summary;
use ebm_bench::json::{self, Json};
use std::fmt::Write as _;

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits (Rust's shortest round-trip
/// form); non-finite values, which JSON cannot carry, become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// How a metric's value was obtained, which decides how two runs of it are
/// compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Host time (or derived from it): compared on the gated estimator,
    /// within the declared bound; carries its noise self-report.
    Timed(Summary),
    /// A measurement without a sample distribution (memory, a single wall
    /// time): compared within the declared bound.
    Measured,
    /// A simulated statistic or a count that repeats exactly: two runs of
    /// one commit must be bit-equal.
    Exact,
    /// Not measurable on this host (needs more cores); the value is 0.
    Unmeasured,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The reported (gated) value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
    /// Provenance.
    pub kind: Kind,
}

impl Metric {
    /// A metric of the given kind.
    pub fn new(name: &str, value: f64, unit: &str, kind: Kind) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            kind,
        }
    }
}

/// One correctness check; the failed share of these is what the driver sees
/// as `failed` / `attempted`.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence for a failure (empty when it held).
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time, seconds.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Whether this was a shortened smoke run (goldens not gated).
    pub smoke: bool,
    /// `available_parallelism` of the host.
    pub nproc: usize,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Correctness checks attempted.
    pub checks: Vec<Check>,
}

impl RunResult {
    /// Records a check outcome; `detail` is only evaluated on failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }

    /// Number of failed checks.
    pub fn failed(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The `name value unit` lines, with the noise self-report of every
    /// host-time metric, followed by one line per check.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "# workload {} seed {} seconds {} traced {} nproc {}\n",
            self.workload, self.seed, self.seconds, self.traced as u8, self.nproc
        );
        for m in &self.metrics {
            match m.kind {
                Kind::Unmeasured => {
                    let _ = writeln!(out, "{} unmeasured {}", m.name, m.unit);
                }
                Kind::Timed(s) => {
                    let _ = writeln!(
                        out,
                        "{} {} {}   [samples: gated {:.6} p10 {:.6} median {:.6} iqr {:.6} n {}; {} rounds, round spread {:.2}%]",
                        m.name,
                        json_number(m.value),
                        m.unit,
                        s.value,
                        s.p10,
                        s.median,
                        s.iqr,
                        s.n,
                        s.rounds,
                        100.0 * s.round_spread
                    );
                }
                Kind::Measured | Kind::Exact => {
                    let _ = writeln!(out, "{} {} {}", m.name, json_number(m.value), m.unit);
                }
            }
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {} {}{}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                if c.ok {
                    String::new()
                } else {
                    format!(": {}", c.detail)
                }
            );
        }
        out
    }

    /// The result-file rendering (one JSON object, one line).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":1,\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"nproc\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"checks\":[",
            json_string(&self.workload),
            self.seed,
            json_number(self.seconds),
            self.traced as u8,
            self.smoke,
            self.nproc,
            self.failed() == 0,
            self.checks.len(),
            self.failed()
        );
        for (i, c) in self.checks.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                if i == 0 { "" } else { "," },
                json_string(&c.name),
                c.ok,
                json_string(&c.detail)
            );
        }
        out.push_str("],\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"value\":{},\"unit\":{},\"kind\":",
                if i == 0 { "" } else { "," },
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            );
            match m.kind {
                Kind::Timed(s) => {
                    let _ = write!(
                        out,
                        "\"timed\",\"noise\":{{\"value\":{},\"p10\":{},\"median\":{},\"iqr\":{},\"n\":{},\"rounds\":{},\"round_spread\":{}}}}}",
                        json_number(s.value),
                        json_number(s.p10),
                        json_number(s.median),
                        json_number(s.iqr),
                        s.n,
                        s.rounds,
                        json_number(s.round_spread)
                    );
                }
                Kind::Measured => out.push_str("\"measured\"}"),
                Kind::Exact => out.push_str("\"exact\"}"),
                Kind::Unmeasured => out.push_str("\"unmeasured\"}"),
            }
        }
        out.push_str("}}");
        out
    }

    /// Parses a result file back (the inverse of [`RunResult::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let num = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("result: `{key}` missing or not a number"))
        };
        let text = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("result: `{key}` missing or not a string"))
        };
        let flag = |obj: &Json, key: &str| match obj.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("result: `{key}` missing or not a boolean")),
        };
        let mut metrics = Vec::new();
        for (name, m) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result: `metrics` missing or not an object")?
        {
            let kind = match text(m, "kind")?.as_str() {
                "timed" => {
                    let n = m.get("noise").ok_or("result: timed metric without noise")?;
                    Kind::Timed(Summary {
                        value: num(n, "value")?,
                        p10: num(n, "p10")?,
                        median: num(n, "median")?,
                        iqr: num(n, "iqr")?,
                        n: num(n, "n")? as usize,
                        rounds: num(n, "rounds")? as usize,
                        round_spread: num(n, "round_spread")?,
                    })
                }
                "measured" => Kind::Measured,
                "exact" => Kind::Exact,
                "unmeasured" => Kind::Unmeasured,
                other => return Err(format!("result: unknown metric kind `{other}`")),
            };
            metrics.push(Metric {
                name: name.clone(),
                value: num(m, "value")?,
                unit: text(m, "unit")?,
                kind,
            });
        }
        let mut checks = Vec::new();
        for c in doc
            .get("checks")
            .and_then(Json::as_arr)
            .ok_or("result: `checks` missing or not an array")?
        {
            checks.push(Check {
                name: text(c, "name")?,
                ok: flag(c, "ok")?,
                detail: text(c, "detail")?,
            });
        }
        Ok(RunResult {
            workload: text(doc, "workload")?,
            seed: num(doc, "seed")? as u64,
            seconds: num(doc, "seconds")?,
            traced: num(doc, "trace")? != 0.0,
            smoke: flag(doc, "smoke")?,
            nproc: num(doc, "nproc")? as usize,
            metrics,
            checks,
        })
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding exactly the `declared` metrics.
    ///
    /// # Errors
    ///
    /// Returns the names of declared metrics this run did not report, or of
    /// reported metrics whose unit differs from the declaration.
    pub fn contract_line(&self, declared: &[Declared]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed() == 0,
            self.checks.len().max(1),
            self.failed()
        );
        let mut problems = Vec::new();
        for (i, d) in declared.iter().enumerate() {
            match self.metric(&d.name) {
                Some(m) if m.unit == d.unit => {
                    let _ = write!(
                        out,
                        "{}{}:{{\"value\":{},\"unit\":{}}}",
                        if i == 0 { "" } else { "," },
                        json_string(&m.name),
                        json_number(m.value),
                        json_string(&m.unit)
                    );
                }
                Some(m) => problems.push(format!("{} (unit {} ≠ {})", d.name, m.unit, d.unit)),
                None => problems.push(format!("{} (not reported)", d.name)),
            }
        }
        if problems.is_empty() {
            out.push_str("}}");
            Ok(out)
        } else {
            Err(format!(
                "run does not match BENCHMARK.json: {}",
                problems.join(", ")
            ))
        }
    }
}

/// Parses a result file: either one run, or a suite `{"runs":[...]}` as
/// `run.sh` without `--workload` writes it.
///
/// # Errors
///
/// Returns a message when the text is not JSON or not a result.
pub fn load_runs(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = json::parse(text).map_err(|e| format!("result: {e}"))?;
    match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().map(RunResult::from_json).collect(),
        None => Ok(vec![RunResult::from_json(&doc)?]),
    }
}

/// Joins per-run result files into a suite document.
pub fn suite_json(runs: &[String]) -> String {
    format!("{{\"schema\":1,\"runs\":[\n{}\n]}}\n", runs.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    fn sample() -> RunResult {
        let mut r = RunResult {
            workload: "small-membound".to_owned(),
            seed: 42,
            seconds: 20.0,
            traced: false,
            smoke: false,
            nproc: 2,
            metrics: vec![
                Metric::new(
                    "sim_kcps",
                    1512.123456789,
                    "kcycles/s",
                    Kind::Timed(Summary {
                        value: 0.0498,
                        p10: 0.0496,
                        median: 0.0511,
                        iqr: 0.0023,
                        n: 400,
                        rounds: 12,
                        round_spread: 0.0125,
                    }),
                ),
                Metric::new("sim_ipc", 0.4612345, "insts/cycle", Kind::Exact),
                Metric::new("peak_rss_mib", 3.5, "MiB", Kind::Measured),
                Metric::new("domain.speedup_t2", 0.0, "ratio", Kind::Unmeasured),
            ],
            checks: Vec::new(),
        };
        r.check("rounds_digest_equal", true, String::new);
        r.check("golden \"seed 42\"", false, || {
            "app0 warp_insts 1 ≠ 2\n".to_owned()
        });
        r
    }

    #[test]
    fn result_round_trips_through_the_repo_json_parser() {
        let r = sample();
        let back = load_runs(&r.to_json()).unwrap();
        assert_eq!(back, vec![r.clone()]);
        let suite = suite_json(&[r.to_json(), r.to_json()]);
        assert_eq!(load_runs(&suite).unwrap().len(), 2);
    }

    #[test]
    fn contract_line_has_exactly_the_declared_metrics() {
        let r = sample();
        let decl = |name: &str, unit: &str| Declared {
            name: name.to_owned(),
            unit: unit.to_owned(),
            better: Better::Higher,
            bound: Some(0.1),
        };
        let line = r
            .contract_line(&[
                decl("sim_kcps", "kcycles/s"),
                decl("sim_ipc", "insts/cycle"),
            ])
            .unwrap();
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            metrics[0].1.get("value").unwrap().as_num(),
            Some(1512.123456789)
        );
        assert!(r.contract_line(&[decl("missing", "s")]).is_err());
        assert!(r.contract_line(&[decl("sim_ipc", "s")]).is_err());
    }

    #[test]
    fn text_rendering_names_every_metric_with_its_unit() {
        let text = sample().render_text();
        assert!(text.contains("sim_kcps 1512.123456789 kcycles/s"));
        assert!(text.contains("n 400"));
        assert!(text.contains("domain.speedup_t2 unmeasured ratio"));
        assert!(text.contains("check rounds_digest_equal ok"));
        assert!(text.contains("FAILED"));
    }
}
