//! `ebm-e2e compare A.json B.json`: applies the `BENCHMARK.json` bounds to
//! two result files — the tool behind "two sets of runs of one commit agree"
//! and behind a later change's no-regression table.

use crate::report::{Kind, Metric, RunResult};
use crate::spec::{Better, Spec};
use std::fmt::Write as _;

/// Outcome of comparing one metric of one workload across two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, bit-equal in both runs.
    Identical,
    /// Bounded metric, B no worse than A by more than the bound.
    Within,
    /// The uncertainty either run records for its gated value (between-round
    /// spread ÷ √rounds) exceeds the bound, so the runs cannot resolve a
    /// change of that size.
    Unresolved,
    /// Exact metric that differs, or bounded metric worse by more than the
    /// bound.
    Breach,
    /// Per-layer timing: no bound is declared, the change is only shown.
    Info,
    /// Reported by one run only, or unmeasured in either.
    Missing,
}

/// Share by which `b` is worse than `a` (negative when better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn uncertainty(m: &Metric) -> f64 {
    match m.kind {
        Kind::Timed(s) => s.uncertainty(),
        _ => 0.0,
    }
}

/// Compares metric `a` (baseline) against `b` under `spec`.
pub fn verdict(spec: &Spec, a: &Metric, b: &Metric) -> Verdict {
    if a.kind == Kind::Unmeasured || b.kind == Kind::Unmeasured {
        return Verdict::Missing;
    }
    if a.kind == Kind::Exact || b.kind == Kind::Exact {
        return if a.value.to_bits() == b.value.to_bits() {
            Verdict::Identical
        } else {
            Verdict::Breach
        };
    }
    let Some((decl, bound)) = spec
        .find(&a.name)
        .and_then(|d| d.bound.map(|bound| (d, bound)))
    else {
        return Verdict::Info;
    };
    if uncertainty(a) > bound || uncertainty(b) > bound {
        Verdict::Unresolved
    } else if worsening(decl.better, a.value, b.value) > bound {
        Verdict::Breach
    } else {
        Verdict::Within
    }
}

/// Compares every (workload, traced?, metric) of `a` with its counterpart in
/// `b`. Returns the report text and whether any comparison breached.
pub fn compare(spec: &Spec, a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<34} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "B vs A"
    );
    let mut breached = false;
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.traced == ra.traced)
        else {
            let _ = writeln!(out, "{:<16} (no such run in B)", ra.workload);
            breached = true;
            continue;
        };
        if ra.seed != rb.seed {
            let _ = writeln!(
                out,
                "{:<16} seeds differ ({} vs {}): exact metrics are expected to differ",
                ra.workload, ra.seed, rb.seed
            );
        }
        for ma in &ra.metrics {
            let (v, vb, delta) = match rb.metric(&ma.name) {
                Some(mb) => (
                    verdict(spec, ma, mb),
                    format!("{:.6}", mb.value),
                    format!("{:+.2}%", 100.0 * (mb.value - ma.value) / ma.value),
                ),
                None => (Verdict::Missing, "-".to_owned(), "-".to_owned()),
            };
            breached |= v == Verdict::Breach;
            let _ = writeln!(
                out,
                "{:<16} {:<34} {:>16.6} {:>16} {:>9}  {}",
                ra.workload,
                ma.name,
                ma.value,
                vb,
                delta,
                match v {
                    Verdict::Identical => "identical",
                    Verdict::Within => "within bound",
                    Verdict::Unresolved => "unresolved (uncertainty > bound)",
                    Verdict::Breach => "BREACH",
                    Verdict::Info => "-",
                    Verdict::Missing => "missing/unmeasured",
                }
            );
        }
        for (name, r) in [("A", ra), ("B", rb)] {
            if r.failed() > 0 {
                let _ = writeln!(
                    out,
                    "{:<16} {name} failed {} of {} checks",
                    r.workload,
                    r.failed(),
                    r.checks.len()
                );
                breached = true;
            }
        }
    }
    (out, breached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds":20,"workloads":[{"name":"w","why":"x"}],
            "end_to_end":[
              {"name":"sim_kcps","unit":"kcycles/s","better":"higher","bound":0.1},
              {"name":"setup_s","unit":"s","better":"lower","bound":0.25},
              {"name":"sim_ipc","unit":"insts/cycle","better":"higher","bound":0.01}],
            "per_layer":[{"name":"simt.step_ns","unit":"ns","better":"lower"}]}"#,
        )
        .unwrap()
    }

    fn timed(name: &str, value: f64, round_spread: f64) -> Metric {
        Metric::new(
            name,
            value,
            "x",
            Kind::Timed(Summary {
                value: 1.0,
                p10: 1.0,
                median: 1.0,
                iqr: 0.0,
                n: 10,
                rounds: 4,
                round_spread,
            }),
        )
    }

    #[test]
    fn bounded_metrics_follow_their_direction() {
        let s = spec();
        let v =
            |name: &str, a: f64, b: f64| verdict(&s, &timed(name, a, 0.0), &timed(name, b, 0.0));
        assert_eq!(v("sim_kcps", 100.0, 91.0), Verdict::Within);
        assert_eq!(v("sim_kcps", 100.0, 89.0), Verdict::Breach);
        assert_eq!(v("sim_kcps", 100.0, 150.0), Verdict::Within);
        assert_eq!(v("setup_s", 1.0, 1.2), Verdict::Within);
        assert_eq!(v("setup_s", 1.0, 1.3), Verdict::Breach);
        assert_eq!(v("simt.step_ns", 1.0, 9.0), Verdict::Info);
    }

    #[test]
    fn a_noisy_run_is_unresolved_not_unchanged() {
        let s = spec();
        // Four rounds: a 30 % round spread is a 15 % uncertainty, above the
        // 10 % bound; an 18 % round spread (9 %) is not.
        let a = timed("sim_kcps", 100.0, 0.02);
        assert_eq!(
            verdict(&s, &a, &timed("sim_kcps", 99.0, 0.30)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&s, &a, &timed("sim_kcps", 99.0, 0.18)),
            Verdict::Within
        );
    }

    #[test]
    fn exact_metrics_must_be_bit_equal() {
        let s = spec();
        let a = Metric::new("sim_ipc", 0.46, "insts/cycle", Kind::Exact);
        let mut b = a.clone();
        assert_eq!(verdict(&s, &a, &b), Verdict::Identical);
        b.value = 0.46 + 1e-12;
        assert_eq!(verdict(&s, &a, &b), Verdict::Breach);
    }

    #[test]
    fn compare_reports_breaches_and_failed_checks() {
        let s = spec();
        let run = |kcps: f64| RunResult {
            workload: "w".to_owned(),
            seed: 1,
            seconds: 1.0,
            traced: false,
            smoke: false,
            nproc: 2,
            metrics: vec![timed("sim_kcps", kcps, 0.0)],
            checks: Vec::new(),
        };
        let (text, breached) = compare(&s, &[run(100.0)], &[run(95.0)]);
        assert!(!breached, "{text}");
        let (text, breached) = compare(&s, &[run(100.0)], &[run(50.0)]);
        assert!(breached && text.contains("BREACH"));
        let mut bad = run(100.0);
        bad.check("golden", false, || "differs".to_owned());
        assert!(compare(&s, &[run(100.0)], &[bad]).1);
        assert!(compare(&s, &[run(100.0)], &[]).1);
    }
}
