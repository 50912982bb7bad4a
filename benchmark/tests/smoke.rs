//! `run.sh --smoke`: the whole suite, shortened, with every check attempted.

use ebm_benchmark::report::load_runs;
use ebm_benchmark::spec::Spec;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

#[test]
fn smoke_suite_attempts_every_check_within_twenty_seconds() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench.join("..");
    let t = Instant::now();
    let out = Command::new("bash")
        .arg(bench.join("run.sh"))
        .arg("--smoke")
        .output()
        .expect("bash runs");
    let wall = t.elapsed().as_secs_f64();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run.sh --smoke failed:\n{stderr}");
    // Compile time depends on the state of the target directory and is the
    // layer metric build.compile_s, not part of the twenty seconds.
    let build_s: f64 = stderr
        .lines()
        .find_map(|l| {
            l.strip_prefix("run.sh: build took ")?
                .strip_suffix('s')?
                .parse()
                .ok()
        })
        .expect("run.sh reports its build time");
    assert!(
        wall - build_s < 20.0,
        "smoke took {:.1} s after the build",
        wall - build_s
    );

    let spec = Spec::load(&root).unwrap();
    let text = std::fs::read_to_string(bench.join("out/result.json")).expect("result.json written");
    let runs = load_runs(&text).unwrap();
    assert_eq!(runs.len(), 2 * spec.workloads.len());
    for run in &runs {
        assert!(
            run.smoke && !run.checks.is_empty() && run.failed() == 0,
            "{run:?}"
        );
        let declared = if run.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for d in declared {
            assert!(
                run.metric(&d.name).is_some(),
                "{}: no {}",
                run.workload,
                d.name
            );
        }
    }
    let trace = std::fs::read_to_string(bench.join("out/trace.json")).expect("trace.json written");
    let events = ebm_bench::json::parse(&trace).expect("trace.json is JSON");
    assert!(events.as_arr().unwrap().len() > 4 * 30);
}
