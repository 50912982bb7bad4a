//! `BENCHMARK.json` against the driver's schema limits and against the
//! workload table the binaries are built from.

use ebm_benchmark::cli::{CAMPAIGN, CORUNS};
use ebm_benchmark::spec::Spec;
use std::path::Path;

fn spec() -> Spec {
    Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_declared_name_and_unit_is_in_the_allowed_charset() {
    let spec = spec();
    let mut seen = std::collections::BTreeSet::new();
    for name in spec
        .workloads
        .iter()
        .chain(spec.end_to_end.iter().map(|m| &m.name))
        .chain(spec.per_layer.iter().map(|m| &m.name))
    {
        assert!(is_name(name), "bad name `{name}`");
        assert!(seen.insert(name.clone()), "name `{name}` is used twice");
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(is_unit(&m.unit), "bad unit `{}` of {}", m.unit, m.name);
    }
}

#[test]
fn declaration_is_within_the_driver_limits() {
    let spec = spec();
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    assert!((1..=60).contains(&spec.run_seconds));
    for m in &spec.end_to_end {
        let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec.find("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.bound), ("s", Some(0.25)));
    // 4 + 22 runs per workload, with their set-up and two builds, in 3420 s.
    let runs = 4 + 22 * spec.workloads.len() as u64;
    assert!(
        runs * (spec.run_seconds + 6) + 2 * 120 <= 3420,
        "{runs} runs do not fit"
    );
}

#[test]
fn declared_workloads_are_the_ones_the_binaries_run() {
    let mut built: Vec<&str> = CORUNS.iter().map(|w| w.name).collect();
    built.push(CAMPAIGN);
    assert_eq!(spec().workloads, built);
}
