//! Round-trip tests between the trace emitter (`gpu_sim::trace`) and the
//! consuming side in this crate (`ebm_bench::json` + `ebm_bench::schema`):
//! a real traced run must validate line-by-line, six-decimal float
//! formatting must survive the parse, and non-finite floats must round-trip
//! as JSON `null` for every event kind that carries floats.

use ebm_bench::json::{parse, Json};
use ebm_bench::schema::{validate_line, validate_trace};
use ebm_core::metrics::EbObjective;
use ebm_core::policy::pbs::PbsScaling;
use ebm_core::Pbs;
use gpu_sim::control::Controller;
use gpu_sim::harness::run_controlled_traced;
use gpu_sim::machine::Gpu;
use gpu_sim::trace::{JsonlSink, StallBreakdown, TraceEvent, TraceSink};
use gpu_simt::WarpStalls;
use gpu_types::{GpuConfig, Histogram, TlpCombo};
use gpu_workloads::Workload;

/// Every event kind with awkward floats (values that need rounding) and
/// non-finite values mixed in. `cache_stats` carries no floats but is
/// included so the list stays exhaustive — a new kind that is not added
/// here fails the count assertion below.
fn one_of_each_kind() -> Vec<TraceEvent> {
    let mut h = Histogram::new();
    h.record(7);
    h.record(3000);
    vec![
        TraceEvent::WindowSample {
            cycle: 1,
            app: 0,
            eb: 1.0 / 3.0,
            bw: 0.1 + 0.2,
            cmr: f64::NAN,
            l1mr: f64::INFINITY,
            l2mr: f64::NEG_INFINITY,
            ipc: 2.5,
        },
        TraceEvent::TlpDecision {
            cycle: 2,
            app: 1,
            old: 24,
            new: 2,
            reason: "latency-tolerance",
        },
        TraceEvent::SearchPhase {
            cycle: 3,
            scheme: "PBS-WS".into(),
            phase: "boot".into(),
        },
        TraceEvent::PartitionWindow {
            cycle: 4,
            partition: 1,
            per_app_bw: vec![2.0 / 3.0, f64::NAN],
            rowbuf_hit_rate: f64::INFINITY,
            queue_depth: 9,
        },
        TraceEvent::CoreWindow {
            cycle: 5,
            core: 0,
            app: 1,
            ipc: f64::NAN,
            active_warps: 1.0 / 7.0,
            stall: StallBreakdown {
                mem: f64::INFINITY,
                structural: 0.125,
                idle: 1.0 / 3.0,
            },
        },
        TraceEvent::CacheStats {
            cycle: 0,
            hits: 5,
            disk_hits: 2,
            misses: 1,
            bypasses: 0,
            stores: 1,
            verified: 0,
            inflight_joined: 3,
        },
        TraceEvent::CacheTier {
            cycle: 0,
            tier: "memory".into(),
            hits: 3,
            misses: 3,
            stores: 3,
        },
        TraceEvent::SchedUnit {
            cycle: 0,
            unit: 4,
            label: "sweep:BLK_BFS".into(),
            fp: "0123456789abcdef0123456789abcdef".into(),
            deps: 2,
            est: 450_000,
            worker: 1,
            start_ms: f64::NAN,
            wall_ms: f64::INFINITY,
            cycles: 7,
        },
        TraceEvent::MetricsWindow {
            cycle: 6,
            app: None,
            stalls: WarpStalls {
                mem: 100,
                exec: 20,
                barrier: 0,
                tlp_capped: 4,
            },
            dram_lat: h,
            mshr_occ: Histogram::new(),
            queue_depth: Histogram::new(),
            machine_fast_forward_fraction: Some(0.5),
            component_idle_skip_fraction: None,
        },
        TraceEvent::ProfileSpan {
            cycle: 0,
            level: "sweep".into(),
            name: "BLK_BFS".into(),
            depth: 2,
            wall_s: f64::NAN,
            cycles: 123,
            cache_hits: 4,
            cache_misses: 5,
            workers: 8,
        },
    ]
}

#[test]
fn every_event_kind_round_trips_through_the_validator() {
    let events = one_of_each_kind();
    // Exhaustiveness: one fixture per kind the emitter can produce.
    let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), events.len(), "duplicate kind in fixture list");
    assert_eq!(
        kinds.len(),
        gpu_sim::trace::SCHEMA.len(),
        "new event kind? extend one_of_each_kind()"
    );
    for e in &events {
        let line = e.to_json();
        assert_eq!(validate_line(&line), Ok(e.kind()), "{line}");
    }
}

#[test]
fn six_decimal_floats_survive_the_parse() {
    // The emitter writes floats as `{v:.6}`; parsing the serialized record
    // must yield exactly the six-decimal rounding of the original value.
    let cases = [1.0 / 3.0, 0.1 + 0.2, 2.5, 1e-7, 123456.789_012_34];
    for &v in &cases {
        let e = TraceEvent::WindowSample {
            cycle: 0,
            app: 0,
            eb: v,
            bw: 0.0,
            cmr: 0.0,
            l1mr: 0.0,
            l2mr: 0.0,
            ipc: 0.0,
        };
        let parsed = parse(&e.to_json()).expect("emitter output parses");
        let got = parsed.get("eb").and_then(Json::as_num).expect("eb number");
        let want: f64 = format!("{v:.6}").parse().unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "value {v}");
    }
}

#[test]
fn non_finite_floats_round_trip_as_null_in_every_float_field() {
    for e in one_of_each_kind() {
        let line = e.to_json();
        let parsed = parse(&line).expect("emitter output parses");
        // The validator accepts the line even with nulls in float fields.
        validate_line(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
        match &e {
            TraceEvent::WindowSample { .. } => {
                assert_eq!(parsed.get("cmr"), Some(&Json::Null));
                assert_eq!(parsed.get("l1mr"), Some(&Json::Null));
                assert_eq!(parsed.get("l2mr"), Some(&Json::Null));
            }
            TraceEvent::PartitionWindow { .. } => {
                let bw = parsed.get("per_app_bw").and_then(Json::as_arr).unwrap();
                assert_eq!(bw[1], Json::Null);
                assert_eq!(parsed.get("rowbuf_hit_rate"), Some(&Json::Null));
            }
            TraceEvent::CoreWindow { .. } => {
                assert_eq!(parsed.get("ipc"), Some(&Json::Null));
                let stall = parsed.get("stall").unwrap();
                assert_eq!(stall.get("mem"), Some(&Json::Null));
            }
            TraceEvent::ProfileSpan { .. } => {
                assert_eq!(parsed.get("wall_s"), Some(&Json::Null));
            }
            TraceEvent::SchedUnit { .. } => {
                assert_eq!(parsed.get("start_ms"), Some(&Json::Null));
                assert_eq!(parsed.get("wall_ms"), Some(&Json::Null));
            }
            _ => {}
        }
    }
}

#[test]
fn real_traced_run_validates_end_to_end() {
    let path =
        std::env::temp_dir().join(format!("ebm_trace_roundtrip_{}.jsonl", std::process::id()));
    {
        let mut sink = JsonlSink::create(&path).expect("temp trace file");
        let cfg = GpuConfig::small();
        let w = Workload::pair("BLK", "BFS");
        let mut pbs =
            Pbs::new(EbObjective::Ws, cfg.max_tlp(), PbsScaling::None).with_hold_windows(8);
        let mut gpu = Gpu::new(&cfg, w.apps(), 42);
        gpu.set_combo(&TlpCombo::uniform(cfg.max_tlp(), 2));
        let _ = run_controlled_traced(
            &mut gpu,
            &mut pbs as &mut dyn Controller,
            30_000,
            500,
            &mut sink,
        );
        // Append what a campaign appends: profiler spans and cache stats.
        {
            let _span = ebm_bench::profiler::span("run", "roundtrip-test");
        }
        let spans = ebm_bench::profiler::take_spans();
        assert!(!spans.is_empty());
        ebm_bench::profiler::emit_spans(&mut sink, &spans);
        gpu_sim::cache::emit_stats(&mut sink);
        sink.flush();
    }
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    let report = validate_trace(&text);
    assert!(
        report.is_ok(),
        "schema violations: {:?}",
        &report.errors[..report.errors.len().min(5)]
    );
    let kind = |k: &str| {
        report
            .by_kind
            .iter()
            .find(|(name, _)| *name == k)
            .map_or(0, |(_, n)| *n)
    };
    assert!(kind("window_sample") > 0);
    assert!(kind("metrics_window") > 0);
    assert!(kind("profile_span") > 0);
    assert_eq!(kind("cache_stats"), 1);
    // emit_stats also breaks the totals into per-tier funnel events.
    assert_eq!(kind("cache_tier"), 2);
}
