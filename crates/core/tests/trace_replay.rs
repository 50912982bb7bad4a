//! Integration tests for the trace layer against real controller runs:
//! a [`RingSink`] capture must be rich enough to reconstruct the Fig. 11
//! artifacts, and tracing must stay strictly off the decision path.

use ebm_core::metrics::EbObjective;
use ebm_core::policy::pbs::PbsScaling;
use ebm_core::Pbs;
use gpu_sim::control::Controller;
use gpu_sim::harness::{run_controlled_traced, ControlledRun};
use gpu_sim::machine::Gpu;
use gpu_sim::trace::{eb_series, series_csv, RingSink, TraceEvent};
use gpu_sim::{NullSink, TraceSink};
use gpu_types::{GpuConfig, TlpCombo};
use gpu_workloads::Workload;

fn traced_pbs_run(sink: &mut dyn TraceSink) -> ControlledRun {
    let cfg = GpuConfig::small();
    let w = Workload::pair("BLK", "BFS");
    let mut pbs = Pbs::new(EbObjective::Ws, cfg.max_tlp(), PbsScaling::None).with_hold_windows(8);
    let mut gpu = Gpu::new(&cfg, w.apps(), 42);
    gpu.set_combo(&TlpCombo::uniform(cfg.max_tlp(), 2));
    run_controlled_traced(&mut gpu, &mut pbs as &mut dyn Controller, 60_000, 500, sink)
}

#[test]
fn ring_capture_reconstructs_fig11_eb_series() {
    let mut ring = RingSink::new(1 << 16);
    let run = traced_pbs_run(&mut ring);
    assert_eq!(ring.dropped(), 0, "capture must be lossless for this test");

    // The per-app EB time series reconstructed from generic window_sample
    // events must match the harness's bespoke window series exactly.
    for app in 0..2u8 {
        let series = eb_series(ring.events(), app);
        assert_eq!(series.len() as u64, run.n_windows);
        for ((cycle, eb), (ref_cycle, windows)) in series.iter().zip(&run.window_series) {
            assert_eq!(cycle, ref_cycle);
            assert_eq!(*eb, windows[app as usize].effective_bandwidth());
        }
    }

    // And the CSV replayed from the capture is byte-identical to the
    // harness's own export — fig11 regenerates its artifact from the
    // generic trace without changing a single byte.
    assert_eq!(series_csv(ring.events()), run.series_csv());
}

#[test]
fn capture_contains_all_event_kinds() {
    let mut ring = RingSink::new(1 << 16);
    let _ = traced_pbs_run(&mut ring);
    let mut kinds: Vec<&'static str> = ring.events().iter().map(TraceEvent::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds,
        vec![
            "core_window",
            "metrics_window",
            "partition_window",
            "search_phase",
            "tlp_decision",
            "window_sample"
        ],
        "a PBS run must exercise every simulation-emitted event kind"
    );
}

#[test]
fn metrics_windows_attribute_per_app_and_aggregate() {
    let mut ring = RingSink::new(1 << 16);
    let run = traced_pbs_run(&mut ring);
    let windows: Vec<_> = ring
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::MetricsWindow {
                app,
                stalls,
                dram_lat,
                mshr_occ,
                queue_depth,
                ..
            } => Some((app, stalls, dram_lat, mshr_occ, queue_depth)),
            _ => None,
        })
        .collect();
    // One record per app plus one machine-wide aggregate, every window.
    assert_eq!(windows.len() as u64, run.n_windows * 3);
    let mut stall_sum = 0u64;
    let mut agg_sum = 0u64;
    let mut lat_count = 0u64;
    let mut agg_lat_count = 0u64;
    for (app, stalls, dram_lat, mshr_occ, queue_depth) in windows {
        match app {
            Some(_) => {
                stall_sum += stalls.total();
                lat_count += dram_lat.count();
                assert!(
                    mshr_occ.is_empty() && queue_depth.is_empty(),
                    "occupancy gauges are machine-wide only"
                );
            }
            None => {
                agg_sum += stalls.total();
                agg_lat_count += dram_lat.count();
                assert!(!mshr_occ.is_empty(), "aggregate must carry MSHR samples");
                assert!(
                    !queue_depth.is_empty(),
                    "aggregate must carry queue samples"
                );
            }
        }
        assert_eq!(stalls.barrier, 0, "no barrier instruction in the ISA");
    }
    assert!(stall_sum > 0, "a memory-bound run must record stalls");
    assert_eq!(stall_sum, agg_sum, "aggregate = sum of per-app stalls");
    assert!(lat_count > 0, "DRAM latency must be recorded");
    assert_eq!(lat_count, agg_lat_count);
}

#[test]
fn tracing_is_off_the_decision_path() {
    // A traced run must be bit-for-bit identical to the same run with the
    // no-op sink: sinks only read simulator state.
    let untraced = traced_pbs_run(&mut NullSink);
    let mut ring = RingSink::new(1 << 16);
    let traced = traced_pbs_run(&mut ring);
    assert!(!ring.events().is_empty());
    assert_eq!(untraced.n_windows, traced.n_windows);
    assert_eq!(untraced.tlp_trace, traced.tlp_trace);
    assert_eq!(untraced.overall, traced.overall);
    assert_eq!(untraced.window_series, traced.window_series);
}
