//! Differential tests pinning the optimized engine to the naive reference.
//!
//! The optimized engine (drain-into/callback component APIs, reused scratch
//! buffers, core sleep states and whole-machine quiescence fast-forwarding)
//! must be *bit-for-bit* identical to the naive cycle-by-cycle reference
//! engine, which steps every component every cycle with the original
//! `Vec`-returning APIs and never skips. These tests run both engines over
//! randomized configurations, workload pairs and mid-run knob changes
//! (driven by the in-repo [`SplitMix64`], so failures reproduce exactly)
//! and compare every observable output: the clock, per-app [`MemCounters`]
//! (full and designated-sampled), per-app [`CoreStats`], controlled-run
//! results and the structured trace event stream.

use gpu_sim::control::{Controller, Decision, Observation};
use gpu_sim::harness::run_controlled_traced;
use gpu_sim::machine::{EngineStats, Gpu};
use gpu_sim::trace::{RingSink, TraceEvent};
use gpu_simt::CoreStats;
use gpu_types::{AppId, GpuConfig, MemCounters, SplitMix64, TlpCombo, TlpLevel, WarpSchedPolicy};
use gpu_workloads::{all_apps, Workload};

/// A randomized small machine: both returned [`Gpu`]s are identically
/// constructed; the caller flips one into reference mode.
fn random_pair(rng: &mut SplitMix64) -> (Gpu, Gpu) {
    let mut cfg = GpuConfig::small();
    // Structural variation, kept within the divisibility constraints
    // (cores split evenly across two apps, warps across schedulers).
    cfg.n_cores = [2, 4, 6][rng.next_below(3) as usize];
    cfg.warps_per_core = [8, 16][rng.next_below(2) as usize];
    cfg.n_partitions = [1, 2, 4][rng.next_below(3) as usize];
    cfg.xbar_latency = 1 + rng.next_below(7) as u32;
    cfg.xbar_requests_per_cycle = 1 + rng.next_below(2) as usize;
    cfg.l1.hit_latency = 1 + rng.next_below(4) as u32;
    cfg.sampling.designated = rng.next_below(2) == 0;
    let apps = all_apps();
    let a = rng.next_below(apps.len() as u64) as usize;
    let b = rng.next_below(apps.len() as u64) as usize;
    let seed = rng.next_below(1 << 20);
    let build = || Gpu::new(&cfg, &[&apps[a], &apps[b]], seed);
    (build(), build())
}

fn snapshot(gpu: &Gpu) -> (u64, Vec<MemCounters>, Vec<MemCounters>, Vec<CoreStats>) {
    let apps = 0..gpu.n_apps();
    (
        gpu.now(),
        apps.clone()
            .map(|a| gpu.counters(AppId::new(a as u8)))
            .collect(),
        apps.clone()
            .map(|a| gpu.designated_counters(AppId::new(a as u8)))
            .collect(),
        apps.map(|a| gpu.core_stats(AppId::new(a as u8))).collect(),
    )
}

fn assert_machines_equal(opt: &Gpu, reference: &Gpu, ctx: &str) {
    assert_eq!(
        snapshot(opt),
        snapshot(reference),
        "{ctx}: engines diverged"
    );
}

/// Optimized and reference engines agree over randomized machines and
/// uneven run spans, with no mid-run reconfiguration.
#[test]
fn random_machines_agree_cycle_for_cycle() {
    let mut rng = SplitMix64::new(0xE961_7E57);
    for trial in 0..8 {
        let (mut opt, mut reference) = random_pair(&mut rng);
        reference.set_reference_engine(true);
        for leg in 0..6 {
            // Ragged span lengths exercise fast-forward truncation at span
            // ends as well as mid-span wake-ups.
            let span = 1 + rng.next_below(700);
            opt.run(span);
            reference.run(span);
            assert_machines_equal(&opt, &reference, &format!("trial {trial} leg {leg}"));
        }
    }
}

/// Agreement holds across mid-run TLP, L1-bypass and CCWS changes — the
/// knobs that invalidate core sleep states.
#[test]
fn random_knob_changes_preserve_agreement() {
    let mut rng = SplitMix64::new(0xE961_7E58);
    for trial in 0..6 {
        let (mut opt, mut reference) = random_pair(&mut rng);
        reference.set_reference_engine(true);
        for leg in 0..8 {
            let app = AppId::new(rng.next_below(2) as u8);
            match rng.next_below(4) {
                0 => {
                    let lvl = TlpLevel::new(1 + rng.next_below(16) as u32).unwrap();
                    opt.set_tlp(app, lvl);
                    reference.set_tlp(app, lvl);
                }
                1 => {
                    let bypass = rng.next_below(2) == 0;
                    opt.set_bypass_l1(app, bypass);
                    reference.set_bypass_l1(app, bypass);
                }
                2 => {
                    let on = rng.next_below(2) == 0;
                    opt.set_ccws(app, on);
                    reference.set_ccws(app, on);
                }
                _ => {}
            }
            let span = 1 + rng.next_below(500);
            opt.run(span);
            reference.run(span);
            assert_machines_equal(&opt, &reference, &format!("trial {trial} leg {leg}"));
        }
    }
}

/// Volta-shaped machines — more cores than a bitset word holds (up to three
/// words of crossbar inputs), 16 partitions, 64 warps over 4 schedulers, so
/// every scheduler's window sits at its own offset in the core's one-word
/// warp sets — under both scheduling policies and the knobs that move the
/// SWL window. Spans are short: the reference engine scans every warp of
/// every core each cycle.
#[test]
fn volta_shaped_machines_agree_under_knob_changes() {
    let mut rng = SplitMix64::new(0xE961_7E63);
    for (trial, n_cores) in [66, 80, 130].into_iter().enumerate() {
        for policy in [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr] {
            let mut cfg = GpuConfig::volta();
            cfg.n_cores = n_cores;
            cfg.scheduler = policy;
            cfg.xbar_requests_per_cycle = 1 + rng.next_below(2) as usize;
            let apps = all_apps();
            let a = rng.next_below(apps.len() as u64) as usize;
            let b = rng.next_below(apps.len() as u64) as usize;
            let build = || Gpu::new(&cfg, &[&apps[a], &apps[b]], 7 + trial as u64);
            let (mut opt, mut reference) = (build(), build());
            reference.set_reference_engine(true);
            for leg in 0..5 {
                let app = AppId::new(rng.next_below(2) as u8);
                match rng.next_below(4) {
                    0 => {
                        let lvl = TlpLevel::new(1 + rng.next_below(16) as u32).unwrap();
                        opt.set_tlp(app, lvl);
                        reference.set_tlp(app, lvl);
                    }
                    1 => {
                        let bypass = rng.next_below(2) == 0;
                        opt.set_bypass_l1(app, bypass);
                        reference.set_bypass_l1(app, bypass);
                    }
                    2 => {
                        let on = rng.next_below(2) == 0;
                        opt.set_ccws(app, on);
                        reference.set_ccws(app, on);
                    }
                    _ => {}
                }
                let span = 1 + rng.next_below(120);
                opt.run(span);
                reference.run(span);
                let ctx = format!("{n_cores} cores {policy:?} leg {leg}");
                assert_machines_equal(&opt, &reference, &ctx);
            }
        }
    }
}

/// A machine running CCWS from cycle zero must match the reference
/// exactly.
#[test]
fn ccws_machines_agree() {
    let mut rng = SplitMix64::new(0xE961_7E59);
    let (mut opt, mut reference) = random_pair(&mut rng);
    reference.set_reference_engine(true);
    for gpu in [&mut opt, &mut reference] {
        gpu.set_ccws(AppId::new(0), true);
        gpu.set_ccws(AppId::new(1), true);
    }
    opt.run(3_000);
    reference.run(3_000);
    assert_machines_equal(&opt, &reference, "ccws");
}

/// CCWS cores sleep like the others, waking for the throttle's next
/// decision: on the memory-bound `small` co-run they skip most of their
/// cycles and step within 10 % as often as without CCWS, and the machine
/// still matches the reference (which steps every core every cycle).
#[test]
fn ccws_cores_sleep_between_decisions() {
    let cfg = GpuConfig::small();
    let cycles = 20_000;
    let build = |ccws: bool| {
        let mut gpu = Gpu::new(&cfg, Workload::pair("BLK", "TRD").apps(), 42);
        gpu.set_combo(&TlpCombo::uniform(cfg.max_tlp(), 2));
        for app in [AppId::new(0), AppId::new(1)] {
            gpu.set_ccws(app, ccws);
        }
        gpu
    };
    let (mut on, mut off, mut reference) = (build(true), build(false), build(true));
    reference.set_reference_engine(true);
    for gpu in [&mut on, &mut off, &mut reference] {
        gpu.run(cycles);
    }
    assert_machines_equal(&on, &reference, "ccws");
    let (on, off) = (on.engine_stats(), off.engine_stats());
    // A core stepped every cycle would take all 80 000.
    assert!(
        on.core_steps_skipped * 2 > cycles * cfg.n_cores as u64,
        "{on:?}"
    );
    assert!(
        on.core_steps * 10 < off.core_steps * 11,
        "{on:?} against {off:?}"
    );
}

struct FlipFlop(bool);
impl Controller for FlipFlop {
    fn on_window(&mut self, obs: &Observation) -> Decision {
        self.0 = !self.0;
        let lvl = if self.0 {
            TlpLevel::MIN
        } else {
            TlpLevel::new(8).unwrap()
        };
        Decision::set_all(&vec![lvl; obs.apps.len()])
    }
    fn name(&self) -> &str {
        "flipflop"
    }
}

/// A traced controlled run produces the identical event stream and results
/// on both engines: tracing must observe fast-forwarded time exactly as if
/// every cycle had been stepped.
#[test]
fn traced_controlled_runs_emit_identical_event_streams() {
    let mut rng = SplitMix64::new(0xE961_7E5A);
    for trial in 0..4 {
        let (mut opt, mut reference) = random_pair(&mut rng);
        reference.set_reference_engine(true);
        let window = opt.config().sampling.window_cycles;
        let total = window * 3 + 171;
        let mut sink_opt = RingSink::new(1 << 14);
        let mut sink_ref = RingSink::new(1 << 14);
        let run_opt =
            run_controlled_traced(&mut opt, &mut FlipFlop(false), total, 0, &mut sink_opt);
        let run_ref = run_controlled_traced(
            &mut reference,
            &mut FlipFlop(false),
            total,
            0,
            &mut sink_ref,
        );
        assert_eq!(
            run_opt.n_windows, run_ref.n_windows,
            "trial {trial}: window counts differ"
        );
        assert_eq!(
            run_opt.tlp_trace, run_ref.tlp_trace,
            "trial {trial}: TLP traces differ"
        );
        for (a, b) in run_opt.overall.iter().zip(&run_ref.overall) {
            assert_eq!(a.counters, b.counters, "trial {trial}: overall differs");
            assert_eq!(a.cycles, b.cycles, "trial {trial}: spans differ");
        }
        assert_eq!(sink_opt.dropped(), 0, "ring sink overflowed");
        // The aggregate metrics_window records carry engine *diagnostics*
        // (fast-forward / idle-skip fractions) that legitimately differ:
        // the reference engine never skips, so it reports 0 where the
        // event engine reports > 0. Blank them before comparing — every
        // simulation-state field must still match exactly.
        let scrub = |events: &std::collections::VecDeque<TraceEvent>| -> Vec<TraceEvent> {
            events
                .iter()
                .cloned()
                .map(|mut e| {
                    if let TraceEvent::MetricsWindow {
                        machine_fast_forward_fraction,
                        component_idle_skip_fraction,
                        ..
                    } = &mut e
                    {
                        *machine_fast_forward_fraction = None;
                        *component_idle_skip_fraction = None;
                    }
                    e
                })
                .collect()
        };
        assert_eq!(
            scrub(sink_opt.events()),
            scrub(sink_ref.events()),
            "trial {trial}: traced event streams differ"
        );
        assert_machines_equal(&opt, &reference, &format!("trial {trial} post-run"));
    }
}

/// The flagship memory-bound co-run (BLK + TRD, both DRAM-saturating
/// streams) on the event engine: cores spend most cycles struct-stalled
/// behind egress/MSHR back-pressure and sleep through them while the
/// machine drains their egress queues, so this pins the drain-while-asleep
/// path against the reference over ragged spans and TLP throttling.
#[test]
fn memory_bound_corun_agrees_cycle_for_cycle() {
    let mut rng = SplitMix64::new(0xE961_7E5B);
    let cfg = GpuConfig::small();
    let w = Workload::pair("BLK", "TRD");
    let build = || Gpu::new(&cfg, w.apps(), 42);
    let (mut opt, mut reference) = (build(), build());
    reference.set_reference_engine(true);
    for gpu in [&mut opt, &mut reference] {
        gpu.set_tlp(AppId::new(0), TlpLevel::new(8).unwrap());
        gpu.set_tlp(AppId::new(1), TlpLevel::new(8).unwrap());
    }
    for leg in 0..8 {
        let span = 1 + rng.next_below(2_000);
        opt.run(span);
        reference.run(span);
        assert_machines_equal(&opt, &reference, &format!("mem-bound leg {leg}"));
        // Occasionally throttle one app hard, the paper's actual control
        // action, to move the DRAM bottleneck mid-run.
        if leg % 3 == 2 {
            let lvl = TlpLevel::new(1 + rng.next_below(8) as u32).unwrap();
            opt.set_tlp(AppId::new(1), lvl);
            reference.set_tlp(AppId::new(1), lvl);
        }
    }
}

/// Structural stalls on both resources a blocked warp can wait for: GUPS
/// issues 8-line loads and TRD 4-line ones against 10 L1 MSHRs, so cores
/// sleep with warps that fit neither the egress room nor the MSHRs, and
/// only some egress pops may wake them. Ragged spans and an L1-bypass
/// toggle (which lifts the MSHR limit) keep the wakes coming from both.
#[test]
fn struct_stalled_wide_loads_agree_cycle_for_cycle() {
    let mut rng = SplitMix64::new(0xE961_7E64);
    let mut cfg = GpuConfig::small();
    cfg.l1.mshr_entries = 10;
    let w = Workload::pair("GUPS", "TRD");
    let build = || Gpu::new(&cfg, w.apps(), 42);
    let (mut opt, mut reference) = (build(), build());
    reference.set_reference_engine(true);
    for leg in 0..8 {
        if leg == 4 {
            for gpu in [&mut opt, &mut reference] {
                gpu.set_bypass_l1(AppId::new(1), true);
            }
        }
        let span = 1 + rng.next_below(1_500);
        opt.run(span);
        reference.run(span);
        assert_machines_equal(&opt, &reference, &format!("struct-stall leg {leg}"));
    }
    for app in 0..2 {
        let stats = opt.core_stats(AppId::new(app));
        assert!(
            stats.struct_stall_cycles > 0,
            "app {app} never struct-stalled: {stats:?}"
        );
    }
}

/// Knob changes landing exactly at event boundaries: legs are short and
/// ragged (often shorter than sleep horizons), so spans routinely end with
/// cores mid-sleep and the next leg begins with a knob change that
/// invalidates the scheduled wake. Manual single `step()` calls are mixed
/// in — they bypass the wake-time table entirely and must leave the lazy
/// credit bookkeeping exact (a `step(); run()` sequence once double-credited
/// skipped cycles).
#[test]
fn knob_changes_at_event_boundaries_preserve_agreement() {
    let mut rng = SplitMix64::new(0xE961_7E5C);
    for trial in 0..6 {
        let (mut opt, mut reference) = random_pair(&mut rng);
        reference.set_reference_engine(true);
        for leg in 0..24 {
            match rng.next_below(5) {
                0 => {
                    let app = AppId::new(rng.next_below(2) as u8);
                    let lvl = TlpLevel::new(1 + rng.next_below(16) as u32).unwrap();
                    opt.set_tlp(app, lvl);
                    reference.set_tlp(app, lvl);
                }
                1 => {
                    let app = AppId::new(rng.next_below(2) as u8);
                    let bypass = rng.next_below(2) == 0;
                    opt.set_bypass_l1(app, bypass);
                    reference.set_bypass_l1(app, bypass);
                }
                2 => {
                    let steps = 1 + rng.next_below(3);
                    for _ in 0..steps {
                        opt.step();
                        reference.step();
                    }
                }
                _ => {}
            }
            let span = 1 + rng.next_below(50);
            opt.run(span);
            reference.run(span);
            assert_machines_equal(&opt, &reference, &format!("trial {trial} leg {leg}"));
        }
    }
}

/// On a DRAM-stalled co-run the event engine must actually skip most
/// component-steps — otherwise the per-component skip machinery (and the
/// `machine.idle_skip_share` the benchmark reports) would be vacuous. Cores dominate the
/// component population and sleep through egress/MSHR back-pressure, so
/// well over half of all component×cycle slots go unstepped.
#[test]
fn event_engine_skips_majority_of_component_steps_when_dram_stalled() {
    let cfg = GpuConfig::small();
    let w = Workload::pair("BLK", "TRD");
    let mut gpu = Gpu::new(&cfg, w.apps(), 42);
    gpu.set_tlp(AppId::new(0), TlpLevel::new(8).unwrap());
    gpu.set_tlp(AppId::new(1), TlpLevel::new(8).unwrap());
    gpu.run(20_000);
    let s = gpu.engine_stats();
    let stepped = s.core_steps + s.partition_steps + s.xbar_steps;
    let skipped = s.core_steps_skipped + s.partition_steps_skipped + s.xbar_steps_skipped;
    let frac = skipped as f64 / (stepped + skipped) as f64;
    assert!(
        frac > 0.5,
        "expected most component-steps skipped on a DRAM-stalled co-run, got {frac:.3} \
         ({stepped} stepped, {skipped} skipped)"
    );
    assert!(
        s.core_steps_skipped > 0 && s.partition_steps_skipped > 0 && s.xbar_steps_skipped > 0,
        "every component class should contribute skips: {s:?}"
    );
}

/// The fast-forward path actually engages — otherwise the equivalence
/// above would be vacuous. Whole-machine quiescence needs every core
/// asleep *and* the memory system event-free at once, so the test uses the
/// most compute-bound app (NW: 5% memory, 4-cycle ALU) at minimum TLP,
/// where multi-cycle ALU bubbles drain the machine completely. It then
/// pins that a fast-forwarded run matches the reference bit-for-bit.
#[test]
fn fast_forward_engages_on_quiescent_stretches() {
    let apps = all_apps();
    let nw = apps
        .iter()
        .find(|p| p.name == "NW")
        .expect("NW profile exists");
    let cfg = GpuConfig::small();
    let build = || Gpu::new(&cfg, &[nw, nw], 11);
    let (mut opt, mut reference) = (build(), build());
    reference.set_reference_engine(true);
    for gpu in [&mut opt, &mut reference] {
        gpu.set_tlp(AppId::new(0), TlpLevel::MIN);
        gpu.set_tlp(AppId::new(1), TlpLevel::MIN);
        gpu.run(20_000);
    }
    let stats = opt.engine_stats();
    assert_eq!(stats.stepped + stats.fast_forwarded, 20_000);
    assert!(
        stats.fast_forwarded > 0,
        "compute-bound machine at minimum TLP never fast-forwarded"
    );
    assert_eq!(
        reference.engine_stats().fast_forwarded,
        0,
        "reference engine must never skip"
    );
    assert_machines_equal(&opt, &reference, "fast-forwarded run");
}

/// Engine transitions: one machine walks a randomized schedule of manual
/// `step()` bursts, `run` spans and knob changes, at crossbar latencies
/// zero (0), the minimum (1) and a typical one (4). After every leg it must
/// equal the reference machine, and its engine accounting must equal that
/// of a twin that covers each leg in a single span — whatever was derived
/// before a transition has to be re-derived after it, and how the cycles
/// are cut into spans must not show.
#[test]
fn engine_transitions_preserve_agreement_and_accounting() {
    let mut rng = SplitMix64::new(0xE961_7E62);
    for lat in [0u32, 1, 4] {
        let mut cfg = GpuConfig::small();
        cfg.xbar_latency = lat;
        let w = Workload::pair("BLK", "TRD");
        let build = || Gpu::new(&cfg, w.apps(), 11 + u64::from(lat));
        let (mut walker, mut spanned, mut reference) = (build(), build(), build());
        reference.set_reference_engine(true);
        for leg in 0..20 {
            let app = AppId::new(rng.next_below(2) as u8);
            match rng.next_below(6) {
                1 => {
                    let lvl = TlpLevel::new(1 + rng.next_below(8) as u32).unwrap();
                    for gpu in [&mut walker, &mut spanned, &mut reference] {
                        gpu.set_tlp(app, lvl);
                    }
                }
                2 => {
                    let bypass = rng.next_below(2) == 0;
                    for gpu in [&mut walker, &mut spanned, &mut reference] {
                        gpu.set_bypass_l1(app, bypass);
                    }
                }
                3 => {
                    let on = rng.next_below(2) == 0;
                    for gpu in [&mut walker, &mut spanned, &mut reference] {
                        gpu.set_ccws(app, on);
                    }
                }
                _ => {}
            }
            let steps = rng.next_below(4);
            let span = rng.next_below(300);
            for gpu in [&mut walker, &mut reference] {
                for _ in 0..steps {
                    gpu.step();
                }
                gpu.run(span);
            }
            spanned.run(steps + span);
            let ctx = format!("latency {lat} leg {leg}");
            assert_machines_equal(&walker, &reference, &ctx);
            assert_eq!(
                walker.engine_stats(),
                spanned.engine_stats(),
                "{ctx}: engine accounting diverged from the one-span-per-leg twin"
            );
        }
    }
}

/// Oracle stretches invalidate derived state. One machine alternates
/// reference-engine and production legs — each made of `step()` bursts
/// and `run` spans, some after TLP/bypass/CCWS knob changes — at crossbar
/// latencies 0, 1 and 4, and must equal a pure-reference twin after every
/// leg. A production leg that follows an oracle leg without a knob change
/// runs on nothing but the rule that an oracle stretch leaves the
/// engine's wake times, credit watermarks and crossbar due cycles stale.
#[test]
fn oracle_stretches_invalidate_derived_state() {
    let mut rng = SplitMix64::new(0xE961_7E63);
    for lat in [0u32, 1, 4] {
        let mut cfg = GpuConfig::small();
        cfg.xbar_latency = lat;
        let w = Workload::pair("BLK", "TRD");
        let build = || Gpu::new(&cfg, w.apps(), 23 + u64::from(lat));
        let (mut mixed, mut reference) = (build(), build());
        reference.set_reference_engine(true);
        for leg in 0..24 {
            let oracle = leg % 2 == 1;
            mixed.set_reference_engine(oracle);
            let app = AppId::new(rng.next_below(2) as u8);
            match rng.next_below(6) {
                1 => {
                    let lvl = TlpLevel::new(1 + rng.next_below(8) as u32).unwrap();
                    for gpu in [&mut mixed, &mut reference] {
                        gpu.set_tlp(app, lvl);
                    }
                }
                2 => {
                    let bypass = rng.next_below(2) == 0;
                    for gpu in [&mut mixed, &mut reference] {
                        gpu.set_bypass_l1(app, bypass);
                    }
                }
                3 => {
                    let on = rng.next_below(2) == 0;
                    for gpu in [&mut mixed, &mut reference] {
                        gpu.set_ccws(app, on);
                    }
                }
                _ => {}
            }
            let steps = rng.next_below(4);
            let span = 1 + rng.next_below(300);
            for gpu in [&mut mixed, &mut reference] {
                for _ in 0..steps {
                    gpu.step();
                }
                gpu.run(span);
            }
            let engine = if oracle { "oracle" } else { "production" };
            assert_machines_equal(
                &mixed,
                &reference,
                &format!("latency {lat} leg {leg} ({engine})"),
            );
        }
    }
}

/// The engine's step counts, frozen. Every other test here holds the
/// engine to the reference's *results*; this one holds how it got there —
/// which cycles it stepped, which it jumped, and how many core, partition
/// and crossbar steps it ran — on fixed runs of the benchmark's machines
/// (memory-bound `small` BLK+TRD, compute-bound `small` LUD+NW and a
/// short `volta` LUD+NW, all at maximum TLP — 8 on `small` — and seed
/// 42). A refactor that moves a single step fails here even when every
/// result still agrees.
#[test]
fn engine_step_counts_are_pinned() {
    let runs: [(&str, GpuConfig, [&str; 2], u64, EngineStats); 3] = [
        (
            "small BLK+TRD",
            GpuConfig::small(),
            ["BLK", "TRD"],
            20_000,
            EngineStats {
                stepped: 16_925,
                fast_forwarded: 3_075,
                core_steps: 12_919,
                core_steps_skipped: 67_081,
                partition_steps: 13_960,
                partition_steps_skipped: 26_040,
                xbar_steps: 10_396,
                xbar_steps_skipped: 29_604,
                ..EngineStats::default()
            },
        ),
        (
            "small LUD+NW",
            GpuConfig::small(),
            ["LUD", "NW"],
            20_000,
            EngineStats {
                stepped: 20_000,
                fast_forwarded: 0,
                core_steps: 72_023,
                core_steps_skipped: 7_977,
                partition_steps: 14_445,
                partition_steps_skipped: 25_555,
                xbar_steps: 11_665,
                xbar_steps_skipped: 28_335,
                ..EngineStats::default()
            },
        ),
        (
            "volta LUD+NW",
            GpuConfig::volta(),
            ["LUD", "NW"],
            3_000,
            EngineStats {
                stepped: 3_000,
                fast_forwarded: 0,
                core_steps: 126_885,
                core_steps_skipped: 113_115,
                partition_steps: 11_570,
                partition_steps_skipped: 36_430,
                xbar_steps: 5_048,
                xbar_steps_skipped: 952,
                ..EngineStats::default()
            },
        ),
    ];
    for (name, cfg, [a, b], cycles, want) in runs {
        let mut gpu = Gpu::new(&cfg, Workload::pair(a, b).apps(), 42);
        gpu.set_combo(&TlpCombo::uniform(cfg.max_tlp(), 2));
        // Two spans: the engine state carried between them counts too.
        gpu.run(cycles / 2);
        gpu.run(cycles - cycles / 2);
        let got = gpu.engine_stats();
        assert_eq!(got.stepped + got.fast_forwarded, gpu.now(), "{name}");
        assert_eq!(got, want, "{name}: the engine's step counts moved");
    }
}
