//! Pins the core cache contract: a memoized result — from the in-memory
//! tier or decoded back from disk — is bit-identical to a fresh,
//! cache-disabled simulation.
//!
//! This binary mutates the process-global cache configuration, so every
//! test funnels through one mutex-guarded helper and restores the default
//! (enabled, no directory) on the way out. It deliberately lives apart
//! from `parallel_determinism.rs`, which pins the opposite regime
//! (cache off, parallel path exercised).

use ebm_core::eval::{Evaluator, EvaluatorConfig, Scheme};
use ebm_core::metrics::EbObjective;
use ebm_core::pbsrun::{run_controller_cached, ControllerSpec, PbsRunSpec};
use ebm_core::policy::pbs::PbsScaling;
use ebm_core::sweep::ComboSweep;
use ebm_core::{DynCta, ModBypass, Pbs};
use gpu_sim::control::Controller;
use gpu_sim::harness::{
    measure_fixed, measure_fixed_cached, run_controlled, sampling_error_cached, FixedRunInputs,
    RunSpec,
};
use gpu_sim::machine::Gpu;
use gpu_sim::metrics::cycles_simulated;
use gpu_types::{AppId, AppWindow, GpuConfig, TlpCombo, TlpLevel};
use gpu_workloads::Workload;
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes tests that flip the global cache switches. Each test body
/// takes this for its full duration (including its cache-disabled
/// ground-truth run), so one test's "fresh" simulation can never be served
/// by a cache another test just enabled.
static CACHE_CONFIG: Mutex<()> = Mutex::new(());

fn with_cache_dir<R>(tag: &str, f: impl FnOnce(&PathBuf) -> R) -> R {
    let dir = std::env::temp_dir().join(format!("ebm_cache_equiv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    gpu_sim::cache::set_enabled(true);
    gpu_sim::cache::set_dir(Some(dir.clone()));
    gpu_sim::cache::clear_memory();
    let out = f(&dir);
    gpu_sim::cache::set_dir(None);
    gpu_sim::cache::clear_memory();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn assert_sweeps_identical(a: &ComboSweep, b: &ComboSweep, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: combo count diverged");
    for (combo, samples) in a.iter() {
        let other = b
            .get(combo)
            .unwrap_or_else(|| panic!("{what}: missing {combo}"));
        assert_eq!(
            samples.len(),
            other.len(),
            "{what}: window count at {combo}"
        );
        for (s, o) in samples.iter().zip(other) {
            // Bit-level equality: decoded f64s must round-trip exactly.
            assert_eq!(s.ipc.to_bits(), o.ipc.to_bits(), "{what}: ipc at {combo}");
            assert_eq!(s.bw.to_bits(), o.bw.to_bits(), "{what}: bw at {combo}");
            assert_eq!(s.cmr.to_bits(), o.cmr.to_bits(), "{what}: cmr at {combo}");
            assert_eq!(s.eb.to_bits(), o.eb.to_bits(), "{what}: eb at {combo}");
        }
    }
}

#[test]
fn cached_sweep_is_bit_identical_to_fresh() {
    let _guard = CACHE_CONFIG.lock().unwrap();
    let cfg = GpuConfig::small();
    let w = Workload::pair("BLK", "BFS");
    let spec = RunSpec::new(300, 1_000);

    // Ground truth with the cache fully disabled.
    gpu_sim::cache::set_enabled(false);
    let fresh = ComboSweep::measure(&cfg, &w, 42, spec);

    with_cache_dir("sweep", |dir| {
        // Cold: simulates and stores.
        let cold = ComboSweep::measure(&cfg, &w, 42, spec);
        assert_sweeps_identical(&fresh, &cold, "cold vs fresh");

        // Memory-tier hit.
        let warm = ComboSweep::measure(&cfg, &w, 42, spec);
        assert_sweeps_identical(&fresh, &warm, "memory hit vs fresh");

        // Disk-tier hit: drop the memory tier, decode from the record file.
        gpu_sim::cache::clear_memory();
        assert!(
            dir.read_dir().unwrap().next().is_some(),
            "no records on disk"
        );
        let before = gpu_sim::cache::stats();
        let disk = ComboSweep::measure(&cfg, &w, 42, spec);
        let after = gpu_sim::cache::stats();
        assert!(
            after.disk_hits > before.disk_hits,
            "expected the sweep to be served from disk"
        );
        assert_sweeps_identical(&fresh, &disk, "disk hit vs fresh");
    });
}

#[test]
fn cached_scheme_results_are_bit_identical_to_fresh() {
    let _guard = CACHE_CONFIG.lock().unwrap();
    let w = Workload::pair("BLK", "BFS");
    let schemes = [Scheme::BestTlp, Scheme::Pbs(EbObjective::Ws), Scheme::OptIt];

    gpu_sim::cache::set_enabled(false);
    let fresh_ev = Evaluator::new(EvaluatorConfig::quick());
    let fresh: Vec<_> = schemes.iter().map(|s| fresh_ev.evaluate(&w, *s)).collect();

    with_cache_dir("schemes", |_dir| {
        let cold_ev = Evaluator::new(EvaluatorConfig::quick());
        let cold: Vec<_> = schemes.iter().map(|s| cold_ev.evaluate(&w, *s)).collect();

        // Disk-tier round trip in a brand-new evaluator: both the
        // evaluator's store and the global memory tier are empty, so each
        // result is computed from records decoded from disk.
        gpu_sim::cache::clear_memory();
        let disk_ev = Evaluator::new(EvaluatorConfig::quick());
        let disk: Vec<_> = schemes.iter().map(|s| disk_ev.evaluate(&w, *s)).collect();

        for ((f, c), d) in fresh.iter().zip(&cold).zip(&disk) {
            for r in [c, d] {
                assert_eq!(f.scheme, r.scheme);
                assert_eq!(f.metrics.sds, r.metrics.sds, "{}: sds", f.scheme);
                assert_eq!(
                    f.metrics.ws.to_bits(),
                    r.metrics.ws.to_bits(),
                    "{}: ws",
                    f.scheme
                );
                assert_eq!(
                    f.metrics.fi.to_bits(),
                    r.metrics.fi.to_bits(),
                    "{}: fi",
                    f.scheme
                );
                assert_eq!(
                    f.metrics.hs.to_bits(),
                    r.metrics.hs.to_bits(),
                    "{}: hs",
                    f.scheme
                );
                assert_eq!(f.combo, r.combo, "{}: combo", f.scheme);
                assert_eq!(f.tlp_trace, r.tlp_trace, "{}: tlp trace", f.scheme);
                assert_eq!(f.windows, r.windows, "{}: windows", f.scheme);
            }
        }
    });
}

#[test]
fn verify_mode_checks_hits_and_changes_nothing() {
    let _guard = CACHE_CONFIG.lock().unwrap();
    let cfg = GpuConfig::small();
    let w = Workload::pair("BLK", "BFS");
    let spec = RunSpec::new(300, 1_000);

    gpu_sim::cache::set_enabled(false);
    let fresh = ComboSweep::measure(&cfg, &w, 42, spec);

    with_cache_dir("verify", |_dir| {
        // Verify every hit: each one re-simulates and asserts bit equality
        // internally; a divergence would panic the test.
        gpu_sim::cache::set_verify_fraction(1.0);
        let _cold = ComboSweep::measure(&cfg, &w, 42, spec);
        let before = gpu_sim::cache::stats();
        let warm = ComboSweep::measure(&cfg, &w, 42, spec);
        let after = gpu_sim::cache::stats();
        gpu_sim::cache::set_verify_fraction(0.0);
        assert!(after.verified > before.verified, "verify mode never fired");
        assert_sweeps_identical(&fresh, &warm, "verified hit vs fresh");
    });
}

#[test]
fn schemes_resolve_to_the_run_records_campaign_units_write() {
    let _guard = CACHE_CONFIG.lock().unwrap();
    let w = Workload::pair("BLK", "BFS");
    let cfg = EvaluatorConfig::quick();
    let max = cfg.gpu.max_tlp();
    let inputs = FixedRunInputs {
        cfg: &cfg.gpu,
        apps: w.apps(),
        core_split: None,
        seed: cfg.seed,
        ccws: false,
    };
    let span = RunSpec::new(cfg.measure_from, cfg.run_cycles - cfg.measure_from);

    with_cache_dir("resolve", |_dir| {
        let ev = Evaluator::new(cfg.clone());
        let best_combo = ev.best_tlp_combo(&w);

        // The runs as a scheme evaluation used to make them: a private
        // machine, no run-level cache in sight. The controller runs are a
        // frozen copy of the evaluator's retired private-machine path.
        let mut gpu = Gpu::new(&cfg.gpu, w.apps(), cfg.seed);
        let inline_best = measure_fixed(&mut gpu, &best_combo, span);
        let private_run = |controller: &mut dyn Controller| {
            let mut gpu = Gpu::new(&cfg.gpu, w.apps(), cfg.seed);
            gpu.set_combo(&TlpCombo::uniform(max, 2));
            run_controlled(&mut gpu, controller, cfg.run_cycles, cfg.measure_from)
        };
        let inline_pbs = private_run(
            &mut Pbs::new(EbObjective::Ws, max, PbsScaling::None)
                .with_hold_windows(cfg.pbs_hold_windows),
        );
        let inline_dyncta = private_run(&mut DynCta::new(max));
        let inline_modbypass = private_run(&mut ModBypass::new(max));

        // What the `bestfixed:` and `pbs:` paper units of a campaign run.
        let unit_best = measure_fixed_cached(&inputs, &best_combo, span);
        let unit_pbs = run_controller_cached(
            &inputs,
            &TlpCombo::uniform(max, 2),
            cfg.run_cycles,
            cfg.measure_from,
            &ControllerSpec::Pbs(PbsRunSpec::paper(EbObjective::Ws, cfg.pbs_hold_windows)),
        );

        // The schemes name the same simulations: nothing left to step.
        let before = cycles_simulated();
        let best = ev.evaluate(&w, Scheme::BestTlp);
        let online = ev.evaluate(&w, Scheme::Pbs(EbObjective::Ws));
        assert_eq!(cycles_simulated(), before, "a scheme re-simulated its run");

        assert_eq!(best.windows, inline_best);
        assert_eq!(best.windows, unit_best);
        assert_eq!(best.combo.as_ref(), Some(&best_combo));
        assert_eq!(best.tlp_trace, vec![(0, best_combo.levels().to_vec())]);
        assert_eq!(online.windows, inline_pbs.overall);
        assert_eq!(online.windows, unit_pbs.overall);
        assert_eq!(online.tlp_trace, inline_pbs.tlp_trace);
        assert_eq!(online.combo, None);

        // Every scheme, each objective where it takes one: the first pass
        // writes whatever run records are missing...
        let mut schemes = vec![
            Scheme::BestTlp,
            Scheme::MaxTlp,
            Scheme::DynCta,
            Scheme::Ccws,
            Scheme::ModBypass,
            Scheme::OptIt,
        ];
        for o in EbObjective::all() {
            schemes.extend([
                Scheme::Pbs(o),
                Scheme::PbsOffline(o),
                Scheme::BruteForce(o),
                Scheme::Opt(o),
            ]);
        }
        let first: Vec<_> = schemes.iter().map(|&s| ev.evaluate(&w, s)).collect();

        // ...and once the run, alone and sweep records exist, a fresh
        // evaluator over an empty memory tier decodes them all from disk
        // and simulates nothing.
        gpu_sim::cache::clear_memory();
        let ev = Evaluator::new(cfg.clone());
        let before = cycles_simulated();
        let again: Vec<_> = schemes.iter().map(|&s| ev.evaluate(&w, s)).collect();
        assert_eq!(
            cycles_simulated(),
            before,
            "evaluate simulated over records"
        );

        let alone = ev.alone_ipcs(&w);
        let sds = |windows: &[AppWindow]| -> Vec<f64> {
            windows
                .iter()
                .zip(&alone)
                .map(|(x, a)| x.ipc() / a)
                .collect()
        };
        for (r, a) in first.iter().zip(&again) {
            assert_eq!(r.scheme, a.scheme);
            assert_eq!(r.metrics.sds, a.metrics.sds, "{}", r.scheme);
            assert_eq!(r.combo, a.combo, "{}", r.scheme);
            assert_eq!(r.tlp_trace, a.tlp_trace, "{}", r.scheme);
            assert_eq!(r.windows, a.windows, "{}", r.scheme);
            assert_eq!(r.metrics.sds, sds(&r.windows), "{}", r.scheme);
        }

        // The controller schemes are, bit for bit, the runs the retired
        // path made on a private machine.
        for (scheme, inline) in [
            (Scheme::DynCta, &inline_dyncta),
            (Scheme::ModBypass, &inline_modbypass),
        ] {
            let r = ev.evaluate(&w, scheme);
            assert_eq!(r.metrics.sds, sds(&inline.overall), "{scheme}: sds");
            assert_eq!(r.windows, inline.overall, "{scheme}: windows");
            assert_eq!(r.tlp_trace, inline.tlp_trace, "{scheme}: tlp trace");
            assert_eq!(r.combo, None, "{scheme}");
        }
    });
}

#[test]
fn memoized_sampling_error_equals_the_inline_loop() {
    let _guard = CACHE_CONFIG.lock().unwrap();
    let cfg = GpuConfig::small();
    let w = Workload::pair("BFS", "FFT");
    let combo = TlpCombo::pair(TlpLevel::new(2).unwrap(), TlpLevel::new(4).unwrap());
    let (warmup, window, n_windows) = (1_000, 500, 6);

    // `figures::sampling`'s part 1 as it was written inline.
    let mut gpu = Gpu::new(&cfg, w.apps(), 42);
    gpu.set_combo(&combo);
    gpu.run(warmup);
    let peak = cfg.peak_bw_bytes_per_cycle();
    let apps = [AppId::new(0), AppId::new(1)];
    let mut errs = [Vec::new(), Vec::new()];
    let mut prev_exact = apps.map(|a| gpu.counters(a));
    let mut prev_des = apps.map(|a| gpu.designated_counters(a));
    for _ in 0..n_windows {
        gpu.run(window);
        for (i, app) in apps.into_iter().enumerate() {
            let (exact, des) = (gpu.counters(app), gpu.designated_counters(app));
            let e = AppWindow::new(exact - prev_exact[i], window, peak).effective_bandwidth();
            let d = AppWindow::new(des - prev_des[i], window, peak).effective_bandwidth();
            if e > 1e-6 {
                errs[i].push(((d - e) / e).abs());
            }
            prev_exact[i] = exact;
            prev_des[i] = des;
        }
    }
    let inline: Vec<f64> = errs
        .iter()
        .map(|v| 100.0 * v.iter().sum::<f64>() / v.len().max(1) as f64)
        .collect();
    assert!(inline.iter().all(|e| e.is_finite()) && inline.iter().any(|&e| e > 0.0));

    let inputs = FixedRunInputs {
        cfg: &cfg,
        apps: w.apps(),
        core_split: None,
        seed: 42,
        ccws: false,
    };
    let helper = || sampling_error_cached(&inputs, &combo, RunSpec::new(warmup, window), n_windows);
    with_cache_dir("sampling", |_dir| {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&helper()), bits(&inline), "cold");
        gpu_sim::cache::clear_memory();
        let before = cycles_simulated();
        assert_eq!(bits(&helper()), bits(&inline), "decoded from disk");
        assert_eq!(cycles_simulated(), before);
    });
}
