//! Generators for every table and figure of the paper's evaluation.
//!
//! Each function renders one artifact as a [`Report`]; the per-experiment
//! index in `DESIGN.md` maps them back to the paper. All generators share
//! one memoizing [`Evaluator`], so alone profiles and 64-combination sweeps
//! are measured once per campaign.

use crate::util::Report;
use ebm_core::eval::{Evaluator, Scheme};
use ebm_core::hw::OverheadReport;
use ebm_core::metrics::{alone_ratio, EbObjective};
use ebm_core::pattern::{pbs_offline_search, SweepCurve};
use ebm_core::pbsrun::{run_pbs_cached, run_pbs_traced, PbsRunSpec};
use ebm_core::scaling::ScalingFactors;
use ebm_core::search::{best_combo_by_eb, best_combo_by_sd};
use ebm_core::sweep::ComboSweep;
use gpu_sim::alone::profile_alone;
use gpu_sim::harness::{
    measure_fixed_cached, sampling_error_cached, series_csv, FixedRunInputs, RunSpec,
};
use gpu_sim::metrics::{fi_of, gmean, hs_of, ws_of};
use gpu_sim::trace::{NullSink, TraceSink};
use gpu_types::{GpuConfig, TlpCombo, TlpLevel};
use gpu_workloads::{all_apps, representative_workloads, Workload};

fn pair(a: &str, b: &str) -> Workload {
    Workload::pair(a, b)
}

/// Fig. 1: WS and FI of BFS_FFT under ++bestTLP, ++maxTLP and the oracle
/// combinations, normalized to ++bestTLP.
pub fn fig01(ev: &Evaluator) -> Report {
    let mut r = Report::new("fig01", "WS and FI for BFS_FFT (normalized to ++bestTLP)");
    let w = pair("BFS", "FFT");
    let base = ev.evaluate(&w, Scheme::BestTlp);
    r.header("scheme", &["WS", "FI", "combo0", "combo1"]);
    for s in [
        Scheme::BestTlp,
        Scheme::MaxTlp,
        Scheme::Opt(EbObjective::Ws),
        Scheme::Opt(EbObjective::Fi),
    ] {
        let res = ev.evaluate(&w, s);
        let combo = res.combo.clone().expect("static scheme");
        r.row(
            &s.to_string(),
            &[
                res.metrics.ws / base.metrics.ws,
                res.metrics.fi / base.metrics.fi,
                combo.level(0).get() as f64,
                combo.level(1).get() as f64,
            ],
        );
    }
    r.line("shape goal: opt columns well above 1.0; ++maxTLP at or below ++bestTLP.");
    r
}

/// Fig. 2: effect of TLP on IPC, BW, CMR and EB for BFS running alone
/// (all normalized to the bestTLP values, as in the paper).
pub fn fig02(ev: &Evaluator) -> Report {
    let mut r = Report::new("fig02", "TLP sweep for BFS alone (normalized to bestTLP)");
    let n = ev.config().gpu.n_cores / 2;
    let p = ev
        .alone(gpu_workloads::by_name("BFS").expect("BFS exists"), n)
        .clone();
    let best = *p.best();
    r.line(format!("bestTLP = {}", p.best_tlp()));
    r.header("TLP", &["IPC", "BW", "CMR", "EB"]);
    for s in &p.samples {
        r.row(
            &s.tlp.to_string(),
            &[
                s.ipc / best.ipc,
                s.bw / best.bw,
                s.cmr / best.cmr,
                s.eb / best.eb,
            ],
        );
    }
    r.line("shape goals: IPC hill peaking at bestTLP; BW rises then saturates;");
    r.line("CMR grows with TLP; EB tracks IPC (the paper's central observation).");
    r
}

/// Fig. 3: effective bandwidth observed at the DRAM (A), at the L2 (B) and
/// at the core (C) for a cache-sensitive (BFS) and a cache-insensitive
/// (BLK) application.
pub fn fig03(ev: &Evaluator) -> Report {
    let mut r = Report::new("fig03", "EB at hierarchy levels A (DRAM), B (L2), C (core)");
    let n = ev.config().gpu.n_cores / 2;
    r.header("app", &["A=BW", "B", "C=EB", "L1MR", "L2MR"]);
    for name in ["BFS", "BLK"] {
        let p = ev
            .alone(gpu_workloads::by_name(name).expect("known app"), n)
            .clone();
        let b = p.best();
        let at_l2 = b.bw / b.l2_miss_rate.max(1e-9);
        r.row(name, &[b.bw, at_l2, b.eb, b.l1_miss_rate, b.l2_miss_rate]);
    }
    r.line("shape goal: A <= B <= C for BFS (caches amplify); A = B = C for BLK (CMR = 1).");
    r
}

/// Fig. 4: per-application slowdown and EB stacks under ++bestTLP versus
/// the optimal combinations, for the ten representative workloads.
pub fn fig04(ev: &Evaluator) -> Report {
    let mut r = Report::new(
        "fig04",
        "per-app SD (++bestTLP vs optWS) and EB (++bestTLP vs BF-WS) stacks",
    );
    r.header(
        "workload",
        &[
            "SD1b", "SD2b", "SD1o", "SD2o", "EB1b", "EB2b", "EB1o", "EB2o",
        ],
    );
    for w in representative_workloads() {
        let alone = ev.alone_ipcs(&w);
        let best = ev.best_tlp_combo(&w);
        let scaling = ScalingFactors::none(2);
        let sweep = ev.sweep(&w).clone();
        let (opt, _) = best_combo_by_sd(&sweep, EbObjective::Ws, &alone);
        let (bf, _) = best_combo_by_eb(&sweep, EbObjective::Ws, &scaling);
        let sd = |c: &TlpCombo| -> Vec<f64> {
            sweep
                .ipcs(c)
                .iter()
                .zip(&alone)
                .map(|(i, a)| i / a)
                .collect()
        };
        let (sb, so) = (sd(&best), sd(&opt));
        let (eb, eo) = (sweep.ebs(&best), sweep.ebs(&bf));
        r.row(
            &w.name(),
            &[sb[0], sb[1], so[0], so[1], eb[0], eb[1], eo[0], eo[1]],
        );
    }
    r.line("shape goals: SD1o+SD2o >= SD1b+SD2b on every row (Observation 1:");
    r.line("the combo with the highest EB sum also gives the highest WS), and the");
    r.line("opt stacks are more balanced than the bestTLP stacks.");
    r
}

/// Fig. 5: `IPC_AR` versus `EB_AR` over all two-application pairings of the
/// 26 applications.
pub fn fig05(ev: &Evaluator) -> Report {
    let mut r = Report::new(
        "fig05",
        "alone-ratio bias: IPC_AR vs EB_AR over all pairings",
    );
    let n = ev.config().gpu.n_cores / 2;
    let profiles: Vec<(f64, f64)> = all_apps()
        .iter()
        .map(|a| {
            let p = ev.alone(a, n);
            (p.ipc_at_best(), p.eb_at_best())
        })
        .collect();
    let mut ipc_ars = Vec::new();
    let mut eb_ars = Vec::new();
    for i in 0..profiles.len() {
        for j in i + 1..profiles.len() {
            ipc_ars.push(alone_ratio(profiles[i].0, profiles[j].0));
            eb_ars.push(alone_ratio(profiles[i].1, profiles[j].1));
        }
    }
    let wins = ipc_ars.iter().zip(&eb_ars).filter(|(i, e)| e < i).count();
    r.header("statistic", &["IPC_AR", "EB_AR"]);
    r.row("geometric mean", &[gmean(&ipc_ars), gmean(&eb_ars)]);
    r.row(
        "arithmetic mean",
        &[
            ipc_ars.iter().sum::<f64>() / ipc_ars.len() as f64,
            eb_ars.iter().sum::<f64>() / eb_ars.len() as f64,
        ],
    );
    r.row(
        "max",
        &[
            ipc_ars.iter().copied().fold(0.0, f64::max),
            eb_ars.iter().copied().fold(0.0, f64::max),
        ],
    );
    r.line(format!(
        "EB_AR < IPC_AR in {wins} of {} pairings ({:.0}%)",
        ipc_ars.len(),
        100.0 * wins as f64 / ipc_ars.len() as f64
    ));
    r.line("shape goal: EB_AR is much lower than IPC_AR on average — the §IV");
    r.line("argument for optimizing EB-based rather than IPC-based system metrics.");
    r
}

fn grid_section(r: &mut Report, sweep: &ComboSweep, title: &str, value: impl Fn(&TlpCombo) -> f64) {
    let levels = sweep.levels();
    r.line(title);
    let cols: Vec<String> = levels.iter().map(|l| l.to_string()).collect();
    r.header(
        "TLP0 \\ TLP1",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for l0 in &levels {
        let vals: Vec<f64> = levels
            .iter()
            .map(|l1| value(&TlpCombo::pair(*l0, *l1)))
            .collect();
        r.row(&l0.to_string(), &vals);
    }
    r.blank();
}

/// Fig. 6: the EB-WS pattern surfaces of BLK_TRD — the inflection point of
/// the critical application stays at the same TLP level regardless of the
/// co-runner's TLP.
pub fn fig06(ev: &Evaluator) -> Report {
    let mut r = Report::new("fig06", "EB-WS patterns for BLK_TRD");
    let w = pair("BLK", "TRD");
    let sweep = ev.sweep(&w).clone();
    let scaling = ScalingFactors::none(2);
    grid_section(
        &mut r,
        &sweep,
        "EB-WS (rows: TLP-BLK, cols: TLP-TRD)",
        |c| EbObjective::Ws.value(&sweep.ebs(c)),
    );
    grid_section(&mut r, &sweep, "EB-BLK", |c| sweep.ebs(c)[0]);
    grid_section(&mut r, &sweep, "EB-TRD", |c| sweep.ebs(c)[1]);
    // Pattern consistency: the knee of app 0's EB-WS curve for each fixed
    // co-runner level.
    let levels = sweep.levels();
    let knees: Vec<f64> = levels
        .iter()
        .map(|l1| {
            let fixed = TlpCombo::pair(levels[0], *l1);
            SweepCurve::from_sweep(&sweep, 0, &fixed, EbObjective::Ws, &scaling)
                .knee()
                .get() as f64
        })
        .collect();
    let cols: Vec<String> = levels.iter().map(|l| l.to_string()).collect();
    r.header(
        "knee of TLP-BLK at TLP-TRD =",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    r.row("knee(EB-WS)", &knees);
    r.line("shape goal: the knee row is (nearly) constant — the \"pattern\" PBS exploits.");
    r
}

/// Fig. 7: the PBS-FI view (scaled EB-difference) and PBS-HS view (EB-HS)
/// of BLK_TRD, with sampled and exact scaling factors.
pub fn fig07(ev: &Evaluator) -> Report {
    let mut r = Report::new("fig07", "PBS-FI and PBS-HS views of BLK_TRD");
    let w = pair("BLK", "TRD");
    let sampled = ev.sampled_factors(&w);
    let exact = ev.exact_factors(&w);
    let sweep = ev.sweep(&w).clone();
    for (name, f) in [("sampled", &sampled), ("exact", &exact)] {
        grid_section(
            &mut r,
            &sweep,
            &format!("scaled EB-difference, {name} factors (0 = perfectly fair)"),
            |c| {
                let e = f.apply(&sweep.ebs(c));
                e[0] - e[1]
            },
        );
    }
    grid_section(&mut r, &sweep, "EB-HS (sampled factors)", |c| {
        EbObjective::Hs.value(&sampled.apply(&sweep.ebs(c)))
    });
    let (fi_combo, _) = pbs_offline_search(&sweep, EbObjective::Fi, &sampled);
    let (hs_combo, _) = pbs_offline_search(&sweep, EbObjective::Hs, &sampled);
    let alone = ev.alone_ipcs(&w);
    let (opt_fi, _) = best_combo_by_sd(&sweep, EbObjective::Fi, &alone);
    let (opt_hs, _) = best_combo_by_sd(&sweep, EbObjective::Hs, &alone);
    r.line(format!(
        "PBS-FI (offline) picks {fi_combo}; optFI is {opt_fi}"
    ));
    r.line(format!(
        "PBS-HS (offline) picks {hs_combo}; optHS is {opt_hs}"
    ));
    r.line("shape goal: near-zero EB-difference cells coincide with high-FI combos,");
    r.line("and the PBS picks land near the oracle picks.");
    r
}

/// Fig. 8: the hardware organization's overhead budget (§V-E).
pub fn fig08() -> Report {
    let mut r = Report::new("fig08", "sampling-hardware overhead budget (§V-E)");
    let cfg = GpuConfig::paper();
    for apps in [2usize, 3] {
        let o = OverheadReport::for_machine(&cfg, apps);
        r.line(format!("--- {apps} applications ---"));
        r.line(o.to_string());
        r.line(format!(
            "relay bandwidth       : {:.4} bits/cycle (crossbar flit = {} bits)",
            o.relay_bits_per_cycle(apps),
            8 * 32
        ));
        r.blank();
    }
    r.line("shape goal: total storage well under a few KB; relay traffic negligible");
    r.line("against the crossbar's flit bandwidth.");
    r
}

fn scheme_figure(
    ev: &Evaluator,
    id: &str,
    objective: EbObjective,
    metric: impl Fn(&gpu_sim::metrics::SystemMetrics) -> f64,
    workloads: &[Workload],
) -> Report {
    let metric_name = objective.to_string();
    let mut r = Report::new(
        id,
        &format!("{metric_name} of all schemes, normalized to ++bestTLP"),
    );
    let schemes = [
        Scheme::DynCta,
        Scheme::ModBypass,
        Scheme::Pbs(objective),
        Scheme::PbsOffline(objective),
        Scheme::BruteForce(objective),
        Scheme::Opt(objective),
    ];
    let cols: Vec<String> = schemes.iter().map(|s| s.to_string()).collect();
    r.header(
        "workload",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let representative: Vec<String> = representative_workloads()
        .iter()
        .map(Workload::name)
        .collect();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for w in workloads {
        let _span = crate::profiler::span("sweep", &w.name());
        // One batch per workload: the baseline plus all six schemes fan out
        // across worker threads (results identical to serial evaluation).
        let mut batch = vec![Scheme::BestTlp];
        batch.extend_from_slice(&schemes);
        let results = ev.evaluate_batch(w, &batch);
        let base = metric(&results[0].metrics).max(1e-9);
        let mut vals = Vec::new();
        for (i, res) in results[1..].iter().enumerate() {
            let v = metric(&res.metrics) / base;
            per_scheme[i].push(v.max(1e-9));
            vals.push(v);
        }
        if representative.contains(&w.name()) {
            r.row(&w.name(), &vals);
        }
        crate::logging::progress_dot();
    }
    crate::logging::progress_end();
    let gmeans: Vec<f64> = per_scheme.iter().map(|v| gmean(v)).collect();
    r.row("Gmean (all)", &gmeans);
    r
}

/// Fig. 9: weighted speedup of every scheme across the evaluated workloads,
/// normalized to ++bestTLP (representative rows plus the Gmean over all).
pub fn fig09(ev: &Evaluator, workloads: &[Workload]) -> Report {
    let mut r = scheme_figure(ev, "fig09", EbObjective::Ws, |m| m.ws, workloads);
    r.line("shape goals: PBS-WS and its offline variant above ++DynCTA and");
    r.line("Mod+Bypass; BF-WS within a few % of optWS; all above the 1.0 baseline.");
    r
}

/// Fig. 10: fairness index, same schemes (FI variants).
pub fn fig10(ev: &Evaluator, workloads: &[Workload]) -> Report {
    let mut r = scheme_figure(ev, "fig10", EbObjective::Fi, |m| m.fi, workloads);
    r.line("shape goals: PBS-FI improves fairness severalfold over ++bestTLP on");
    r.line("unfair workloads; BF-FI/optFI bound it from above.");
    r
}

/// §VI-C: harmonic weighted speedup, same schemes (HS variants).
pub fn hs_results(ev: &Evaluator, workloads: &[Workload]) -> Report {
    let mut r = scheme_figure(ev, "hs", EbObjective::Hs, |m| m.hs, workloads);
    r.line("shape goal: PBS-HS lands between PBS-WS (throughput-leaning) and");
    r.line("PBS-FI (fairness-leaning) on both WS and FI — HS balances the two.");
    r
}

/// Fig. 11: TLP decisions over time for BLK_BFS under PBS-WS and PBS-FI.
/// Also exports the per-window metric series to `results/fig11_<obj>.csv`.
///
/// Equivalent to [`fig11_traced`] with a [`NullSink`] (no trace persisted).
pub fn fig11(ev: &Evaluator) -> Report {
    fig11_traced(ev, &mut NullSink)
}

/// [`fig11`] with a sink for the two runs' events. Both runs are ordinary
/// memoized PBS records ([`run_pbs_traced`]) — the evaluator's
/// `Scheme::Pbs(Ws | Fi)` on BLK_BFS, the WS one also the ablation's paper
/// run — and everything printed here, the per-window CSV included, is read
/// from the record. Only an enabled sink (the `--trace <path>` flag of
/// `experiments`) makes them simulate inline, to have events to stream.
pub fn fig11_traced(ev: &Evaluator, sink: &mut dyn TraceSink) -> Report {
    let mut r = Report::new("fig11", "TLP over time for BLK_BFS under PBS");
    let cfg = ev.config();
    let w = pair("BLK", "BFS");
    let inputs = FixedRunInputs {
        cfg: &cfg.gpu,
        apps: w.apps(),
        core_split: None,
        seed: cfg.seed,
        ccws: false,
    };
    for objective in [EbObjective::Ws, EbObjective::Fi] {
        let _span = crate::profiler::span("run", &format!("fig11_PBS-{objective}"));
        let run = run_pbs_traced(
            &inputs,
            &TlpCombo::uniform(cfg.gpu.max_tlp(), 2),
            cfg.run_cycles,
            cfg.measure_from,
            &PbsRunSpec::scheme(objective, cfg.pbs_hold_windows),
            sink,
        );
        let csv_path = crate::util::out_path(&format!("fig11_{objective}.csv"));
        if let Some(dir) = csv_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&csv_path, series_csv(&run.window_series));
        r.line(format!(
            "--- PBS-{objective}: {} TLP changes over {} windows (search probed {} combos) ---",
            run.tlp_trace.len(),
            run.n_windows,
            run.samples_last_search
        ));
        r.header("cycle", &["TLP-BLK", "TLP-BFS"]);
        for (cycle, levels) in &run.tlp_trace {
            r.row(
                &format!("{cycle}"),
                &[levels[0].get() as f64, levels[1].get() as f64],
            );
        }
        // Report text stays `--out`-independent so cached and redirected
        // runs stay byte-identical; only the actual write moves.
        r.line(format!(
            "(per-window IPC/BW/CMR/EB series written to fig11_{objective}.csv)"
        ));
        r.blank();
    }
    r.line("shape goal: dense sampling phases (the shaded regions of Fig. 11)");
    r.line("followed by long stable holds at the chosen combination.");
    r
}

/// Table IV: alone-run characteristics of all 26 applications.
pub fn tab04(ev: &Evaluator) -> Report {
    let mut r = Report::new("tab04", "Table IV: IPC@bestTLP, EB@bestTLP, groups");
    let n = ev.config().gpu.n_cores / 2;
    r.header("app", &["IPC", "EB", "BW", "CMR", "bestTLP"]);
    let mut rows: Vec<(&str, f64, f64, f64, f64, f64, &str)> = Vec::new();
    for a in all_apps() {
        let p = ev.alone(a, n);
        let b = p.best();
        rows.push((
            a.name,
            b.ipc,
            b.eb,
            b.bw,
            b.cmr,
            b.tlp.get() as f64,
            match a.group {
                gpu_workloads::EbGroup::G1 => "G1",
                gpu_workloads::EbGroup::G2 => "G2",
                gpu_workloads::EbGroup::G3 => "G3",
                gpu_workloads::EbGroup::G4 => "G4",
            },
        ));
    }
    rows.sort_by(|a, b| a.2.total_cmp(&b.2));
    for (name, ipc, eb, bw, cmr, best, group) in rows {
        r.row(&format!("{name} [{group}]"), &[ipc, eb, bw, cmr, best]);
    }
    let avgs = ev.group_averages();
    r.blank();
    r.line("group-average alone EB (the user-supplied scaling factors):");
    let mut groups: Vec<_> = avgs.into_iter().collect();
    groups.sort_by_key(|(g, _)| *g);
    for (g, avg) in groups {
        r.line(format!("  {g}: {avg:.3}"));
    }
    r.line("shape goal: EB spread from well below 1 (G1) to several (G4), with");
    r.line("groups ordered by EB.");
    r
}

/// §VI-D sensitivity: core-partition splits and L2 capacity.
pub fn sens_part(ev: &Evaluator) -> Report {
    let mut r = Report::new("sens_part", "sensitivity: core split and L2 capacity");
    let seed = ev.config().seed;
    let sweep_spec = RunSpec::new(10_000, 25_000);

    r.line("--- core-partition split (BLK_BFS): WS of ++bestTLP vs optWS ---");
    r.header("split", &["bestWS", "optWS", "gain%"]);
    let w = pair("BLK", "BFS");
    // Quarter/half/three-quarter splits of whatever machine is configured:
    // (4,12), (8,8), (12,4) on the paper machine, scaled down under
    // `--quick` instead of exceeding the small machine's cores.
    let total = ev.config().gpu.n_cores;
    let quarter = (total / 4).max(1);
    for (c0, c1) in [
        (quarter, total - quarter),
        (total / 2, total - total / 2),
        (total - quarter, quarter),
    ] {
        let cfg = ev.config().gpu.clone();
        let profiles: Vec<_> = w
            .apps()
            .iter()
            .zip([c0, c1])
            .map(|(a, n)| profile_alone(&cfg, a, n, seed, RunSpec::new(10_000, 25_000)))
            .collect();
        let alone: Vec<f64> = profiles.iter().map(|p| p.ipc_at_best()).collect();
        let best_combo = TlpCombo::new(profiles.iter().map(|p| p.best_tlp()).collect());
        // Exhaustive sweep on this split.
        let mut best_ws = (best_combo.clone(), 0.0f64);
        let mut base_ws = 0.0;
        let split = [c0, c1];
        for combo in ComboSweep::combos(&cfg, 2) {
            let inputs = FixedRunInputs {
                cfg: &cfg,
                apps: w.apps(),
                core_split: Some(&split),
                seed,
                ccws: false,
            };
            let windows = measure_fixed_cached(&inputs, &combo, sweep_spec);
            let sds: Vec<f64> = windows
                .iter()
                .zip(&alone)
                .map(|(x, a)| x.ipc() / a)
                .collect();
            let ws = ws_of(&sds);
            if ws > best_ws.1 {
                best_ws = (combo.clone(), ws);
            }
            if combo == best_combo {
                base_ws = ws;
            }
        }
        r.row(
            &format!("({c0},{c1})"),
            &[
                base_ws,
                best_ws.1,
                100.0 * (best_ws.1 / base_ws.max(1e-9) - 1.0),
            ],
        );
        crate::logging::progress_dot();
    }
    r.blank();

    r.line("--- L2 capacity (BFS_FFT): WS of ++bestTLP vs optWS ---");
    r.header("L2/partition", &["bestWS", "optWS", "gain%"]);
    let w = pair("BFS", "FFT");
    for l2_kb in [64u64, 128, 256] {
        let mut cfg = ev.config().gpu.clone();
        cfg.l2.capacity_bytes = l2_kb * 1024;
        let n = cfg.n_cores / 2;
        let profiles: Vec<_> = w
            .apps()
            .iter()
            .map(|a| profile_alone(&cfg, a, n, seed, RunSpec::new(10_000, 25_000)))
            .collect();
        let alone: Vec<f64> = profiles.iter().map(|p| p.ipc_at_best()).collect();
        let best_combo = TlpCombo::new(profiles.iter().map(|p| p.best_tlp()).collect());
        let sweep = ComboSweep::measure(&cfg, &w, seed, sweep_spec);
        let (_, opt_ws) = best_combo_by_sd(&sweep, EbObjective::Ws, &alone);
        let base_sds: Vec<f64> = sweep
            .ipcs(&best_combo)
            .iter()
            .zip(&alone)
            .map(|(i, a)| i / a)
            .collect();
        let base_ws = ws_of(&base_sds);
        r.row(
            &format!("{l2_kb} KB"),
            &[base_ws, opt_ws, 100.0 * (opt_ws / base_ws.max(1e-9) - 1.0)],
        );
        crate::logging::progress_dot();
    }
    crate::logging::progress_end();
    r.line("shape goals: the opt gain persists across splits; smaller L2 slices");
    r.line("increase contention and the achievable gain.");
    r
}

/// §VI-D: PBS extends to three co-scheduled applications.
pub fn threeapp(ev: &Evaluator) -> Report {
    let mut r = Report::new("threeapp", "three-application workloads under PBS");
    let cfg = ev.config().gpu.clone();
    let seed = ev.config().seed;
    // An even three-way split of the configured machine: 3 x 5 cores with
    // one idle on the 16-core paper machine, scaled down under `--quick`.
    let per_app = (ev.config().gpu.n_cores / 3).max(1);
    let mixes: [[&str; 3]; 4] = [
        ["BLK", "BFS", "FFT"],
        ["TRD", "DS", "JPEG"],
        ["SCP", "HS", "GUPS"],
        ["LIB", "BLK", "BFS"],
    ];
    r.header(
        "workload",
        &["bestWS", "maxWS", "pbsWS", "bestFI", "maxFI", "pbsFI"],
    );
    for mix in mixes {
        let apps: Vec<&gpu_workloads::AppProfile> = mix
            .iter()
            .map(|n| gpu_workloads::by_name(n).expect("known app"))
            .collect();
        let profiles: Vec<_> = apps
            .iter()
            .map(|a| profile_alone(&cfg, a, per_app, seed, RunSpec::new(10_000, 25_000)))
            .collect();
        let alone: Vec<f64> = profiles.iter().map(|p| p.ipc_at_best()).collect();
        let best = TlpCombo::new(profiles.iter().map(|p| p.best_tlp()).collect());
        let max = TlpCombo::uniform(cfg.max_tlp(), 3);

        let split = [per_app; 3];
        let run_static = |combo: &TlpCombo| -> Vec<f64> {
            let inputs = FixedRunInputs {
                cfg: &cfg,
                apps: &apps,
                core_split: Some(&split),
                seed,
                ccws: false,
            };
            let windows = measure_fixed_cached(&inputs, combo, RunSpec::new(3_000, 300_000));
            windows
                .iter()
                .zip(&alone)
                .map(|(w, a)| w.ipc() / a)
                .collect()
        };
        let sd_best = run_static(&best);
        let sd_max = run_static(&max);

        let run = run_pbs_cached(
            &FixedRunInputs {
                cfg: &cfg,
                apps: &apps,
                core_split: Some(&split),
                seed,
                ccws: false,
            },
            &max,
            300_000,
            3_000,
            &PbsRunSpec::paper(EbObjective::Ws, 150),
        );
        let sd_pbs: Vec<f64> = run
            .overall
            .iter()
            .zip(&alone)
            .map(|(w, a)| w.ipc() / a)
            .collect();

        r.row(
            &mix.join("_"),
            &[
                ws_of(&sd_best),
                ws_of(&sd_max),
                ws_of(&sd_pbs),
                fi_of(&sd_best),
                fi_of(&sd_max),
                fi_of(&sd_pbs),
            ],
        );
        crate::logging::progress_dot();
    }
    crate::logging::progress_end();
    r.line("shape goal: PBS-WS matches or beats ++bestTLP WS while improving FI,");
    r.line("with a search that still costs far fewer samples than the 512-combination");
    r.line("exhaustive space (§VI-D: PBS extends trivially to n applications).");
    r
}

/// DRAM page-policy ablation: the evaluation's row-locality behaviour
/// under open-page (the paper's FR-FCFS baseline) versus closed-page
/// (auto-precharge) row management.
pub fn dram_policy(ev: &Evaluator) -> Report {
    let mut r = Report::new("dram_policy", "DRAM page-policy ablation: open vs closed");
    let seed = ev.config().seed;

    r.line("--- alone attained BW at maxTLP ---");
    r.header("app", &["open BW", "closed BW", "open RH%", "closed RH%"]);
    for name in ["BLK", "GUPS"] {
        let app = gpu_workloads::by_name(name).expect("known app");
        let mut vals = Vec::new();
        let mut hits = Vec::new();
        for policy in [gpu_types::PagePolicy::Open, gpu_types::PagePolicy::Closed] {
            let mut cfg = ev.config().gpu.clone();
            cfg.dram.page_policy = policy;
            let n = cfg.n_cores / 2;
            let split = [n];
            let inputs = FixedRunInputs {
                cfg: &cfg,
                apps: &[app],
                core_split: Some(&split),
                seed,
                ccws: false,
            };
            let w = measure_fixed_cached(
                &inputs,
                &TlpCombo::uniform(cfg.max_tlp(), 1),
                RunSpec::new(10_000, 25_000),
            );
            vals.push(w[0].attained_bw());
            hits.push(100.0 * w[0].counters.row_hit_rate());
        }
        r.row(name, &[vals[0], vals[1], hits[0], hits[1]]);
    }
    r.blank();

    r.line("--- BFS_FFT: ++bestTLP WS vs optWS under each policy ---");
    r.header("policy", &["bestWS", "optWS", "gain%"]);
    let w = pair("BFS", "FFT");
    for policy in [gpu_types::PagePolicy::Open, gpu_types::PagePolicy::Closed] {
        let mut cfg = ev.config().gpu.clone();
        cfg.dram.page_policy = policy;
        let n = cfg.n_cores / 2;
        let profiles: Vec<_> = w
            .apps()
            .iter()
            .map(|app| profile_alone(&cfg, app, n, seed, RunSpec::new(10_000, 25_000)))
            .collect();
        let alone: Vec<f64> = profiles.iter().map(|p| p.ipc_at_best()).collect();
        let best = TlpCombo::new(profiles.iter().map(|p| p.best_tlp()).collect());
        let sweep = ComboSweep::measure(&cfg, &w, seed, RunSpec::new(10_000, 25_000));
        let (_, opt_ws) = best_combo_by_sd(&sweep, EbObjective::Ws, &alone);
        let base = ws_of(
            &sweep
                .ipcs(&best)
                .iter()
                .zip(&alone)
                .map(|(i, x)| i / x)
                .collect::<Vec<_>>(),
        );
        r.row(
            &format!("{policy:?}"),
            &[base, opt_ws, 100.0 * (opt_ws / base.max(1e-9) - 1.0)],
        );
        crate::logging::progress_dot();
    }
    crate::logging::progress_end();
    r.line("shape goals: closed page forfeits the streaming apps' row hits and");
    r.line("loses bandwidth (GUPS, already row-hostile, barely cares); the");
    r.line("bestTLP-vs-opt gap survives either policy.");
    r
}

/// The prior-art single-application TLP finders as multi-application
/// baselines: ++CCWS alongside ++DynCTA and ++bestTLP (plus PBS-WS for
/// reference). Also verifies CCWS's premise: running alone, it converges
/// near the bestTLP performance of a cache-sensitive application.
pub fn ccws(ev: &Evaluator) -> Report {
    let mut r = Report::new("ccws", "++CCWS baseline (and its alone-run premise)");
    let cfg = ev.config().gpu.clone();
    let seed = ev.config().seed;

    r.line("--- alone: CCWS IPC vs bestTLP IPC (cache-sensitive apps) ---");
    r.header("app", &["bestTLP", "IPC@best", "IPC@CCWS", "ratio"]);
    for name in ["BFS", "FFT", "HS", "BLK"] {
        let app = gpu_workloads::by_name(name).expect("known app");
        let n = cfg.n_cores / 2;
        let best = {
            let p = ev.alone(app, n);
            (p.best_tlp(), p.ipc_at_best())
        };
        let split = [n];
        let inputs = FixedRunInputs {
            cfg: &cfg,
            apps: &[app],
            core_split: Some(&split),
            seed,
            ccws: true,
        };
        // CCWS walks the limit one step per decision interval, so give it
        // time to converge before measuring.
        let w = measure_fixed_cached(
            &inputs,
            &TlpCombo::uniform(cfg.max_tlp(), 1),
            RunSpec::new(80_000, 40_000),
        );
        r.row(
            name,
            &[best.0.get() as f64, best.1, w[0].ipc(), w[0].ipc() / best.1],
        );
    }
    r.blank();

    r.line("--- co-run WS (normalized to ++bestTLP) ---");
    r.header("workload", &["++CCWS", "++DynCTA", "PBS-WS"]);
    for (a, b) in [("BLK", "BFS"), ("BFS", "FFT"), ("DS", "TRD")] {
        let w = pair(a, b);
        let base = ev.evaluate(&w, Scheme::BestTlp).metrics.ws.max(1e-9);
        let vals: Vec<f64> = [Scheme::Ccws, Scheme::DynCta, Scheme::Pbs(EbObjective::Ws)]
            .iter()
            .map(|s| ev.evaluate(&w, *s).metrics.ws / base)
            .collect();
        r.row(&w.name(), &vals);
        crate::logging::progress_dot();
    }
    crate::logging::progress_end();
    r.line("shape goals: alone, CCWS recovers most of the bestTLP IPC for");
    r.line("cache-sensitive apps (its published premise); co-run, ++CCWS behaves");
    r.line("like the other co-run-oblivious baselines and trails PBS.");
    r
}

/// Warp-scheduler sensitivity: GTO (the paper's baseline) versus loose
/// round-robin, for the alone TLP hill and for the bestTLP-vs-opt gap.
pub fn sched(ev: &Evaluator) -> Report {
    let mut r = Report::new("sched", "warp-scheduler sensitivity: GTO vs LRR");
    let seed = ev.config().seed;
    let mixes = [("BLK", "BFS"), ("BFS", "FFT")];
    r.line("--- BFS alone: bestTLP and IPC@bestTLP per scheduler ---");
    r.header("scheduler", &["bestTLP", "IPC", "EB"]);
    for policy in [
        gpu_types::WarpSchedPolicy::Gto,
        gpu_types::WarpSchedPolicy::Lrr,
    ] {
        let mut cfg = ev.config().gpu.clone();
        cfg.scheduler = policy;
        let p = profile_alone(
            &cfg,
            gpu_workloads::by_name("BFS").expect("BFS exists"),
            cfg.n_cores / 2,
            seed,
            RunSpec::new(10_000, 25_000),
        );
        let b = p.best();
        r.row(&format!("{policy:?}"), &[b.tlp.get() as f64, b.ipc, b.eb]);
    }
    r.blank();
    r.line("--- co-run: ++bestTLP WS vs optWS (from sweep) per scheduler ---");
    r.header("workload/sched", &["bestWS", "optWS", "gain%"]);
    for (a, b) in mixes {
        let w = pair(a, b);
        for policy in [
            gpu_types::WarpSchedPolicy::Gto,
            gpu_types::WarpSchedPolicy::Lrr,
        ] {
            let mut cfg = ev.config().gpu.clone();
            cfg.scheduler = policy;
            let n = cfg.n_cores / 2;
            let profiles: Vec<_> = w
                .apps()
                .iter()
                .map(|app| profile_alone(&cfg, app, n, seed, RunSpec::new(10_000, 25_000)))
                .collect();
            let alone: Vec<f64> = profiles.iter().map(|p| p.ipc_at_best()).collect();
            let best = TlpCombo::new(profiles.iter().map(|p| p.best_tlp()).collect());
            let sweep = ComboSweep::measure(&cfg, &w, seed, RunSpec::new(10_000, 25_000));
            let (_, opt_ws) = best_combo_by_sd(&sweep, EbObjective::Ws, &alone);
            let base = ws_of(
                &sweep
                    .ipcs(&best)
                    .iter()
                    .zip(&alone)
                    .map(|(i, x)| i / x)
                    .collect::<Vec<_>>(),
            );
            r.row(
                &format!("{} / {policy:?}", w.name()),
                &[base, opt_ws, 100.0 * (opt_ws / base.max(1e-9) - 1.0)],
            );
            crate::logging::progress_dot();
        }
    }
    crate::logging::progress_end();
    r.line("shape goal: the bestTLP-vs-opt gap and the EB mechanism are not");
    r.line("artifacts of GTO — LRR shows the same qualitative picture.");
    r
}

/// Warm-up and window length of [`sampling`]'s estimation-error runs.
pub const SAMPLING_ERROR_SPEC: RunSpec = RunSpec {
    warmup: 3_000,
    window: 2_000,
};
/// Windows each of [`sampling`]'s estimation-error runs measures.
pub const SAMPLING_ERROR_WINDOWS: u64 = 20;

/// Validates the Fig. 8 designated-sampling hardware: per-window EB
/// estimates from one core + one partition versus exact aggregation, and
/// the effect on PBS-WS end results (§V-E's uniformity claim).
pub fn sampling(ev: &Evaluator) -> Report {
    let mut r = Report::new("sampling", "designated (Fig. 8) vs exact sampling");
    let base_cfg = ev.config().gpu.clone();
    let seed = ev.config().seed;
    let run_cycles = ev.config().run_cycles;
    let measure_from = ev.config().measure_from;
    let mixes = [
        ("BLK", "BFS"),
        ("BFS", "FFT"),
        ("JPEG", "LIB"),
        ("DS", "TRD"),
    ];

    // Part 1: per-window EB estimation error at the ++bestTLP combination.
    r.line("--- per-window EB estimate: designated vs exact (mean |error|) ---");
    r.header("workload", &["err app1 %", "err app2 %"]);
    for (a, b) in mixes {
        let w = pair(a, b);
        let inputs = FixedRunInputs {
            cfg: &base_cfg,
            apps: w.apps(),
            core_split: None,
            seed,
            ccws: false,
        };
        let errs = sampling_error_cached(
            &inputs,
            &ev.best_tlp_combo(&w),
            SAMPLING_ERROR_SPEC,
            SAMPLING_ERROR_WINDOWS,
        );
        r.row(&w.name(), &errs);
    }
    r.blank();

    // Part 2: PBS-WS end results under each sampling mode.
    r.line("--- PBS-WS WS (normalized to ++bestTLP) under each sampling mode ---");
    r.header("workload", &["exact", "designated"]);
    for (a, b) in mixes {
        let w = pair(a, b);
        let alone = ev.alone_ipcs(&w);
        let best = ev.best_tlp_combo(&w);
        let inputs = FixedRunInputs {
            cfg: &base_cfg,
            apps: w.apps(),
            core_split: None,
            seed,
            ccws: false,
        };
        let base = ws_of(
            &measure_fixed_cached(
                &inputs,
                &best,
                RunSpec::new(measure_from, run_cycles - measure_from),
            )
            .iter()
            .zip(&alone)
            .map(|(x, al)| x.ipc() / al)
            .collect::<Vec<_>>(),
        );
        let mut row = Vec::new();
        for designated in [false, true] {
            let mut cfg = base_cfg.clone();
            cfg.sampling.designated = designated;
            let run = run_pbs_cached(
                &FixedRunInputs {
                    cfg: &cfg,
                    apps: w.apps(),
                    core_split: None,
                    seed,
                    ccws: false,
                },
                &TlpCombo::uniform(cfg.max_tlp(), 2),
                run_cycles,
                measure_from,
                &PbsRunSpec::paper(EbObjective::Ws, ev.config().pbs_hold_windows),
            );
            let ws = ws_of(
                &run.overall
                    .iter()
                    .zip(&alone)
                    .map(|(x, al)| x.ipc() / al)
                    .collect::<Vec<_>>(),
            );
            row.push(ws / base);
        }
        r.row(&w.name(), &row);
        crate::logging::progress_dot();
    }
    crate::logging::progress_end();
    r.line("shape goals: single-digit mean EB estimation error, and designated");
    r.line("sampling reproduces the exact-sampling PBS results — the §V-E");
    r.line("argument for the cheap hardware.");
    r
}

/// Online-vs-offline PBS on phase-changing workloads (§VI-A point 3: the
/// online search "can adapt to different runtime interference patterns …
/// within the same workload execution", which a one-shot offline table
/// cannot).
pub fn phased(ev: &Evaluator) -> Report {
    let mut r = Report::new(
        "phased",
        "online vs offline PBS on phase-changing workloads",
    );
    let cfg = ev.config().gpu.clone();
    let seed = ev.config().seed;
    let run_cycles = ev.config().run_cycles;
    let measure_from = ev.config().measure_from;
    let mixes: [Workload; 3] = [
        Workload::from_profiles(vec![
            &gpu_workloads::PH1,
            gpu_workloads::by_name("TRD").unwrap(),
        ]),
        Workload::from_profiles(vec![
            &gpu_workloads::PH1,
            gpu_workloads::by_name("BLK").unwrap(),
        ]),
        Workload::from_profiles(vec![
            &gpu_workloads::PH2,
            gpu_workloads::by_name("SCP").unwrap(),
        ]),
    ];
    r.header("workload", &["bestWS", "offline", "online", "on-off%"]);
    for w in mixes {
        let alone = ev.alone_ipcs(&w);
        let ws_of_windows = |windows: &[gpu_types::AppWindow]| {
            ws_of(
                &windows
                    .iter()
                    .zip(&alone)
                    .map(|(x, a)| x.ipc() / a)
                    .collect::<Vec<_>>(),
            )
        };
        // ++bestTLP baseline.
        let best = ev.best_tlp_combo(&w);
        let inputs = FixedRunInputs {
            cfg: &cfg,
            apps: w.apps(),
            core_split: None,
            seed,
            ccws: false,
        };
        let base = ws_of_windows(&measure_fixed_cached(
            &inputs,
            &best,
            RunSpec::new(measure_from, run_cycles - measure_from),
        ));
        // Offline PBS: one combination from the (phase-averaged) sweep.
        let scaling = ScalingFactors::none(2);
        let sweep = ev.sweep(&w).clone();
        let (off_combo, _) = pbs_offline_search(&sweep, EbObjective::Ws, &scaling);
        let offline = ws_of_windows(&measure_fixed_cached(
            &inputs,
            &off_combo,
            RunSpec::new(measure_from, run_cycles - measure_from),
        ));
        // Online PBS with a short hold, so it re-searches within each phase.
        let run = run_pbs_cached(
            &inputs,
            &TlpCombo::uniform(cfg.max_tlp(), 2),
            run_cycles,
            measure_from,
            &PbsRunSpec::paper(EbObjective::Ws, 60),
        );
        let online = ws_of_windows(&run.overall);
        r.row(
            &w.name(),
            &[
                base,
                offline / base,
                online / base,
                100.0 * (online / offline.max(1e-9) - 1.0),
            ],
        );
        crate::logging::progress_dot();
    }
    crate::logging::progress_end();
    r.line("columns: raw ++bestTLP WS, then offline/online normalized to it.");
    r.line("shape goal: online PBS holds its own against (or beats) the offline");
    r.line("pick on phase-changing kernels, despite paying its search overhead —");
    r.line("the offline table only sees the phase-average behaviour.");
    r
}

/// Ablation study of the PBS design choices DESIGN.md calls out: the probe
/// level (4 vs maxTLP), the settle window after each TLP change, and the
/// final pick from the Fig. 8 sampling table versus trusting knee+tune.
pub fn ablation(ev: &Evaluator) -> Report {
    let mut r = Report::new("ablation", "PBS design-choice ablations (WS vs ++bestTLP)");
    let cfg = ev.config().gpu.clone();
    let seed = ev.config().seed;
    let run_cycles = ev.config().run_cycles;
    let measure_from = ev.config().measure_from;
    let hold = ev.config().pbs_hold_windows;
    let mixes = [
        ("BLK", "BFS"),
        ("BFS", "FFT"),
        ("DS", "TRD"),
        ("JPEG", "LIB"),
    ];

    let paper = PbsRunSpec::paper(EbObjective::Ws, hold);
    let variants: [(&'static str, PbsRunSpec); 4] = [
        ("PBS (paper)", paper),
        (
            "probe=maxTLP",
            PbsRunSpec {
                probe: Some(TlpLevel::MAX),
                ..paper
            },
        ),
        (
            "no settle win",
            PbsRunSpec {
                settle: false,
                ..paper
            },
        ),
        (
            "no table pick",
            PbsRunSpec {
                table_pick: false,
                ..paper
            },
        ),
    ];
    let cols: Vec<&str> = variants.iter().map(|(n, _)| *n).collect();
    r.header("workload", &cols);
    for (a, b) in mixes {
        let w = pair(a, b);
        let alone = ev.alone_ipcs(&w);
        let inputs = FixedRunInputs {
            cfg: &cfg,
            apps: w.apps(),
            core_split: None,
            seed,
            ccws: false,
        };
        let base = {
            let combo = ev.best_tlp_combo(&w);
            let wins = measure_fixed_cached(
                &inputs,
                &combo,
                RunSpec::new(measure_from, run_cycles - measure_from),
            );
            ws_of(
                &wins
                    .iter()
                    .zip(&alone)
                    .map(|(x, al)| x.ipc() / al)
                    .collect::<Vec<_>>(),
            )
        };
        let mut row = Vec::new();
        for (_, spec) in &variants {
            let run = run_pbs_cached(
                &inputs,
                &TlpCombo::uniform(cfg.max_tlp(), 2),
                run_cycles,
                measure_from,
                spec,
            );
            let ws = ws_of(
                &run.overall
                    .iter()
                    .zip(&alone)
                    .map(|(x, al)| x.ipc() / al)
                    .collect::<Vec<_>>(),
            );
            row.push(ws / base);
        }
        r.row(&w.name(), &row);
        crate::logging::progress_dot();
    }
    crate::logging::progress_end();
    r.line("shape goals: the paper configuration dominates; probing at maxTLP");
    r.line("overwhelms the machine during the sweep, skipping settle windows");
    r.line("corrupts samples with transients, and dropping the table pick leaves");
    r.line("PBS at the mercy of a noisy knee.");
    r
}

/// Convenience used by the `hs` binary and tests: HS metric sanity.
pub fn hs_identity_check() -> bool {
    (hs_of(&[0.5, 0.5]) - 0.5).abs() < 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebm_core::eval::EvaluatorConfig;

    fn quick_eval() -> Evaluator {
        Evaluator::new(EvaluatorConfig::quick())
    }

    #[test]
    fn fig01_renders_on_small_machine() {
        let ev = quick_eval();
        let text = fig01(&ev).render();
        assert!(text.contains("++bestTLP"));
        assert!(text.contains("optWS"));
    }

    #[test]
    fn fig02_rows_cover_clamped_ladder() {
        let ev = quick_eval();
        let text = fig02(&ev).render();
        // small machine ladder: 1,2,4,6,8
        for l in ["1", "2", "4", "6", "8"] {
            assert!(text.lines().any(|ln| ln.starts_with(l)), "missing TLP {l}");
        }
    }

    #[test]
    fn fig03_orders_hierarchy_levels_for_bfs() {
        let ev = quick_eval();
        let r = fig03(&ev).render();
        assert!(r.contains("BFS"));
        assert!(r.contains("BLK"));
    }

    #[test]
    fn fig08_reports_budget() {
        let r = fig08().render();
        assert!(r.contains("total extra storage"));
    }

    #[test]
    fn hs_identity() {
        assert!(hs_identity_check());
    }

    #[test]
    fn extension_figures_render_on_small_machine() {
        let ev = quick_eval();
        for text in [sampling(&ev).render(), dram_policy(&ev).render()] {
            assert!(
                text.contains("shape goal"),
                "report lacks shape goals:\n{text}"
            );
        }
    }

    #[test]
    fn scheme_figure_computes_gmean_row() {
        let ev = quick_eval();
        let w = vec![Workload::pair("BLK", "BFS")];
        let text = fig09(&ev, &w).render();
        assert!(text.contains("Gmean"));
    }
}
