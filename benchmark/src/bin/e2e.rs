//! `ebm-e2e`: the end-to-end half of the benchmark.
//!
//! Measures what a user of the reproduction pays — simulated kilocycles per
//! host second, the time to get a result again, peak memory, set-up time —
//! and guards what they get (IPC, golden digests). It deliberately touches
//! only `GpuConfig::{small,volta}`, `Workload::pair`,
//! `Gpu::{new,set_combo,run,counters}` and the `experiments` / `trace-tools`
//! command lines, so refactors below that surface cannot break it.
//!
//! ```text
//! ebm-e2e --workload <name> --seed <n> --seconds <s> --root <checkout> --bin-dir <dir> [--smoke] [--bless]
//! ebm-e2e compare A.json B.json [--root <checkout>]
//! ebm-e2e collect --root <checkout>
//! ebm-e2e workloads --root <checkout>
//! ```

use ebm_benchmark::cli::{
    self, Args, CoRun, Machine, CORE_CAMPAIGN, MINI_CAMPAIGN, ROUNDS, WARMUP_CYCLES,
};
use ebm_benchmark::golden::{self, Section};
use ebm_benchmark::report::{self, Kind, Metric, RunResult};
use ebm_benchmark::spec::Spec;
use ebm_benchmark::stats::Summary;
use ebm_benchmark::{compare, span};
use gpu_sim::machine::Gpu;
use gpu_types::{AppId, GpuConfig, TlpCombo};
use gpu_workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Slices into a round at which the digest is taken and IPC is read, so both
/// are the same simulated point whatever the host's speed. Smoke runs use
/// fewer rounds and a shorter checkpoint and therefore cannot be held against
/// the goldens.
const CHECK_SLICES: usize = 16;
const SMOKE_ROUNDS: usize = 2;
const SMOKE_CHECK_SLICES: usize = 5;

/// Share of `--seconds` a co-run may spend on set-up samples beyond the ones
/// its machines need.
const EXTRA_SETUP_SHARE: f64 = 0.025;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare_files(&argv[1..]),
        Some("collect") => collect(&argv[1..]),
        Some("workloads") => Spec::load(&root_flag(&argv[1..]).0).map(|spec| {
            println!("{}", spec.workloads.join(" "));
            0
        }),
        _ => Args::parse(argv.into_iter()).and_then(|args| {
            let result = match cli::corun(&args.workload) {
                Some(w) => run_corun(&args, w)?,
                None => run_campaign(&args)?,
            };
            cli::finish(&args, &result)
        }),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("ebm-e2e: {msg}");
            std::process::exit(2);
        }
    }
}

/// `VmHWM` of this process, MiB.
fn own_peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

// ---------------------------------------------------------------- co-runs

/// Per-application counters of `gpu`, keyed `round<r>.app<a>`.
fn digest(gpu: &Gpu, round: usize, into: &mut Section) {
    for a in 0..2u8 {
        let c = gpu.counters(AppId::new(a));
        into.insert(
            format!("round{round:02}.app{a}"),
            format!(
                "warp_insts={} l1_accesses={} l1_misses={} l2_accesses={} l2_misses={} dram_bytes={}",
                c.warp_insts, c.l1_accesses, c.l1_misses, c.l2_accesses, c.l2_misses, c.dram_bytes
            ),
        );
    }
}

fn warp_insts(gpu: &Gpu) -> u64 {
    (0..2u8)
        .map(|a| gpu.counters(AppId::new(a)).warp_insts)
        .sum()
}

fn run_corun(args: &Args, w: CoRun) -> Result<RunResult, String> {
    let cfg = match w.machine {
        Machine::Small => GpuConfig::small(),
        Machine::Volta => GpuConfig::volta(),
    };
    let workload = Workload::pair(w.apps[0], w.apps[1]);
    let combo = TlpCombo::uniform(cfg.max_tlp(), 2);
    let (rounds, check_slices) = if args.smoke {
        (SMOKE_ROUNDS, SMOKE_CHECK_SLICES)
    } else {
        (ROUNDS, CHECK_SLICES)
    };
    let fresh = |round: usize| {
        let mut gpu = Gpu::new(&cfg, workload.apps(), cli::round_seed(args.seed, round));
        gpu.set_combo(&combo);
        gpu.run(WARMUP_CYCLES);
        gpu
    };

    // One machine per round seed, all alive at once and stepped in turn, a
    // slice each: every machine's samples then span the whole run, so its
    // fastest slice needs only one quiet moment anywhere in the run, and
    // the median over machines averages the seeds.
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut gpus: Vec<Gpu> = (0..rounds)
        .map(|round| {
            let t = Instant::now();
            let gpu = fresh(round);
            setups.push(t.elapsed().as_secs_f64());
            gpu
        })
        .collect();
    let insts_before: Vec<u64> = gpus.iter().map(warp_insts).collect();
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); rounds];
    let mut digests = Section::new();
    let mut ipcs = vec![0.0; rounds];
    let checkpoint_cycles = (check_slices as u64 * w.slice_cycles) as f64;
    let mut extra_setup_s = 0.0;
    while slices[rounds - 1].len() < check_slices || start.elapsed().as_secs_f64() < args.seconds {
        for (round, gpu) in gpus.iter_mut().enumerate() {
            let t = Instant::now();
            gpu.run(w.slice_cycles);
            slices[round].push(t.elapsed().as_secs_f64());
            if slices[round].len() == check_slices {
                digest(gpu, round, &mut digests);
                ipcs[round] = (warp_insts(gpu) - insts_before[round]) as f64 / checkpoint_cycles;
            }
        }
        // Further set-up samples spread over the run, so that the fastest
        // of them has the same chance of a quiet moment as the slices have.
        if extra_setup_s < EXTRA_SETUP_SHARE * args.seconds {
            let t = Instant::now();
            drop(fresh(0));
            let dt = t.elapsed().as_secs_f64();
            setups.push(dt);
            extra_setup_s += dt;
        }
    }
    let peak_rss = own_peak_rss_mib()?;
    drop(gpus);
    // Determinism: the first round's input again must reach the same state.
    let mut replay = Section::new();
    let mut gpu = fresh(0);
    gpu.run(check_slices as u64 * w.slice_cycles);
    digest(&gpu, 0, &mut replay);

    let slice = Summary::across_inputs(&slices);
    let setup = Summary::pooled(&[setups]);
    let kcycles = w.slice_cycles as f64 / 1e3;
    let ipc = ipcs.iter().sum::<f64>() / ipcs.len() as f64;
    let mut result = args.new_result(false);
    result.metrics = vec![
        Metric::new(
            "sim_kcps",
            kcycles / slice.value,
            "kcycles/s",
            Kind::Timed(slice),
        ),
        // No memoisation exists below the campaign, so getting a co-run's
        // result again costs a fresh machine plus the same simulated span.
        Metric::new(
            "rerun_s",
            setup.value + check_slices as f64 * slice.value,
            "s",
            Kind::Timed(slice),
        ),
        Metric::new("sim_ipc", ipc, "insts/cycle", Kind::Exact),
        Metric::new("peak_rss_mib", peak_rss, "MiB", Kind::Measured),
        Metric::new("setup_s", setup.value, "s", Kind::Timed(setup)),
    ];

    let replayed: Section = digests
        .iter()
        .filter(|(k, _)| k.starts_with("round00."))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    result.check(
        "replay_of_round0_reaches_the_same_state",
        replay == replayed,
        || golden::diff(&replayed, &replay).join("; "),
    );
    result.check(
        "every_round_retired_instructions",
        ipcs.iter().all(|i| *i > 0.0),
        || format!("per-round ipc {ipcs:?}"),
    );
    golden::check_or_bless(&mut result, args, &args.seed.to_string(), &digests)?;
    Ok(result)
}

// --------------------------------------------------------------- campaign

/// Warm reruns measured after each cold run.
const WARM_PER_COLD: usize = 3;

/// Empty-campaign launches timed as set-up before the first round.
const SETUP_LAUNCHES: usize = 5;

struct Campaign<'a> {
    args: &'a Args,
    work: PathBuf,
}

impl Campaign<'_> {
    /// Runs `experiments --quick` with `extra` flags, artifacts into `out`,
    /// result cache in `cache`; returns the wall time in seconds.
    fn launch(&self, out: &Path, cache: &Path, extra: &[&str]) -> Result<f64, String> {
        let exe = self.args.bin_dir.join("experiments");
        let mut cmd = Command::new(&exe);
        cmd.arg("--quick")
            .arg("--out")
            .arg(out)
            .arg("--cache-dir")
            .arg(cache);
        if !extra.contains(&"--only") {
            let artifacts = if self.args.smoke {
                &MINI_CAMPAIGN[..]
            } else {
                &CORE_CAMPAIGN[..]
            };
            cmd.arg("--only").arg(artifacts.join(","));
        }
        cmd.args(extra)
            .env("EBM_THREADS", cli::nproc().min(2).to_string())
            .env_remove("EBM_SIM_THREADS")
            .env_remove("EBM_CACHE")
            .env_remove("EBM_CACHE_DIR")
            .env_remove("EBM_CACHE_VERIFY")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let t = Instant::now();
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let wall = t.elapsed().as_secs_f64();
        if status.success() {
            Ok(wall)
        } else {
            Err(format!("{} exited with {status}", exe.display()))
        }
    }

    fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Simulated cycles of a finished campaign: the root span of the
/// `PROFILE.json` it wrote.
fn campaign_cycles(out: &Path) -> Result<f64, String> {
    let path = out.join("PROFILE.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = ebm_bench::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("spans")
        .and_then(|s| s.as_arr())
        .and_then(|s| s.first())
        .and_then(|root| root.get("cycles"))
        .and_then(|c| c.as_num())
        .filter(|c| *c > 0.0)
        .ok_or_else(|| format!("{}: no simulated cycles in the root span", path.display()))
}

/// Mean of the IPC column of `tab04.txt` (alone IPC at bestTLP, Table IV).
fn tab04_mean_ipc(out: &Path) -> Result<f64, String> {
    let path = out.join("tab04.txt");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let ipcs: Vec<f64> = text
        .lines()
        .filter(|l| l.contains("[G"))
        .filter_map(|l| l.split(']').nth(1)?.split_whitespace().next()?.parse().ok())
        .collect();
    if ipcs.is_empty() {
        return Err(format!("{}: no application rows", path.display()));
    }
    Ok(ipcs.iter().sum::<f64>() / ipcs.len() as f64)
}

/// Peak resident set of the largest child waited for so far, MiB.
fn children_peak_rss_mib() -> f64 {
    /// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed
    /// by fourteen longs, `ru_maxrss` (KiB) first among them.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable, correctly laid out `struct
    // rusage`; getrusage writes nothing beyond it and keeps no pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) cannot fail with valid arguments"
    );
    usage.maxrss as f64 / 1024.0
}

fn run_campaign(args: &Args) -> Result<RunResult, String> {
    let c = Campaign {
        args,
        work: args
            .out_dir()
            .join(format!("campaign-{}", std::process::id())),
    };
    let outcome = measure_campaign(&c);
    let _ = std::fs::remove_dir_all(&c.work);
    outcome
}

fn measure_campaign(c: &Campaign) -> Result<RunResult, String> {
    let args = c.args;
    let mut result = args.new_result(false);

    // Set-up: fresh directories plus one launch that simulates nothing
    // (process start, evaluator construction, planning an empty campaign).
    // Sampled before the rounds and once in each, so that the fastest sample
    // has the whole run to find a quiet moment in.
    let setup_once = || -> Result<f64, String> {
        let t = Instant::now();
        let out = c.fresh("setup-out")?;
        let cache = c.fresh("setup-cache")?;
        c.launch(&out, &cache, &["--only", "none"])?;
        Ok(t.elapsed().as_secs_f64())
    };
    let mut setups = Vec::new();
    for _ in 0..SETUP_LAUNCHES {
        setups.push(setup_once()?);
    }

    // Rounds of one cold run (empty cache) and a few warm reruns against the
    // cache it filled, while another round still fits.
    let start = Instant::now();
    let (mut colds, mut warms) = (Vec::new(), Vec::new());
    let mut first: Option<Section> = None;
    let cold_out = c.work.join("cold-out");
    let cache = c.work.join("cache");
    loop {
        let round_start = Instant::now();
        setups.push(setup_once()?);
        c.fresh("cold-out")?;
        c.fresh("cache")?;
        colds.push(vec![c.launch(&cold_out, &cache, &[])?]);
        let cold_digest = golden::digest_dir(&cold_out)?;
        let round = colds.len() - 1;
        if let Some(first) = &first {
            result.check(
                &format!("cold{round}_artifacts_equal_cold0"),
                cold_digest == *first,
                || golden::diff(first, &cold_digest).join("; "),
            );
        }
        let mut round_warms = Vec::new();
        for _ in 0..WARM_PER_COLD {
            let warm_out = c.fresh("warm-out")?;
            round_warms.push(c.launch(&warm_out, &cache, &[])?);
        }
        let warm_digest = golden::digest_dir(&c.work.join("warm-out"))?;
        result.check(
            &format!("warm_artifacts_equal_cold{round}"),
            warm_digest == cold_digest,
            || golden::diff(&cold_digest, &warm_digest).join("; "),
        );
        warms.push(round_warms);
        first.get_or_insert(cold_digest);
        let round_s = round_start.elapsed().as_secs_f64();
        if args.smoke || start.elapsed().as_secs_f64() + round_s > args.seconds {
            break;
        }
    }
    let peak_rss = children_peak_rss_mib();
    let first = first.expect("at least one cold run");

    let cold = Summary::pooled(&colds);
    let warm = Summary::pooled(&warms);
    let setup = Summary::pooled(&[setups]);
    result.metrics = vec![
        Metric::new(
            "sim_kcps",
            campaign_cycles(&cold_out)? / 1e3 / cold.value,
            "kcycles/s",
            Kind::Timed(cold),
        ),
        Metric::new("rerun_s", warm.value, "s", Kind::Timed(warm)),
        Metric::new(
            "sim_ipc",
            tab04_mean_ipc(&cold_out)?,
            "insts/cycle",
            Kind::Exact,
        ),
        Metric::new("peak_rss_mib", peak_rss, "MiB", Kind::Measured),
        Metric::new("setup_s", setup.value, "s", Kind::Timed(setup)),
    ];

    // The campaign's own trace must satisfy the repository's validator.
    let trace = c.work.join("trace.jsonl");
    let traced_out = c.fresh("traced-out")?;
    let trace_arg = trace.to_string_lossy().into_owned();
    c.launch(&traced_out, &cache, &["--trace", &trace_arg])?;
    let tools = args.bin_dir.join("trace-tools");
    let validated = Command::new(&tools)
        .arg("validate")
        .arg(&trace)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", tools.display()))?;
    result.check("trace_tools_validate", validated.status.success(), || {
        String::from_utf8_lossy(&validated.stderr).trim().to_owned()
    });
    let traced_digest = golden::digest_dir(&traced_out)?;
    result.check(
        "traced_artifacts_equal_cold0",
        traced_digest == first,
        || golden::diff(&first, &traced_digest).join("; "),
    );

    golden::check_or_bless(&mut result, args, "core", &first)?;
    Ok(result)
}

// ------------------------------------------------------- compare / collect

fn root_flag(argv: &[String]) -> (PathBuf, Vec<&String>) {
    let mut root = PathBuf::from(".");
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.clone().next()) {
            ("--root", Some(dir)) => {
                root = PathBuf::from(dir);
                it.next();
            }
            _ => rest.push(a),
        }
    }
    (root, rest)
}

fn compare_files(argv: &[String]) -> Result<i32, String> {
    let (root, files) = root_flag(argv);
    let [a, b] = files[..] else {
        return Err("usage: ebm-e2e compare A.json B.json [--root <checkout>]".to_owned());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| report::load_runs(&text))
    };
    let (text, breached) = compare::compare(&Spec::load(&root)?, &load(a)?, &load(b)?);
    print!("{text}");
    println!("{}", if breached { "DISAGREE" } else { "agree" });
    Ok(breached as i32)
}

/// Joins the per-workload files `run.sh` left in `benchmark/out/` into
/// `result.json` and `trace.json`, reporting a workload's layer metrics as
/// unavailable when its traced run is missing.
fn collect(argv: &[String]) -> Result<i32, String> {
    let (root, _) = root_flag(argv);
    let spec = Spec::load(&root)?;
    let out = root.join("benchmark").join("out");
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    let mut failed = false;
    for w in &spec.workloads {
        for kind in ["e2e", "layers"] {
            match std::fs::read_to_string(out.join(format!("{w}.{kind}.json"))) {
                Ok(text) => {
                    failed |= report::load_runs(&text)?.iter().any(|r| r.failed() > 0);
                    runs.push(text.trim().to_owned());
                }
                Err(_) if kind == "layers" => {
                    eprintln!(
                        "warning: no traced run of {w}; its per-layer metrics are unavailable"
                    );
                    for d in &spec.per_layer {
                        println!("{w} {} unavailable {}", d.name, d.unit);
                    }
                }
                Err(e) => return Err(format!("no end-to-end result of {w}: {e}")),
            }
        }
        if let Ok(text) = std::fs::read_to_string(out.join(format!("{w}.trace.json"))) {
            traces.push(text);
        }
    }
    let write = |name: &str, text: String| {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("result.json", report::suite_json(&runs))?;
    write("trace.json", span::join_chrome_traces(&traces))?;
    println!("wrote {}/result.json and trace.json", out.display());
    Ok(failed as i32)
}
