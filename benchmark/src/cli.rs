//! Run arguments shared by both binaries, and the workload table.

use crate::report::RunResult;
use crate::spec::Spec;
use std::path::PathBuf;

/// Which preset machine a co-run workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// `GpuConfig::small`: 4 cores, 2 partitions.
    Small,
    /// `GpuConfig::volta`: 80 cores, 16 partitions.
    Volta,
}

/// A co-run workload: two applications sharing one machine at uniform
/// maximum TLP, run in equal-simulated-work slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoRun {
    /// Workload name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Simulated machine.
    pub machine: Machine,
    /// Table IV abbreviations of the two applications.
    pub apps: [&'static str; 2],
    /// Simulated cycles per timed slice, sized so a slice takes ~50 ms.
    pub slice_cycles: u64,
}

/// The three co-run workloads (why these: README.md, "Workloads").
pub const CORUNS: [CoRun; 3] = [
    CoRun {
        name: "small-membound",
        machine: Machine::Small,
        apps: ["BLK", "TRD"],
        slice_cycles: 75_000,
    },
    CoRun {
        name: "small-compute",
        machine: Machine::Small,
        apps: ["LUD", "NW"],
        slice_cycles: 50_000,
    },
    CoRun {
        name: "volta-busy",
        machine: Machine::Volta,
        apps: ["LUD", "NW"],
        slice_cycles: 1_000,
    },
];

/// Name of the campaign workload.
pub const CAMPAIGN: &str = "campaign-quick";

/// The artifacts `campaign-quick` runs end to end (`experiments --quick
/// --only …`): every kind of work unit — the 26 alone profiles, sweeps,
/// offline searches, scheme chains, online PBS traced and ablated, phased
/// applications, designated sampling, CCWS — at ~1.5 s cold, so that a
/// 20-second run holds a dozen cold runs and the fastest of them is steady.
/// The whole `--quick` campaign (13 s cold, the 25-workload scheme figures)
/// is profiled by the traced run instead.
pub const CORE_CAMPAIGN: [&str; 14] = [
    "tab04", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig11",
    "sampling", "ablation", "phased", "ccws",
];

/// The ~0.1 s sub-campaign of smoke runs, and the reference campaign whose
/// layers a co-run's traced run reports.
pub const MINI_CAMPAIGN: [&str; 3] = ["tab04", "fig01", "fig05"];

/// Cycles every fresh machine runs before anything is timed or counted, so
/// caches, row buffers and reused scratch buffers are primed.
pub const WARMUP_CYCLES: u64 = 2_000;

/// Fresh machines built per co-run run, each on its own seed derived from
/// `--seed`: simulated behaviour (and with it host speed) varies by several
/// percent from seed to seed, and a run reports the median round.
pub const ROUNDS: usize = 12;

/// The workload seed of round `round` of a run started with `--seed seed`.
/// Distinct run seeds give disjoint round seeds.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(ROUNDS as u64).wrapping_add(round as u64)
}

/// The co-run workload named `name`.
pub fn corun(name: &str) -> Option<CoRun> {
    CORUNS.into_iter().find(|w| w.name == name)
}

/// Parsed command line of `ebm-e2e` / `ebm-layers`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload <name>`.
    pub workload: String,
    /// `--seed <n>`: the workload seed.
    pub seed: u64,
    /// `--seconds <s>`: how long the run measures.
    pub seconds: f64,
    /// `--smoke`: shortened run; digests are not gated against goldens.
    pub smoke: bool,
    /// `--bless`: rewrite this run's golden section instead of checking it.
    pub bless: bool,
    /// `--root <dir>`: the repository checkout.
    pub root: PathBuf,
    /// `--bin-dir <dir>`: where the release `experiments` and `trace-tools`
    /// binaries were built.
    pub bin_dir: PathBuf,
}

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, missing or malformed values.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 42,
            seconds: 20.0,
            smoke: false,
            bless: false,
            root: PathBuf::from("."),
            bin_dir: PathBuf::new(),
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = value()?,
                "--seed" => {
                    let v = value()?;
                    out.seed = v
                        .parse()
                        .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    out.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or(format!("--seconds: `{v}` is not a positive number"))?;
                }
                "--smoke" => out.smoke = true,
                "--bless" => out.bless = true,
                "--root" => out.root = PathBuf::from(value()?),
                "--bin-dir" => out.bin_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if out.workload != CAMPAIGN && corun(&out.workload).is_none() {
            return Err(format!(
                "--workload must be one of {}, {CAMPAIGN}; got `{}`",
                CORUNS.map(|w| w.name).join(", "),
                out.workload
            ));
        }
        Ok(out)
    }

    /// `benchmark/out/` of the checkout: everything a run writes lands here.
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("benchmark").join("out")
    }

    /// The golden file of this run's workload.
    pub fn golden_path(&self) -> PathBuf {
        self.root
            .join("benchmark")
            .join("golden")
            .join(format!("{}.json", self.workload))
    }

    /// An empty result for this run.
    pub fn new_result(&self, traced: bool) -> RunResult {
        RunResult {
            workload: self.workload.clone(),
            seed: self.seed,
            seconds: self.seconds,
            traced,
            smoke: self.smoke,
            nproc: nproc(),
            metrics: Vec::new(),
            checks: Vec::new(),
        }
    }
}

/// `available_parallelism` of the host (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints a finished run for people, writes its result file to
/// `benchmark/out/<workload>.<e2e|layers>.json`, and prints the driver's
/// line last. Returns the process exit code: non-zero when a check failed.
///
/// # Errors
///
/// Returns a message when the run does not report what `BENCHMARK.json`
/// declares or the result file cannot be written.
pub fn finish(args: &Args, result: &RunResult) -> Result<i32, String> {
    let spec = Spec::load(&args.root)?;
    let (declared, kind) = if result.traced {
        (&spec.per_layer, "layers")
    } else {
        (&spec.end_to_end, "e2e")
    };
    let line = result.contract_line(declared)?;
    let out_dir = args.out_dir();
    let path = out_dir.join(format!("{}.{kind}.json", result.workload));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, result.to_json() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    print!("{}", result.render_text());
    println!("{line}");
    Ok(if result.failed() == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "volta-busy",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--root",
            "/r",
            "--bin-dir",
            "/r/t/release",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("volta-busy", 7, 20.0)
        );
        assert_eq!(
            a.golden_path(),
            PathBuf::from("/r/benchmark/golden/volta-busy.json")
        );
        assert_eq!(a.out_dir(), PathBuf::from("/r/benchmark/out"));
        assert!(parse(&["--workload", CAMPAIGN]).is_ok());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", CAMPAIGN, "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", CAMPAIGN, "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", CAMPAIGN, "--seconds"]).is_err());
        assert!(parse(&["--workload", CAMPAIGN, "--frob"]).is_err());
    }
}
