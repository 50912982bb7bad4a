//! Report formatting and saving helpers, plus the shared command-line
//! options of the campaign binaries.

use ebm_core::eval::EvaluatorConfig;
use gpu_sim::trace::JsonlSink;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// The process-wide output directory override (`--out`); `None` means the
/// default `results/` relative to the working directory.
static OUT_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Redirects every artifact write (`results/<id>.txt`, figure CSVs) to
/// `dir`; `None` restores the default `results/`.
pub fn set_out_dir(dir: Option<PathBuf>) {
    *OUT_DIR.lock().unwrap() = dir;
}

/// The path an artifact named `file_name` is saved at, honoring `--out`.
pub fn out_path(file_name: &str) -> PathBuf {
    let dir = OUT_DIR
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    dir.join(file_name)
}

/// A plain-text report being assembled (one per figure/table).
#[derive(Debug, Clone)]
pub struct Report {
    id: String,
    title: String,
    body: String,
    /// `(file name, content)` of every data file exported with the report.
    attachments: Vec<(String, String)>,
}

impl Report {
    /// Starts a report for artifact `id` (e.g. "fig09") titled `title`.
    pub fn new(id: &str, title: &str) -> Self {
        Report {
            id: id.to_owned(),
            title: title.to_owned(),
            body: String::new(),
            attachments: Vec::new(),
        }
    }

    /// Attaches a data file (Fig. 11's per-window CSVs) to be saved as
    /// `<out>/<name>` next to the report.
    pub fn attach(&mut self, name: &str, text: String) {
        self.attachments.push((name.to_owned(), text));
    }

    /// The attached data files, `(file name, content)` in attachment order.
    pub fn attachments(&self) -> &[(String, String)] {
        &self.attachments
    }

    /// Appends one line.
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.body.push_str(text.as_ref());
        self.body.push('\n');
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.body.push('\n');
    }

    /// Appends a formatted numeric row: a left-aligned label plus one
    /// fixed-width column per value.
    pub fn row(&mut self, label: &str, values: &[f64]) {
        let mut s = format!("{label:<22}");
        for v in values {
            let _ = write!(s, " {v:>8.3}");
        }
        self.line(s);
    }

    /// Appends a header row matching [`Report::row`]'s layout.
    pub fn header(&mut self, label: &str, columns: &[&str]) {
        let mut s = format!("{label:<22}");
        for c in columns {
            let _ = write!(s, " {c:>8}");
        }
        self.line(s);
    }

    /// The artifact id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Renders the full report.
    pub fn render(&self) -> String {
        format!("== {} — {} ==\n{}", self.id, self.title, self.body)
    }
}

/// Saves `text` as `<out>/<file_name>` — `results/` by default, the `--out`
/// directory when given. A write that fails is reported on stderr and
/// otherwise survived: the run still printed what it could not save.
pub(crate) fn save(file_name: &str, text: &str) {
    let path = out_path(file_name);
    let dir = path.parent().map_or(Ok(()), std::fs::create_dir_all);
    if let Err(e) = dir.and_then(|()| std::fs::write(&path, text)) {
        eprintln!("error: cannot write {}: {e}", path.display());
    }
}

/// Prints a report and saves it as `<out>/<id>.txt`. (Its attachments are
/// saved by the campaign that rendered it, see [`crate::campaign::run`].)
pub fn run_and_save(report: &Report) {
    let text = report.render();
    println!("{text}");
    save(&format!("{}.txt", report.id()), &text);
}

/// Command-line options of the `experiments` binary (hand-rolled: the
/// workspace is dependency-free).
///
/// * `--quick` — run the scaled-down test campaign instead of the
///   paper-machine one (what each costs: `EXPERIMENTS.md`);
/// * `--only <ids>` — comma-separated artifact ids (e.g.
///   `--only fig09,fig11`, see [`crate::campaign::ARTIFACTS`]); everything
///   else is skipped, and ids naming no artifact get one warning;
/// * `--trace <path>` — stream the trace-enabled artifacts' events to
///   `<path>` as newline-delimited JSON (see `docs/TRACE_SCHEMA.md`);
/// * `--cache-dir <path>` — persist simulation results under `<path>`;
///   reruns with a warm directory skip simulation;
/// * `--cache-verify <fraction>` — re-simulate that fraction of cache hits
///   and assert bit-identical results;
/// * `--no-cache` — disable result memoization entirely;
///   this also forces `--serial` in `experiments`, since the campaign
///   scheduler hands results to the renders through the cache tiers;
/// * `--serial` — run the `experiments` campaign artifact-by-artifact
///   instead of through the [`crate::campaign`] work-graph scheduler;
/// * `--out <dir>` — save artifacts under `<dir>` instead of `results/`.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Use [`EvaluatorConfig::quick`] instead of the paper campaign.
    pub quick: bool,
    /// If set, only artifacts whose id is listed are generated.
    pub only: Option<Vec<String>>,
    /// If set, trace events are written here as JSONL.
    pub trace: Option<PathBuf>,
    /// If set, artifacts are saved under this directory instead of
    /// `results/`.
    pub out: Option<PathBuf>,
    /// If set, the persistent result-cache directory.
    pub cache_dir: Option<PathBuf>,
    /// If set, the fraction of cache hits to re-simulate and verify.
    pub cache_verify: Option<f64>,
    /// Disable the result cache (both tiers) for this run.
    pub no_cache: bool,
    /// Run the campaign serially instead of through the work-graph
    /// scheduler.
    pub serial: bool,
}

impl BenchArgs {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    /// `--only` ids that name no artifact are warned about, not rejected:
    /// they select nothing, and `--only none` is a legitimate empty run.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => {
                let unknown = args.unknown_only_ids();
                if !unknown.is_empty() {
                    eprintln!(
                        "warning: --only: no artifact named `{}`; the artifacts are {}",
                        unknown.join("`, `"),
                        crate::campaign::ARTIFACTS.join(", ")
                    );
                }
                args
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--quick] [--only <ids>] [--trace <path>] [--out <dir>] \
                     [--cache-dir <path>] [--cache-verify <fraction>] [--no-cache] [--serial]"
                );
                std::process::exit(2);
            }
        }
    }

    fn try_parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--only" => {
                    let ids = args.next().ok_or("--only needs a comma-separated list")?;
                    out.only = Some(ids.split(',').map(|s| s.trim().to_owned()).collect());
                }
                "--trace" => {
                    let path = args.next().ok_or("--trace needs a file path")?;
                    out.trace = Some(PathBuf::from(path));
                }
                "--out" => {
                    let path = args.next().ok_or("--out needs a directory path")?;
                    out.out = Some(PathBuf::from(path));
                }
                "--cache-dir" => {
                    // An empty path would put the records in the working
                    // directory, not in a cache directory.
                    let path = args
                        .next()
                        .filter(|p| !p.is_empty())
                        .ok_or("--cache-dir needs a directory path")?;
                    out.cache_dir = Some(PathBuf::from(path));
                }
                "--cache-verify" => {
                    let f = args.next().ok_or("--cache-verify needs a fraction")?;
                    let f: f64 = f
                        .parse()
                        .map_err(|_| format!("--cache-verify: `{f}` is not a number"))?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(format!("--cache-verify: {f} is outside [0, 1]"));
                    }
                    out.cache_verify = Some(f);
                }
                "--no-cache" => out.no_cache = true,
                "--serial" => out.serial = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// Applies the process-wide flags: the cache switches and the `--out`
    /// artifact directory.
    /// Call once at startup.
    pub fn apply_settings(&self) {
        if self.no_cache {
            gpu_sim::cache::set_enabled(false);
        }
        if let Some(dir) = &self.cache_dir {
            gpu_sim::cache::set_dir(Some(dir.clone()));
        }
        if let Some(f) = self.cache_verify {
            gpu_sim::cache::set_verify_fraction(f);
        }
        set_out_dir(self.out.clone());
    }

    /// The `--only` ids that are not in [`crate::campaign::ARTIFACTS`].
    fn unknown_only_ids(&self) -> Vec<&str> {
        let ids = self.only.iter().flatten().map(String::as_str);
        ids.filter(|id| !crate::campaign::ARTIFACTS.contains(id))
            .collect()
    }

    /// Whether artifact `id` should be generated under `--only`.
    pub fn wants(&self, id: &str) -> bool {
        match &self.only {
            Some(ids) => ids.iter().any(|x| x == id),
            None => true,
        }
    }

    /// The campaign configuration selected by `--quick`.
    pub fn evaluator_config(&self) -> EvaluatorConfig {
        if self.quick {
            EvaluatorConfig::quick()
        } else {
            EvaluatorConfig::paper()
        }
    }

    /// Opens the `--trace` sink when a path was given, exiting when the
    /// file cannot be created.
    pub fn open_trace(&self) -> Option<JsonlSink> {
        let path = self.trace.as_ref()?;
        match JsonlSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("error: cannot open trace file {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn bench_args_parse_all_flags() {
        let a = BenchArgs::try_parse(
            ["--quick", "--only", "fig09,fig11", "--trace", "out.jsonl"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(a.quick);
        assert!(a.wants("fig11") && !a.wants("fig10"));
        assert_eq!(a.trace.as_deref(), Some(Path::new("out.jsonl")));
    }

    #[test]
    fn only_typos_are_reported_and_select_nothing() {
        let parse = |only: &str| {
            BenchArgs::try_parse(["--only", only].iter().map(|s| s.to_string())).unwrap()
        };
        let a = parse("fig9,tab04, hs,none");
        assert_eq!(a.unknown_only_ids(), ["fig9", "none"]);
        assert!(a.wants("tab04") && a.wants("hs") && !a.wants("fig09"));
        assert!(parse("fig09,fig11").unknown_only_ids().is_empty());
        assert!(BenchArgs::default().unknown_only_ids().is_empty());
    }

    #[test]
    fn bench_args_default_wants_everything() {
        let a = BenchArgs::try_parse(std::iter::empty()).unwrap();
        assert!(!a.quick && a.trace.is_none());
        assert!(a.wants("anything"));
    }

    #[test]
    fn bench_args_reject_unknown_flags() {
        assert!(BenchArgs::try_parse(["--frobnicate".to_string()].into_iter()).is_err());
    }

    #[test]
    fn bench_args_parse_cache_flags() {
        let a = BenchArgs::try_parse(
            [
                "--cache-dir",
                "/tmp/c",
                "--cache-verify",
                "0.25",
                "--no-cache",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.cache_dir.as_deref(), Some(Path::new("/tmp/c")));
        assert_eq!(a.cache_verify, Some(0.25));
        assert!(a.no_cache);
    }

    #[test]
    fn bench_args_parse_out_dir() {
        let a = BenchArgs::try_parse(["--out", "/tmp/r"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.out.as_deref(), Some(Path::new("/tmp/r")));
        assert!(BenchArgs::try_parse(["--out".to_string()].into_iter()).is_err());
    }

    #[test]
    fn bench_args_reject_an_empty_cache_dir() {
        let words = ["--cache-dir".to_string(), String::new()];
        let err = BenchArgs::try_parse(words.into_iter()).unwrap_err();
        assert!(err.contains("--cache-dir needs a directory path"), "{err}");
    }

    #[test]
    fn bench_args_reject_bad_verify_fraction() {
        for bad in [
            "--cache-verify 2.0",
            "--cache-verify nope",
            "--cache-verify NaN",
        ] {
            let words: Vec<String> = bad.split(' ').map(|s| s.to_string()).collect();
            assert!(BenchArgs::try_parse(words.into_iter()).is_err(), "{bad}");
        }
    }

    #[test]
    fn report_renders_header_and_rows() {
        let mut r = Report::new("figX", "demo");
        r.header("workload", &["WS", "FI"]);
        r.row("BFS_FFT", &[1.25, 0.9]);
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("BFS_FFT"));
        assert!(text.contains("1.250"));
    }

    #[test]
    fn rows_align_with_headers() {
        let mut r = Report::new("f", "t");
        r.header("x", &["col"]);
        r.row("y", &[2.0]);
        let text = r.render();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines[0].len(), lines[1].len());
    }
}
