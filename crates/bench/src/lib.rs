//! Figure/table regeneration harness for the `gpu-ebm` reproduction.
//!
//! Every table and figure of the paper's evaluation is declared once in
//! [`figures`]: a function that demands what the artifact reads from the
//! [`campaign`] planner and returns the render over those demands, all
//! sharing one memoizing [`ebm_core::Evaluator`] so a full campaign
//! profiles each application and sweeps each workload only once. The
//! `experiments` binary runs everything and writes each report to
//! `results/<id>.txt`; `--only <ids>` regenerates single artifacts (the ids
//! are [`campaign::ARTIFACTS`]):
//!
//! ```text
//! cargo run -p ebm-bench --release --bin experiments -- --only fig09
//! ```
//!
//! By default the campaign runs through the [`campaign`] work-graph
//! scheduler: the declarations compile into a fingerprint-deduplicated
//! DAG of measurement units executed across the worker pool, with figures
//! rendered as consumer nodes. `--serial` walks the same plan figure by
//! figure without executing units, each read computing inline
//! ([`campaign::run_serial`]) — the byte-exact reference the scheduler is
//! held to.
//!
//! The crate also carries the campaign observability layer:
//!
//! * [`logging`] — the timestamped stderr [`log!`](crate::log) macro;
//! * [`profiler`] — hierarchical self-profiling spans (campaign → figure →
//!   sweep → run) written to `PROFILE.json` and, in traced runs, emitted as
//!   `profile_span` trace events;
//! * [`json`] / [`schema`] — a std-only JSON parser and the strict trace
//!   validator behind the `trace-tools` binary
//!   (`cargo run -p ebm-bench --release --bin trace-tools -- validate <trace>`).
//!
//! Performance is measured by the repository's benchmark, not here: see
//! `benchmark/README.md` and `bash benchmark/run.sh`.

#![deny(missing_docs)]

pub mod campaign;
pub mod figures;
pub mod json;
pub mod logging;
pub mod profiler;
pub mod schema;
pub mod util;

pub use util::{out_path, run_and_save, set_out_dir, BenchArgs, Report};
