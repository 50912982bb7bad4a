//! Shared pieces of the repository's benchmark (`README.md` in this
//! directory): the run arguments and workload table, the interference-robust
//! estimators, the span recorder of the traced run, the result and golden
//! file formats, and the comparison that applies `BENCHMARK.json`'s bounds.
//!
//! Two binaries use it. `ebm-e2e` measures the end-to-end metrics through a
//! deliberately narrow slice of the simulator's API; `ebm-layers` holds every
//! per-layer probe behind one adapter module, so API churn in `crates/*` can
//! break the layer profile without taking the end-to-end numbers with it.

#![deny(missing_docs)]

pub mod cli;
pub mod compare;
pub mod golden;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
