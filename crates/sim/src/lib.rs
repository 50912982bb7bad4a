//! Multi-application GPU simulator.
//!
//! Ties the substrate crates together into the machine of §II-A: each
//! co-scheduled application runs on an exclusive, equal set of SIMT cores
//! ([`machine::Gpu`]), all cores share the crossbar, the L2 slices and the
//! GDDR5 channels. On top of the machine this crate provides:
//!
//! * [`metrics`] — the SD-based system metrics of Table III (WS, FI, HS)
//!   and the simulated-cycle counters;
//! * [`alone`] — alone-run profiling across the TLP ladder, producing each
//!   application's `bestTLP`, `IPC@bestTLP` and `EB@bestTLP` (Table IV);
//! * [`control`] — the controller interface TLP-management policies
//!   implement (the paper's PBS and the baselines live in `ebm-core`);
//! * [`harness`] — fixed-combination measurement and controlled runs with
//!   windowed sampling and the Fig. 8 relay latency;
//! * [`exec`] — a scoped-thread fan-out layer ([`exec::par_map`]) for the
//!   independent simulations of sweeps, profiles and campaigns — the only
//!   parallelism axis: one simulation steps on one thread;
//! * [`cache`] — content-addressed memoization of deterministic results:
//!   a stable 128-bit fingerprint of each simulation's inputs keys an
//!   in-process registry of values plus a persistent on-disk store of
//!   their [`gpu_types::Record`] bytes, with versioned invalidation
//!   ([`cache::ENGINE_VERSION`]) and a verify mode that re-simulates sampled
//!   hits;
//! * [`timeq`] — the table of per-component wake times the event-driven
//!   engine jumps between ([`timeq::TimeQ`]);
//! * [`trace`] — the structured, zero-cost-when-disabled observability
//!   layer: typed events ([`trace::TraceEvent`]) emitted at every sampling
//!   window, received by pluggable [`trace::TraceSink`]s (in-memory ring,
//!   JSONL file). `docs/TRACE_SCHEMA.md` documents the serialized contract.
//!
//! Statistics are read where they are kept — [`machine::Gpu::engine_stats`],
//! [`cache::stats`], the machine-wide metrics the components record and
//! a traced run's `metrics_window` events roll up, the simulated-cycle
//! counters of [`metrics`] (docs/OBSERVABILITY.md) — and host speed is
//! measured from outside by `benchmark/` (`benchmark/README.md`).

#![deny(missing_docs)]

pub mod alone;
pub mod cache;
pub mod control;
pub mod exec;
pub mod harness;
pub mod machine;
pub mod metrics;
pub mod timeq;
pub mod trace;

pub use alone::{profile_alone, profile_alone_with_threads, AloneProfile, AloneSample};
pub use cache::{CacheStats, DiskStore, KeyBuilder, ENGINE_VERSION};
pub use control::{Controller, Decision, Observation};
pub use exec::{par_map, par_map_with, worker_count};
pub use harness::{
    measure_fixed, measure_fixed_cached, run_controlled, run_controlled_traced, ControlledRun,
    FixedRunInputs, RunSpec,
};
pub use machine::Gpu;
pub use metrics::{fi_of, hs_of, ws_of, SystemMetrics};
pub use trace::{JsonlSink, NullSink, RingSink, TraceEvent, TraceSink};
