//! Effective-bandwidth-based TLP management for multi-programmed GPUs —
//! the primary contribution of *"Efficient and Fair Multi-programming in
//! GPUs via Effective Bandwidth Management"* (HPCA 2018).
//!
//! The crate provides, on top of the `gpu-sim` machine:
//!
//! * [`metrics`] — the EB-based runtime metrics of Table III (EB-WS, EB-FI,
//!   EB-HS) and the alone-ratio analysis of §IV (Fig. 5);
//! * [`scaling`] — the EB scaling factors that align EB-FI with SD-FI
//!   (§IV): user-supplied group averages, runtime sampling, or exact alone
//!   values;
//! * [`sweep`] — exhaustive 64-combination profiling (the substrate of the
//!   `opt*` oracles, the `BF-*` brute-force schemes and the offline PBS
//!   variants, and of Figs. 6 and 7);
//! * [`pattern`] — inflection-point ("pattern") analysis and the
//!   pattern-based search rules of §V applied to an offline table;
//! * [`policy`] — runtime controllers: **PBS-WS / PBS-FI / PBS-HS** (§V),
//!   plus the DynCTA and Mod+Bypass prior-art baselines;
//! * [`pbsrun`] — memoized end-to-end controller runs (PBS with its knobs,
//!   DynCTA, Mod+Bypass: the scheme runs, the ablation, phased,
//!   sampling-mode and three-application experiments), fingerprinted for
//!   the campaign scheduler;
//! * [`search`] — the opt/BF offline searches;
//! * [`eval`] — the evaluation driver that computes any [`eval::Scheme`]
//!   on any workload from alone profiles, the sweep and one run record —
//!   each a record of [`gpu_sim::cache`], the crate's only memo — and
//!   reports SD-based system metrics (the engine behind Figs. 9 and 10);
//! * [`hw`] — the Fig. 8 hardware-overhead accounting.

#![deny(missing_docs)]

pub mod eval;
pub mod hw;
pub mod metrics;
pub mod pattern;
pub mod pbsrun;
pub mod policy;
pub mod scaling;
pub mod search;
pub mod sweep;

pub use eval::{Evaluator, EvaluatorConfig, Scheme, SchemeResult};
pub use metrics::{alone_ratio, EbObjective};
pub use pattern::{critical_app, knee_of, pbs_offline_search, probe_level, SweepCurve};
pub use pbsrun::{run_controller_cached, ControllerRun, ControllerSpec, PbsRunSpec};
pub use policy::{DynCta, ModBypass, Pbs};
pub use scaling::ScalingFactors;
pub use sweep::{ComboSample, ComboSweep};
