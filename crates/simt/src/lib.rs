//! SIMT core model for the `gpu-ebm` simulator.
//!
//! Each core executes warps drawn from an application-supplied
//! [`InstStream`] (the `gpu-workloads` crate provides the paper's synthetic
//! application models; tests use the simple streams in [`streams`]).
//! The core implements the §II machine model of the paper:
//!
//! * two greedy-then-oldest (GTO) warp schedulers per core, each issuing at
//!   most one warp instruction per cycle;
//! * **static warp limiting (SWL)**: a per-core TLP level caps how many warp
//!   slots each scheduler may issue from — the knob every TLP-management
//!   scheme in the paper turns ([`SimtCore::set_tlp`]);
//! * a memory coalescer that merges a warp's thread accesses into unique
//!   128-byte transactions;
//! * a private L1 data cache with MSHRs (from `gpu-mem`), optionally
//!   bypassed per-core (the Mod+Bypass baseline);
//! * per-core statistics for IPC accounting and for DynCTA-style
//!   latency-tolerance heuristics.

#![deny(missing_docs)]

pub mod ccws;
pub mod core;
pub mod inst;
mod pending;
pub mod scheduler;
pub mod streams;
pub mod warp;

pub use crate::ccws::{CcwsParams, CcwsThrottle};
pub use crate::core::{CoreParams, CoreStats, SimtCore, WarpStalls};
pub use inst::{Inst, InstStream, LineBuf, Op, MAX_ALU_CYCLES};
pub use scheduler::GtoScheduler;
pub use warp::{Warp, WarpIssueState};
