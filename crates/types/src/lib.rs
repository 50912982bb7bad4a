//! Common identifiers, configuration, statistics and deterministic RNG shared
//! by every crate of the `gpu-ebm` workspace.
//!
//! This crate is the foundation of the simulator substrate: it defines the
//! strongly-typed identifiers ([`AppId`], [`CoreId`], [`PartitionId`], …), the
//! simulated-machine description ([`GpuConfig`]), the TLP (thread-level
//! parallelism) ladder the paper searches over ([`tlp::TlpLevel`]), raw
//! hardware statistics counters ([`stats`]) and a small deterministic RNG
//! ([`rng::SplitMix64`]) so that a `(config, seed)` pair fully determines a
//! simulation.
//!
//! # Example
//!
//! ```
//! use gpu_types::{GpuConfig, tlp::TlpLevel};
//!
//! let cfg = GpuConfig::paper();
//! assert_eq!(cfg.max_tlp(), TlpLevel::new(24).unwrap());
//! cfg.validate().unwrap();
//! ```

#![deny(missing_docs)]

pub mod addr;
pub mod bits;
pub mod canon;
pub mod config;
pub mod fxmap;
pub mod hist;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod tlp;

pub use addr::{Address, LINE_SIZE};
pub use bits::BitSet;
pub use canon::{fingerprint, Canon, CanonBuf, CanonReader, Fingerprint, Record};
pub use config::{
    CacheConfig, ConfigError, DramConfig, GpuConfig, PagePolicy, SamplingConfig, WarpSchedPolicy,
};
pub use fxmap::{FxHashMap, FxHashSet, FxHasher};
pub use hist::{Histogram, HIST_BUCKETS};
pub use ids::{AppId, CoreId, PartitionId, WarpId};
pub use rng::SplitMix64;
pub use stats::{AppWindow, MemCounters};
pub use tlp::{TlpCombo, TlpLevel};
