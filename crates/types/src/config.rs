//! Simulated-machine description.
//!
//! [`GpuConfig`] captures the baseline architecture of §II-A / Table I of the
//! paper: SIMT cores with private L1 data caches, a crossbar to memory
//! partitions each holding an L2 slice and a GDDR5 channel behind an FR-FCFS
//! controller. Three presets are provided:
//!
//! * [`GpuConfig::paper`] — the evaluation configuration (reconstructed from
//!   the garbled OCR against GPGPU-Sim v3.x / MAFIA defaults, see DESIGN.md).
//! * [`GpuConfig::small`] — a scaled-down machine for fast unit tests.
//! * [`GpuConfig::volta`] — an 80-SM Volta-scale machine, the benchmark's
//!   big-machine workload.

use crate::tlp::{TlpLevel, MAX_TLP};
use std::fmt;

/// Configuration of one cache level (an L1 data cache or an L2 slice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Number of MSHR (miss status holding register) entries; bounds the
    /// number of distinct in-flight miss lines.
    pub mshr_entries: usize,
    /// Maximum requests merged into a single MSHR entry.
    pub mshr_merge: usize,
    /// Cache hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by capacity, associativity and the global line
    /// size.
    pub fn n_sets(&self) -> usize {
        (self.capacity_bytes / crate::LINE_SIZE) as usize / self.associativity
    }

    /// Number of lines the cache holds.
    pub fn n_lines(&self) -> usize {
        (self.capacity_bytes / crate::LINE_SIZE) as usize
    }

    fn validate(&self, what: &str) -> Result<(), ConfigError> {
        let lines = self.capacity_bytes / crate::LINE_SIZE;
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(crate::LINE_SIZE) {
            return Err(ConfigError::new(format!(
                "{what}: capacity {} is not a positive multiple of the line size",
                self.capacity_bytes
            )));
        }
        if self.associativity == 0 || !lines.is_multiple_of(self.associativity as u64) {
            return Err(ConfigError::new(format!(
                "{what}: associativity {} does not divide {} lines",
                self.associativity, lines
            )));
        }
        if !(lines as usize / self.associativity).is_power_of_two() {
            return Err(ConfigError::new(format!(
                "{what}: set count {} is not a power of two",
                lines as usize / self.associativity
            )));
        }
        if self.mshr_entries == 0 || self.mshr_merge == 0 {
            return Err(ConfigError::new(format!(
                "{what}: MSHR sizes must be non-zero"
            )));
        }
        Ok(())
    }
}

/// GDDR5 DRAM timing and geometry for one channel (Table I, Hynix GDDR5).
///
/// All timings are in (core-aligned) DRAM command cycles; see DESIGN.md §2 on
/// the single clock domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks per channel.
    pub n_banks: usize,
    /// Bank groups per channel (banks are distributed round-robin).
    pub n_bank_groups: usize,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u64,
    /// CAS latency: ACTIVATE-to-data / READ-to-data delay component.
    pub t_cl: u32,
    /// Row precharge time.
    pub t_rp: u32,
    /// RAS-to-CAS delay (ACTIVATE to READ/WRITE).
    pub t_rcd: u32,
    /// Minimum row-open time (ACTIVATE to PRECHARGE).
    pub t_ras: u32,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: u32,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: u32,
    /// ACTIVATE-to-ACTIVATE delay across banks.
    pub t_rrd: u32,
    /// Data-bus cycles one 128-byte line transfer occupies; sets peak
    /// bandwidth at `LINE_SIZE / burst_cycles` bytes/cycle/channel.
    pub burst_cycles: u32,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

impl DramConfig {
    /// Peak useful data bandwidth of one channel in bytes per cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        crate::LINE_SIZE as f64 / self.burst_cycles as f64
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.n_banks == 0
            || self.n_bank_groups == 0
            || !self.n_banks.is_multiple_of(self.n_bank_groups)
        {
            return Err(ConfigError::new(format!(
                "dram: {} banks must be a positive multiple of {} bank groups",
                self.n_banks, self.n_bank_groups
            )));
        }
        if self.row_bytes == 0 || !self.row_bytes.is_multiple_of(crate::LINE_SIZE) {
            return Err(ConfigError::new(
                "dram: row size must be a positive multiple of the line size".to_owned(),
            ));
        }
        if self.burst_cycles == 0 {
            return Err(ConfigError::new(
                "dram: burst_cycles must be non-zero".to_owned(),
            ));
        }
        Ok(())
    }
}

/// DRAM row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Rows stay open after a column access (the paper's FR-FCFS baseline
    /// exploits them for row hits).
    #[default]
    Open,
    /// Rows auto-precharge after every column access: no row hits, but no
    /// conflict precharge either. Used by the `dram_policy` ablation.
    Closed,
}

/// Warp scheduling policy of every core's schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarpSchedPolicy {
    /// Greedy-then-oldest (the paper's baseline, Table I).
    #[default]
    Gto,
    /// Loose round-robin: scanning resumes after the last issued warp, so
    /// warps progress in lockstep. Used by the `sched` sensitivity study.
    Lrr,
}

/// Parameters of the runtime sampling hardware (Fig. 8 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Cycles each probed TLP combination is observed before its EB sample is
    /// recorded ("monitoring interval").
    pub window_cycles: u64,
    /// Latency, in cycles, for the designated memory partition to relay its
    /// counters to the cores over the crossbar (the paper conservatively
    /// assumes a fixed relay latency).
    pub relay_latency: u64,
    /// Capacity of the EB sampling table (combinations remembered).
    pub table_entries: usize,
    /// When true, controllers observe the Fig. 8 *designated* counters (one
    /// core + one memory partition per application, scaled up) instead of
    /// exact aggregates. §V-E's uniformity observation makes the two
    /// equivalent in practice; the `sampling` experiment quantifies it.
    pub designated: bool,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            window_cycles: 2_000,
            relay_latency: 100,
            table_entries: 16,
            designated: false,
        }
    }
}

/// Full description of the simulated GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of SIMT cores. Cores are divided into equal exclusive
    /// partitions, one per co-scheduled application (§II-A).
    pub n_cores: usize,
    /// Warp slots per core (Table I: 48 warps of 32 threads).
    pub warps_per_core: usize,
    /// Threads per warp (SIMT width).
    pub threads_per_warp: usize,
    /// Warp schedulers per core; each owns an equal share of the warp slots.
    pub schedulers_per_core: usize,
    /// Private L1 data cache, one per core.
    pub l1: CacheConfig,
    /// One L2 slice per memory partition.
    pub l2: CacheConfig,
    /// Memory partitions (L2 slice + memory controller + GDDR5 channel).
    pub n_partitions: usize,
    /// DRAM channel behind each partition.
    pub dram: DramConfig,
    /// Requests the crossbar accepts per core per cycle (and per partition on
    /// the return path).
    pub xbar_requests_per_cycle: usize,
    /// One-way interconnect traversal latency in cycles.
    pub xbar_latency: u32,
    /// Runtime-sampling hardware parameters.
    pub sampling: SamplingConfig,
    /// Warp scheduling policy (GTO in the paper).
    pub scheduler: WarpSchedPolicy,
}

impl GpuConfig {
    /// The paper's evaluation machine (DESIGN.md §2): 16 cores × 48 warps,
    /// 16 KB 4-way L1s, six memory partitions with 128 KB 8-way L2 slices and
    /// GDDR5 timing.
    pub fn paper() -> Self {
        GpuConfig {
            n_cores: 16,
            warps_per_core: 48,
            threads_per_warp: 32,
            schedulers_per_core: 2,
            l1: CacheConfig {
                capacity_bytes: 16 * 1024,
                associativity: 4,
                mshr_entries: 128,
                mshr_merge: 8,
                hit_latency: 1,
            },
            l2: CacheConfig {
                capacity_bytes: 128 * 1024,
                associativity: 8,
                mshr_entries: 64,
                mshr_merge: 8,
                hit_latency: 8,
            },
            n_partitions: 6,
            dram: DramConfig {
                n_banks: 16,
                n_bank_groups: 4,
                row_bytes: 2048,
                t_cl: 12,
                t_rp: 12,
                t_rcd: 12,
                t_ras: 28,
                t_ccd_l: 4,
                t_ccd_s: 2,
                t_rrd: 6,
                burst_cycles: 4,
                page_policy: PagePolicy::Open,
            },
            xbar_requests_per_cycle: 1,
            xbar_latency: 8,
            sampling: SamplingConfig::default(),
            scheduler: WarpSchedPolicy::Gto,
        }
    }

    /// A scaled-down machine for fast tests: 4 cores × 16 warps, 4 KB L1s,
    /// two partitions with 32 KB L2 slices.
    pub fn small() -> Self {
        GpuConfig {
            n_cores: 4,
            warps_per_core: 16,
            threads_per_warp: 32,
            schedulers_per_core: 2,
            l1: CacheConfig {
                capacity_bytes: 4 * 1024,
                associativity: 4,
                mshr_entries: 16,
                mshr_merge: 8,
                hit_latency: 1,
            },
            l2: CacheConfig {
                capacity_bytes: 32 * 1024,
                associativity: 8,
                mshr_entries: 32,
                mshr_merge: 8,
                hit_latency: 8,
            },
            n_partitions: 2,
            dram: DramConfig {
                n_banks: 8,
                n_bank_groups: 4,
                row_bytes: 1024,
                t_cl: 12,
                t_rp: 12,
                t_rcd: 12,
                t_ras: 28,
                t_ccd_l: 4,
                t_ccd_s: 2,
                t_rrd: 6,
                burst_cycles: 4,
                page_policy: PagePolicy::Open,
            },
            xbar_requests_per_cycle: 1,
            xbar_latency: 4,
            sampling: SamplingConfig {
                window_cycles: 2_000,
                relay_latency: 20,
                table_entries: 16,
                designated: false,
            },
            scheduler: WarpSchedPolicy::Gto,
        }
    }

    /// A Volta-scale machine (80 SMs × 64 warps, 4 schedulers per SM,
    /// 32 KB 4-way L1s, sixteen memory partitions with 256 KB 16-way L2
    /// slices — 4 MB aggregate — over the paper's GDDR5 channel model).
    ///
    /// This is the big-machine preset of the benchmark's `volta-busy`
    /// workload (`benchmark/README.md`), where O(configured) → O(active)
    /// changes to the engine show: at this size a core's 64 warps are one
    /// word of its issue-state bitsets and the request crossbar's 80
    /// inputs are two (ARCHITECTURE.md "Hot path"), while a scan over
    /// either falls out of the host's L1. The SM/warp geometry follows the
    /// Volta Titan V constants (80 SMs, 64 warp slots per SM); the memory
    /// side keeps the paper's DRAM timings so behavior stays comparable.
    pub fn volta() -> Self {
        GpuConfig {
            n_cores: 80,
            warps_per_core: 64,
            threads_per_warp: 32,
            schedulers_per_core: 4,
            l1: CacheConfig {
                capacity_bytes: 32 * 1024,
                associativity: 4,
                mshr_entries: 128,
                mshr_merge: 8,
                hit_latency: 1,
            },
            l2: CacheConfig {
                capacity_bytes: 256 * 1024,
                associativity: 16,
                mshr_entries: 128,
                mshr_merge: 8,
                hit_latency: 8,
            },
            n_partitions: 16,
            dram: DramConfig {
                n_banks: 16,
                n_bank_groups: 4,
                row_bytes: 2048,
                t_cl: 12,
                t_rp: 12,
                t_rcd: 12,
                t_ras: 28,
                t_ccd_l: 4,
                t_ccd_s: 2,
                t_rrd: 6,
                burst_cycles: 4,
                page_policy: PagePolicy::Open,
            },
            xbar_requests_per_cycle: 1,
            xbar_latency: 8,
            sampling: SamplingConfig::default(),
            scheduler: WarpSchedPolicy::Gto,
        }
    }

    /// Warp slots owned by each scheduler.
    pub fn warps_per_scheduler(&self) -> usize {
        self.warps_per_core / self.schedulers_per_core
    }

    /// The highest TLP level realizable on this machine (per scheduler).
    /// On the paper machine this is 24; scaled-down machines clamp lower.
    pub fn max_tlp(&self) -> TlpLevel {
        let cap = (self.warps_per_scheduler() as u32).min(MAX_TLP);
        TlpLevel::new(cap).expect("warps_per_scheduler >= 1 guaranteed by validate")
    }

    /// Clamps a requested TLP level to what this machine can realize.
    pub fn clamp_tlp(&self, level: TlpLevel) -> TlpLevel {
        level.min(self.max_tlp())
    }

    /// Aggregate theoretical peak DRAM bandwidth in bytes per cycle; attained
    /// bandwidth (BW) is reported normalized to this value.
    pub fn peak_bw_bytes_per_cycle(&self) -> f64 {
        self.dram.peak_bytes_per_cycle() * self.n_partitions as f64
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cores == 0 {
            return Err(ConfigError::new("n_cores must be non-zero".to_owned()));
        }
        if self.n_partitions == 0 {
            return Err(ConfigError::new("n_partitions must be non-zero".to_owned()));
        }
        // Zero is a multiple of everything, so it needs its own test: a
        // scheduler owns at least one warp slot.
        if self.warps_per_core == 0 {
            return Err(ConfigError::new(
                "warps_per_core must be non-zero".to_owned(),
            ));
        }
        // A memory request names its core and warp slot in 16 bits each.
        for (field, n) in [
            ("n_cores", self.n_cores),
            ("warps_per_core", self.warps_per_core),
        ] {
            if n > INDEX_LIMIT {
                return Err(ConfigError::new(format!(
                    "{field} {n} exceeds {INDEX_LIMIT}, the most a memory request can index"
                )));
            }
        }
        if self.schedulers_per_core == 0
            || !self.warps_per_core.is_multiple_of(self.schedulers_per_core)
        {
            return Err(ConfigError::new(format!(
                "warps_per_core {} must be a positive multiple of schedulers_per_core {}",
                self.warps_per_core, self.schedulers_per_core
            )));
        }
        if self.threads_per_warp == 0 {
            return Err(ConfigError::new(
                "threads_per_warp must be non-zero".to_owned(),
            ));
        }
        if self.xbar_requests_per_cycle == 0 {
            return Err(ConfigError::new(
                "xbar_requests_per_cycle must be non-zero".to_owned(),
            ));
        }
        if self.sampling.window_cycles == 0 {
            return Err(ConfigError::new(
                "sampling window must be non-zero".to_owned(),
            ));
        }
        self.l1.validate("l1")?;
        self.l2.validate("l2")?;
        self.dram.validate()?;
        Ok(())
    }
}

/// The most cores, and the most warps per core, a machine may have: a
/// memory request carries both indices in 16 bits.
const INDEX_LIMIT: usize = 1 << 16;

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::paper()
    }
}

/// Error returned by [`GpuConfig::validate`] when a configuration is
/// internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: String) -> Self {
        ConfigError { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        GpuConfig::paper().validate().unwrap();
        GpuConfig::small().validate().unwrap();
        GpuConfig::volta().validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_warps() {
        // 0 is a multiple of any scheduler count; before the explicit test
        // it validated and `max_tlp` then panicked.
        let mut cfg = GpuConfig::paper();
        cfg.warps_per_core = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("warps_per_core"), "{err}");
    }

    #[test]
    fn volta_geometry() {
        let cfg = GpuConfig::volta();
        assert_eq!(cfg.n_cores, 80);
        assert_eq!(cfg.warps_per_core, 64);
        // Two-app workloads must split the cores evenly.
        assert!(cfg.n_cores.is_multiple_of(2));
        assert_eq!(cfg.max_tlp().get(), 16);
        // 16 × 256 KB slices = 4 MB of L2.
        assert_eq!(cfg.l2.capacity_bytes * cfg.n_partitions as u64, 4 << 20);
    }

    #[test]
    fn paper_max_tlp_is_24() {
        assert_eq!(GpuConfig::paper().max_tlp().get(), 24);
    }

    #[test]
    fn small_machine_clamps_tlp() {
        let cfg = GpuConfig::small();
        assert_eq!(cfg.max_tlp().get(), 8);
        assert_eq!(cfg.clamp_tlp(TlpLevel::MAX).get(), 8);
        assert_eq!(cfg.clamp_tlp(TlpLevel::new(4).unwrap()).get(), 4);
    }

    #[test]
    fn cache_geometry() {
        let l1 = GpuConfig::paper().l1;
        assert_eq!(l1.n_lines(), 128);
        assert_eq!(l1.n_sets(), 32);
    }

    #[test]
    fn peak_bandwidth_scales_with_partitions() {
        let cfg = GpuConfig::paper();
        let per_channel = cfg.dram.peak_bytes_per_cycle();
        assert_eq!(per_channel, 32.0);
        assert_eq!(cfg.peak_bw_bytes_per_cycle(), 32.0 * 6.0);
    }

    #[test]
    fn validate_rejects_bad_capacity() {
        let mut cfg = GpuConfig::paper();
        cfg.l1.capacity_bytes = 100; // not a multiple of 128
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("l1"), "{err}");
    }

    #[test]
    fn validate_rejects_non_pow2_sets() {
        let mut cfg = GpuConfig::paper();
        cfg.l1.capacity_bytes = 3 * 128 * 4; // 3 sets at 4-way
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_bank_group_mismatch() {
        let mut cfg = GpuConfig::paper();
        cfg.dram.n_banks = 10; // not a multiple of 4 groups
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_indices_beyond_16_bits() {
        let mut cfg = GpuConfig::paper();
        cfg.n_cores = 1 << 16;
        assert!(cfg.validate().is_ok());
        cfg.n_cores = (1 << 16) + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("n_cores 65537"), "{err}");
        let mut cfg = GpuConfig::paper();
        cfg.warps_per_core = 1 << 17;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("warps_per_core 131072"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let mut cfg = GpuConfig::paper();
        cfg.n_cores = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_odd_scheduler_split() {
        let mut cfg = GpuConfig::paper();
        cfg.warps_per_core = 47;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(GpuConfig::default(), GpuConfig::paper());
    }
}
