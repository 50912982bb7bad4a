//! Raw hardware statistics counters and per-window derived rates.
//!
//! The paper's runtime mechanism samples, per application and per monitoring
//! window: L1 miss rate (from one designated core), L2 miss rate and attained
//! DRAM bandwidth (from one designated memory partition). [`MemCounters`]
//! holds the raw counts; [`AppWindow`] pairs a counter delta with the window
//! length and exposes the derived quantities of Table III — miss rates, the
//! combined miss rate CMR, attained bandwidth BW and effective bandwidth
//! EB = BW / CMR.

use crate::canon::{CanonBuf, CanonReader, Record};
use std::ops::{Add, AddAssign, Sub};

/// Raw event counts attributed to one application.
///
/// All counts are cumulative; window deltas are formed with `-`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// L1 data cache accesses.
    pub l1_accesses: u64,
    /// L1 data cache misses.
    pub l1_misses: u64,
    /// L2 accesses (L1 misses that reached an L2 slice).
    pub l2_accesses: u64,
    /// L2 misses (requests sent to DRAM).
    pub l2_misses: u64,
    /// Useful data bytes transferred over the DRAM interface.
    pub dram_bytes: u64,
    /// DRAM column accesses that hit an open row (diagnostic).
    pub row_hits: u64,
    /// DRAM column accesses that required an ACTIVATE (diagnostic).
    pub row_misses: u64,
    /// Warp instructions issued.
    pub warp_insts: u64,
}

impl MemCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// L1 miss rate in `[0, 1]`; defined as 1 when there were no accesses
    /// (caches provide no amplification for an idle application, making
    /// EB degenerate to BW as §III-B requires).
    pub fn l1_miss_rate(&self) -> f64 {
        rate_or_one(self.l1_misses, self.l1_accesses)
    }

    /// L2 miss rate in `[0, 1]`; 1 when there were no L2 accesses.
    pub fn l2_miss_rate(&self) -> f64 {
        rate_or_one(self.l2_misses, self.l2_accesses)
    }

    /// Combined miss rate `CMR = L1MR × L2MR` (Table III).
    pub fn combined_miss_rate(&self) -> f64 {
        self.l1_miss_rate() * self.l2_miss_rate()
    }

    /// DRAM row-buffer hit rate (diagnostic; drives attained bandwidth).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The eight counters in declaration order.
impl Record for MemCounters {
    fn put(&self, buf: &mut CanonBuf) {
        for v in [
            self.l1_accesses,
            self.l1_misses,
            self.l2_accesses,
            self.l2_misses,
            self.dram_bytes,
            self.row_hits,
            self.row_misses,
            self.warp_insts,
        ] {
            buf.push_u64(v);
        }
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        Some(MemCounters {
            l1_accesses: r.read_u64()?,
            l1_misses: r.read_u64()?,
            l2_accesses: r.read_u64()?,
            l2_misses: r.read_u64()?,
            dram_bytes: r.read_u64()?,
            row_hits: r.read_u64()?,
            row_misses: r.read_u64()?,
            warp_insts: r.read_u64()?,
        })
    }
}

fn rate_or_one(numer: u64, denom: u64) -> f64 {
    if denom == 0 {
        1.0
    } else {
        debug_assert!(numer <= denom, "misses {numer} exceed accesses {denom}");
        numer as f64 / denom as f64
    }
}

impl Add for MemCounters {
    type Output = MemCounters;

    fn add(self, rhs: MemCounters) -> MemCounters {
        MemCounters {
            l1_accesses: self.l1_accesses + rhs.l1_accesses,
            l1_misses: self.l1_misses + rhs.l1_misses,
            l2_accesses: self.l2_accesses + rhs.l2_accesses,
            l2_misses: self.l2_misses + rhs.l2_misses,
            dram_bytes: self.dram_bytes + rhs.dram_bytes,
            row_hits: self.row_hits + rhs.row_hits,
            row_misses: self.row_misses + rhs.row_misses,
            warp_insts: self.warp_insts + rhs.warp_insts,
        }
    }
}

impl AddAssign for MemCounters {
    fn add_assign(&mut self, rhs: MemCounters) {
        *self = *self + rhs;
    }
}

impl Sub for MemCounters {
    type Output = MemCounters;

    /// Window delta between two cumulative snapshots (`later - earlier`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is not an earlier snapshot of `self`.
    fn sub(self, rhs: MemCounters) -> MemCounters {
        debug_assert!(
            self.l1_accesses >= rhs.l1_accesses,
            "snapshot order reversed"
        );
        MemCounters {
            l1_accesses: self.l1_accesses - rhs.l1_accesses,
            l1_misses: self.l1_misses - rhs.l1_misses,
            l2_accesses: self.l2_accesses - rhs.l2_accesses,
            l2_misses: self.l2_misses - rhs.l2_misses,
            dram_bytes: self.dram_bytes - rhs.dram_bytes,
            row_hits: self.row_hits - rhs.row_hits,
            row_misses: self.row_misses - rhs.row_misses,
            warp_insts: self.warp_insts - rhs.warp_insts,
        }
    }
}

/// One application's observation window: a counter delta plus the window
/// length, yielding the per-window metrics of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppWindow {
    /// Event counts accumulated during the window.
    pub counters: MemCounters,
    /// Window length in core cycles.
    pub cycles: u64,
    /// Theoretical peak DRAM bandwidth of the whole GPU in bytes per cycle
    /// ([`crate::GpuConfig::peak_bw_bytes_per_cycle`]); BW is normalized to it.
    pub peak_bw_bytes_per_cycle: f64,
}

impl AppWindow {
    /// Creates a window observation.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero or the peak bandwidth is not positive.
    pub fn new(counters: MemCounters, cycles: u64, peak_bw_bytes_per_cycle: f64) -> Self {
        assert!(cycles > 0, "observation window must be non-empty");
        assert!(
            peak_bw_bytes_per_cycle > 0.0,
            "peak bandwidth must be positive"
        );
        AppWindow {
            counters,
            cycles,
            peak_bw_bytes_per_cycle,
        }
    }

    /// Warp-instruction IPC over the window.
    pub fn ipc(&self) -> f64 {
        self.counters.warp_insts as f64 / self.cycles as f64
    }

    /// Attained DRAM bandwidth normalized to the theoretical peak
    /// (Table III's BW), in `[0, 1]` up to rounding.
    pub fn attained_bw(&self) -> f64 {
        self.counters.dram_bytes as f64 / (self.cycles as f64 * self.peak_bw_bytes_per_cycle)
    }

    /// Combined miss rate `CMR` over the window.
    pub fn combined_miss_rate(&self) -> f64 {
        self.counters.combined_miss_rate()
    }

    /// Effective bandwidth `EB = BW / CMR` (§III-B): the rate of data
    /// delivery to the cores, i.e. attained DRAM bandwidth amplified by the
    /// cache hierarchy.
    ///
    /// When CMR is 0 (a perfectly cached window) the amplification is bounded
    /// by treating CMR as one miss in the observed accesses, avoiding an
    /// infinite EB while preserving "lower CMR ⇒ higher EB".
    pub fn effective_bandwidth(&self) -> f64 {
        let cmr = self.combined_miss_rate();
        let floor = 1.0 / (1 + self.counters.l1_accesses) as f64;
        self.attained_bw() / cmr.max(floor)
    }

    /// Effective bandwidth observed *by the L2* — BW amplified only by the L2
    /// miss rate (point "B" of Fig. 3).
    pub fn effective_bandwidth_at_l2(&self) -> f64 {
        let l2mr = self.counters.l2_miss_rate();
        let floor = 1.0 / (1 + self.counters.l2_accesses) as f64;
        self.attained_bw() / l2mr.max(floor)
    }
}

/// The counters, the window length, then the peak-bandwidth normalizer
/// (exact: a float is its bit pattern). What [`AppWindow::new`] refuses —
/// an empty window, a peak that is not positive (NaN included) — is
/// corrupt.
impl Record for AppWindow {
    fn put(&self, buf: &mut CanonBuf) {
        (self.counters, (self.cycles, self.peak_bw_bytes_per_cycle)).put(buf);
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        let (counters, (cycles, peak)) = <(MemCounters, (u64, f64))>::get(r)?;
        (cycles > 0 && peak > 0.0).then(|| AppWindow::new(counters, cycles, peak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> MemCounters {
        MemCounters {
            l1_accesses: 1000,
            l1_misses: 400,
            l2_accesses: 400,
            l2_misses: 200,
            dram_bytes: 200 * 128,
            row_hits: 150,
            row_misses: 50,
            warp_insts: 5000,
        }
    }

    #[test]
    fn miss_rates() {
        let c = counters();
        assert!((c.l1_miss_rate() - 0.4).abs() < 1e-12);
        assert!((c.l2_miss_rate() - 0.5).abs() < 1e-12);
        assert!((c.combined_miss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_have_unit_miss_rates() {
        let c = MemCounters::new();
        assert_eq!(c.l1_miss_rate(), 1.0);
        assert_eq!(c.l2_miss_rate(), 1.0);
        assert_eq!(c.combined_miss_rate(), 1.0);
        assert_eq!(c.row_hit_rate(), 0.0);
    }

    #[test]
    fn add_and_sub_round_trip() {
        let a = counters();
        let b = counters();
        let sum = a + b;
        assert_eq!(sum - b, a);
        assert_eq!(sum.l1_accesses, 2000);
    }

    #[test]
    fn window_bw_is_normalized() {
        // 200 lines * 128 B over 1000 cycles at peak 192 B/cycle.
        let w = AppWindow::new(counters(), 1000, 192.0);
        let expected = (200.0 * 128.0) / (1000.0 * 192.0);
        assert!((w.attained_bw() - expected).abs() < 1e-12);
    }

    #[test]
    fn eb_amplifies_bw_by_inverse_cmr() {
        let w = AppWindow::new(counters(), 1000, 192.0);
        // CMR = 0.2 => EB = BW * 5 (a miss rate of 50% "effectively doubles
        // the bandwidth delivered", per §II-B).
        assert!((w.effective_bandwidth() - w.attained_bw() / 0.2).abs() < 1e-12);
        assert!(w.effective_bandwidth() > w.effective_bandwidth_at_l2());
    }

    #[test]
    fn eb_equals_bw_for_cache_insensitive_app() {
        // CMR = 1 (all misses): caches do not help, EB == BW (§III-B, BLK).
        let c = MemCounters {
            l1_accesses: 100,
            l1_misses: 100,
            l2_accesses: 100,
            l2_misses: 100,
            dram_bytes: 100 * 128,
            ..MemCounters::new()
        };
        let w = AppWindow::new(c, 500, 192.0);
        assert!((w.effective_bandwidth() - w.attained_bw()).abs() < 1e-12);
    }

    #[test]
    fn eb_is_finite_at_zero_cmr() {
        let c = MemCounters {
            l1_accesses: 1000,
            warp_insts: 100,
            ..MemCounters::new()
        };
        let w = AppWindow::new(c, 500, 192.0);
        assert!(w.effective_bandwidth().is_finite());
    }

    #[test]
    fn ipc_counts_warp_instructions() {
        let w = AppWindow::new(counters(), 1000, 192.0);
        assert!((w.ipc() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_cycle_window_panics() {
        let _ = AppWindow::new(MemCounters::new(), 0, 192.0);
    }

    #[test]
    fn row_hit_rate_diagnostic() {
        assert!((counters().row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
