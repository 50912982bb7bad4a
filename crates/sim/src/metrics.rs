//! SD-based system metrics (Table III).
//!
//! The slowdown of an application is `SD = IPC-Shared / IPC-Alone`, where
//! the alone run uses the same cores at bestTLP. The system metrics combine
//! per-application slowdowns:
//!
//! * `WS = Σ SD_i` (weighted speedup / system throughput),
//! * `FI = min SD_i / max SD_i` (fairness index; 1 is perfectly fair),
//! * `HS = n / Σ (1/SD_i)` (harmonic weighted speedup).
//!
//! The same combinators applied to EB values yield the paper's EB-WS /
//! EB-FI / EB-HS runtime metrics, so [`ws_of`], [`fi_of`] and [`hs_of`] are
//! exposed generically.
//!
//! Beside them sit the simulated-cycle counters ([`cycles_simulated`],
//! [`thread_cycles_simulated`]) the campaign's self-profiler reads.

/// Sum of values (WS when fed slowdowns, EB-WS when fed EBs).
///
/// # Examples
///
/// ```
/// use gpu_sim::metrics::ws_of;
/// // Two apps at 60% and 80% of their alone IPC: WS = 1.4.
/// assert_eq!(ws_of(&[0.6, 0.8]), 1.4);
/// ```
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn ws_of(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    values.iter().sum()
}

/// `min/max` imbalance (FI when fed slowdowns, EB-FI when fed EBs).
/// Returns 0 when any value is non-positive.
///
/// # Examples
///
/// ```
/// use gpu_sim::metrics::fi_of;
/// assert_eq!(fi_of(&[0.4, 0.8]), 0.5); // one app slowed twice as much
/// assert_eq!(fi_of(&[0.7, 0.7]), 1.0); // perfectly fair
/// ```
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn fi_of(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if min <= 0.0 || max <= 0.0 {
        return 0.0;
    }
    min / max
}

/// Harmonic mean scaled by count (HS when fed slowdowns).
/// Returns 0 when any value is non-positive.
///
/// # Examples
///
/// ```
/// use gpu_sim::metrics::hs_of;
/// // The harmonic mean rewards balance: it sits below the arithmetic
/// // mean whenever the slowdowns differ.
/// assert_eq!(hs_of(&[0.5, 0.5]), 0.5);
/// assert!(hs_of(&[0.2, 0.8]) < 0.5);
/// ```
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn hs_of(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    if values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// Per-application slowdown `IPC-Shared / IPC-Alone`.
///
/// # Panics
///
/// Panics if `ipc_alone` is not positive.
pub fn slowdown(ipc_shared: f64, ipc_alone: f64) -> f64 {
    assert!(ipc_alone > 0.0, "alone IPC must be positive");
    ipc_shared / ipc_alone
}

/// The three SD-based metrics of one workload execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemMetrics {
    /// Per-application slowdowns.
    pub sds: Vec<f64>,
    /// Weighted speedup (system throughput).
    pub ws: f64,
    /// Fairness index.
    pub fi: f64,
    /// Harmonic weighted speedup.
    pub hs: f64,
}

impl SystemMetrics {
    /// Combines per-application slowdowns into the system metrics.
    ///
    /// # Panics
    ///
    /// Panics if `sds` is empty.
    pub fn from_slowdowns(sds: Vec<f64>) -> Self {
        let ws = ws_of(&sds);
        let fi = fi_of(&sds);
        let hs = hs_of(&sds);
        SystemMetrics { sds, ws, fi, hs }
    }
}

/// Geometric mean (used for the Gmean columns of Figs. 9 and 10).
///
/// # Panics
///
/// Panics if `values` is empty or any value is non-positive.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "gmean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

// ---------------------------------------------------------------------------
// Simulated-cycle counters (observability layer)
// ---------------------------------------------------------------------------

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of simulated cycles, across every
/// [`Gpu`](crate::Gpu) instance and worker thread.  The bench self-profiler
/// diffs this around each span to attribute simulation work to campaign
/// phases.
static CYCLES_SIMULATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's share of [`CYCLES_SIMULATED`]. The campaign
    /// scheduler diffs it around each unit to attribute simulation work
    /// exactly: pool workers carry the fan-out suppression flag
    /// (`crate::exec`), so a unit's nested sweeps collapse to serial on
    /// the worker's own thread and every cycle lands here.
    static THREAD_CYCLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Adds `n` to the process-wide simulated-cycle counter (called by
/// [`Gpu::run`](crate::Gpu::run), which every `Gpu::step` is a one-cycle
/// span of).
pub fn add_cycles_simulated(n: u64) {
    CYCLES_SIMULATED.fetch_add(n, Ordering::Relaxed);
    THREAD_CYCLES.with(|c| c.set(c.get() + n));
}

/// Total cycles simulated by this process so far.
pub fn cycles_simulated() -> u64 {
    CYCLES_SIMULATED.load(Ordering::Relaxed)
}

/// Cycles simulated *by the calling thread* so far (its share of
/// [`cycles_simulated`]).
pub fn thread_cycles_simulated() -> u64 {
    THREAD_CYCLES.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ws_is_sum() {
        assert_eq!(ws_of(&[0.5, 0.7]), 1.2);
    }

    #[test]
    fn fi_is_min_over_max() {
        assert!((fi_of(&[0.5, 1.0]) - 0.5).abs() < 1e-12);
        assert_eq!(fi_of(&[0.8, 0.8]), 1.0);
    }

    #[test]
    fn fi_of_three_apps_uses_extremes() {
        assert!((fi_of(&[0.2, 0.5, 0.8]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hs_matches_table_iii_for_two_apps() {
        // HS = 2/(1/SD1 + 1/SD2)... Table III writes it without the factor n
        // for two applications as 1/(1/SD1 + 1/SD2); the factor is a
        // constant scaling that cancels in all normalized comparisons. We
        // keep the n-scaled harmonic mean.
        let hs = hs_of(&[0.5, 0.5]);
        assert!((hs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_values_do_not_blow_up() {
        assert_eq!(fi_of(&[0.0, 1.0]), 0.0);
        assert_eq!(hs_of(&[0.0, 1.0]), 0.0);
    }

    #[test]
    fn slowdown_is_ratio() {
        assert!((slowdown(2.0, 4.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn slowdown_rejects_zero_alone() {
        let _ = slowdown(1.0, 0.0);
    }

    #[test]
    fn system_metrics_bundle() {
        let m = SystemMetrics::from_slowdowns(vec![0.6, 0.3]);
        assert!((m.ws - 0.9).abs() < 1e-12);
        assert!((m.fi - 0.5).abs() < 1e-12);
        assert!(m.hs > 0.3 && m.hs < 0.6);
    }

    #[test]
    fn gmean_of_constant_is_constant() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_is_between_min_and_max() {
        let g = gmean(&[1.0, 4.0]);
        assert!(g > 1.0 && g < 4.0);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ws_panics() {
        let _ = ws_of(&[]);
    }
}
