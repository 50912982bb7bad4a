//! Quantiles and the fastest-sample estimator behind every host-time metric.
//!
//! Neighbour interference on the shared VM only ever *slows* a sample, in
//! episodes that last from seconds to whole runs. The gated value of a
//! host-time metric is therefore built from the *fastest* of many short
//! equal-work samples of one input: it needs a single sample to have landed
//! in a quiet stretch. Where a run covers several inputs (the round seeds of
//! a co-run), the fastest sample is taken per input and the inputs are
//! combined by their median. The fast decile, median, inter-quartile range,
//! sample count and the spread between rounds are carried beside the gated
//! value so a reader can see how noisy the run was (README.md, "Estimators",
//! has the measurements this choice rests on).

/// Quantile `q` in `[0, 1]` of `sorted` (ascending), by linear interpolation
/// between the two nearest ranks.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The gated value of one host-time metric and its noise self-report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The gated estimator: the fastest sample ([`Summary::pooled`]) or the
    /// median of the per-round fastest samples ([`Summary::across_inputs`]).
    pub value: f64,
    /// Fast decile of the pooled samples.
    pub p10: f64,
    /// Median of the pooled samples.
    pub median: f64,
    /// Inter-quartile range (p75 − p25) of the pooled samples.
    pub iqr: f64,
    /// Pooled sample count.
    pub n: usize,
    /// Rounds that contributed samples.
    pub rounds: usize,
    /// Inter-quartile range of the per-round fastest samples ÷ their median.
    /// For [`Summary::across_inputs`] this includes the input-to-input
    /// variation the rounds were chosen to average out.
    pub round_spread: f64,
}

impl Summary {
    fn build(rounds: &[Vec<f64>], across_inputs: bool) -> Summary {
        let pool = sorted(&rounds.concat());
        let round_fastest = sorted(
            &rounds
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| fastest(r))
                .collect::<Vec<_>>(),
        );
        let round_median = quantile(&round_fastest, 0.5);
        Summary {
            value: if across_inputs { round_median } else { pool[0] },
            p10: quantile(&pool, 0.10),
            median: quantile(&pool, 0.5),
            iqr: quantile(&pool, 0.75) - quantile(&pool, 0.25),
            n: pool.len(),
            rounds: round_fastest.len(),
            round_spread: (quantile(&round_fastest, 0.75) - quantile(&round_fastest, 0.25))
                / round_median,
        }
    }

    /// Rounds that repeat one input: the gated value is the fastest sample
    /// of all rounds.
    ///
    /// # Panics
    ///
    /// Panics if every round is empty.
    pub fn pooled(rounds: &[Vec<f64>]) -> Summary {
        Summary::build(rounds, false)
    }

    /// Rounds that each run a different input (a different workload seed):
    /// the fastest sample filters interference within a round, the median
    /// over rounds averages the inputs.
    ///
    /// # Panics
    ///
    /// Panics if every round is empty.
    pub fn across_inputs(rounds: &[Vec<f64>]) -> Summary {
        Summary::build(rounds, true)
    }

    /// Relative uncertainty of the gated value: the round spread shrunk by
    /// the number of rounds it was taken over. Two runs cannot resolve a
    /// change smaller than this.
    pub fn uncertainty(&self) -> f64 {
        self.round_spread / (self.rounds.max(1) as f64).sqrt()
    }
}

/// Median of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The fastest (smallest) of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Fewest batches [`ns_per_op`] times, so that one of them has a fair chance
/// of a quiet moment even when the budget is tiny (smoke runs).
const MIN_BATCHES: usize = 5;

/// Times an isolated probe: calls `batch` (which performs some operations
/// and returns how many) until `budget_s` seconds are spent and at least
/// [`MIN_BATCHES`] batches ran, and returns the nanoseconds per operation of
/// the fastest batch.
pub fn ns_per_op(budget_s: f64, mut batch: impl FnMut() -> u64) -> f64 {
    let start = std::time::Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < budget_s {
        let t = std::time::Instant::now();
        let ops = batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    fastest(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn pooled_fastest_survives_a_run_that_is_mostly_slow() {
        // Two of three rounds entirely inside a 30 % slowdown: the fastest
        // sample stays at the quiet level; fast decile and median do not.
        let quiet: Vec<f64> = (0..100).map(|i| 1.0 + 0.0001 * i as f64).collect();
        let slow: Vec<f64> = quiet.iter().map(|x| x * 1.3).collect();
        let s = Summary::pooled(&[slow.clone(), quiet, slow]);
        assert_eq!((s.n, s.rounds), (300, 3));
        assert_eq!(s.value, 1.0);
        assert!(
            s.p10 > 1.0 && s.median > 1.29,
            "p10 {} median {}",
            s.p10,
            s.median
        );
        assert!(s.round_spread > 0.1, "round spread {}", s.round_spread);
        assert!((s.uncertainty() - s.round_spread / 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn across_inputs_takes_the_median_round_not_the_fastest_input() {
        // Three inputs with intrinsic slice times 1, 2 and 3; most samples
        // of each round are hit by interference.
        let round = |base: f64| vec![base * 1.5, base * 1.4, base, base * 1.5, base * 1.5];
        let s = Summary::across_inputs(&[round(1.0), round(3.0), round(2.0)]);
        assert_eq!(s.value, 2.0);
        assert_eq!(s.rounds, 3);
        assert_eq!(Summary::pooled(&[round(1.0), round(3.0)]).value, 1.0);
    }

    #[test]
    fn ns_per_op_divides_by_the_operations_of_each_batch() {
        let mut calls = 0;
        let ns = ns_per_op(0.0, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
            1_000
        });
        assert_eq!(calls, MIN_BATCHES);
        assert!((2_000.0..200_000.0).contains(&ns), "{ns} ns per op");
    }

    #[test]
    fn pooled_single_round_has_no_round_spread() {
        let s = Summary::pooled(&[vec![3.0, 1.0, 2.0], vec![]]);
        assert_eq!((s.n, s.rounds), (3, 1));
        assert_eq!((s.value, s.median), (1.0, 2.0));
        assert_eq!(s.round_spread, 0.0);
    }
}
