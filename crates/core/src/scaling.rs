//! EB scaling factors (§IV).
//!
//! `EB-FI` correlates with SD-based fairness only when each application's
//! EB is normalized by an estimate of its *alone* EB — otherwise the alone
//! ratio `EB_AR` biases the balance toward one application (the BLK_TRD
//! outlier discussed in §IV). Three sources are supported, mirroring the
//! paper:
//!
//! * **group averages** — supplied by the user from Table IV's G1–G4
//!   grouping (each application uses the average alone-EB of its group);
//! * **runtime sampling** — the co-runners are throttled to TLP = 1 so they
//!   induce minimal interference while the application's EB is sampled;
//! * **exact** — the application's measured alone `EB@bestTLP` (used for
//!   the dashed exact-scaling curve of Fig. 7(b)).

use crate::sweep::ComboSweep;
use gpu_types::{FxHashMap, TlpCombo, TlpLevel};
use gpu_workloads::EbGroup;

/// Per-application EB divisors. Scaled EB = `EB_i / factor_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingFactors(Vec<f64>);

impl ScalingFactors {
    /// Unit factors (no scaling) for `n_apps` applications.
    pub fn none(n_apps: usize) -> Self {
        ScalingFactors(vec![1.0; n_apps])
    }

    /// Factors from explicit per-application alone-EB estimates.
    ///
    /// # Panics
    ///
    /// Panics if any factor is not positive.
    pub fn from_alone_ebs(ebs: Vec<f64>) -> Self {
        assert!(
            ebs.iter().all(|&e| e > 0.0),
            "scaling factors must be positive"
        );
        ScalingFactors(ebs)
    }

    /// Runtime-sampled factors, read off a sweep table: each application's
    /// EB with every co-runner throttled to TLP = 1 (the "sampled" source
    /// of §IV, used by BF-FI/HS and offline PBS).
    pub fn sampled(sweep: &ComboSweep) -> Self {
        let top = *sweep.levels().last().expect("non-empty ladder");
        let n = sweep.n_apps();
        let ebs = (0..n)
            .map(|i| {
                let combo = TlpCombo::uniform(TlpLevel::MIN, n).with_level(i, top);
                sweep.ebs(&combo)[i].max(1e-6)
            })
            .collect();
        Self::from_alone_ebs(ebs)
    }

    /// Group-average factors: each application uses the average alone-EB of
    /// its Table IV group.
    ///
    /// # Panics
    ///
    /// Panics if a group is missing from `group_avg` or its average is not
    /// positive.
    pub fn from_groups(groups: &[EbGroup], group_avg: &FxHashMap<EbGroup, f64>) -> Self {
        let ebs = groups
            .iter()
            .map(|g| {
                *group_avg
                    .get(g)
                    .unwrap_or_else(|| panic!("no group average supplied for {g}"))
            })
            .collect();
        Self::from_alone_ebs(ebs)
    }

    /// Number of applications covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no applications are covered (never constructible).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw factors.
    pub fn factors(&self) -> &[f64] {
        &self.0
    }

    /// Scales per-application EBs.
    ///
    /// # Panics
    ///
    /// Panics if `ebs` has a different length than the factors.
    pub fn apply(&self, ebs: &[f64]) -> Vec<f64> {
        assert_eq!(ebs.len(), self.0.len(), "application count mismatch");
        ebs.iter().zip(&self.0).map(|(e, f)| e / f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let s = ScalingFactors::none(2);
        assert_eq!(s.apply(&[0.5, 1.5]), vec![0.5, 1.5]);
    }

    #[test]
    fn factors_divide() {
        let s = ScalingFactors::from_alone_ebs(vec![2.0, 0.5]);
        assert_eq!(s.apply(&[1.0, 1.0]), vec![0.5, 2.0]);
    }

    #[test]
    fn scaling_equalizes_proportional_ebs() {
        // If each app attains half its alone EB, scaled EBs are equal —
        // exactly the fairness signal §IV wants.
        let s = ScalingFactors::from_alone_ebs(vec![1.6, 0.4]);
        let scaled = s.apply(&[0.8, 0.2]);
        assert!((scaled[0] - scaled[1]).abs() < 1e-12);
    }

    #[test]
    fn group_lookup() {
        let mut avg = FxHashMap::default();
        avg.insert(EbGroup::G3, 1.0);
        avg.insert(EbGroup::G4, 1.5);
        let s = ScalingFactors::from_groups(&[EbGroup::G4, EbGroup::G3], &avg);
        assert_eq!(s.factors(), &[1.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "no group average")]
    fn missing_group_panics() {
        let avg = FxHashMap::default();
        let _ = ScalingFactors::from_groups(&[EbGroup::G1], &avg);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_factor_panics() {
        let _ = ScalingFactors::from_alone_ebs(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_panic() {
        ScalingFactors::none(2).apply(&[1.0]);
    }
}
