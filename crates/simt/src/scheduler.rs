//! Greedy-then-oldest (GTO) warp scheduling with static warp limiting.
//!
//! GTO keeps issuing from the same warp while it stays ready (exploiting its
//! row-buffer and cache locality), otherwise falls back to the oldest ready
//! warp. SWL restricts the schedulable slots to the first `tlp` slots the
//! scheduler owns — the mechanism behind every TLP configuration in Table II
//! of the paper. Warps outside the limit keep their architectural state and
//! may still receive outstanding responses; they simply cannot issue.

use gpu_types::WarpSchedPolicy;
use std::ops::Range;

/// A scheduler's priority order for one cycle, in the form the core walks
/// over its issuable-warp bitsets: one slot checked directly, then at most
/// two ascending ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOrder {
    /// Offered first; the walks pass over it.
    pub first: Option<usize>,
    /// Ascending slot ranges offered after `first`, in turn. The second is
    /// empty unless the order wraps.
    pub walks: [Range<usize>; 2],
}

/// One warp scheduler's selection state.
#[derive(Debug, Clone)]
pub struct GtoScheduler {
    /// Slots this scheduler owns, oldest first: a contiguous range, so the
    /// SWL window is a sub-range of the core's per-warp bitsets.
    slots: Range<usize>,
    /// The warp issued from most recently (GTO's greedy candidate / LRR's
    /// rotation anchor).
    greedy: Option<usize>,
    /// Active TLP limit: only the first `limit` slots may issue.
    limit: usize,
    /// GTO (default) or loose round-robin.
    policy: WarpSchedPolicy,
}

impl GtoScheduler {
    /// Creates a GTO scheduler owning `slots` (oldest first), initially
    /// allowed to issue from all of them.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn new(slots: Range<usize>) -> Self {
        Self::with_policy(slots, WarpSchedPolicy::Gto)
    }

    /// Creates a scheduler with an explicit policy.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn with_policy(slots: Range<usize>, policy: WarpSchedPolicy) -> Self {
        assert!(
            !slots.is_empty(),
            "a scheduler must own at least one warp slot"
        );
        let limit = slots.len();
        GtoScheduler {
            slots,
            greedy: None,
            limit,
            policy,
        }
    }

    /// This cycle's priority order. GTO offers the greedy warp, then the
    /// active slots oldest first; LRR starts after the last issued warp and
    /// wraps. It is the order [`Self::candidate`] enumerates slot by slot.
    #[inline]
    pub fn scan_order(&self) -> ScanOrder {
        let active = self.active_slots();
        match (self.policy, self.greedy) {
            (WarpSchedPolicy::Lrr, Some(g)) => ScanOrder {
                first: None,
                walks: [g + 1..active.end, active.start..g + 1],
            },
            (_, greedy) => ScanOrder {
                first: greedy,
                walks: [active, 0..0],
            },
        }
    }

    /// The `k`-th slot of this cycle's priority order, `None` for a
    /// position that offers nothing — the oracle's slot-by-slot form of
    /// [`Self::scan_order`].
    pub fn candidate(&self, k: usize) -> Option<usize> {
        let active = self.active_slots();
        match self.policy {
            WarpSchedPolicy::Gto => {
                if k == 0 {
                    self.greedy
                } else {
                    let s = active.start + k - 1;
                    // The greedy warp was already offered at k = 0.
                    (s < active.end && Some(s) != self.greedy).then_some(s)
                }
            }
            WarpSchedPolicy::Lrr => {
                if k >= active.len() {
                    return None;
                }
                let start = self.greedy.map_or(0, |g| g + 1 - active.start);
                Some(active.start + (start + k) % active.len())
            }
        }
    }

    /// Number of candidate positions to try per cycle.
    pub fn n_candidates(&self) -> usize {
        match self.policy {
            WarpSchedPolicy::Gto => self.limit + 1,
            WarpSchedPolicy::Lrr => self.limit,
        }
    }

    /// Sets the SWL limit (clamped to the owned slot count; at least 1).
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit.clamp(1, self.slots.len());
        // Drop the greedy pointer if it fell outside the active window.
        if let Some(g) = self.greedy {
            if !self.active_slots().contains(&g) {
                self.greedy = None;
            }
        }
    }

    /// The current SWL limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Slots currently allowed to issue.
    pub fn active_slots(&self) -> Range<usize> {
        self.slots.start..self.slots.start + self.limit
    }

    /// Records that `slot` issued this cycle, making it the greedy warp.
    pub fn record_issue(&mut self, slot: usize) {
        debug_assert!(
            self.active_slots().contains(&slot),
            "issued slot outside SWL window"
        );
        self.greedy = Some(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slots of a scan order, in the order the core offers them.
    fn slots(order: ScanOrder) -> impl Iterator<Item = usize> {
        let rest = order.walks.into_iter().flatten();
        let first = order.first;
        first
            .into_iter()
            .chain(rest.filter(move |&s| Some(s) != first))
    }

    /// What the core does with a scheduler each cycle: issue from the first
    /// slot of the scan order for which `ready` holds.
    fn issue(s: &mut GtoScheduler, ready: impl Fn(usize) -> bool) -> Option<usize> {
        let slot = slots(s.scan_order()).find(|&w| ready(w))?;
        s.record_issue(slot);
        Some(slot)
    }

    #[test]
    fn lrr_rotates_past_the_last_issued_warp() {
        let mut s = GtoScheduler::with_policy(0..4, WarpSchedPolicy::Lrr);
        s.record_issue(1);
        // Next cycle, scanning starts at slot 2.
        assert_eq!(s.candidate(0), Some(2));
        assert_eq!(s.candidate(1), Some(3));
        assert_eq!(s.candidate(2), Some(0));
        assert_eq!(s.candidate(3), Some(1));
        assert_eq!(s.candidate(4), None);
    }

    #[test]
    fn gto_candidates_offer_greedy_first() {
        let mut s = GtoScheduler::new(0..4);
        s.record_issue(2);
        assert_eq!(s.candidate(0), Some(2));
        assert_eq!(s.candidate(1), Some(0));
        assert_eq!(s.candidate(3), None, "greedy slot not offered twice");
        assert_eq!(s.candidate(4), Some(3));
    }

    #[test]
    fn scan_order_enumerates_the_candidates() {
        // Every policy, window and greedy slot, on a range that does not
        // start at zero: the order the core walks is the oracle's.
        for policy in [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr] {
            for limit in 1..=5 {
                for greedy in std::iter::once(None).chain((8..8 + limit).map(Some)) {
                    let mut s = GtoScheduler::with_policy(8..13, policy);
                    s.set_limit(limit);
                    if let Some(g) = greedy {
                        s.record_issue(g);
                    }
                    let walked: Vec<usize> = slots(s.scan_order()).collect();
                    let offered: Vec<usize> = (0..s.n_candidates())
                        .filter_map(|k| s.candidate(k))
                        .collect();
                    assert_eq!(
                        walked, offered,
                        "{policy:?} limit {limit} greedy {greedy:?}"
                    );
                    assert_eq!(walked.len(), limit, "each active slot offered once");
                }
            }
        }
    }

    #[test]
    fn greedy_sticks_to_ready_warp() {
        let mut s = GtoScheduler::new(0..4);
        assert_eq!(issue(&mut s, |w| w == 2), Some(2));
        // Warp 2 stays ready: greedy keeps it even though 0 is also ready.
        assert_eq!(issue(&mut s, |w| w == 2 || w == 0), Some(2));
    }

    #[test]
    fn falls_back_to_oldest_ready() {
        let mut s = GtoScheduler::new(0..4);
        assert_eq!(issue(&mut s, |w| w == 3), Some(3));
        // Greedy warp 3 stalls: oldest ready (1) wins over younger (2).
        assert_eq!(issue(&mut s, |w| w == 1 || w == 2), Some(1));
        // And 1 becomes the new greedy warp.
        assert_eq!(issue(&mut s, |w| w == 1 || w == 2), Some(1));
    }

    #[test]
    fn swl_masks_younger_slots() {
        let mut s = GtoScheduler::new(0..4);
        s.set_limit(2);
        assert_eq!(s.active_slots(), 0..2);
        assert_eq!(
            issue(&mut s, |w| w >= 2),
            None,
            "limited-out warps must not issue"
        );
        assert_eq!(issue(&mut s, |w| w == 1), Some(1));
    }

    #[test]
    fn lowering_limit_evicts_greedy_pointer() {
        let mut s = GtoScheduler::new(0..4);
        assert_eq!(issue(&mut s, |w| w == 3), Some(3));
        s.set_limit(2);
        // Greedy warp 3 is outside the window; even if "ready", it may not
        // be picked.
        assert_eq!(issue(&mut s, |w| w == 3 || w == 0), Some(0));
    }

    #[test]
    fn limit_clamps() {
        let mut s = GtoScheduler::new(0..2);
        s.set_limit(0);
        assert_eq!(s.limit(), 1);
        s.set_limit(99);
        assert_eq!(s.limit(), 2);
    }

    #[test]
    fn no_ready_warp_returns_none() {
        let mut s = GtoScheduler::new(0..2);
        assert_eq!(issue(&mut s, |_| false), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_scheduler_panics() {
        let _ = GtoScheduler::new(0..0);
    }
}
