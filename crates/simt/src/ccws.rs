//! CCWS-style cache-conscious warp throttling (Rogers et al., MICRO 2012),
//! re-implemented from its published mechanism as the second prior-art
//! single-application TLP finder the paper names ("these individual best
//! TLP configurations can also be effectively calculated using previously
//! proposed runtime mechanisms (e.g., DynCTA, CCWS)").
//!
//! Mechanism: each warp owns a small **victim tag array** recording the
//! lines it lost from the L1. A miss that hits the warp's own victim tags
//! is *lost intra-warp locality* — evidence that too many warps share the
//! cache. Lost-locality scores accumulate per warp and decay over time;
//! when the core's total score is high the throttle lowers the number of
//! schedulable warps (protecting the cache), and when locality stops being
//! lost it raises it again.
//!
//! The published scheme prioritizes individual high-score warps; this
//! implementation modulates the SWL warp-limit instead (the knob everything
//! else in this workspace speaks), which preserves the behaviour the HPCA
//! paper relies on: CCWS converges near the best-performing TLP of a
//! cache-sensitive application running alone.

use gpu_types::Address;
use std::collections::VecDeque;

/// Tuning of the CCWS throttle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcwsParams {
    /// Victim tags remembered per warp.
    pub victim_entries: usize,
    /// Score added per lost-locality event.
    pub score_per_hit: f64,
    /// Cycles between throttle decisions.
    pub interval: u64,
    /// Total score (per active warp) above which the limit steps down.
    pub high_score: f64,
    /// Total score (per active warp) below which the limit steps up.
    pub low_score: f64,
}

impl Default for CcwsParams {
    fn default() -> Self {
        CcwsParams {
            victim_entries: 32,
            score_per_hit: 1.0,
            interval: 2_000,
            high_score: 0.25,
            low_score: 0.05,
        }
    }
}

/// Per-core CCWS state: victim tags, lost-locality scores and the warp
/// limit they currently justify.
#[derive(Debug)]
pub struct CcwsThrottle {
    params: CcwsParams,
    victim_tags: Vec<VecDeque<u64>>,
    scores: Vec<f64>,
    /// Current per-scheduler warp limit chosen by CCWS.
    limit: usize,
    max_limit: usize,
    next_decision: u64,
}

impl CcwsThrottle {
    /// Creates a throttle for `n_warps` warp slots with `max_limit` warps
    /// per scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `max_limit` is zero.
    pub fn new(n_warps: usize, max_limit: usize, params: CcwsParams) -> Self {
        assert!(max_limit > 0, "max limit must be non-zero");
        CcwsThrottle {
            params,
            victim_tags: vec![VecDeque::new(); n_warps],
            scores: vec![0.0; n_warps],
            limit: max_limit,
            max_limit,
            next_decision: params.interval,
        }
    }

    /// Records that `slot` lost `line` from the L1 (an eviction of a line
    /// it brought in).
    pub fn on_evict(&mut self, slot: usize, line: Address) {
        let tags = &mut self.victim_tags[slot];
        if tags.len() == self.params.victim_entries {
            tags.pop_front();
        }
        tags.push_back(line.line_index());
    }

    /// Records an L1 miss by `slot`; returns true when the miss hit the
    /// warp's victim tags (lost locality).
    pub fn on_miss(&mut self, slot: usize, line: Address) -> bool {
        let idx = line.line_index();
        let tags = &mut self.victim_tags[slot];
        if let Some(pos) = tags.iter().position(|&t| t == idx) {
            tags.remove(pos);
            self.scores[slot] += self.params.score_per_hit;
            true
        } else {
            false
        }
    }

    /// Advances time; at each decision interval, modulates the warp limit
    /// from the per-active-warp lost-locality score and halves the scores
    /// (exponential decay).
    pub fn tick(&mut self, now: u64) {
        if now < self.next_decision {
            return;
        }
        self.next_decision = now + self.params.interval;
        let total: f64 = self.scores.iter().sum();
        let per_warp = total / self.limit.max(1) as f64;
        if per_warp > self.params.high_score && self.limit > 1 {
            self.limit -= 1;
        } else if per_warp < self.params.low_score && self.limit < self.max_limit {
            self.limit += 1;
        }
        for s in &mut self.scores {
            *s *= 0.5;
        }
    }

    /// The cycle of the next throttle decision: [`Self::tick`] is a no-op
    /// before it, so a core that sleeps through the cycles up to it skips
    /// only no-op ticks.
    pub fn next_decision(&self) -> u64 {
        self.next_decision
    }

    /// The warp limit CCWS currently justifies (per scheduler).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Current lost-locality score of `slot` (diagnostics).
    pub fn score(&self, slot: usize) -> f64 {
        self.scores[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> Address {
        Address::new(i * 128)
    }

    fn throttle() -> CcwsThrottle {
        CcwsThrottle::new(16, 8, CcwsParams::default())
    }

    #[test]
    fn miss_on_own_victim_scores() {
        let mut c = throttle();
        c.on_evict(3, line(7));
        assert!(
            c.on_miss(3, line(7)),
            "re-missing an evicted line is lost locality"
        );
        assert!(c.score(3) > 0.0);
    }

    #[test]
    fn miss_on_other_warps_victim_does_not_score() {
        let mut c = throttle();
        c.on_evict(3, line(7));
        assert!(!c.on_miss(4, line(7)), "victim tags are per-warp");
        assert_eq!(c.score(4), 0.0);
    }

    #[test]
    fn cold_misses_do_not_score() {
        let mut c = throttle();
        assert!(!c.on_miss(0, line(9)));
    }

    #[test]
    fn victim_tags_are_bounded() {
        let mut c = CcwsThrottle::new(
            4,
            4,
            CcwsParams {
                victim_entries: 2,
                ..Default::default()
            },
        );
        c.on_evict(0, line(1));
        c.on_evict(0, line(2));
        c.on_evict(0, line(3)); // evicts tag for line 1
        assert!(
            !c.on_miss(0, line(1)),
            "oldest victim tag must be forgotten"
        );
        assert!(c.on_miss(0, line(3)));
    }

    #[test]
    fn high_lost_locality_throttles_down() {
        let mut c = throttle();
        for _ in 0..16 {
            c.on_evict(0, line(1));
            c.on_miss(0, line(1));
        }
        c.tick(2_000);
        assert!(c.limit() < 8, "limit should step down, got {}", c.limit());
    }

    #[test]
    fn quiet_cache_recovers_the_limit() {
        let mut c = throttle();
        for _ in 0..16 {
            c.on_evict(0, line(1));
            c.on_miss(0, line(1));
        }
        c.tick(2_000);
        let throttled = c.limit();
        // Quiet intervals: scores decay exponentially while the limit first
        // keeps falling, bottoms out, then climbs all the way back.
        for k in 1..30 {
            c.tick(2_000 + k * 2_000);
        }
        assert!(c.limit() > throttled);
        assert_eq!(c.limit(), 8);
    }

    #[test]
    fn decisions_only_fire_at_intervals() {
        let mut c = throttle();
        for _ in 0..16 {
            c.on_evict(0, line(1));
            c.on_miss(0, line(1));
        }
        c.tick(100); // before the first interval
        assert_eq!(c.limit(), 8);
        c.tick(2_000);
        assert!(c.limit() < 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_limit_panics() {
        let _ = CcwsThrottle::new(4, 0, CcwsParams::default());
    }
}
