//! Per-component wake times for the event-driven engine.
//!
//! [`TimeQ`] tracks, for a fixed set of components, the next cycle at
//! which each one has scheduled work. The engine asks two questions per
//! iteration — "when is the next event?" ([`TimeQ::next_at`]) and "which
//! components are due now?" ([`TimeQ::advance`]) — and jumps the clock
//! between answers instead of polling every component every cycle.
//!
//! # Layout
//!
//! A flat table: `when[c]` is component `c`'s wake time ([`NEVER`] =
//! unscheduled). The modelled machines have 6 to 96 components, so a
//! pass over the table is cheap, but the engine asks its questions on
//! every cycle it opens, so a pass is made only when an answer may have
//! changed. Beside the table sits `next`, a lower bound on its minimum
//! that is exact unless marked stale:
//!
//! * [`TimeQ::schedule`] at or below `next` makes that time the exact
//!   minimum; it marks `next` stale only when it moved or cancelled the
//!   component holding the minimum.
//! * [`TimeQ::next_at`] rescans the table only when `next` is stale.
//! * [`TimeQ::advance`] is one compare while the clock is below `next`,
//!   otherwise one pass that fires every due component and leaves `next`
//!   exact.
//!
//! The table is allocated once, in [`TimeQ::new`].

/// Sentinel wake time meaning "not scheduled".
pub const NEVER: u64 = u64::MAX;

/// The wake times of components `0..n`.
#[derive(Debug)]
pub struct TimeQ {
    /// Wake time per component ([`NEVER`] = unscheduled).
    when: Vec<u64>,
    /// A lower bound on the minimum of `when`, exact unless `stale`.
    next: u64,
    stale: bool,
}

impl TimeQ {
    /// Creates a table for `n` components, all unscheduled.
    pub fn new(n: usize) -> Self {
        TimeQ {
            when: vec![NEVER; n],
            next: NEVER,
            stale: false,
        }
    }

    /// Number of scheduled components.
    pub fn len(&self) -> usize {
        self.when.iter().filter(|&&w| w != NEVER).count()
    }

    /// True when no component is scheduled.
    pub fn is_empty(&self) -> bool {
        self.when.iter().all(|&w| w == NEVER)
    }

    /// Clears every schedule. The engine calls this at cycle `_now` when
    /// a knob change invalidates all cached wake times; the table keeps
    /// no clock of its own.
    pub fn reset(&mut self, _now: u64) {
        self.when.fill(NEVER);
        self.next = NEVER;
        self.stale = false;
    }

    /// Sets `comp`'s wake time to exactly `at`, replacing any previous
    /// schedule ([`NEVER`] unschedules).
    pub fn schedule(&mut self, comp: usize, at: u64) {
        let old = std::mem::replace(&mut self.when[comp], at);
        if at <= self.next {
            // Every other wake time is at or above the old bound.
            self.next = at;
            self.stale = false;
        } else if old == self.next {
            self.stale = true;
        }
    }

    /// Unschedules `comp`.
    pub fn cancel(&mut self, comp: usize) {
        self.schedule(comp, NEVER);
    }

    /// The earliest scheduled wake time, or [`NEVER`] when nothing is
    /// scheduled.
    pub fn next_at(&mut self) -> u64 {
        self.debug_check_bound();
        if self.stale {
            self.next = self.scan();
            self.stale = false;
        }
        self.next
    }

    /// Invokes `fire` once for every component whose wake time is at or
    /// before `now` (in component order) and marks it unscheduled. `now`
    /// must be below [`NEVER`].
    pub fn advance(&mut self, now: u64, mut fire: impl FnMut(u32)) {
        self.debug_check_bound();
        debug_assert!(now != NEVER, "advance to the unscheduled sentinel");
        if now < self.next {
            return;
        }
        let mut next = NEVER;
        for (comp, w) in self.when.iter_mut().enumerate() {
            if *w <= now {
                *w = NEVER;
                fire(comp as u32);
            } else {
                next = next.min(*w);
            }
        }
        self.next = next;
        self.stale = false;
    }

    /// The exact minimum of the table.
    fn scan(&self) -> u64 {
        self.when.iter().copied().min().unwrap_or(NEVER)
    }

    /// Debug builds hold `next` to its invariant: never above the
    /// minimum, which would make a due component sleep through its wake.
    fn debug_check_bound(&self) {
        debug_assert!(
            self.next <= self.scan(),
            "next {} above the table's minimum {}",
            self.next,
            self.scan()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference model: the wake-time array alone, scanned on
    /// every question.
    struct Naive {
        when: Vec<u64>,
    }

    impl Naive {
        fn new(n: usize) -> Self {
            Naive {
                when: vec![NEVER; n],
            }
        }
        fn schedule(&mut self, comp: usize, at: u64) {
            self.when[comp] = at;
        }
        fn next_at(&self) -> u64 {
            self.when.iter().copied().min().unwrap_or(NEVER)
        }
        /// The component holding the earliest wake, if any is scheduled.
        fn earliest(&self) -> Option<usize> {
            let next = self.next_at();
            (next != NEVER).then(|| self.when.iter().position(|&w| w == next).unwrap())
        }
        fn advance(&mut self, now: u64) -> Vec<u32> {
            let mut fired: Vec<u32> = (0..self.when.len())
                .filter(|&c| self.when[c] <= now)
                .map(|c| c as u32)
                .collect();
            for &c in &fired {
                self.when[c as usize] = NEVER;
            }
            fired.sort_unstable();
            fired
        }
    }

    /// Splitmix64 — deterministic, dependency-free.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn empty_table_reports_never() {
        let mut q = TimeQ::new(4);
        assert!(q.is_empty());
        assert_eq!(q.next_at(), NEVER);
    }

    #[test]
    fn single_entry_fires_once_at_its_time() {
        let mut q = TimeQ::new(2);
        q.schedule(1, 17);
        assert_eq!(q.next_at(), 17);
        let mut fired = Vec::new();
        q.advance(16, |c| fired.push(c));
        assert!(fired.is_empty());
        q.advance(17, |c| fired.push(c));
        assert_eq!(fired, [1]);
        assert!(q.is_empty());
        assert_eq!(q.next_at(), NEVER);
    }

    #[test]
    fn fires_entry_scheduled_at_base() {
        let mut q = TimeQ::new(1);
        q.advance(100, |_| panic!("nothing scheduled"));
        q.schedule(0, 100);
        let mut fired = Vec::new();
        q.advance(100, |c| fired.push(c));
        assert_eq!(fired, [0]);
    }

    #[test]
    fn reschedule_moves_the_wake_and_stales_the_old_entry() {
        let mut q = TimeQ::new(2);
        q.schedule(0, 10);
        q.schedule(1, 700);
        q.schedule(0, 500); // the earliest moves later: the bound goes stale
        assert_eq!(q.next_at(), 500);
        let mut fired = Vec::new();
        q.advance(499, |c| fired.push(c));
        assert!(fired.is_empty(), "the old wake at 10 must not fire");
        q.advance(500, |c| fired.push(c));
        assert_eq!(fired, [0]);
        assert_eq!(q.next_at(), 700);
    }

    #[test]
    fn cancel_unschedules() {
        let mut q = TimeQ::new(2);
        q.schedule(0, 64);
        q.schedule(1, 70);
        q.cancel(0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_at(), 70);
        let mut fired = Vec::new();
        q.advance(1000, |c| fired.push(c));
        assert_eq!(fired, [1]);
    }

    #[test]
    fn wake_across_a_64_cycle_boundary_fires_on_time() {
        // From cycle 62, a wake at 65 lies across a multiple of 64; it must
        // fire exactly at 65, not at the boundary.
        let mut q = TimeQ::new(1);
        q.advance(62, |_| unreachable!());
        q.schedule(0, 65);
        assert_eq!(q.next_at(), 65);
        let mut fired = Vec::new();
        q.advance(64, |c| fired.push(c));
        assert!(fired.is_empty());
        q.advance(65, |c| fired.push(c));
        assert_eq!(fired, [0]);
    }

    #[test]
    fn far_horizon_wakes_fire() {
        let mut q = TimeQ::new(3);
        let far = (1 << 24) + 12_345;
        q.schedule(0, far);
        q.schedule(1, 1 << 13);
        q.schedule(2, 1 << 19);
        assert_eq!(q.next_at(), 1 << 13);
        let mut fired = Vec::new();
        q.advance(far, |c| fired.push(c));
        assert_eq!(fired, [0, 1, 2]);
        assert_eq!(q.next_at(), NEVER);
    }

    #[test]
    fn reset_clears_everything_and_rebases() {
        let mut q = TimeQ::new(2);
        q.schedule(0, 5);
        q.schedule(1, 9_999_999);
        q.reset(1000);
        assert!(q.is_empty());
        assert_eq!(q.next_at(), NEVER);
        q.schedule(0, 1001);
        let mut fired = Vec::new();
        q.advance(2000, |c| fired.push(c));
        assert_eq!(fired, [0]);
    }

    #[test]
    fn differential_vs_naive_model() {
        // Random schedules, reschedules, cancels and jumps, checked
        // against the plain-array model: at small sizes, then at the
        // machines' component counts (`small`, `paper`, `volta` + 2).
        // `next_at` is asked after only some operations, so `advance` also
        // runs against a stale bound.
        let mut rng = Rng(0x0007_157E_0E57);
        let mut sizes: Vec<usize> = (0..20).map(|_| 1 + rng.below(12) as usize).collect();
        sizes.extend([6, 22, 98]);
        for n in sizes {
            let mut q = TimeQ::new(n);
            let mut m = Naive::new(n);
            let mut now = 0u64;
            let advance = |q: &mut TimeQ, m: &mut Naive, to: u64| {
                let mut fired = Vec::new();
                q.advance(to, |c| fired.push(c));
                fired.sort_unstable();
                assert_eq!(fired, m.advance(to), "fire set diverged (n {n})");
            };
            for _op in 0..400 {
                match rng.below(12) {
                    0..=5 => {
                        let c = rng.below(n as u64) as usize;
                        // Mix of near, mid, far and very far horizons.
                        let d = match rng.below(4) {
                            0 => rng.below(64),
                            1 => rng.below(1 << 12),
                            2 => rng.below(1 << 18),
                            _ => rng.below(1 << 25),
                        };
                        q.schedule(c, now + d);
                        m.schedule(c, now + d);
                    }
                    6 => {
                        let c = rng.below(n as u64) as usize;
                        q.cancel(c);
                        m.schedule(c, NEVER);
                    }
                    7 => {
                        // The earliest component moves later.
                        if let Some(c) = m.earliest() {
                            let at = m.when[c] + 1 + rng.below(1 << 10);
                            q.schedule(c, at);
                            m.schedule(c, at);
                        }
                    }
                    8 => {
                        if let Some(c) = m.earliest() {
                            q.cancel(c);
                            m.schedule(c, NEVER);
                        }
                    }
                    _ => {
                        now = match rng.below(4) {
                            0 => now + rng.below(8),
                            1 => now + rng.below(1 << 10),
                            2 => now + rng.below(1 << 20),
                            // Exactly to the next wake, as the engine jumps.
                            _ => m.next_at().min(now + (1 << 26)),
                        };
                        advance(&mut q, &mut m, now);
                    }
                }
                if rng.below(2) == 0 {
                    assert_eq!(q.next_at(), m.next_at(), "next_at diverged (n {n})");
                }
                assert_eq!(
                    q.len(),
                    m.when.iter().filter(|&&w| w != NEVER).count(),
                    "live count diverged (n {n})"
                );
            }
            // Every trial ends moving the earliest component later, then
            // cancelling the earliest, each followed by both questions.
            for cancel in [false, true] {
                for c in 0..n {
                    let at = now + 1 + rng.below(1 << 10);
                    q.schedule(c, at);
                    m.schedule(c, at);
                }
                let c = m.earliest().expect("every component is scheduled");
                if cancel {
                    q.cancel(c);
                    m.schedule(c, NEVER);
                } else {
                    let at = m.when[c] + 1 + rng.below(1 << 10);
                    q.schedule(c, at);
                    m.schedule(c, at);
                }
                assert_eq!(q.next_at(), m.next_at(), "next_at diverged (n {n})");
                now = m.next_at().min(now + (1 << 11));
                advance(&mut q, &mut m, now);
            }
        }
    }
}
