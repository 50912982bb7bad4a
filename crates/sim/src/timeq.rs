//! Hierarchical timing wheel for the event-driven engine.
//!
//! [`TimeQ`] tracks, for a fixed set of components, the next cycle at
//! which each one has scheduled work. The engine asks two questions per
//! iteration — "when is the next event?" ([`TimeQ::next_at`]) and "which
//! components are due now?" ([`TimeQ::advance`]) — and jumps the clock
//! between answers instead of polling every component every cycle.
//!
//! # Layout
//!
//! Four wheel levels of 64 slots each cover horizons of 64, 64², 64³ and
//! 64⁴ cycles ahead of the wheel's base time; anything farther sits in an
//! overflow list that is folded back in when the base crosses a level-3
//! window boundary. A slot holds `(component, time)` entries; per-level
//! `u64` occupancy bitmasks let [`TimeQ::advance`] skip empty runs of
//! slots with a couple of bit operations.
//!
//! # Lazy invalidation
//!
//! `when[c]` is the authoritative wake time of component `c`
//! ([`NEVER`] = unscheduled). Rescheduling does not search the wheel for
//! the old entry: it just overwrites `when[c]` and inserts a new entry,
//! leaving the old one *stale*. An entry `(c, t)` is valid iff
//! `when[c] == t`; stale entries are discarded when their slot is drained
//! or cascaded, and both [`TimeQ::next_at`] and [`TimeQ::advance`] check
//! validity, so a stale entry can never surface as a spurious or late
//! wake. Every *valid* entry is physically present in some slot (or the
//! far list), so `next_at` is exact, never late.
//!
//! # Allocation
//!
//! Slot vectors are drained with `mem::take` and handed back, so they
//! keep their high-water capacity: steady-state operation performs no
//! heap allocation (the benchmark's `machine.allocs_per_kcycle` counts
//! allocations across the whole engine).

/// Sentinel wake time meaning "not scheduled".
pub const NEVER: u64 = u64::MAX;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Entry {
    comp: u32,
    at: u64,
}

#[derive(Debug, Default)]
struct Level {
    /// Bit `s` set ⇔ `slots[s]` is non-empty (possibly only stale entries).
    occupied: u64,
    slots: Vec<Vec<Entry>>,
}

/// A hierarchical timing wheel over components `0..n`.
#[derive(Debug)]
pub struct TimeQ {
    /// The wheel's current time; every stored entry satisfies `at >= base`
    /// (entries at `base` are due).
    base: u64,
    /// Authoritative wake time per component ([`NEVER`] = unscheduled).
    when: Vec<u64>,
    levels: [Level; LEVELS],
    /// Entries more than `64^4` cycles ahead of `base` at insert time.
    far: Vec<Entry>,
    /// Components with `when != NEVER`.
    live: usize,
    /// Entries physically stored in slots + far (valid and stale).
    stored: usize,
}

impl TimeQ {
    /// Creates a wheel for `n` components, all unscheduled, with its base
    /// at cycle 0.
    pub fn new(n: usize) -> Self {
        let mk = |slot_capacity| Level {
            occupied: 0,
            slots: (0..SLOTS)
                .map(|_| Vec::with_capacity(slot_capacity))
                .collect(),
        };
        TimeQ {
            base: 0,
            when: vec![NEVER; n],
            // Every entry reaches level 0 before it fires, and sleepers
            // woken by one event share a slot: its slots start with room
            // for a burst, so they do not grow one reallocation at a time
            // deep into a run.
            levels: [mk(n.min(16)), mk(0), mk(0), mk(0)],
            far: Vec::new(),
            live: 0,
            stored: 0,
        }
    }

    /// Number of scheduled (live) components.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no component is scheduled.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The authoritative wake time of `comp` ([`NEVER`] = unscheduled).
    pub fn when(&self, comp: usize) -> u64 {
        self.when[comp]
    }

    /// Clears every schedule and rebases the wheel at `base` (capacity is
    /// retained). The engine calls this when a knob change invalidates all
    /// cached wake times.
    pub fn reset(&mut self, base: u64) {
        self.base = base;
        for w in &mut self.when {
            *w = NEVER;
        }
        for lv in &mut self.levels {
            if lv.occupied != 0 {
                for s in &mut lv.slots {
                    s.clear();
                }
                lv.occupied = 0;
            }
        }
        self.far.clear();
        self.live = 0;
        self.stored = 0;
    }

    /// Sets `comp`'s wake time to exactly `at`, replacing any previous
    /// schedule ([`NEVER`] unschedules). `at` must be `>= base`.
    pub fn schedule(&mut self, comp: usize, at: u64) {
        let old = self.when[comp];
        if old == at {
            return;
        }
        debug_assert!(
            at == NEVER || at >= self.base,
            "cannot schedule in the past"
        );
        match (old == NEVER, at == NEVER) {
            (true, false) => self.live += 1,
            (false, true) => self.live -= 1,
            _ => {}
        }
        self.when[comp] = at;
        if at != NEVER {
            self.insert(Entry {
                comp: comp as u32,
                at,
            });
        }
        // A replaced entry stays in its slot as stale and is discarded on
        // drain/cascade (validity check: `when[comp] == at`).
    }

    /// Unschedules `comp`.
    pub fn cancel(&mut self, comp: usize) {
        self.schedule(comp, NEVER);
    }

    /// The earliest scheduled wake time, or [`NEVER`] when nothing is
    /// scheduled. Exact: every valid entry is stored, and stale entries
    /// are skipped by the validity check.
    pub fn next_at(&self) -> u64 {
        if self.live == 0 {
            return NEVER;
        }
        let mut next = NEVER;
        for lv in &self.levels {
            let mut occ = lv.occupied;
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                for e in &lv.slots[s] {
                    if self.when[e.comp as usize] == e.at {
                        next = next.min(e.at);
                    }
                }
            }
        }
        for e in &self.far {
            if self.when[e.comp as usize] == e.at {
                next = next.min(e.at);
            }
        }
        debug_assert_ne!(next, NEVER, "live > 0 but no valid entry stored");
        next
    }

    /// Advances the wheel's base to `now`, invoking `fire` once for every
    /// component whose valid wake time lies in `[base, now]` (in wheel
    /// order, not strictly time order within a single call) and marking it
    /// unscheduled. `now` must be `>= base`.
    pub fn advance(&mut self, now: u64, mut fire: impl FnMut(u32)) {
        debug_assert!(now >= self.base, "advance must move forward");
        if self.stored == 0 {
            self.base = now;
            return;
        }
        loop {
            let s = (self.base & 63) as usize;
            if self.levels[0].occupied >> s & 1 == 1 {
                self.drain_l0_slot(s, &mut fire);
            }
            if self.base == now {
                return;
            }
            // Jump to the next occupied level-0 slot in this 64-window, or
            // cross into the next window (cascading higher levels down).
            let later = if s == 63 {
                0
            } else {
                self.levels[0].occupied & (u64::MAX << (s + 1))
            };
            let window_last = self.base | 63;
            if later != 0 {
                let t = self.base + (later.trailing_zeros() as u64 - s as u64);
                if t <= now {
                    self.base = t;
                    continue;
                }
            }
            if window_last >= now {
                // No occupied slot in (base, now]; nothing more can fire.
                self.base = now;
                return;
            }
            self.base = window_last + 1;
            self.on_window_boundary();
            if self.stored == 0 {
                self.base = now;
                return;
            }
        }
    }

    /// Drains level-0 slot `s`: valid entries at the base fire; wrapped
    /// entries (a full ring ahead) are re-inserted; stale entries vanish.
    fn drain_l0_slot(&mut self, s: usize, fire: &mut impl FnMut(u32)) {
        let mut v = std::mem::take(&mut self.levels[0].slots[s]);
        self.levels[0].occupied &= !(1 << s);
        for e in v.drain(..) {
            self.stored -= 1;
            if self.when[e.comp as usize] != e.at {
                continue; // stale
            }
            if e.at <= self.base {
                self.when[e.comp as usize] = NEVER;
                self.live -= 1;
                fire(e.comp);
            } else {
                // Same slot index, next revolution: delta >= 64, so this
                // re-inserts into level 1+, never back into slot `s`.
                self.insert(e);
            }
        }
        self.levels[0].slots[s] = v;
    }

    /// Called when `base` just crossed onto a multiple of 64: pulls the
    /// matching higher-level slots down (highest level first, so entries
    /// cascade through at most one re-insert each).
    fn on_window_boundary(&mut self) {
        let b = self.base;
        debug_assert_eq!(b & 63, 0);
        if b & ((1 << (2 * SLOT_BITS)) - 1) == 0 {
            if b & ((1 << (3 * SLOT_BITS)) - 1) == 0 {
                if b & ((1 << (4 * SLOT_BITS)) - 1) == 0 {
                    let far = std::mem::take(&mut self.far);
                    self.stored -= far.len();
                    for e in far {
                        if self.when[e.comp as usize] == e.at {
                            self.insert(e);
                        }
                    }
                }
                self.cascade(3, ((b >> (3 * SLOT_BITS)) & 63) as usize);
            }
            self.cascade(2, ((b >> (2 * SLOT_BITS)) & 63) as usize);
        }
        self.cascade(1, ((b >> SLOT_BITS) & 63) as usize);
    }

    /// Re-inserts the valid entries of `slots[slot]` at `level` relative
    /// to the new base. An entry never lands back in the slot being
    /// cascaded (equal slot index at the same level implies a smaller
    /// delta, hence a lower level), so take-and-put-back is safe.
    fn cascade(&mut self, level: usize, slot: usize) {
        if self.levels[level].occupied >> slot & 1 == 0 {
            return;
        }
        let mut v = std::mem::take(&mut self.levels[level].slots[slot]);
        self.levels[level].occupied &= !(1 << slot);
        for e in v.drain(..) {
            self.stored -= 1;
            if self.when[e.comp as usize] == e.at {
                self.insert(e);
            }
        }
        self.levels[level].slots[slot] = v;
    }

    /// Stores an entry in the level selected by its distance from `base`.
    fn insert(&mut self, e: Entry) {
        debug_assert!(e.at >= self.base);
        let delta = e.at - self.base;
        let level = match delta {
            d if d < 1 << SLOT_BITS => 0,
            d if d < 1 << (2 * SLOT_BITS) => 1,
            d if d < 1 << (3 * SLOT_BITS) => 2,
            d if d < 1 << (4 * SLOT_BITS) => 3,
            _ => {
                self.far.push(e);
                self.stored += 1;
                return;
            }
        };
        let slot = ((e.at >> (level as u32 * SLOT_BITS)) & 63) as usize;
        self.levels[level].slots[slot].push(e);
        self.levels[level].occupied |= 1 << slot;
        self.stored += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference model: the authoritative `when` array alone.
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
    fn empty_wheel_reports_never() {
        let q = TimeQ::new(4);
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
        let mut q = TimeQ::new(1);
        q.schedule(0, 10);
        q.schedule(0, 500); // later: old slot entry goes stale
        assert_eq!(q.next_at(), 500);
        let mut fired = Vec::new();
        q.advance(499, |c| fired.push(c));
        assert!(fired.is_empty(), "stale entry at 10 must not fire");
        q.advance(500, |c| fired.push(c));
        assert_eq!(fired, [0]);
    }

    #[test]
    fn cancel_unschedules() {
        let mut q = TimeQ::new(2);
        q.schedule(0, 64);
        q.schedule(1, 70);
        q.cancel(0);
        assert_eq!(q.len(), 1);
        let mut fired = Vec::new();
        q.advance(1000, |c| fired.push(c));
        assert_eq!(fired, [1]);
    }

    #[test]
    fn level0_ring_wrap_within_one_window() {
        // base = 62, wake at 65: slot index 1 < base's slot 62 — the entry
        // wraps within level 0 and must still fire exactly at 65.
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
    fn far_horizon_entries_survive_cascades() {
        let mut q = TimeQ::new(3);
        let far = (1 << 24) + 12_345; // beyond all four levels
        q.schedule(0, far);
        q.schedule(1, 1 << 13); // level 2
        q.schedule(2, 1 << 19); // level 3
        assert_eq!(q.next_at(), 1 << 13);
        let mut fired = Vec::new();
        q.advance(far, |c| fired.push(c));
        assert_eq!(fired.len(), 3);
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
        // against the authoritative-array model at every step.
        let mut rng = Rng(0x0007_157E_0E57);
        for _trial in 0..20 {
            let n = 1 + rng.below(12) as usize;
            let mut q = TimeQ::new(n);
            let mut m = Naive::new(n);
            let mut now = 0u64;
            for _op in 0..400 {
                match rng.below(10) {
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
                    _ => {
                        let d = match rng.below(3) {
                            0 => rng.below(8),
                            1 => rng.below(1 << 10),
                            _ => rng.below(1 << 20),
                        };
                        now += d;
                        let mut fired = Vec::new();
                        q.advance(now, |c| fired.push(c));
                        fired.sort_unstable();
                        assert_eq!(fired, m.advance(now), "fire set diverged");
                    }
                }
                assert_eq!(q.next_at(), m.next_at(), "next_at diverged");
                assert_eq!(
                    q.len(),
                    m.when.iter().filter(|&&w| w != NEVER).count(),
                    "live count diverged"
                );
            }
        }
    }
}
