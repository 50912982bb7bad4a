//! Miss-status holding registers (MSHRs).
//!
//! An MSHR table tracks the set of cache lines with an outstanding miss and
//! the requests waiting on each ("targets"). A second miss to an in-flight
//! line *merges* into the existing entry instead of issuing a duplicate
//! request to the next level — the inter-warp merging of Table I.

use crate::req::ReqId;
use gpu_types::Address;

/// Outcome of attempting to register a miss with the MSHR table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must forward the request to the
    /// next memory level.
    Allocated,
    /// The line already had an outstanding miss; this request was attached
    /// to it and no new downstream request is needed.
    Merged,
    /// No entry or merge slot available; the access must be retried later
    /// (a structural-hazard stall).
    Full,
}

/// Ends a chain: a bucket's entries, the free entries, an entry's extra
/// targets or the free targets.
const NIL: u32 = u32::MAX;

/// One in-flight line and its first waiter.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: Address,
    first: ReqId,
    /// The next entry of the same bucket; while free, the entry freed
    /// before this one.
    next: u32,
    /// Waiters held, the first included.
    n_targets: u32,
    /// The oldest and the youngest waiter after the first, as pool
    /// indices ([`NIL`] when there is none).
    more: u32,
    last: u32,
}

/// A waiter merged after an entry's first: the request and the next
/// younger waiter of its entry (the next free target while free).
#[derive(Debug, Clone, Copy)]
struct Target {
    req: ReqId,
    next: u32,
}

/// MSHR table with bounded entries and bounded merge fan-in per entry.
///
/// Entries live in one slab, each holding its line and its first waiter,
/// chained from `next_power_of_two(max_entries)` bucket heads by a
/// multiplicative hash of the line index. A miss merged into an entry
/// takes a slot of one target pool shared by the table and is linked at
/// the tail of its entry's list, so a fill releases waiters in arrival
/// order. An allocation takes the most recently freed entry, else the
/// next fresh one, and a merge the most recently freed target, else a
/// fresh one: the slab grows to the high-water mark of live entries and
/// the pool to that of live merged targets, not to `max_entries` and
/// `max_entries × max_merge`, and once there a register/fill cycle
/// touches no allocator.
#[derive(Debug)]
pub struct MshrTable {
    /// Per bucket, its most recently allocated entry.
    heads: Vec<u32>,
    /// `64 - log2(heads.len())`: the hash's top bits pick the bucket.
    bucket_shift: u32,
    entries: Vec<Entry>,
    /// The most recently freed entry ([`NIL`] when every made entry is
    /// occupied).
    free: u32,
    /// Occupied entries.
    len: usize,
    pool: Vec<Target>,
    /// The most recently freed target.
    free_targets: u32,
    max_entries: usize,
    max_merge: usize,
}

impl MshrTable {
    /// Creates a table with `max_entries` distinct in-flight lines and at
    /// most `max_merge` requests per line.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero or `max_entries × max_merge` does not
    /// fit 32 bits.
    pub fn new(max_entries: usize, max_merge: usize) -> Self {
        assert!(
            max_entries > 0 && max_merge > 0,
            "MSHR bounds must be non-zero"
        );
        assert!(
            max_entries.saturating_mul(max_merge) < NIL as usize,
            "MSHR entries and targets must be indexable in 32 bits"
        );
        let n_buckets = max_entries.next_power_of_two().max(2);
        MshrTable {
            heads: vec![NIL; n_buckets],
            bucket_shift: 64 - n_buckets.trailing_zeros(),
            entries: Vec::new(),
            free: NIL,
            len: 0,
            pool: Vec::new(),
            free_targets: NIL,
            max_entries,
            max_merge,
        }
    }

    /// The bucket of `line`. Lines of one memory partition share their
    /// interleaving bits, so the index is mixed before its top bits are
    /// taken.
    #[inline]
    fn bucket(&self, line: Address) -> usize {
        (line.line_index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.bucket_shift) as usize
    }

    /// The entry tracking `line` and the entry chained before it in
    /// `bucket` ([`NIL`] for either when there is none).
    #[inline]
    fn find(&self, bucket: usize, line: Address) -> (u32, u32) {
        let (mut prev, mut e) = (NIL, self.heads[bucket]);
        while e != NIL && self.entries[e as usize].line != line {
            prev = e;
            e = self.entries[e as usize].next;
        }
        (prev, e)
    }

    /// Registers a missing `line` for `req`.
    pub fn register(&mut self, line: Address, req: ReqId) -> MshrOutcome {
        debug_assert_eq!(line, line.line(), "MSHR addresses must be line-aligned");
        let bucket = self.bucket(line);
        let (_, e) = self.find(bucket, line);
        if e != NIL {
            return self.merge(e as usize, req);
        }
        if self.len == self.max_entries {
            return MshrOutcome::Full;
        }
        let fresh = Entry {
            line,
            first: req,
            next: self.heads[bucket],
            n_targets: 1,
            more: NIL,
            last: NIL,
        };
        let e = if self.free != NIL {
            let e = self.free;
            self.free = std::mem::replace(&mut self.entries[e as usize], fresh).next;
            e
        } else {
            self.entries.push(fresh);
            (self.entries.len() - 1) as u32
        };
        self.heads[bucket] = e;
        self.len += 1;
        MshrOutcome::Allocated
    }

    /// Appends `req` to entry `e`'s waiters, if it has room.
    fn merge(&mut self, e: usize, req: ReqId) -> MshrOutcome {
        if self.entries[e].n_targets as usize >= self.max_merge {
            return MshrOutcome::Full;
        }
        let target = Target { req, next: NIL };
        let t = if self.free_targets != NIL {
            let t = self.free_targets;
            self.free_targets = std::mem::replace(&mut self.pool[t as usize], target).next;
            t
        } else {
            self.pool.push(target);
            (self.pool.len() - 1) as u32
        };
        let entry = &mut self.entries[e];
        entry.n_targets += 1;
        if entry.last == NIL {
            entry.more = t;
        } else {
            self.pool[entry.last as usize].next = t;
        }
        entry.last = t;
        MshrOutcome::Merged
    }

    /// Completes the miss for `line`, appending every waiting request (in
    /// arrival order) to `out`. No-op when the line had no entry (e.g. a
    /// prefetch-style fill).
    pub fn fill_into(&mut self, line: Address, out: &mut Vec<ReqId>) {
        let bucket = self.bucket(line);
        let (prev, e) = self.find(bucket, line);
        if e == NIL {
            return;
        }
        let entry = self.entries[e as usize];
        if prev == NIL {
            self.heads[bucket] = entry.next;
        } else {
            self.entries[prev as usize].next = entry.next;
        }
        out.push(entry.first);
        if entry.more != NIL {
            let mut t = entry.more;
            while t != NIL {
                let target = self.pool[t as usize];
                out.push(target.req);
                t = target.next;
            }
            self.pool[entry.last as usize].next = self.free_targets;
            self.free_targets = entry.more;
        }
        self.entries[e as usize].next = self.free;
        self.free = e;
        self.len -= 1;
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when a *new* line could not currently be allocated.
    pub fn is_full(&self) -> bool {
        self.len >= self.max_entries
    }

    /// Entries still available for new lines.
    pub fn free_entries(&self) -> usize {
        self.max_entries - self.len
    }

    /// Occupied entries out of total capacity, as a `(used, capacity)`
    /// pair — what the observability layer samples into its MSHR-occupancy
    /// histogram at window rollover.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.len, self.max_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn line(i: u64) -> Address {
        Address::new(i * 128)
    }

    impl MshrTable {
        fn fill(&mut self, line: Address) -> Vec<ReqId> {
            let mut out = Vec::new();
            self.fill_into(line, &mut out);
            out
        }

        fn entry_of(&self, line: Address) -> Option<usize> {
            let (_, e) = self.find(self.bucket(line), line);
            (e != NIL).then_some(e as usize)
        }

        fn contains(&self, line: Address) -> bool {
            self.entry_of(line).is_some()
        }
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrTable::new(4, 2);
        assert_eq!(m.register(line(1), ReqId(10)), MshrOutcome::Allocated);
        assert_eq!(m.register(line(1), ReqId(11)), MshrOutcome::Merged);
        // merge limit of 2 reached
        assert_eq!(m.register(line(1), ReqId(12)), MshrOutcome::Full);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn fill_releases_targets_in_order() {
        let mut m = MshrTable::new(4, 4);
        m.register(line(2), ReqId(1));
        m.register(line(2), ReqId(2));
        m.register(line(2), ReqId(3));
        assert_eq!(m.fill(line(2)), vec![ReqId(1), ReqId(2), ReqId(3)]);
        assert!(m.is_empty());
        assert!(!m.contains(line(2)));
    }

    #[test]
    fn entry_capacity_enforced() {
        let mut m = MshrTable::new(2, 8);
        assert_eq!(m.register(line(1), ReqId(1)), MshrOutcome::Allocated);
        assert_eq!(m.register(line(2), ReqId(2)), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.register(line(3), ReqId(3)), MshrOutcome::Full);
        // ...but merging into existing entries still works at full table.
        assert_eq!(m.register(line(1), ReqId(4)), MshrOutcome::Merged);
    }

    #[test]
    fn fill_unknown_line_is_empty() {
        let mut m = MshrTable::new(2, 2);
        assert!(m.fill(line(9)).is_empty());
    }

    #[test]
    fn freed_entry_is_reusable() {
        let mut m = MshrTable::new(1, 1);
        assert_eq!(m.register(line(1), ReqId(1)), MshrOutcome::Allocated);
        assert_eq!(m.register(line(2), ReqId(2)), MshrOutcome::Full);
        m.fill(line(1));
        assert_eq!(m.register(line(2), ReqId(2)), MshrOutcome::Allocated);
    }

    #[test]
    fn slab_agrees_with_a_vec_per_entry_model() {
        // The model is the table this one replaced: one heap list of
        // targets per in-flight line.
        use gpu_types::SplitMix64;
        let (max_entries, max_merge) = (6, 3);
        let mut rng = SplitMix64::new(0x3511_AB01);
        let mut m = MshrTable::new(max_entries, max_merge);
        let mut model: HashMap<Address, Vec<ReqId>> = HashMap::new();
        for i in 0..50_000u64 {
            let l = line(rng.next_below(10));
            if rng.chance(0.7) {
                let room = model.len() < max_entries;
                let expect = match model.get_mut(&l) {
                    Some(t) if t.len() >= max_merge => MshrOutcome::Full,
                    Some(t) => {
                        t.push(ReqId(i));
                        MshrOutcome::Merged
                    }
                    None if !room => MshrOutcome::Full,
                    None => {
                        model.insert(l, vec![ReqId(i)]);
                        MshrOutcome::Allocated
                    }
                };
                assert_eq!(m.register(l, ReqId(i)), expect, "step {i}");
            } else {
                // A recycled entry must not leak its previous tenant's
                // targets, whatever slab row it lands in.
                assert_eq!(m.fill(l), model.remove(&l).unwrap_or_default(), "step {i}");
            }
            assert_eq!(m.len(), model.len());
            assert_eq!(m.free_entries(), max_entries - model.len());
            assert_eq!(m.is_full(), model.len() == max_entries);
            assert_eq!(m.contains(l), model.contains_key(&l));
        }
    }

    /// The allocator the table had while it made every entry up front:
    /// the free entries on a stack filled with `(0..max_entries).rev()`.
    /// Returns each register's outcome and the entry the line then has.
    struct PrefilledStack {
        entries: HashMap<Address, (usize, usize)>,
        free: Vec<usize>,
        max_merge: usize,
        high_water: usize,
        /// High-water mark of live waiters after their entry's first.
        extra_high_water: usize,
    }

    impl PrefilledStack {
        fn new(max_entries: usize, max_merge: usize) -> Self {
            PrefilledStack {
                entries: HashMap::new(),
                free: (0..max_entries).rev().collect(),
                max_merge,
                high_water: 0,
                extra_high_water: 0,
            }
        }

        fn register(&mut self, line: Address) -> (MshrOutcome, Option<usize>) {
            let outcome = match self.entries.get_mut(&line) {
                Some((_, n)) if *n >= self.max_merge => MshrOutcome::Full,
                Some((_, n)) => {
                    *n += 1;
                    let extra = self.entries.values().map(|&(_, n)| n - 1).sum();
                    self.extra_high_water = self.extra_high_water.max(extra);
                    MshrOutcome::Merged
                }
                None => match self.free.pop() {
                    Some(e) => {
                        self.entries.insert(line, (e, 1));
                        self.high_water = self.high_water.max(self.entries.len());
                        MshrOutcome::Allocated
                    }
                    None => MshrOutcome::Full,
                },
            };
            (outcome, self.entries.get(&line).map(|&(e, _)| e))
        }

        fn fill(&mut self, line: Address) {
            if let Some((e, _)) = self.entries.remove(&line) {
                self.free.push(e);
            }
        }
    }

    #[test]
    fn entries_grow_on_demand_in_the_prefilled_stacks_order() {
        use gpu_types::SplitMix64;
        let mut rng = SplitMix64::new(0x5EED_3511);
        for (max_entries, max_merge) in [(1, 1), (4, 2), (16, 3), (128, 8)] {
            let mut m = MshrTable::new(max_entries, max_merge);
            let mut old = PrefilledStack::new(max_entries, max_merge);
            let span = 2 * max_entries as u64 + 2;
            for i in 0..40_000u64 {
                // Bursts of misses then bursts of fills, so occupancy
                // sweeps between empty and full.
                let l = line(rng.next_below(span));
                if (i / 500) % 2 == 0 || rng.chance(0.2) {
                    let (outcome, entry) = old.register(l);
                    assert_eq!(m.register(l, ReqId(i)), outcome, "step {i}");
                    assert_eq!(m.entry_of(l), entry, "step {i}");
                } else {
                    old.fill(l);
                    m.fill(l);
                }
                assert!(m.entries.len() <= max_entries, "step {i}");
            }
            assert_eq!(m.entries.len(), old.high_water, "made entries");
            assert_eq!(m.pool.len(), old.extra_high_water, "made targets");
        }
    }

    /// The table this one replaced: an `FxHashMap` from line to entry and
    /// a row of `max_merge` target slots per entry.
    struct RowTable {
        entries: gpu_types::FxHashMap<Address, usize>,
        targets: Vec<ReqId>,
        n_targets: Vec<usize>,
        free: Vec<usize>,
        max_entries: usize,
        max_merge: usize,
    }

    impl RowTable {
        fn new(max_entries: usize, max_merge: usize) -> Self {
            RowTable {
                entries: Default::default(),
                targets: Vec::new(),
                n_targets: Vec::new(),
                free: Vec::new(),
                max_entries,
                max_merge,
            }
        }

        fn register(&mut self, line: Address, req: ReqId) -> MshrOutcome {
            let (e, outcome) = match self.entries.get(&line) {
                Some(&e) if self.n_targets[e] >= self.max_merge => return MshrOutcome::Full,
                Some(&e) => (e, MshrOutcome::Merged),
                None => {
                    let e = match self.free.pop() {
                        Some(e) => e,
                        None if self.n_targets.len() < self.max_entries => {
                            self.n_targets.push(0);
                            self.targets
                                .resize(self.targets.len() + self.max_merge, ReqId(0));
                            self.n_targets.len() - 1
                        }
                        None => return MshrOutcome::Full,
                    };
                    self.entries.insert(line, e);
                    (e, MshrOutcome::Allocated)
                }
            };
            self.targets[e * self.max_merge + self.n_targets[e]] = req;
            self.n_targets[e] += 1;
            outcome
        }

        fn fill(&mut self, line: Address) -> Vec<ReqId> {
            let Some(e) = self.entries.remove(&line) else {
                return Vec::new();
            };
            let first = e * self.max_merge;
            let out = self.targets[first..first + self.n_targets[e]].to_vec();
            self.n_targets[e] = 0;
            self.free.push(e);
            out
        }
    }

    #[test]
    fn chained_table_agrees_with_the_row_table() {
        use gpu_types::SplitMix64;
        let mut rng = SplitMix64::new(0x0A5E_3511);
        for (max_entries, max_merge) in [(1, 1), (1, 4), (3, 8), (8, 2), (64, 8), (128, 8)] {
            let mut m = MshrTable::new(max_entries, max_merge);
            let mut rows = RowTable::new(max_entries, max_merge);
            // Lines one memory partition of 16 sees (a fixed interleaving
            // field) and plain consecutive ones.
            let stride = if max_entries % 2 == 0 { 32 } else { 1 };
            let span = 2 * max_entries as u64 + 3;
            for i in 0..30_000u64 {
                let l = line(rng.next_below(span) * stride);
                // Phases of mostly misses then mostly fills, so both
                // limits are reached and the table drains.
                let misses = if (i / 700) % 2 == 0 { 0.85 } else { 0.3 };
                if rng.chance(misses) {
                    assert_eq!(
                        m.register(l, ReqId(i)),
                        rows.register(l, ReqId(i)),
                        "step {i}"
                    );
                } else {
                    assert_eq!(m.fill(l), rows.fill(l), "step {i}");
                }
                assert_eq!(m.len(), rows.entries.len(), "step {i}");
                assert_eq!(m.is_empty(), rows.entries.is_empty());
                assert_eq!(m.is_full(), rows.entries.len() == max_entries);
                assert_eq!(m.free_entries(), max_entries - rows.entries.len());
                assert_eq!(m.occupancy(), (rows.entries.len(), max_entries));
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bounds_panic() {
        let _ = MshrTable::new(0, 1);
    }
}
