//! Miss-status holding registers (MSHRs).
//!
//! An MSHR table tracks the set of cache lines with an outstanding miss and
//! the requests waiting on each ("targets"). A second miss to an in-flight
//! line *merges* into the existing entry instead of issuing a duplicate
//! request to the next level — the inter-warp merging of Table I.

use crate::req::ReqId;
use gpu_types::{Address, FxHashMap};
use std::collections::hash_map::Entry;

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

/// Ends the free list of [`MshrTable`].
const NONE: usize = usize::MAX;

/// MSHR table with bounded entries and bounded merge fan-in per entry.
///
/// Targets live inline in one slab of `max_merge` request ids per entry,
/// entry `e` owning `targets[e * max_merge..][..n_targets[e]]`: an entry's
/// waiters sit side by side. The slab holds only the entries ever occupied
/// at once — an allocation takes the most recently freed entry, else the
/// next fresh one — so it grows to the table's high-water mark, not to
/// `max_entries`, and once there a register/fill cycle touches no
/// allocator.
#[derive(Debug)]
pub struct MshrTable {
    /// In-flight line → the entry tracking it.
    entries: FxHashMap<Address, usize>,
    targets: Vec<ReqId>,
    /// Targets held per occupied entry; a free entry holds the entry
    /// freed before it instead ([`NONE`] ends that list). Its length is
    /// the entries made so far.
    n_targets: Vec<usize>,
    /// The most recently freed entry, [`NONE`] when every made entry is
    /// occupied.
    free: usize,
    max_entries: usize,
    max_merge: usize,
}

impl MshrTable {
    /// Creates a table with `max_entries` distinct in-flight lines and at
    /// most `max_merge` requests per line.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(max_entries: usize, max_merge: usize) -> Self {
        assert!(
            max_entries > 0 && max_merge > 0,
            "MSHR bounds must be non-zero"
        );
        MshrTable {
            entries: FxHashMap::default(),
            targets: Vec::new(),
            n_targets: Vec::new(),
            free: NONE,
            max_entries,
            max_merge,
        }
    }

    /// Registers a missing `line` for `req`.
    pub fn register(&mut self, line: Address, req: ReqId) -> MshrOutcome {
        debug_assert_eq!(line, line.line(), "MSHR addresses must be line-aligned");
        let (entry, outcome) = match self.entries.entry(line) {
            Entry::Occupied(e) if self.n_targets[*e.get()] >= self.max_merge => {
                return MshrOutcome::Full;
            }
            Entry::Occupied(e) => (*e.get(), MshrOutcome::Merged),
            Entry::Vacant(v) => {
                let e = if self.free != NONE {
                    let e = self.free;
                    self.free = std::mem::replace(&mut self.n_targets[e], 0);
                    e
                } else if self.n_targets.len() < self.max_entries {
                    self.n_targets.push(0);
                    self.targets
                        .resize(self.targets.len() + self.max_merge, ReqId(0));
                    self.n_targets.len() - 1
                } else {
                    return MshrOutcome::Full;
                };
                (*v.insert(e), MshrOutcome::Allocated)
            }
        };
        self.targets[entry * self.max_merge + self.n_targets[entry]] = req;
        self.n_targets[entry] += 1;
        outcome
    }

    /// Completes the miss for `line`, appending every waiting request (in
    /// arrival order) to `out`. No-op when the line had no entry (e.g. a
    /// prefetch-style fill).
    pub fn fill_into(&mut self, line: Address, out: &mut Vec<ReqId>) {
        if let Some(entry) = self.entries.remove(&line) {
            let first = entry * self.max_merge;
            out.extend_from_slice(&self.targets[first..first + self.n_targets[entry]]);
            self.n_targets[entry] = self.free;
            self.free = entry;
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when a *new* line could not currently be allocated.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.max_entries
    }

    /// Entries still available for new lines.
    pub fn free_entries(&self) -> usize {
        self.max_entries - self.entries.len()
    }

    /// Occupied entries out of total capacity, as a `(used, capacity)`
    /// pair — what the observability layer samples into its MSHR-occupancy
    /// histogram at window rollover.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.entries.len(), self.max_entries)
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

        fn contains(&self, line: Address) -> bool {
            self.entries.contains_key(&line)
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
    }

    impl PrefilledStack {
        fn new(max_entries: usize, max_merge: usize) -> Self {
            PrefilledStack {
                entries: HashMap::new(),
                free: (0..max_entries).rev().collect(),
                max_merge,
                high_water: 0,
            }
        }

        fn register(&mut self, line: Address) -> (MshrOutcome, Option<usize>) {
            let outcome = match self.entries.get_mut(&line) {
                Some((_, n)) if *n >= self.max_merge => MshrOutcome::Full,
                Some((_, n)) => {
                    *n += 1;
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
                    assert_eq!(m.entries.get(&l).copied(), entry, "step {i}");
                } else {
                    old.fill(l);
                    m.fill(l);
                }
                assert!(m.n_targets.len() <= max_entries, "step {i}");
            }
            assert_eq!(m.n_targets.len(), old.high_water, "made entries");
            assert_eq!(m.targets.len(), old.high_water * max_merge);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bounds_panic() {
        let _ = MshrTable::new(0, 1);
    }
}
