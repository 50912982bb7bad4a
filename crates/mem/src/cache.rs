//! Set-associative cache with LRU replacement and an integrated MSHR table.
//!
//! Used both for the per-core L1 data caches and the per-partition L2
//! slices. Lines are allocated on fill (no way reservation), misses to an
//! in-flight line merge in the MSHR, and per-application access/miss
//! counters feed the paper's runtime sampling.

use crate::mshr::{MshrOutcome, MshrTable};
use crate::req::ReqId;
use gpu_types::{Address, AppId, CacheConfig};

/// Result of a load access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present; data returns after the hit latency.
    Hit,
    /// Miss with a fresh MSHR entry; the caller must forward the request to
    /// the next memory level.
    MissToLower,
    /// Miss merged into an outstanding MSHR entry; nothing to forward.
    MissMerged,
    /// Structural stall (MSHR table or merge slots exhausted); the caller
    /// must retry the access on a later cycle. Not counted as an access.
    Stall,
}

/// Bits of a [`Way`] that hold its LRU stamp; the rest hold its tag.
const STAMP_BITS: u32 = 20;

/// The largest LRU stamp a [`Way`] holds.
const STAMP_MAX: u64 = (1 << STAMP_BITS) - 1;

/// Tags below this fit a [`Way`]: 2^44, so every line below 2^51 bytes at
/// any set count, which covers the region the stream layout gives every
/// application (`(1 + app) · 2^40`).
const TAG_LIMIT: u64 = 1 << (64 - STAMP_BITS);

/// One way of a set, one word: the tag of the line it holds above the LRU
/// stamp of its last hit or fill. A held way's stamp is at least 1, so
/// [`Way::EMPTY`] (stamp 0) is the least recently used of its set and no
/// tag, 0 included, matches it.
#[derive(Debug, Clone, Copy)]
struct Way(u64);

impl Way {
    /// A way holding no line.
    const EMPTY: Way = Way(0);

    fn new(tag: u64, stamp: u64) -> Way {
        debug_assert!(tag < TAG_LIMIT && (1..=STAMP_MAX).contains(&stamp));
        Way(tag << STAMP_BITS | stamp)
    }

    fn tag(self) -> u64 {
        self.0 >> STAMP_BITS
    }

    fn stamp(self) -> u64 {
        self.0 & STAMP_MAX
    }

    fn holds(self) -> bool {
        self.stamp() != 0
    }

    /// True when the way holds the line tagged `tag`: the tag bits agree
    /// and the stamp is not 0, in one compare.
    fn holds_tag(self, tag: u64) -> bool {
        (self.0 ^ tag << STAMP_BITS).wrapping_sub(1) < STAMP_MAX
    }
}

const _: () = assert!(std::mem::size_of::<Way>() == 8);

/// Per-application access/miss counts maintained by a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Load accesses that completed lookup (hits + misses + merges,
    /// excluding stalls).
    pub accesses: u64,
    /// Load accesses that required a fetch from the next level. Merges into
    /// an in-flight line are *not* misses: they generate no downstream
    /// traffic, so counting them would corrupt the miss rate's meaning as
    /// "fetches per access" — the quantity the paper's EB = BW/CMR
    /// amplification argument builds on (§III-B).
    pub misses: u64,
    /// Load accesses merged into an in-flight miss (latency of a miss, no
    /// downstream traffic).
    pub merged: u64,
}

/// A set-associative, LRU, allocate-on-fill cache with MSHRs.
#[derive(Debug)]
pub struct Cache {
    ways: Vec<Way>,
    set_mask: u64,
    set_shift: u32,
    assoc: usize,
    mshr: MshrTable,
    counters: Vec<CacheCounters>,
    /// The LRU clock: the stamp of the latest hit or fill.
    tick: u64,
}

impl Cache {
    /// Builds a cache from its configuration, with counter slots for
    /// application indices `0..n_apps` (the machine's co-scheduled app
    /// count). Sizing the counters up front keeps the per-access counter
    /// update a plain index instead of a length check and possible resize.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero sets (use
    /// [`gpu_types::GpuConfig::validate`] first).
    pub fn new(cfg: &CacheConfig, n_apps: usize) -> Self {
        let n_sets = cfg.n_sets();
        assert!(n_sets > 0, "cache must have at least one set");
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            (cfg.associativity as u64) < STAMP_MAX,
            "associativity must be below {STAMP_MAX}"
        );
        Cache {
            ways: vec![Way::EMPTY; n_sets * cfg.associativity],
            set_mask: n_sets as u64 - 1,
            set_shift: n_sets.trailing_zeros(),
            assoc: cfg.associativity,
            mshr: MshrTable::new(cfg.mshr_entries, cfg.mshr_merge),
            counters: vec![CacheCounters::default(); n_apps],
            tick: 0,
        }
    }

    fn set_of(&self, line: Address) -> usize {
        (line.line_index() & self.set_mask) as usize
    }

    /// The tag of `line` in its set.
    ///
    /// # Panics
    ///
    /// Panics, naming the line, if the tag does not fit a [`Way`].
    fn tag_of(&self, line: Address) -> u64 {
        let tag = line.line_index() >> self.set_shift;
        assert!(
            tag < TAG_LIMIT,
            "line {line:#x} has a tag beyond the 44 bits a cache way holds"
        );
        tag
    }

    /// The stamp of a hit or fill happening now: the next tick of the LRU
    /// clock. When the clock is at its ceiling, every set's held ways are
    /// first renumbered by rank, 1..=assoc, and the clock restarts at
    /// `assoc`. The victim rule compares stamps only within a set, and
    /// renumbering keeps each set's order, so it changes no victim.
    fn next_stamp(&mut self) -> u64 {
        if self.tick == STAMP_MAX {
            let mut stamps = Vec::with_capacity(self.assoc);
            for set in self.ways.chunks_exact_mut(self.assoc) {
                stamps.clear();
                stamps.extend(set.iter().map(|w| w.stamp()));
                for (way, &stamp) in set.iter_mut().zip(&stamps) {
                    if stamp != 0 {
                        let rank = stamps.iter().filter(|&&s| s != 0 && s <= stamp).count();
                        *way = Way::new(way.tag(), rank as u64);
                    }
                }
            }
            self.tick = self.assoc as u64;
        }
        self.tick += 1;
        self.tick
    }

    /// The hit path of a load lookup: when `line` is resident, stamps its
    /// way, counts the access for `app` and returns true. The LRU clock
    /// advances only here and on a fill — the events that stamp a way — so
    /// a lookup that misses or stalls leaves no trace in it.
    fn touch(&mut self, app: AppId, line: Address) -> bool {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        let base = set * self.assoc;
        let Some(i) = self.ways[base..base + self.assoc]
            .iter()
            .position(|w| w.holds_tag(tag))
        else {
            return false;
        };
        let stamp = self.next_stamp();
        self.ways[base + i] = Way::new(tag, stamp);
        self.counters[app.index()].accesses += 1;
        true
    }

    fn counters_mut(&mut self, app: AppId) -> &mut CacheCounters {
        // Slots were sized at construction; an out-of-range app index is a
        // machine-assembly bug and panics via the index.
        &mut self.counters[app.index()]
    }

    /// Performs a load lookup for `line` on behalf of `req`.
    ///
    /// Access and miss counters for `app` are updated unless the access
    /// stalls on MSHR capacity.
    pub fn access_load(&mut self, app: AppId, line: Address, req: ReqId) -> Lookup {
        let line = line.line();
        if self.touch(app, line) {
            return Lookup::Hit;
        }
        match self.mshr.register(line, req) {
            MshrOutcome::Allocated => {
                let c = self.counters_mut(app);
                c.accesses += 1;
                c.misses += 1;
                Lookup::MissToLower
            }
            MshrOutcome::Merged => {
                let c = self.counters_mut(app);
                c.accesses += 1;
                c.merged += 1;
                Lookup::MissMerged
            }
            MshrOutcome::Full => Lookup::Stall,
        }
    }

    /// A counted, no-allocate lookup: hits update LRU and count as hits;
    /// misses count but allocate neither a line nor an MSHR entry. Used for
    /// cache-bypassing requests (Mod+Bypass) that may still consume data
    /// already resident.
    pub fn access_load_no_alloc(&mut self, app: AppId, line: Address) -> bool {
        let line = line.line();
        if self.touch(app, line) {
            return true;
        }
        let c = self.counters_mut(app);
        c.accesses += 1;
        c.misses += 1;
        false
    }

    /// Probes for `line` without touching LRU state, counters or MSHRs.
    /// Used by stores (write-through, no-allocate) and by tests.
    pub fn probe(&self, line: Address) -> bool {
        let line = line.line();
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        let base = set * self.assoc;
        self.ways[base..base + self.assoc]
            .iter()
            .any(|w| w.holds_tag(tag))
    }

    /// Installs `line` (completing its outstanding miss, if any) and returns
    /// the requests that were waiting on it, in arrival order.
    ///
    /// The victim is the LRU way of the set; invalid ways are filled first.
    /// Allocating wrapper over [`Cache::fill_into`], kept for tests and
    /// non-hot-path callers.
    pub fn fill(&mut self, line: Address) -> Vec<ReqId> {
        let mut waiters = Vec::new();
        self.fill_into(line, &mut waiters);
        waiters
    }

    /// Hot-path form of [`Cache::fill`]: appends the released waiters to a
    /// caller-owned buffer instead of allocating, and returns the evicted
    /// line, if any (read by the CCWS victim-tag mechanism).
    pub fn fill_into(&mut self, line: Address, waiters: &mut Vec<ReqId>) -> Option<Address> {
        let line = line.line();
        self.mshr.fill_into(line, waiters);
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        let base = set * self.assoc;
        let stamp = self.next_stamp();
        let ways = &mut self.ways[base..base + self.assoc];
        // Already present (e.g. refill racing a prior fill): refresh LRU only.
        if let Some(way) = ways.iter_mut().find(|w| w.holds_tag(tag)) {
            *way = Way::new(tag, stamp);
            return None;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| w.stamp())
            .expect("associativity >= 1");
        let evicted = victim.holds().then(|| {
            Address::new(((victim.tag() << self.set_shift) | set as u64) * crate::LINE_SIZE_U64)
        });
        *victim = Way::new(tag, stamp);
        evicted
    }

    /// True when a new miss line cannot currently be tracked.
    pub fn mshr_full(&self) -> bool {
        self.mshr.is_full()
    }

    /// Free MSHR entries (distinct new miss lines that could be tracked).
    pub fn mshr_free(&self) -> usize {
        self.mshr.free_entries()
    }

    /// Outstanding distinct miss lines.
    pub fn outstanding_misses(&self) -> usize {
        self.mshr.len()
    }

    /// MSHR occupancy as a `(used, capacity)` pair, for the metrics layer.
    pub fn mshr_occupancy(&self) -> (usize, usize) {
        self.mshr.occupancy()
    }

    /// Per-application counters (zero for apps never seen).
    pub fn counters(&self, app: AppId) -> CacheCounters {
        self.counters.get(app.index()).copied().unwrap_or_default()
    }

    /// Invalidates every line and clears counters; MSHRs must be drained by
    /// the caller first (used between measurement phases).
    ///
    /// # Panics
    ///
    /// Panics if misses are still outstanding.
    pub fn reset(&mut self) {
        assert!(
            self.mshr.is_empty(),
            "cannot reset a cache with outstanding misses"
        );
        self.ways.fill(Way::EMPTY);
        self.counters.fill(CacheCounters::default());
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::LINE_SIZE;

    fn cfg() -> CacheConfig {
        // 4 sets x 2 ways x 128 B lines = 1 KiB.
        CacheConfig {
            capacity_bytes: 1024,
            associativity: 2,
            mshr_entries: 4,
            mshr_merge: 4,
            hit_latency: 1,
        }
    }

    fn line(i: u64) -> Address {
        Address::new(i * LINE_SIZE)
    }

    const APP: AppId = AppId::new(0);

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(&cfg(), 2);
        assert_eq!(c.access_load(APP, line(3), ReqId(1)), Lookup::MissToLower);
        assert_eq!(c.fill(line(3)), vec![ReqId(1)]);
        assert_eq!(c.access_load(APP, line(3), ReqId(2)), Lookup::Hit);
        let k = c.counters(APP);
        assert_eq!((k.accesses, k.misses), (2, 1));
    }

    #[test]
    fn second_miss_to_same_line_merges() {
        let mut c = Cache::new(&cfg(), 2);
        assert_eq!(c.access_load(APP, line(3), ReqId(1)), Lookup::MissToLower);
        assert_eq!(c.access_load(APP, line(3), ReqId(2)), Lookup::MissMerged);
        assert_eq!(c.fill(line(3)), vec![ReqId(1), ReqId(2)]);
        let k = c.counters(APP);
        assert_eq!((k.accesses, k.misses, k.merged), (2, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = Cache::new(&cfg(), 2);
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        for (i, l) in [0u64, 4, 8].iter().enumerate() {
            c.access_load(APP, line(*l), ReqId(i as u64));
            c.fill(line(*l));
        }
        // Set 0 is 2-way: filling 0 then 4 then 8 evicts 0.
        assert!(!c.probe(line(0)));
        assert!(c.probe(line(4)));
        assert!(c.probe(line(8)));
    }

    #[test]
    fn hit_refreshes_lru() {
        let mut c = Cache::new(&cfg(), 2);
        for l in [0u64, 4] {
            c.access_load(APP, line(l), ReqId(l));
            c.fill(line(l));
        }
        // Touch line 0 so line 4 becomes LRU.
        assert_eq!(c.access_load(APP, line(0), ReqId(9)), Lookup::Hit);
        c.access_load(APP, line(8), ReqId(10));
        c.fill(line(8));
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(4)));
    }

    #[test]
    fn stall_on_mshr_exhaustion_counts_nothing() {
        let mut c = Cache::new(&cfg(), 2);
        for i in 0..4u64 {
            assert_eq!(c.access_load(APP, line(i), ReqId(i)), Lookup::MissToLower);
        }
        assert!(c.mshr_full());
        assert_eq!(c.access_load(APP, line(7), ReqId(7)), Lookup::Stall);
        let k = c.counters(APP);
        assert_eq!((k.accesses, k.misses), (4, 4));
    }

    #[test]
    fn per_app_counters_are_separate() {
        let mut c = Cache::new(&cfg(), 2);
        let a0 = AppId::new(0);
        let a1 = AppId::new(1);
        c.access_load(a0, line(0), ReqId(1));
        c.fill(line(0));
        c.access_load(a1, line(0), ReqId(2));
        assert_eq!(c.counters(a0).misses, 1);
        assert_eq!(c.counters(a1).misses, 0);
        assert_eq!(c.counters(a1).accesses, 1);
    }

    #[test]
    fn fill_of_present_line_does_not_duplicate() {
        let mut c = Cache::new(&cfg(), 2);
        c.access_load(APP, line(0), ReqId(1));
        c.fill(line(0));
        // Unsolicited second fill: no waiters, still present, set not polluted.
        assert!(c.fill(line(0)).is_empty());
        assert!(c.probe(line(0)));
        // The other way of set 0 is still free.
        c.access_load(APP, line(4), ReqId(2));
        c.fill(line(4));
        assert!(c.probe(line(0)) && c.probe(line(4)));
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = Cache::new(&cfg(), 2);
        c.access_load(APP, line(1), ReqId(1));
        c.fill(line(1));
        c.reset();
        assert!(!c.probe(line(1)));
        assert_eq!(c.counters(APP), CacheCounters::default());
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn reset_with_outstanding_misses_panics() {
        let mut c = Cache::new(&cfg(), 2);
        c.access_load(APP, line(1), ReqId(1));
        c.reset();
    }

    #[test]
    fn fill_reports_the_evicted_line() {
        let mut c = Cache::new(&cfg(), 2);
        // Fill both ways of set 0 (lines 0 and 4), then evict with line 8.
        for l in [0u64, 4] {
            c.access_load(APP, line(l), ReqId(l));
            let victim = c.fill_into(line(l), &mut Vec::new());
            assert_eq!(victim, None, "filling an invalid way evicts nothing");
        }
        c.access_load(APP, line(8), ReqId(8));
        let victim = c.fill_into(line(8), &mut Vec::new());
        assert_eq!(victim, Some(line(0)), "LRU way of set 0 holds line 0");
    }

    /// The ways as they were at 16 bytes: a full tag and a 64-bit LRU
    /// clock each, `None` for an empty way.
    struct WideWays {
        ways: Vec<Option<(u64, u64)>>,
        n_sets: u64,
        assoc: usize,
        tick: u64,
    }

    impl WideWays {
        fn new(cfg: &CacheConfig) -> Self {
            WideWays {
                ways: vec![None; cfg.n_lines()],
                n_sets: cfg.n_sets() as u64,
                assoc: cfg.associativity,
                tick: 0,
            }
        }

        fn set(&mut self, l: Address) -> (&mut [Option<(u64, u64)>], u64) {
            let (set, tag) = (l.line_index() % self.n_sets, l.line_index() / self.n_sets);
            let base = set as usize * self.assoc;
            (&mut self.ways[base..base + self.assoc], tag)
        }

        fn touch(&mut self, l: Address) -> bool {
            self.tick += 1;
            let now = self.tick;
            let (ways, tag) = self.set(l);
            match ways.iter_mut().flatten().find(|(t, _)| *t == tag) {
                Some(way) => {
                    way.1 = now;
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, l: Address) -> Option<Address> {
            self.tick += 1;
            let (now, n_sets) = (self.tick, self.n_sets);
            let set = l.line_index() % n_sets;
            let (ways, tag) = self.set(l);
            if let Some(way) = ways.iter_mut().flatten().find(|(t, _)| *t == tag) {
                way.1 = now;
                return None;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|w| w.map_or(0, |(_, at)| at))
                .unwrap();
            let evicted = victim.map(|(t, _)| line(t * n_sets + set));
            *victim = Some((tag, now));
            evicted
        }
    }

    #[test]
    fn packed_ways_agree_with_wide_ways_across_renumberings() {
        use gpu_types::SplitMix64;
        let mut rng = SplitMix64::new(0xCAC4_E008);
        for (capacity_bytes, associativity) in [(1024, 1), (1024, 2), (4096, 4), (8192, 16)] {
            let cfg = CacheConfig {
                capacity_bytes,
                associativity,
                mshr_entries: 64,
                mshr_merge: 4,
                hit_latency: 1,
            };
            let mut c = Cache::new(&cfg, 1);
            let mut wide = WideWays::new(&cfg);
            let n_lines = cfg.n_lines() as u64;
            // Lines near the top of the taggable space share sets with
            // the low ones.
            let top = (TAG_LIMIT << c.set_shift) - 4 * n_lines;
            for i in 0..40_000u64 {
                // Moving the clock forward keeps every set's order; three
                // ticks below its ceiling, it renumbers every few accesses.
                c.tick = c.tick.max(STAMP_MAX - 3);
                let k = rng.next_below(3 * n_lines);
                let l = line(if rng.chance(0.5) { k } else { top + k });
                if rng.chance(0.6) {
                    let hit = wide.touch(l);
                    match c.access_load(APP, l, ReqId(i)) {
                        Lookup::Hit => assert!(hit, "step {i}"),
                        _ => {
                            assert!(!hit, "step {i}");
                            assert_eq!(c.fill_into(l, &mut Vec::new()), wide.fill(l), "step {i}");
                        }
                    }
                } else {
                    assert_eq!(c.fill_into(l, &mut Vec::new()), wide.fill(l), "step {i}");
                }
                let probe = line(rng.next_below(2 * n_lines));
                let (ways, tag) = wide.set(probe);
                let held = ways.iter().flatten().any(|(t, _)| *t == tag);
                assert_eq!(c.probe(probe), held, "step {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "line 0x20000000000000")]
    fn a_line_beyond_the_taggable_space_panics() {
        // Four sets: a tag is the line index over 4, so the taggable space
        // ends at 2^53 bytes.
        let mut c = Cache::new(&cfg(), 1);
        assert!(!c.probe(Address::new((1 << 53) - 128)));
        c.access_load(APP, Address::new(1 << 53), ReqId(1));
    }

    #[test]
    fn probe_does_not_count() {
        let c = Cache::new(&cfg(), 2);
        assert!(!c.probe(line(5)));
        assert_eq!(c.counters(APP).accesses, 0);
    }
}
