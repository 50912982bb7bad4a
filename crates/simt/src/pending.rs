//! The loads a core has in flight, keyed by request id.
//!
//! A core hands out its own ids sequentially, so the table is
//! direct-mapped by the id's low sequence bits: insert, lookup and removal
//! are one index and one compare. Two live ids that share a slot make the
//! table double until they no longer do — it sizes itself to the longest
//! stretch of ids a load stays in flight for, once, and stays there. A
//! slot is one word: the id and the load packed together.

use gpu_mem::req::ReqId;

/// What the core remembers of a load until its data returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingLoad {
    pub warp_slot: u32,
    /// False when the request bypassed the L1 (its response is routed
    /// straight to the warp instead of through a cache fill).
    pub cached: bool,
}

/// Raw id 0 marks a free slot; a core's sequence starts at 1.
const FREE: u64 = 0;

/// Bits below the id in a slot: the warp slot, then the cached flag.
const ID_SHIFT: u32 = 16;

/// `id << 16 | warp_slot << 1 | cached`. Ids stay below 2^48 (a core's
/// ids carry its index in bits 40 and up) and warp slots below 2^15, and
/// an id is never 0, so a packed live slot is never [`FREE`].
#[inline]
fn pack(id: u64, load: PendingLoad) -> u64 {
    debug_assert!(
        id < 1 << (64 - ID_SHIFT),
        "request id {id:#x} exceeds 48 bits"
    );
    debug_assert!(
        load.warp_slot < 1 << (ID_SHIFT - 1),
        "warp slot {} exceeds 15 bits",
        load.warp_slot
    );
    id << ID_SHIFT | (load.warp_slot as u64) << 1 | load.cached as u64
}

#[inline]
fn unpack(slot: u64) -> PendingLoad {
    PendingLoad {
        warp_slot: (slot as u32 & 0xFFFF) >> 1,
        cached: slot & 1 != 0,
    }
}

#[derive(Debug)]
pub(crate) struct PendingTable {
    /// Packed `(id, load)` words ([`pack`]), power-of-two many; a live id
    /// sits at `id & (len - 1)`.
    slots: Vec<u64>,
    live: usize,
}

impl PendingTable {
    pub fn new() -> Self {
        PendingTable {
            slots: vec![FREE; 64],
            live: 0,
        }
    }

    /// The id held by slot word `slot` ([`FREE`] for a free slot).
    #[inline]
    fn id_of(slot: u64) -> u64 {
        slot >> ID_SHIFT
    }

    #[inline]
    fn index(&self, id: u64) -> usize {
        id as usize & (self.slots.len() - 1)
    }

    /// Records `load` under `id`, replacing what `id` held.
    #[inline]
    pub fn insert(&mut self, id: ReqId, load: PendingLoad) {
        debug_assert_ne!(id.0, FREE, "request ids start at 1");
        let mut i = self.index(id.0);
        while self.slots[i] != FREE && Self::id_of(self.slots[i]) != id.0 {
            self.grow();
            i = self.index(id.0);
        }
        self.live += (self.slots[i] == FREE) as usize;
        self.slots[i] = pack(id.0, load);
    }

    /// Doubles the table. Ids that were distinct modulo the old size stay
    /// distinct modulo the new one, so re-placing cannot collide.
    #[cold]
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![FREE; old.len() * 2];
        for slot in old.into_iter().filter(|&s| s != FREE) {
            let i = self.index(Self::id_of(slot));
            self.slots[i] = slot;
        }
    }

    #[inline]
    pub fn get(&self, id: ReqId) -> Option<PendingLoad> {
        let slot = self.slots[self.index(id.0)];
        (Self::id_of(slot) == id.0 && slot != FREE).then(|| unpack(slot))
    }

    /// Forgets `id`; `None` when it is not in flight (a straggling
    /// return).
    #[inline]
    pub fn remove(&mut self, id: ReqId) -> Option<PendingLoad> {
        let load = self.get(id)?;
        let i = self.index(id.0);
        self.slots[i] = FREE;
        self.live -= 1;
        Some(load)
    }

    pub fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::SplitMix64;
    use std::collections::HashMap;

    fn load(warp_slot: u32, cached: bool) -> PendingLoad {
        PendingLoad { warp_slot, cached }
    }

    #[test]
    fn sequential_ids_wrap_around_without_growing() {
        // A window of 48 live ids slides over many times the table size.
        let mut t = PendingTable::new();
        let core_bits = 5u64 << 40;
        for seq in 1..=10_000u64 {
            t.insert(ReqId(core_bits | seq), load(seq as u32 % 48, true));
            if seq > 48 {
                let old = ReqId(core_bits | (seq - 48));
                assert_eq!(t.remove(old), Some(load((seq - 48) as u32 % 48, true)));
            }
        }
        assert_eq!(t.len(), 48);
        assert_eq!(t.slots.len(), 64);
    }

    #[test]
    fn a_long_lived_load_makes_the_table_grow_once() {
        let mut t = PendingTable::new();
        t.insert(ReqId(1), load(7, true));
        // 65 shares slot 1 of 64 and of no larger table.
        t.insert(ReqId(65), load(8, false));
        assert_eq!(t.slots.len(), 128);
        // 1 + 4096 collides until the table holds 8192 slots.
        t.insert(ReqId(4097), load(9, true));
        assert_eq!(t.slots.len(), 8192);
        assert_eq!(t.get(ReqId(1)), Some(load(7, true)));
        assert_eq!(t.get(ReqId(65)), Some(load(8, false)));
        assert_eq!(t.get(ReqId(4097)), Some(load(9, true)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn reinserting_an_id_replaces_its_load() {
        let mut t = PendingTable::new();
        t.insert(ReqId(3), load(1, true));
        t.insert(ReqId(3), load(1, false));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(ReqId(3)), Some(load(1, false)));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn straggling_returns_find_nothing() {
        let mut t = PendingTable::new();
        t.insert(ReqId(10), load(2, true));
        assert_eq!(t.remove(ReqId(10)), Some(load(2, true)));
        assert_eq!(t.remove(ReqId(10)), None, "already completed");
        // The slot's next tenant is not mistaken for the old id.
        t.insert(ReqId(74), load(3, true));
        assert_eq!(t.get(ReqId(10)), None);
        assert_eq!(t.remove(ReqId(10)), None);
        assert_eq!(t.get(ReqId(0)), None, "0 is the free marker, not an id");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn the_packing_bounds_round_trip() {
        // The last warp slot of the largest stock machine and ids of a core
        // index past its last, at both ends of the 40-bit sequence.
        let cfg = gpu_types::GpuConfig::volta();
        let top_slot = cfg.warps_per_core as u32 - 1;
        let core = (cfg.n_cores as u64) << 40;
        for id in [core | 1, core | ((1 << 40) - 1), (1 << 48) - 1] {
            for l in [
                load(top_slot, true),
                load((1 << 15) - 1, false),
                load(0, false),
            ] {
                assert_eq!(unpack(pack(id, l)), l);
                assert_eq!(PendingTable::id_of(pack(id, l)), id);
            }
        }
        let mut t = PendingTable::new();
        t.insert(ReqId(core | 1), load(top_slot, true));
        t.insert(ReqId(core | ((1 << 40) - 1)), load(top_slot, false));
        assert_eq!(t.get(ReqId(core | 1)), Some(load(top_slot, true)));
        assert_eq!(
            t.remove(ReqId(core | ((1 << 40) - 1))),
            Some(load(top_slot, false))
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn agrees_with_a_hash_map_under_random_traffic() {
        let mut rng = SplitMix64::new(0x9E4D_1106);
        let mut t = PendingTable::new();
        let mut model: HashMap<u64, PendingLoad> = HashMap::new();
        let mut issued: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for step in 0..200_000u32 {
            match rng.next_below(10) {
                // Issue: ids advance by 1..=3 (stores take ids and never
                // enter the table).
                0..=4 => {
                    next += 1 + rng.next_below(3);
                    let id = (9u64 << 40) | next;
                    let l = load(rng.next_below(48) as u32, rng.chance(0.7));
                    t.insert(ReqId(id), l);
                    model.insert(id, l);
                    issued.push(id);
                }
                // A return: mostly recent ids, now and then one that has
                // been in flight for a long time or already came back.
                5..=8 if !issued.is_empty() => {
                    let back = if rng.chance(0.9) { 64 } else { issued.len() };
                    let from = issued.len() - back.min(issued.len());
                    let pick = from + rng.next_below((issued.len() - from) as u64) as usize;
                    let id = issued[pick];
                    assert_eq!(t.remove(ReqId(id)), model.remove(&id), "step {step}");
                }
                _ => {
                    let id = (9u64 << 40) | rng.next_below(next + 2);
                    assert_eq!(t.get(ReqId(id)), model.get(&id).copied(), "step {step}");
                }
            }
            assert_eq!(t.len(), model.len());
        }
        assert!(t.slots.len() > 64, "stragglers forced growth");
    }
}
