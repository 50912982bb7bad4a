//! Per-warp execution state, split by how often the core looks at it.
//!
//! A [`Warp`] is the cold half: the instruction stream and the one op
//! decoded from it but not yet issued, touched only when a scheduler offers
//! the warp an issue slot. The lines of that op sit in the core's
//! [`LineSlab`], one row per warp.
//! [`WarpIssueState`] is the hot half for all of a core's warps at once —
//! struct-of-arrays plus a ready calendar, so the per-cycle "which warp can
//! issue" question is a walk over the ready set's bitset words, and "when
//! is the next one ready" one rotate of the calendar's occupancy word,
//! instead of one cache line per warp. A warp whose memory op waits on a
//! structural hazard leaves its [`StructNeed`] there too, so its retries
//! stay in the hot half.

use crate::inst::{InstStream, LineBuf, Op, MAX_ALU_CYCLES};
use gpu_types::bits::{BitSet, BitWalk};
use gpu_types::Address;
use std::ops::Range;

/// A warp's instruction supply, generic over its stream so a core over
/// one concrete stream type holds its warps flat and decodes without a
/// virtual call.
pub struct Warp<S = Box<dyn InstStream>> {
    stream: S,
    /// An op decoded but not issued (structural hazard); retried before
    /// the stream is consulted again.
    decoded: Option<Op>,
}

impl<S> std::fmt::Debug for Warp<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warp")
            .field("decoded", &self.decoded)
            .finish()
    }
}

impl<S: InstStream> Warp<S> {
    /// Creates a warp over `stream`.
    pub fn new(stream: S) -> Self {
        Warp {
            stream,
            decoded: None,
        }
    }

    /// The next op *without* consuming it, decoding from the stream into
    /// `lines` (the warp's row of its core's [`LineSlab`]) on first peek;
    /// `None` means the stream ended and the caller retires the warp
    /// ([`WarpIssueState::finish`]). A structural-hazard retry peeks the
    /// same op again and writes nothing; [`Self::consume`] follows a
    /// successful issue. Only call for a ready warp.
    #[inline]
    pub fn peek(&mut self, mut lines: LineBuf<'_>) -> Option<Op> {
        if self.decoded.is_none() {
            self.decoded = self.stream.decode(&mut lines);
        }
        self.decoded
    }

    /// The op [`Self::peek`] would return, without decoding one.
    #[inline]
    pub fn decoded(&self) -> Option<Op> {
        self.decoded
    }

    /// Consumes the op returned by the last [`Self::peek`].
    #[inline]
    pub fn consume(&mut self) {
        debug_assert!(self.decoded.is_some(), "consume without a peeked op");
        self.decoded = None;
    }
}

/// The line buffers of a core's warps: one row of `width` lines per warp
/// slot and a length byte each, in two allocations. `width` is the core's
/// [`crate::CoreParams::max_txn_per_inst`], so a row holds exactly the
/// transactions the core issues — one line for most applications, where a
/// buffer inside every warp held [`crate::core::EGRESS_CAPACITY`].
#[derive(Debug)]
pub struct LineSlab {
    lines: Vec<Address>,
    len: Vec<u8>,
    width: usize,
}

impl LineSlab {
    /// Empty rows of `width` lines for `n_warps` warp slots.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`crate::core::EGRESS_CAPACITY`].
    pub fn new(n_warps: usize, width: usize) -> Self {
        assert!(
            width <= crate::core::EGRESS_CAPACITY,
            "a row of {width} lines is wider than any instruction issues"
        );
        LineSlab {
            lines: vec![Address::new(0); n_warps * width],
            len: vec![0; n_warps],
            width,
        }
    }

    /// Warp `slot`'s row, lent to its stream to decode into.
    #[inline]
    pub fn row(&mut self, slot: usize) -> LineBuf<'_> {
        let row = &mut self.lines[slot * self.width..][..self.width];
        LineBuf::new(row, &mut self.len[slot])
    }

    /// The lines warp `slot`'s stream last wrote.
    #[inline]
    pub fn lines(&self, slot: usize) -> &[Address] {
        &self.lines[slot * self.width..][..self.len[slot] as usize]
    }
}

/// What a memory instruction needs to issue, in one byte: its transaction
/// count, with the high bit set for a load, which also takes an L1 MSHR per
/// line unless the L1 is bypassed. [`StructNeed::NONE`] (no lines) fits
/// anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructNeed(u8);

impl StructNeed {
    /// No recorded need.
    pub const NONE: StructNeed = StructNeed(0);
    const LOAD: u8 = 0x80;

    /// The need of `lines` transactions (at most 127), a load when `load`.
    #[inline]
    pub fn new(lines: usize, load: bool) -> Self {
        debug_assert!(
            lines < Self::LOAD as usize,
            "{lines} lines overflow the need byte"
        );
        StructNeed(lines as u8 | if load { Self::LOAD } else { 0 })
    }

    /// Transactions the instruction enters the egress queue with.
    #[inline]
    pub fn lines(self) -> usize {
        (self.0 & !Self::LOAD) as usize
    }

    /// True when the instruction issues with `room` free egress entries and
    /// `mshrs` free L1 MSHR entries (`usize::MAX` while bypassing) — the
    /// structural-hazard test itself.
    #[inline]
    pub fn fits(self, room: usize, mshrs: usize) -> bool {
        let lines = self.lines();
        lines <= room && (self.0 & Self::LOAD == 0 || lines <= mshrs)
    }
}

/// Buckets in the ready calendar's ring: one per cycle of the longest
/// delay a warp can be booked behind the last sync.
const RING: usize = MAX_ALU_CYCLES as usize;

/// The ring's occupancy word, one bit per bucket.
type Occupancy = u32;
const _: () = assert!(RING == Occupancy::BITS as usize);

/// The issue/stall state of every warp slot of one core.
///
/// Two bitsets summarise the arrays: `finished` (the stream ended) and
/// `mem_blocked` (alive with `inflight >= max_outstanding`). They change
/// only in [`Self::finish`], [`Self::issue_mem`] and [`Self::load_returned`],
/// and a slot is never in both — a warp retires only when offered an issue
/// slot, which a blocked warp is not, and a retired warp issues no more
/// loads. So a slot in neither set — an *issuable* one — can issue as soon
/// as `ready_at` passes.
///
/// The **ready calendar** keeps that readiness as a set instead of
/// re-deriving it from `ready_at` on every offer. It holds the issuable
/// warps of the SWL window only (set by [`Self::set_window`]), relative to
/// `synced`, the cycle of the last [`Self::sync`]: `ready` has those whose
/// `ready_at` had passed by then, and a ring of per-cycle buckets the
/// others, each in the bucket of its `ready_at`. Every `ready_at` lies at
/// most [`MAX_ALU_CYCLES`] cycles past `synced` (it is set while a core
/// steps at `synced`, to at most that far ahead), so the ring never wraps
/// onto a booked cycle. A warp is booked when it issues or unblocks, and
/// leaves on retiring or blocking; `sync(now)` moves the buckets of
/// `(synced, now]` into `ready`.
#[derive(Debug)]
pub struct WarpIssueState {
    /// Earliest cycle each warp may issue again (ALU / issue latency).
    ready_at: Vec<u64>,
    /// Load transactions issued but not yet returned, per warp.
    inflight: Vec<usize>,
    /// Outstanding-load tolerance: once a warp's `inflight` reaches this it
    /// stalls until returns bring it back below. Models the dependency
    /// distance of the application's code — small values make it
    /// latency-bound, large values give memory-level parallelism.
    max_outstanding: usize,
    finished: BitSet,
    mem_blocked: BitSet,
    n_mem_blocked: usize,
    /// Per warp, the need of its decoded memory op while a structural
    /// hazard holds it back ([`StructNeed::NONE`] otherwise): a retry reads
    /// this byte, not the warp.
    struct_need: Vec<StructNeed>,
    /// Slots inside the SWL window: the only ones the calendar holds.
    window: BitSet,
    /// Issuable window warps whose `ready_at` had passed at `synced`.
    ready: BitSet,
    /// Issuable window warps that become ready after `synced`: bucket
    /// `ready_at % RING` holds each, as `words` bitset words, all buckets
    /// in one allocation.
    ring: Vec<u64>,
    /// Bit `b` set when bucket `b` holds a warp.
    occupied: Occupancy,
    /// Words per bucket (and per bitset).
    words: usize,
    /// The cycle of the last [`Self::sync`].
    synced: u64,
}

impl WarpIssueState {
    /// State for `n_warps` fresh warps with the given outstanding-load
    /// tolerance, all in the window and all ready.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn new(n_warps: usize, max_outstanding: usize) -> Self {
        assert!(
            max_outstanding > 0,
            "a warp must tolerate at least one outstanding load"
        );
        let words = n_warps.div_ceil(64);
        let mut state = WarpIssueState {
            ready_at: vec![0; n_warps],
            inflight: vec![0; n_warps],
            max_outstanding,
            finished: BitSet::new(n_warps),
            mem_blocked: BitSet::new(n_warps),
            n_mem_blocked: 0,
            struct_need: vec![StructNeed::NONE; n_warps],
            window: BitSet::new(n_warps),
            ready: BitSet::new(n_warps),
            ring: vec![0; RING * words],
            occupied: 0,
            words,
            synced: 0,
        };
        state.set_window(std::iter::once(0..n_warps));
        state
    }

    /// True when warp `slot` could issue an instruction at `now` (ignoring
    /// structural hazards, which the core checks separately) — the scan
    /// form, read from the arrays.
    pub fn ready(&self, slot: usize, now: u64) -> bool {
        !self.finished.get(slot)
            && self.ready_at[slot] <= now
            && self.inflight[slot] < self.max_outstanding
    }

    /// True when warp `slot` is alive but blocked on outstanding loads —
    /// the scan form, read from the arrays.
    pub fn waiting_mem(&self, slot: usize) -> bool {
        !self.finished.get(slot) && self.inflight[slot] >= self.max_outstanding
    }

    /// Earliest cycle warp `slot` may issue again.
    #[inline]
    pub fn ready_at(&self, slot: usize) -> u64 {
        self.ready_at[slot]
    }

    /// True when `slot` is neither retired nor blocked on memory.
    #[inline]
    fn issuable(&self, slot: usize) -> bool {
        !(self.finished.get(slot) | self.mem_blocked.get(slot))
    }

    /// The next slot along `slots` that is neither retired nor blocked on
    /// memory, ready or not: the scan the ready calendar replaced, kept for
    /// the core's debug oracle.
    #[inline]
    pub fn next_issuable(&self, slots: &mut BitWalk) -> Option<usize> {
        slots.next(|w| !(self.finished.word(w) | self.mem_blocked.word(w)))
    }

    /// True when `slot` is in the ready set: an issuable window warp whose
    /// `ready_at` had passed at the last [`Self::sync`].
    #[inline]
    pub fn is_ready(&self, slot: usize) -> bool {
        self.ready.get(slot)
    }

    /// The next slot along `slots` in the ready set. Between calls the
    /// walked slot may retire or issue; no other slot changes while a core
    /// offers issue slots.
    #[inline]
    pub fn next_ready_warp(&self, slots: &mut BitWalk) -> Option<usize> {
        self.ready.next(slots)
    }

    /// True when the ready set has a member.
    #[inline]
    pub fn any_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// The earliest cycle after the last [`Self::sync`] at which a booked
    /// warp becomes ready, `u64::MAX` when none is booked.
    #[inline]
    pub fn next_ready(&self) -> u64 {
        if self.occupied == 0 {
            return u64::MAX;
        }
        let from = self.synced + 1;
        let ahead = self.occupied.rotate_right((from % RING as u64) as u32);
        from + ahead.trailing_zeros() as u64
    }

    /// Brings the calendar to `now`: the warps booked for `(synced, now]`
    /// join the ready set.
    #[inline]
    pub fn sync(&mut self, now: u64) {
        debug_assert!(now >= self.synced, "the calendar moves forward only");
        let span = now - self.synced;
        let mut due = if span >= RING as u64 {
            self.occupied
        } else {
            let first = ((self.synced + 1) % RING as u64) as u32;
            let run: Occupancy = (1 << span) - 1;
            self.occupied & run.rotate_left(first)
        };
        self.synced = now;
        self.occupied &= !due;
        while due != 0 {
            let bucket = due.trailing_zeros() as usize * self.words;
            due &= due - 1;
            for w in 0..self.words {
                self.ready
                    .or_word(w, std::mem::take(&mut self.ring[bucket + w]));
            }
        }
    }

    /// Books issuable warp `slot` at its `ready_at`, if it is in the
    /// window: into the ready set once that has passed, else into its
    /// bucket.
    #[inline]
    fn book(&mut self, slot: usize) {
        if !self.window.get(slot) {
            return;
        }
        let at = self.ready_at[slot];
        if at <= self.synced {
            self.ready.set(slot);
            return;
        }
        debug_assert!(
            at - self.synced <= RING as u64,
            "warp {slot} booked {} cycles past the calendar",
            at - self.synced
        );
        let bucket = (at % RING as u64) as usize;
        self.ring[bucket * self.words + (slot >> 6)] |= 1 << (slot & 63);
        self.occupied |= 1 << bucket;
    }

    /// Sets the SWL window to the union of `windows` and re-books the
    /// calendar from the arrays: warps leaving the window leave it, warps
    /// entering are booked.
    pub fn set_window(&mut self, windows: impl Iterator<Item = Range<usize>>) {
        self.window.zero_words(0..self.words);
        self.ready.zero_words(0..self.words);
        self.ring.fill(0);
        self.occupied = 0;
        for slot in windows.flatten() {
            self.window.set(slot);
            if self.issuable(slot) {
                self.book(slot);
            }
        }
    }

    /// What warp `slot`'s decoded memory op needs, if its last issue
    /// attempt hit a structural hazard ([`StructNeed::NONE`] otherwise).
    #[inline]
    pub fn struct_need(&self, slot: usize) -> StructNeed {
        self.struct_need[slot]
    }

    /// Records that warp `slot`'s decoded memory op, of need `need`, hit a
    /// structural hazard; it stands until the op issues.
    #[inline]
    pub fn block_struct(&mut self, slot: usize, need: StructNeed) {
        self.struct_need[slot] = need;
    }

    /// True when a warp in the window is blocked on outstanding loads.
    #[inline]
    pub fn any_waiting_mem_in_window(&self) -> bool {
        (0..self.words).any(|w| self.mem_blocked.word(w) & self.window.word(w) != 0)
    }

    /// Warps in the window blocked on outstanding loads.
    pub fn n_waiting_mem_in_window(&self) -> usize {
        (0..self.words)
            .map(|w| (self.mem_blocked.word(w) & self.window.word(w)).count_ones() as usize)
            .sum()
    }

    /// Warps currently blocked on outstanding loads, in the window or not.
    pub fn n_waiting_mem(&self) -> usize {
        self.n_mem_blocked
    }

    /// True when every warp has retired.
    pub fn all_finished(&self) -> bool {
        self.finished.count() == self.ready_at.len()
    }

    /// Retires warp `slot`: its stream ended.
    #[inline]
    pub fn finish(&mut self, slot: usize) {
        debug_assert!(self.ready.get(slot), "warp {slot} retired unready");
        self.finished.set(slot);
        self.ready.clear(slot);
    }

    /// Records the issue of an ALU instruction taking `cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` exceeds [`MAX_ALU_CYCLES`].
    #[inline]
    pub fn issue_alu(&mut self, slot: usize, now: u64, cycles: u32) {
        assert!(
            cycles <= MAX_ALU_CYCLES,
            "warp slot {slot}: an ALU op of {cycles} cycles exceeds \
             MAX_ALU_CYCLES ({MAX_ALU_CYCLES})"
        );
        debug_assert!(self.ready.get(slot), "warp {slot} issued unready");
        self.ready_at[slot] = now + cycles.max(1) as u64;
        self.ready.clear(slot);
        self.book(slot);
    }

    /// Records the issue of a memory instruction that produced
    /// `transactions` in-flight loads (zero for stores; L1 hits count, the
    /// core routes them through the in-flight path to model hit latency);
    /// a structural need recorded for it is cleared.
    #[inline]
    pub fn issue_mem(&mut self, slot: usize, now: u64, transactions: usize) {
        debug_assert!(self.ready.get(slot), "warp {slot} issued unready");
        self.ready_at[slot] = now + 1;
        self.struct_need[slot] = StructNeed::NONE;
        self.ready.clear(slot);
        let before = self.inflight[slot];
        self.inflight[slot] = before + transactions;
        if before < self.max_outstanding && before + transactions >= self.max_outstanding {
            self.mem_blocked.set(slot);
            self.n_mem_blocked += 1;
        } else {
            self.book(slot);
        }
    }

    /// One of warp `slot`'s load transactions returned.
    ///
    /// # Panics
    ///
    /// Panics if no loads were in flight (a routing bug in the caller).
    #[inline]
    pub fn load_returned(&mut self, slot: usize) {
        assert!(
            self.inflight[slot] > 0,
            "load return routed to a warp with none in flight"
        );
        self.inflight[slot] -= 1;
        // Dropping just below the tolerance means the warp was blocked, and
        // so alive: a retired warp stays below it for good.
        if self.inflight[slot] + 1 == self.max_outstanding {
            self.mem_blocked.clear(slot);
            self.n_mem_blocked -= 1;
            self.book(slot);
        }
    }

    /// Debug builds hold the bitsets, the blocked count and the ready
    /// calendar to a scan of the arrays, and the calendar's window to
    /// `windows`, the schedulers' SWL windows.
    pub fn debug_check(&self, windows: impl Iterator<Item = Range<usize>>) {
        if !cfg!(debug_assertions) {
            return;
        }
        let n = self.ready_at.len();
        assert!(
            (0..n).all(|s| self.mem_blocked.get(s) == self.waiting_mem(s)),
            "mem_blocked set diverged from the scan"
        );
        assert_eq!(
            self.n_mem_blocked,
            self.mem_blocked.count(),
            "blocked-warp count diverged from the set"
        );
        let mut window = BitSet::new(n);
        windows.flatten().for_each(|s| window.set(s));
        let (mut booked, mut next) = (0, u64::MAX);
        for s in 0..n {
            assert_eq!(
                self.window.get(s),
                window.get(s),
                "calendar window diverged from the schedulers' at slot {s}"
            );
            let live = window.get(s) && self.issuable(s);
            let at = self.ready_at[s];
            assert_eq!(
                self.ready.get(s),
                live && at <= self.synced,
                "ready set diverged from the scan at slot {s} (synced {})",
                self.synced
            );
            if live && at > self.synced {
                let bucket = (at % RING as u64) as usize * self.words;
                assert!(
                    (self.ring[bucket + (s >> 6)] & 1 << (s & 63)) != 0,
                    "warp {s}, ready at {at}, is missing from its bucket"
                );
                booked += 1;
                next = next.min(at);
            }
        }
        let ring: Vec<u32> = (0..RING)
            .map(|b| {
                let words = &self.ring[b * self.words..(b + 1) * self.words];
                words.iter().map(|w| w.count_ones()).sum()
            })
            .collect();
        assert_eq!(
            ring.iter().sum::<u32>(),
            booked,
            "the ring holds warps the scan does not book"
        );
        for (b, &in_bucket) in ring.iter().enumerate() {
            assert_eq!(
                (self.occupied >> b & 1) != 0,
                in_bucket != 0,
                "occupancy of bucket {b} diverged from the ring"
            );
        }
        assert_eq!(self.next_ready(), next, "next_ready diverged from the scan");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::streams::Scripted;
    use gpu_types::SplitMix64;

    fn issuable(w: &WarpIssueState, slots: Range<usize>) -> Vec<usize> {
        let mut walk = BitWalk::over(slots);
        std::iter::from_fn(|| w.next_issuable(&mut walk)).collect()
    }

    fn ready_set(w: &WarpIssueState) -> Vec<usize> {
        let mut walk = BitWalk::over(0..w.ready_at.len());
        std::iter::from_fn(|| w.next_ready_warp(&mut walk)).collect()
    }

    /// The debug check with every slot in the window.
    fn check(w: &WarpIssueState) {
        w.debug_check(std::iter::once(0..w.ready_at.len()));
    }

    #[test]
    fn alu_latency_blocks_reissue() {
        let mut w = WarpIssueState::new(2, 1);
        assert!(w.ready(1, 0));
        w.issue_alu(1, 0, 3);
        assert!(!w.ready(1, 2));
        assert!(w.ready(1, 3));
        assert_eq!(issuable(&w, 0..2), [0, 1], "issuable is not yet ready");
    }

    #[test]
    fn outstanding_loads_block_at_tolerance() {
        let mut w = WarpIssueState::new(3, 2);
        w.issue_mem(1, 0, 1);
        assert!(w.ready(1, 1), "one outstanding load below tolerance 2");
        w.sync(1);
        w.issue_mem(1, 1, 1);
        assert!(!w.ready(1, 2));
        assert!(w.waiting_mem(1));
        assert_eq!(w.n_waiting_mem(), 1);
        assert!(w.any_waiting_mem_in_window());
        assert_eq!(issuable(&w, 0..3), [0, 2], "blocked warps are skipped");
        check(&w);
        w.set_window(std::iter::once(2..3));
        assert!(!w.any_waiting_mem_in_window());
        assert_eq!(w.n_waiting_mem_in_window(), 0);
        w.set_window(std::iter::once(0..3));
        w.load_returned(1);
        assert!(w.ready(1, 2));
        assert_eq!(w.n_waiting_mem(), 0);
        assert_eq!(issuable(&w, 1..3), [1, 2]);
        check(&w);
    }

    #[test]
    fn one_instruction_can_overshoot_the_tolerance() {
        // A divergent load adds several transactions at once; the warp
        // unblocks only when returns bring it back below the tolerance.
        let mut w = WarpIssueState::new(1, 2);
        w.issue_mem(0, 0, 4);
        for _ in 0..2 {
            w.load_returned(0);
            assert!(w.waiting_mem(0));
            check(&w);
        }
        w.load_returned(0);
        assert!(!w.waiting_mem(0));
        assert_eq!(w.n_waiting_mem(), 0);
        check(&w);
    }

    #[test]
    fn the_calendar_matches_the_scan_under_random_events() {
        // Two bitset words, delays over the whole admitted range (so the
        // ring wraps), syncs that skip more than a ring, window changes and
        // returns between syncs: after every event the calendar is the
        // scan's.
        let mut rng = SplitMix64::new(0xCA1E);
        for n in [5usize, 64, 70] {
            let mut w = WarpIssueState::new(n, 2);
            let mut window: Vec<Range<usize>> = std::iter::once(0..n).collect();
            let mut now = 0;
            for _ in 0..3_000 {
                match rng.next_below(8) {
                    0 => {
                        now += rng.next_below(2 * RING as u64);
                        w.sync(now);
                    }
                    1 => {
                        let a = rng.next_below(n as u64) as usize;
                        let b = rng.next_below(n as u64) as usize;
                        window = vec![0..a.min(b), a.max(b)..n];
                        w.set_window(window.iter().cloned());
                    }
                    2 => {
                        let s = rng.next_below(n as u64) as usize;
                        if w.inflight[s] > 0 {
                            w.load_returned(s);
                        }
                    }
                    op => {
                        w.sync(now);
                        let ready = ready_set(&w);
                        if ready.is_empty() {
                            now += 1;
                            continue;
                        }
                        let s = ready[rng.next_below(ready.len() as u64) as usize];
                        assert!(w.ready(s, now), "slot {s} in the ready set at {now}");
                        match op {
                            3 | 4 => {
                                let cycles = rng.next_below(MAX_ALU_CYCLES as u64 + 1);
                                w.issue_alu(s, now, cycles as u32);
                            }
                            5 | 6 => w.issue_mem(s, now, rng.next_below(3) as usize),
                            _ if rng.next_below(8) == 0 => w.finish(s),
                            _ => {}
                        }
                    }
                }
                w.debug_check(window.iter().cloned());
            }
        }
    }

    #[test]
    #[should_panic(expected = "warp slot 1: an ALU op of 33 cycles exceeds MAX_ALU_CYCLES (32)")]
    fn an_alu_op_longer_than_the_calendar_is_refused() {
        WarpIssueState::new(2, 1).issue_alu(1, 0, MAX_ALU_CYCLES + 1);
    }

    #[test]
    fn finished_when_stream_ends() {
        let mut warp = Warp::new(Scripted::new(vec![Inst::alu1()]));
        let mut slab = LineSlab::new(1, 1);
        let mut w = WarpIssueState::new(1, 1);
        assert!(warp.peek(slab.row(0)).is_some());
        warp.consume();
        w.issue_alu(0, 0, 1);
        assert!(warp.peek(slab.row(0)).is_none());
        w.sync(1);
        w.finish(0);
        assert!(w.all_finished());
        assert!(!w.ready(0, 100));
        assert_eq!(issuable(&w, 0..1), []);
    }

    #[test]
    fn straggling_returns_to_a_finished_warp_unblock_nothing() {
        let mut w = WarpIssueState::new(1, 2);
        w.issue_mem(0, 0, 1);
        w.sync(1);
        w.finish(0);
        w.load_returned(0);
        assert_eq!(w.n_waiting_mem(), 0);
        check(&w);
    }

    #[test]
    fn a_peeked_op_is_re_offered_until_consumed() {
        let insts = vec![Inst::load1(0), Inst::alu1(), Inst::store1(300)];
        let mut w = Warp::new(Scripted::new(insts));
        // Slot 1 of a two-warp slab: rows do not overlap.
        let mut slab = LineSlab::new(2, 2);
        for _ in 0..2 {
            assert_eq!(
                w.peek(slab.row(1)),
                Some(Op::Load),
                "a retry decodes nothing new"
            );
            assert_eq!(slab.lines(1), [Address::new(0)]);
        }
        w.consume();
        assert_eq!(w.peek(slab.row(1)), Some(Op::Alu { cycles: 1 }));
        w.consume();
        assert_eq!(w.peek(slab.row(1)), Some(Op::Store));
        assert_eq!(slab.lines(1), [Address::new(256)]);
        assert_eq!(slab.lines(0), []);
        w.consume();
        assert_eq!(w.peek(slab.row(1)), None);
    }

    #[test]
    #[should_panic(expected = "none in flight")]
    fn spurious_return_panics() {
        WarpIssueState::new(1, 1).load_returned(0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_tolerance_panics() {
        let _ = WarpIssueState::new(1, 0);
    }
}
