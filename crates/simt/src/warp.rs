//! Per-warp execution state, split by how often the core looks at it.
//!
//! A [`Warp`] is the cold half: the instruction stream, the one op decoded
//! from it but not yet issued and the line buffer that op's transactions
//! sit in, touched only when a scheduler offers the warp an issue slot.
//! [`WarpIssueState`] is the hot half for all of a core's warps at once —
//! struct-of-arrays, so the per-cycle "which warp can issue" question is a
//! walk over two bitset words and the `ready_at` array instead of one
//! cache line per warp. A warp whose memory op waits on a structural hazard
//! leaves its [`StructNeed`] there too, so its retries stay in the hot half.

use crate::inst::{InstStream, LineBuf, Op};
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
    /// The transactions of `decoded` when it is a load or a store. The
    /// stream writes them here and the core issues from here: a memory
    /// instruction is never moved.
    lines: LineBuf,
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
            lines: LineBuf::new(),
        }
    }

    /// The next op *without* consuming it, decoding from the stream on
    /// first peek; `None` means the stream ended and the caller retires
    /// the warp ([`WarpIssueState::finish`]). A structural-hazard retry
    /// peeks the same op again and moves nothing; [`Self::consume`] follows
    /// a successful issue. Only call for a ready warp.
    #[inline]
    pub fn peek(&mut self) -> Option<Op> {
        if self.decoded.is_none() {
            self.decoded = self.stream.decode(&mut self.lines);
        }
        self.decoded
    }

    /// The transactions of the load or store last returned by
    /// [`Self::peek`].
    #[inline]
    pub fn lines(&self) -> &[Address] {
        &self.lines
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

/// The issue/stall state of every warp slot of one core.
///
/// Two bitsets summarise the arrays: `finished` (the stream ended) and
/// `mem_blocked` (alive with `inflight >= max_outstanding`). They change
/// only in [`Self::finish`], [`Self::issue_mem`] and [`Self::load_returned`],
/// and a slot is never in both — a warp retires only when offered an issue
/// slot, which a blocked warp is not, and a retired warp issues no more
/// loads. So a slot in neither set can issue as soon as `ready_at` passes.
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
}

impl WarpIssueState {
    /// State for `n_warps` fresh warps with the given outstanding-load
    /// tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn new(n_warps: usize, max_outstanding: usize) -> Self {
        assert!(
            max_outstanding > 0,
            "a warp must tolerate at least one outstanding load"
        );
        WarpIssueState {
            ready_at: vec![0; n_warps],
            inflight: vec![0; n_warps],
            max_outstanding,
            finished: BitSet::new(n_warps),
            mem_blocked: BitSet::new(n_warps),
            n_mem_blocked: 0,
            struct_need: vec![StructNeed::NONE; n_warps],
        }
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

    /// True when `slot` is neither retired nor blocked on memory — the
    /// one-slot form of [`Self::next_issuable`].
    #[inline]
    pub fn issuable(&self, slot: usize) -> bool {
        !(self.finished.get(slot) | self.mem_blocked.get(slot))
    }

    /// The next slot along `slots` that is neither retired nor blocked on
    /// memory: it issues once its [`Self::ready_at`] has passed. Between
    /// calls the walked slot may retire or issue; no other slot changes
    /// while a core offers issue slots.
    #[inline]
    pub fn next_issuable(&self, slots: &mut BitWalk) -> Option<usize> {
        slots.next(|w| !(self.finished.word(w) | self.mem_blocked.word(w)))
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

    /// True when a warp in `slots` is blocked on outstanding loads.
    pub fn any_waiting_mem(&self, slots: Range<usize>) -> bool {
        self.mem_blocked.any_in(slots)
    }

    /// Warps currently blocked on outstanding loads.
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
        debug_assert!(!self.mem_blocked.get(slot), "a blocked warp was offered");
        self.finished.set(slot);
    }

    /// Records the issue of an ALU instruction taking `cycles`.
    #[inline]
    pub fn issue_alu(&mut self, slot: usize, now: u64, cycles: u32) {
        self.ready_at[slot] = now + cycles.max(1) as u64;
    }

    /// Records the issue of a memory instruction that produced
    /// `transactions` in-flight loads (zero for stores; L1 hits count, the
    /// core routes them through the in-flight path to model hit latency);
    /// a structural need recorded for it is cleared.
    #[inline]
    pub fn issue_mem(&mut self, slot: usize, now: u64, transactions: usize) {
        self.ready_at[slot] = now + 1;
        self.struct_need[slot] = StructNeed::NONE;
        let before = self.inflight[slot];
        self.inflight[slot] = before + transactions;
        if before < self.max_outstanding && before + transactions >= self.max_outstanding {
            self.mem_blocked.set(slot);
            self.n_mem_blocked += 1;
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
        }
    }

    /// Debug builds hold the bitsets and the blocked count to a scan of the
    /// arrays.
    pub fn debug_check(&self) {
        debug_assert!(
            (0..self.ready_at.len()).all(|s| self.mem_blocked.get(s) == self.waiting_mem(s)),
            "mem_blocked set diverged from the scan"
        );
        debug_assert_eq!(
            self.n_mem_blocked,
            self.mem_blocked.count(),
            "blocked-warp count diverged from the set"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::streams::Scripted;

    fn issuable(w: &WarpIssueState, slots: Range<usize>) -> Vec<usize> {
        let mut walk = BitWalk::over(slots);
        std::iter::from_fn(|| w.next_issuable(&mut walk)).collect()
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
        w.issue_mem(1, 1, 1);
        assert!(!w.ready(1, 2));
        assert!(w.waiting_mem(1));
        assert_eq!(w.n_waiting_mem(), 1);
        assert!(w.any_waiting_mem(0..3) && !w.any_waiting_mem(2..3));
        assert_eq!(issuable(&w, 0..3), [0, 2], "blocked warps are skipped");
        w.debug_check();
        w.load_returned(1);
        assert!(w.ready(1, 2));
        assert_eq!(w.n_waiting_mem(), 0);
        assert_eq!(issuable(&w, 1..3), [1, 2]);
        w.debug_check();
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
            w.debug_check();
        }
        w.load_returned(0);
        assert!(!w.waiting_mem(0));
        assert_eq!(w.n_waiting_mem(), 0);
        w.debug_check();
    }

    #[test]
    fn finished_when_stream_ends() {
        let mut warp = Warp::new(Scripted::new(vec![Inst::alu1()]));
        let mut w = WarpIssueState::new(1, 1);
        assert!(warp.peek().is_some());
        warp.consume();
        w.issue_alu(0, 0, 1);
        assert!(warp.peek().is_none());
        w.finish(0);
        assert!(w.all_finished());
        assert!(!w.ready(0, 100));
        assert_eq!(issuable(&w, 0..1), []);
    }

    #[test]
    fn straggling_returns_to_a_finished_warp_unblock_nothing() {
        let mut w = WarpIssueState::new(1, 2);
        w.issue_mem(0, 0, 1);
        w.finish(0);
        w.load_returned(0);
        assert_eq!(w.n_waiting_mem(), 0);
        w.debug_check();
    }

    #[test]
    fn a_peeked_op_is_re_offered_until_consumed() {
        let insts = vec![Inst::load1(0), Inst::alu1(), Inst::store1(300)];
        let mut w = Warp::new(Scripted::new(insts));
        for _ in 0..2 {
            assert_eq!(w.peek(), Some(Op::Load), "a retry decodes nothing new");
            assert_eq!(w.lines(), [Address::new(0)]);
        }
        w.consume();
        assert_eq!(w.peek(), Some(Op::Alu { cycles: 1 }));
        w.consume();
        assert_eq!(w.peek(), Some(Op::Store));
        assert_eq!(w.lines(), [Address::new(256)]);
        w.consume();
        assert_eq!(w.peek(), None);
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
