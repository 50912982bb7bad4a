//! Warp instructions and the stream abstraction applications implement.
//!
//! Two vocabularies. The issue path moves a decoded instruction as an
//! 8-byte [`Op`] plus the coalesced lines a stream wrote into the
//! [`LineBuf`] its core lends the warp ([`InstStream::decode`]). [`Inst`] /
//! [`AddrList`] — per-thread addresses, a full warp wide — are what
//! scripted streams and tests are written in; they coalesce into the same
//! buffer.

use crate::core::EGRESS_CAPACITY;
use gpu_types::Address;

/// Maximum per-thread addresses one warp instruction can carry (the warp
/// width of Table I).
pub const WARP_WIDTH: usize = 32;

/// Longest latency an [`Op::Alu`] may take, in cycles. A core books each
/// warp that issues into a ring of this many per-cycle buckets (the ready
/// calendar of [`crate::warp::WarpIssueState`]), so a longer op could not
/// be told from a shorter one; application profiles are validated
/// against it. The 26 application models use 1, 2 and 4.
pub const MAX_ALU_CYCLES: u32 = 32;

/// A fixed-capacity, inline, `Copy` list of addresses. It dereferences to
/// `&[Address]`, so slice methods (`iter`, `len`, indexing) work directly.
///
/// ```
/// use gpu_simt::inst::AddrList;
/// use gpu_types::Address;
/// let l: AddrList = (0..4).map(|i| Address::new(i * 128)).collect();
/// assert_eq!(l.len(), 4);
/// assert_eq!(l[2], Address::new(256));
/// ```
#[derive(Clone, Copy)]
pub struct Addrs<const N: usize> {
    len: u8,
    buf: [Address; N],
}

/// The per-thread addresses of one scripted memory instruction, a full
/// warp wide.
pub type AddrList = Addrs<WARP_WIDTH>;

/// Storage for one [`LineBuf`] of [`EGRESS_CAPACITY`] lines, for decoding
/// outside a core ([`InstStream::next_inst`], tests, probes):
/// [`Addrs::line_buf`] lends it.
pub type LineArray = Addrs<EGRESS_CAPACITY>;

impl<const N: usize> Addrs<N> {
    /// Creates an empty list.
    pub const fn new() -> Self {
        Addrs {
            len: 0,
            buf: [Address::new(0); N],
        }
    }

    /// Creates a single-address list.
    pub fn one(addr: Address) -> Self {
        std::iter::once(addr).collect()
    }

    /// Appends an address.
    ///
    /// # Panics
    ///
    /// Panics when the list is full — a warp cannot generate more
    /// per-thread accesses than it has threads.
    #[inline]
    pub fn push(&mut self, addr: Address) {
        assert!(
            (self.len as usize) < N,
            "more than {N} addresses in one warp instruction"
        );
        self.buf[self.len as usize] = addr;
        self.len += 1;
    }

    /// Lends the list's storage as a [`LineBuf`] of capacity `N`; what is
    /// written through it is this list's content afterwards.
    pub fn line_buf(&mut self) -> LineBuf<'_> {
        LineBuf::new(&mut self.buf, &mut self.len)
    }
}

/// The coalesced transactions of one memory instruction, written into
/// storage its decoder's caller owns: at most [`Self::capacity`] unique
/// line addresses in first-appearance order. A core lends each warp one
/// row of its line slab ([`crate::warp::LineSlab`]),
/// [`crate::CoreParams::max_txn_per_inst`] lines wide, and issues from the
/// same row: a decoded instruction holds exactly the lines the core issues
/// and is never copied. It dereferences to `&[Address]`.
pub struct LineBuf<'a> {
    buf: &'a mut [Address],
    len: &'a mut u8,
}

impl<'a> LineBuf<'a> {
    /// A buffer over `buf` (at most 255 lines) whose length lives in
    /// `len`; it holds what `buf[..len]` held.
    #[inline]
    pub(crate) fn new(buf: &'a mut [Address], len: &'a mut u8) -> Self {
        debug_assert!(buf.len() <= u8::MAX as usize && *len as usize <= buf.len());
        LineBuf { buf, len }
    }

    /// Lines the buffer can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Empties the buffer.
    #[inline]
    pub fn clear(&mut self) {
        *self.len = 0;
    }

    /// Appends a line not yet held (the consecutive lines of a contiguous
    /// access); anything else goes through [`Self::coalesce`].
    ///
    /// # Panics
    ///
    /// Panics when the buffer is full: the writer was to stop at
    /// [`Self::capacity`].
    #[inline]
    pub fn push(&mut self, line: Address) {
        let n = *self.len as usize;
        assert!(
            n < self.buf.len(),
            "more than {} lines in one instruction",
            self.buf.len()
        );
        self.buf[n] = line;
        *self.len += 1;
    }

    /// The coalescer (Table I: "memory coalescing and inter-warp merging
    /// enabled" — inter-warp merging happens in the MSHRs): appends the
    /// line of one thread's `addr` unless it is already held. Lines past
    /// the capacity are dropped; the core would not issue them.
    #[inline]
    pub fn coalesce(&mut self, addr: Address) {
        let line = addr.line();
        if (*self.len as usize) < self.buf.len() && !self.contains(&line) {
            self.push(line);
        }
    }
}

impl std::ops::Deref for LineBuf<'_> {
    type Target = [Address];

    #[inline]
    fn deref(&self) -> &[Address] {
        &self.buf[..*self.len as usize]
    }
}

impl std::fmt::Debug for LineBuf<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<const N: usize> Default for Addrs<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> std::ops::Deref for Addrs<N> {
    type Target = [Address];

    #[inline]
    fn deref(&self) -> &[Address] {
        &self.buf[..self.len as usize]
    }
}

impl<const N: usize> FromIterator<Address> for Addrs<N> {
    fn from_iter<I: IntoIterator<Item = Address>>(iter: I) -> Self {
        let mut l = Self::new();
        iter.into_iter().for_each(|a| l.push(a));
        l
    }
}

impl<const N: usize> PartialEq for Addrs<N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> Eq for Addrs<N> {}

impl<const N: usize> std::fmt::Debug for Addrs<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What a decoded warp instruction does. A memory op's transactions are
/// the lines its stream left in the [`LineBuf`] it decoded into.
///
/// The simulator is trace-driven at warp granularity: an application model
/// emits a stream of these per warp, and the core's issue logic, caches and
/// the memory system below produce all timing behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An arithmetic (or scratchpad-served) instruction occupying the warp
    /// for `cycles` cycles. Scratchpad traffic is folded in here because the
    /// paper's EB metric deliberately excludes scratchpad bandwidth (§III
    /// footnote: the scratchpad "is not susceptible to contention due to
    /// high TLP").
    Alu {
        /// Cycles before the warp may issue again, `1..=`[`MAX_ALU_CYCLES`]
        /// (zero counts as one).
        cycles: u32,
    },
    /// A global load, one transaction per line. The warp blocks once its
    /// outstanding-load tolerance is exceeded.
    Load,
    /// A global store: write-through, no-allocate, fire-and-forget.
    Store,
}

/// One warp-level instruction written out in full, per-thread addresses
/// and all: the vocabulary of scripted streams and tests, and what
/// [`InstStream::next_inst`] hands to callers that want a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// [`Op::Alu`].
    Alu {
        /// Cycles before the warp may issue again.
        cycles: u32,
    },
    /// [`Op::Load`] of the lines `addrs` coalesce to.
    Load {
        /// Per-thread byte addresses (any length `0..=32`).
        addrs: AddrList,
    },
    /// [`Op::Store`] to the lines `addrs` coalesce to.
    Store {
        /// Per-thread byte addresses.
        addrs: AddrList,
    },
}

impl Inst {
    /// Convenience constructor for a single-cycle ALU instruction.
    pub fn alu1() -> Inst {
        Inst::Alu { cycles: 1 }
    }

    /// Convenience constructor for a one-address load.
    pub fn load1(addr: u64) -> Inst {
        Inst::Load {
            addrs: AddrList::one(Address::new(addr)),
        }
    }

    /// Convenience constructor for a one-address store.
    pub fn store1(addr: u64) -> Inst {
        Inst::Store {
            addrs: AddrList::one(Address::new(addr)),
        }
    }

    /// Decodes this instruction the way [`InstStream::decode`] must: a
    /// memory instruction's per-thread addresses coalesce into `lines`.
    pub fn decode(&self, lines: &mut LineBuf<'_>) -> Op {
        let (op, addrs) = match self {
            Inst::Alu { cycles } => return Op::Alu { cycles: *cycles },
            Inst::Load { addrs } => (Op::Load, addrs),
            Inst::Store { addrs } => (Op::Store, addrs),
        };
        lines.clear();
        for &addr in addrs.iter() {
            lines.coalesce(addr);
        }
        op
    }
}

/// A per-warp instruction source.
///
/// Implementations must be deterministic given their construction seed; the
/// whole simulator is reproducible from `(config, seed)`. The `Send` bound
/// lets a machine move between threads (fan-out workers); streams are plain
/// data plus a seeded RNG, so this costs implementors nothing.
pub trait InstStream: Send {
    /// Decodes the warp's next instruction, or `None` when the warp has
    /// retired (streams modeling steady-state kernels never return `None`).
    /// A load or store overwrites `lines` with its coalesced transactions —
    /// unique line addresses in first-appearance order, the first
    /// [`LineBuf::capacity`] of them — and makes the same draws whatever
    /// that capacity; an ALU instruction need not touch it.
    fn decode(&mut self, lines: &mut LineBuf<'_>) -> Option<Op>;

    /// The next instruction as a value: [`Self::decode`] into a scratch
    /// buffer of [`EGRESS_CAPACITY`] lines, for tests and probes. A memory
    /// instruction comes back already coalesced, one address per line.
    fn next_inst(&mut self) -> Option<Inst> {
        let mut lines = LineArray::new();
        let op = self.decode(&mut lines.line_buf())?;
        let addrs = lines.iter().copied().collect();
        Some(match op {
            Op::Alu { cycles } => Inst::Alu { cycles },
            Op::Load => Inst::Load { addrs },
            Op::Store => Inst::Store { addrs },
        })
    }
}

/// A boxed stream is a stream, so a core can be generic over its stream
/// type (static dispatch for the machine's one concrete application
/// stream) while tests and probes keep mixing kinds behind
/// `Box<dyn InstStream>`.
impl<T: InstStream + ?Sized> InstStream for Box<T> {
    #[inline]
    fn decode(&mut self, lines: &mut LineBuf<'_>) -> Option<Op> {
        (**self).decode(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::LINE_SIZE;

    fn coalesce(addrs: impl IntoIterator<Item = u64>) -> LineArray {
        let addrs = addrs.into_iter().map(Address::new).collect();
        let mut lines = LineArray::new();
        assert_eq!(Inst::Load { addrs }.decode(&mut lines.line_buf()), Op::Load);
        lines
    }

    #[test]
    fn coalesce_merges_same_line() {
        assert_eq!(&coalesce((0..32).map(|i| i * 4))[..], &[Address::new(0)]);
    }

    #[test]
    fn coalesce_fully_divergent() {
        assert_eq!(coalesce((0..4).map(|i| i * LINE_SIZE * 7)).len(), 4);
    }

    #[test]
    fn coalesce_preserves_first_appearance_order() {
        // 300 falls in the line of 256; 10 falls in the line of 0.
        assert_eq!(
            &coalesce([256, 0, 300, 10])[..],
            &[Address::new(256), Address::new(0)]
        );
    }

    #[test]
    fn coalesce_keeps_the_first_lines_of_a_wider_instruction() {
        // Duplicates do not use up capacity; a new line met after the
        // buffer filled is dropped.
        let paired = (0..30).map(|i| (i / 2) * LINE_SIZE);
        let lines = coalesce(paired.chain([99 * LINE_SIZE, 100 * LINE_SIZE]));
        let mut expect: Vec<Address> = (0..15).map(|i| Address::new(i * LINE_SIZE)).collect();
        expect.push(Address::new(99 * LINE_SIZE));
        assert_eq!(&lines[..], &expect[..]);
        let divergent = coalesce((0..32).map(|i| i * LINE_SIZE));
        assert_eq!(divergent.len(), EGRESS_CAPACITY);
        assert_eq!(divergent[15], Address::new(15 * LINE_SIZE));
    }

    #[test]
    fn decode_overwrites_the_previous_instruction() {
        let mut lines = coalesce([0, 128, 256]);
        assert_eq!(Inst::store1(640).decode(&mut lines.line_buf()), Op::Store);
        assert_eq!(&lines[..], &[Address::new(640)]);
        assert_eq!(
            Inst::alu1().decode(&mut lines.line_buf()),
            Op::Alu { cycles: 1 }
        );
    }

    #[test]
    fn op_is_one_word() {
        assert!(std::mem::size_of::<Op>() <= 8);
        assert!(std::mem::size_of::<Option<Op>>() <= 8);
    }

    #[test]
    #[should_panic]
    fn pushing_past_the_capacity_panics() {
        let mut buf = [Address::new(0); 3];
        let mut len = 0;
        let mut lines = LineBuf::new(&mut buf, &mut len);
        for i in 0..=3 {
            lines.push(Address::new(i * LINE_SIZE));
        }
    }

    #[test]
    fn a_narrow_buffer_keeps_the_first_unique_lines() {
        // What a core with `max_txn_per_inst` 3 is lent: the first three
        // unique lines of the full coalesce, in order.
        let addrs: AddrList = [5, 1, 5, 9, 1, 2, 7]
            .map(|l| Address::new(l * LINE_SIZE))
            .into_iter()
            .collect();
        let wide = coalesce(addrs.iter().map(|a| a.raw()));
        let (mut buf, mut len) = ([Address::new(0); 3], 0);
        let mut narrow = LineBuf::new(&mut buf, &mut len);
        assert_eq!(Inst::Load { addrs }.decode(&mut narrow), Op::Load);
        assert_eq!(&narrow[..], &wide[..3]);
        assert_eq!(narrow.capacity(), 3);
    }

    #[test]
    fn inst_constructors() {
        assert_eq!(Inst::alu1(), Inst::Alu { cycles: 1 });
        assert_eq!(
            Inst::load1(5),
            Inst::Load {
                addrs: AddrList::one(Address::new(5))
            }
        );
        assert!(matches!(Inst::store1(7), Inst::Store { addrs } if addrs[0] == Address::new(7)));
    }

    #[test]
    fn addr_list_holds_a_full_warp() {
        let l: AddrList = (0..32).map(Address::new).collect();
        assert_eq!(l.len(), 32);
    }

    #[test]
    #[should_panic(expected = "more than")]
    fn addr_list_overflow_panics() {
        let _: AddrList = (0..33).map(Address::new).collect();
    }
}
