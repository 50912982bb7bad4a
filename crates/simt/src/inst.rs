//! Warp instructions and the stream abstraction applications implement.

use gpu_types::Address;

/// Maximum per-thread addresses one warp instruction can carry (the warp
/// width of Table I).
pub const WARP_WIDTH: usize = 32;

/// A fixed-capacity, inline list of per-thread addresses.
///
/// Instruction streams produce one of these per memory instruction on the
/// hot path of every simulated cycle, so it must not touch the heap: the
/// addresses live inline (capacity [`WARP_WIDTH`]) and the list is `Copy`.
/// It dereferences to `&[Address]`, so slice methods (`iter`, `len`,
/// indexing) work directly.
///
/// ```
/// use gpu_simt::inst::AddrList;
/// use gpu_types::Address;
/// let l: AddrList = (0..4).map(|i| Address::new(i * 128)).collect();
/// assert_eq!(l.len(), 4);
/// assert_eq!(l[2], Address::new(256));
/// ```
#[derive(Clone, Copy)]
pub struct AddrList {
    len: u8,
    buf: [Address; WARP_WIDTH],
}

impl AddrList {
    /// Creates an empty list.
    pub const fn new() -> Self {
        AddrList {
            len: 0,
            buf: [Address::new(0); WARP_WIDTH],
        }
    }

    /// Creates a single-address list.
    pub const fn one(addr: Address) -> Self {
        let mut l = Self::new();
        l.buf[0] = addr;
        l.len = 1;
        l
    }

    /// Appends an address.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds [`WARP_WIDTH`] addresses — a warp
    /// cannot generate more per-thread accesses than it has threads.
    pub fn push(&mut self, addr: Address) {
        assert!(
            (self.len as usize) < WARP_WIDTH,
            "more than {WARP_WIDTH} addresses in one warp instruction"
        );
        self.buf[self.len as usize] = addr;
        self.len += 1;
    }

    /// Shortens the list to at most `n` addresses (no-op when already
    /// shorter).
    pub fn truncate(&mut self, n: usize) {
        if n < self.len as usize {
            self.len = n as u8;
        }
    }
}

impl Default for AddrList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for AddrList {
    type Target = [Address];

    fn deref(&self) -> &[Address] {
        &self.buf[..self.len as usize]
    }
}

impl FromIterator<Address> for AddrList {
    fn from_iter<I: IntoIterator<Item = Address>>(iter: I) -> Self {
        let mut l = AddrList::new();
        for a in iter {
            l.push(a);
        }
        l
    }
}

impl From<&[Address]> for AddrList {
    fn from(addrs: &[Address]) -> Self {
        addrs.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a AddrList {
    type Item = &'a Address;
    type IntoIter = std::slice::Iter<'a, Address>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for AddrList {
    type Item = Address;
    type IntoIter = std::iter::Take<std::array::IntoIter<Address, WARP_WIDTH>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

impl PartialEq for AddrList {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for AddrList {}

impl std::fmt::Debug for AddrList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One warp-level instruction.
///
/// The simulator is trace-driven at warp granularity: an application model
/// emits a stream of these per warp, and the core's issue logic, coalescer,
/// caches and the memory system below produce all timing behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// An arithmetic (or scratchpad-served) instruction occupying the warp
    /// for `cycles` cycles. Scratchpad traffic is folded in here because the
    /// paper's EB metric deliberately excludes scratchpad bandwidth (§III
    /// footnote: the scratchpad "is not susceptible to contention due to
    /// high TLP").
    Alu {
        /// Cycles before the warp may issue again.
        cycles: u32,
    },
    /// A global load; `addrs` are the per-thread byte addresses, which the
    /// coalescer merges into unique 128-byte transactions. The warp blocks
    /// once its outstanding-load tolerance is exceeded.
    Load {
        /// Per-thread addresses (any length `1..=32`), stored inline so
        /// instruction generation never allocates.
        addrs: AddrList,
    },
    /// A global store: write-through, no-allocate, fire-and-forget.
    Store {
        /// Per-thread addresses.
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
}

/// A per-warp instruction source.
///
/// Implementations must be deterministic given their construction seed; the
/// whole simulator is reproducible from `(config, seed)`. The `Send` bound
/// lets a machine move between threads (fan-out workers); streams are plain
/// data plus a seeded RNG, so this costs implementors nothing.
pub trait InstStream: Send {
    /// Produces the warp's next instruction, or `None` when the warp has
    /// retired (streams modeling steady-state kernels never return `None`).
    fn next_inst(&mut self) -> Option<Inst>;
}

/// A boxed stream is a stream, so a core can be generic over its stream
/// type (static dispatch for the machine's one concrete application
/// stream) while tests and probes keep mixing kinds behind
/// `Box<dyn InstStream>`.
impl<T: InstStream + ?Sized> InstStream for Box<T> {
    #[inline]
    fn next_inst(&mut self) -> Option<Inst> {
        (**self).next_inst()
    }
}

/// Coalesces per-thread addresses into unique line-aligned transaction
/// addresses, preserving first-appearance order (Table I: "memory coalescing
/// and inter-warp merging enabled" — inter-warp merging happens in the
/// MSHRs). The result is stack-allocated: this runs once per memory
/// instruction on the per-cycle hot path.
pub fn coalesce(addrs: &[Address]) -> AddrList {
    let mut lines = AddrList::new();
    for a in addrs {
        let line = a.line();
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::LINE_SIZE;

    #[test]
    fn coalesce_merges_same_line() {
        let addrs: Vec<Address> = (0..32).map(|i| Address::new(i * 4)).collect();
        assert_eq!(&coalesce(&addrs)[..], &[Address::new(0)]);
    }

    #[test]
    fn coalesce_fully_divergent() {
        let addrs: Vec<Address> = (0..4).map(|i| Address::new(i * LINE_SIZE * 7)).collect();
        assert_eq!(coalesce(&addrs).len(), 4);
    }

    #[test]
    fn coalesce_preserves_first_appearance_order() {
        // 300 falls in the line of 256; 10 falls in the line of 0.
        let addrs = vec![
            Address::new(256),
            Address::new(0),
            Address::new(300),
            Address::new(10),
        ];
        assert_eq!(&coalesce(&addrs)[..], &[Address::new(256), Address::new(0)]);
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
    fn addr_list_pushes_and_truncates() {
        let mut l: AddrList = (0..5).map(|i| Address::new(i * 128)).collect();
        assert_eq!(l.len(), 5);
        l.truncate(2);
        assert_eq!(&l[..], &[Address::new(0), Address::new(128)]);
        l.truncate(10);
        assert_eq!(l.len(), 2, "truncate never grows");
        l.push(Address::new(999));
        assert_eq!(l.len(), 3);
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
