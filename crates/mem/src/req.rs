//! Memory requests flowing between cores, caches and memory partitions.

use gpu_types::{Address, AppId, CoreId};
use std::fmt;

/// Globally unique identifier of an in-flight memory request.
///
/// Ids are handed out by the issuing core's load/store unit; the memory
/// system treats them as opaque routing tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Whether a request reads or writes memory.
///
/// Stores are modeled write-through / no-allocate: they consume interconnect
/// and DRAM bandwidth but produce no response and never stall a warp
/// (GPU stores retire immediately from the warp's perspective).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load; the issuing warp waits for the response.
    Load,
    /// A store; fire-and-forget.
    Store,
}

/// A line-granular memory transaction, 24 bytes: every queue between a
/// core and DRAM holds these by value. The issuing core and warp slot are
/// kept in 16 bits each ([`GpuConfig::validate`] rejects machines whose
/// indices do not fit) and read through [`Self::core`] and
/// [`Self::warp_slot`].
///
/// [`GpuConfig::validate`]: gpu_types::GpuConfig::validate
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Routing/merging tag.
    pub id: ReqId,
    /// Line-aligned address.
    pub addr: Address,
    /// Application the request belongs to (drives per-app accounting).
    pub app: AppId,
    /// Issuing core (return route for the response).
    core: u16,
    /// Warp slot on the issuing core (which warp to wake).
    warp_slot: u16,
    /// Load or store.
    pub kind: AccessKind,
    /// True when the issuing core's application bypasses the caches
    /// (Mod+Bypass): the L2 treats the request as no-allocate, so a
    /// cache-insensitive streaming application stops polluting the shared
    /// L2 — the benefit the paper credits Mod+Bypass with (§VI-A).
    pub bypass_caches: bool,
}

const _: () = assert!(std::mem::size_of::<MemRequest>() == 24);

impl MemRequest {
    /// Creates a request, aligning `addr` down to its cache line.
    ///
    /// # Panics
    ///
    /// Panics if `core`'s index or `warp_slot` does not fit 16 bits.
    pub fn new(
        id: ReqId,
        app: AppId,
        core: CoreId,
        warp_slot: usize,
        addr: Address,
        kind: AccessKind,
    ) -> Self {
        let narrow = |what: &str, i: usize| {
            u16::try_from(i).unwrap_or_else(|_| panic!("{what} {i} does not fit 16 bits"))
        };
        MemRequest {
            id,
            addr: addr.line(),
            app,
            core: narrow("core", core.index()),
            warp_slot: narrow("warp slot", warp_slot),
            kind,
            bypass_caches: false,
        }
    }

    /// Issuing core (return route for the response).
    #[inline]
    pub fn core(&self) -> CoreId {
        CoreId(self.core as usize)
    }

    /// Warp slot on the issuing core (which warp to wake).
    #[inline]
    pub fn warp_slot(&self) -> usize {
        self.warp_slot as usize
    }

    /// Marks the request as cache-bypassing (see `bypass_caches`).
    pub fn bypassing(mut self) -> Self {
        self.bypass_caches = true;
        self
    }

    /// True for loads, which require a response.
    pub fn needs_response(&self) -> bool {
        self.kind == AccessKind::Load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: AccessKind) -> MemRequest {
        MemRequest::new(
            ReqId(1),
            AppId::new(0),
            CoreId(2),
            3,
            Address::new(0x1234),
            kind,
        )
    }

    #[test]
    fn constructor_line_aligns() {
        assert_eq!(req(AccessKind::Load).addr, Address::new(0x1234).line());
    }

    #[test]
    fn core_and_warp_slot_round_trip_through_16_bits() {
        let r = MemRequest::new(
            ReqId(1),
            AppId::new(0),
            CoreId(65_535),
            65_535,
            Address::new(0),
            AccessKind::Load,
        );
        assert_eq!((r.core(), r.warp_slot()), (CoreId(65_535), 65_535));
    }

    #[test]
    #[should_panic(expected = "core 65536 does not fit 16 bits")]
    fn a_core_beyond_16_bits_panics() {
        let _ = MemRequest::new(
            ReqId(1),
            AppId::new(0),
            CoreId(65_536),
            0,
            Address::new(0),
            AccessKind::Load,
        );
    }

    #[test]
    fn loads_need_responses_stores_do_not() {
        assert!(req(AccessKind::Load).needs_response());
        assert!(!req(AccessKind::Store).needs_response());
    }

    #[test]
    fn req_id_display() {
        assert_eq!(ReqId(42).to_string(), "req#42");
    }
}
