//! Canonical byte-serialization and 128-bit content fingerprints.
//!
//! The result cache (`gpu_sim::cache`) keys every memoized simulation by a
//! fingerprint of its inputs. Two properties make that sound:
//!
//! 1. **Canonical bytes.** Every input type serializes through [`Canon`]
//!    into a [`CanonBuf`] with a fixed field order and fixed-width encodings
//!    (integers little-endian, floats as IEEE-754 bit patterns, strings
//!    length-prefixed). The same logical value always produces the same
//!    bytes, on every platform.
//! 2. **Stable hashing.** [`fingerprint`] reduces those bytes to 128 bits
//!    with a two-lane SplitMix64 mix — the same in-tree primitive as
//!    [`crate::rng::SplitMix64`] — so the mapping never changes underneath
//!    stored cache entries. Any intentional change to an encoding or to the
//!    mix *must* be accompanied by an engine-version bump; the golden
//!    fingerprint test in `gpu-sim` fails loudly otherwise.
//!
//! [`CanonReader`] is the inverse of [`CanonBuf`] and is deliberately
//! forgiving: every read returns `Option` so that a truncated or corrupt
//! cache payload decodes to `None` instead of panicking.
//!
//! A cached *value* states its layout once, as a [`Record`]: `put` writes
//! it to a [`CanonBuf`] and `get` reads it back. The generic impls below
//! (numbers, TLP levels and combinations, vectors, pairs) compose into
//! every payload the cache stores.

use crate::config::{
    CacheConfig, DramConfig, GpuConfig, PagePolicy, SamplingConfig, WarpSchedPolicy,
};
use crate::tlp::{TlpCombo, TlpLevel};
use std::fmt;

/// Types with a canonical byte representation used for cache fingerprints.
pub trait Canon {
    /// Appends this value's canonical bytes to `buf`.
    fn canon(&self, buf: &mut CanonBuf);
}

/// Append-only byte buffer with fixed-width, little-endian primitive
/// encodings. The writer side of the canonical format.
#[derive(Debug, Default, Clone)]
pub struct CanonBuf {
    bytes: Vec<u8>,
}

impl CanonBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        CanonBuf::default()
    }

    /// Creates an empty buffer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        CanonBuf {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the buffer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn push_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn push_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` so 32- and 64-bit hosts agree.
    pub fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact, including the
    /// sign of zero and NaN payloads).
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn push_bool(&mut self, v: bool) {
        self.push_u8(v as u8);
    }

    /// Appends a string as a `u64` byte length followed by its UTF-8 bytes.
    pub fn push_str(&mut self, v: &str) {
        self.push_u64(v.len() as u64);
        self.bytes.extend_from_slice(v.as_bytes());
    }

    /// Appends a value implementing [`Canon`].
    pub fn push<T: Canon + ?Sized>(&mut self, v: &T) {
        v.canon(self);
    }
}

/// Cursor over canonical bytes; the reader side of the format.
///
/// Every read returns `Option` — `None` on underrun — so corrupt cache
/// payloads fail soft.
#[derive(Debug)]
pub struct CanonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> CanonReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        CanonReader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn read_usize(&mut self) -> Option<usize> {
        self.read_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Reads an `f64` from its bit pattern.
    pub fn read_f64(&mut self) -> Option<f64> {
        self.read_u64().map(f64::from_bits)
    }

    /// Reads a bool; bytes other than 0/1 are corrupt.
    pub fn read_bool(&mut self) -> Option<bool> {
        match self.read_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a length-prefixed UTF-8 string slice.
    pub fn read_str(&mut self) -> Option<&'a str> {
        let len = self.read_usize()?;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

/// A value with one byte layout: how a memoized result is stored.
///
/// `get` is the inverse of `put` and fails soft — `None` on truncation or
/// on a value the type cannot hold — so a corrupt payload never panics.
pub trait Record: Sized {
    /// Appends this value's bytes to `buf`.
    fn put(&self, buf: &mut CanonBuf);

    /// Reads one value written by [`Record::put`].
    fn get(r: &mut CanonReader<'_>) -> Option<Self>;

    /// This value's bytes.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = CanonBuf::new();
        self.put(&mut buf);
        buf.into_bytes()
    }

    /// The value `bytes` hold, which must be all of them: trailing bytes
    /// are as corrupt as missing ones.
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = CanonReader::new(bytes);
        let v = Self::get(&mut r)?;
        r.is_empty().then_some(v)
    }
}

/// A number is its [`CanonBuf`] primitive.
macro_rules! primitive_record {
    ($($t:ty: $push:ident, $read:ident;)*) => {$(
        impl Record for $t {
            fn put(&self, buf: &mut CanonBuf) {
                buf.$push(*self);
            }

            fn get(r: &mut CanonReader<'_>) -> Option<Self> {
                r.$read()
            }
        }
    )*};
}

primitive_record! {
    u64: push_u64, read_u64;
    usize: push_usize, read_usize;
    f64: push_f64, read_f64;
}

/// Its [`Canon`] bytes; a level outside `1..=24` is corrupt.
impl Record for TlpLevel {
    fn put(&self, buf: &mut CanonBuf) {
        self.canon(buf);
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        TlpLevel::new(r.read_u32()?)
    }
}

/// Its [`Canon`] bytes, which are its levels' `Vec` record; an empty
/// combination is corrupt.
impl Record for TlpCombo {
    fn put(&self, buf: &mut CanonBuf) {
        self.canon(buf);
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        let levels = Vec::<TlpLevel>::get(r).filter(|levels| !levels.is_empty());
        levels.map(TlpCombo::new)
    }
}

/// A `usize` length, then the items.
impl<T: Record> Record for Vec<T> {
    fn put(&self, buf: &mut CanonBuf) {
        buf.push_usize(self.len());
        for v in self {
            v.put(buf);
        }
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        (0..r.read_usize()?).map(|_| T::get(r)).collect()
    }
}

impl<A: Record, B: Record> Record for (A, B) {
    fn put(&self, buf: &mut CanonBuf) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        Some((A::get(r)?, B::get(r)?))
    }
}

/// A 128-bit content fingerprint; the cache key of a memoized simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The fingerprint as a fixed-width lowercase hex string (32 digits),
    /// used in cache file names.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The SplitMix64 finalizer (same constants as [`crate::rng::SplitMix64`]).
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes canonical bytes to a stable 128-bit fingerprint.
///
/// Two independent 64-bit lanes each absorb the input in 8-byte words
/// (zero-padded tail) through the SplitMix64 finalizer, with the second lane
/// pre-rotating its state and scaling the word by the Fx multiplier so the
/// lanes never collapse to the same function. The byte length is folded in
/// last, so prefixes of one another hash differently. This function is part
/// of the on-disk cache contract: changing it orphans every stored entry,
/// and the golden fingerprint test pins it.
pub fn fingerprint(bytes: &[u8]) -> Fingerprint {
    const LANE_A_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
    const LANE_B_SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95; // the Fx multiplier
    let mut a = LANE_A_SEED;
    let mut b = LANE_B_SEED;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap());
        a = mix64(a ^ w);
        b = mix64(b.rotate_left(32) ^ w.wrapping_mul(LANE_B_SEED));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        let w = u64::from_le_bytes(tail);
        a = mix64(a ^ w);
        b = mix64(b.rotate_left(32) ^ w.wrapping_mul(LANE_B_SEED));
    }
    a = mix64(a ^ bytes.len() as u64);
    b = mix64(b.rotate_left(32) ^ (bytes.len() as u64).wrapping_mul(LANE_B_SEED));
    Fingerprint(((a as u128) << 64) | b as u128)
}

impl Canon for TlpLevel {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u32(self.get());
    }
}

impl Canon for TlpCombo {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_usize(self.len());
        for l in self.levels() {
            buf.push(l);
        }
    }
}

impl Canon for CacheConfig {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u64(self.capacity_bytes);
        buf.push_usize(self.associativity);
        buf.push_usize(self.mshr_entries);
        buf.push_usize(self.mshr_merge);
        buf.push_u32(self.hit_latency);
    }
}

impl Canon for PagePolicy {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u8(match self {
            PagePolicy::Open => 0,
            PagePolicy::Closed => 1,
        });
    }
}

impl Canon for WarpSchedPolicy {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u8(match self {
            WarpSchedPolicy::Gto => 0,
            WarpSchedPolicy::Lrr => 1,
        });
    }
}

impl Canon for DramConfig {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_usize(self.n_banks);
        buf.push_usize(self.n_bank_groups);
        buf.push_u64(self.row_bytes);
        buf.push_u32(self.t_cl);
        buf.push_u32(self.t_rp);
        buf.push_u32(self.t_rcd);
        buf.push_u32(self.t_ras);
        buf.push_u32(self.t_ccd_l);
        buf.push_u32(self.t_ccd_s);
        buf.push_u32(self.t_rrd);
        buf.push_u32(self.burst_cycles);
        buf.push(&self.page_policy);
    }
}

impl Canon for SamplingConfig {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_u64(self.window_cycles);
        buf.push_u64(self.relay_latency);
        buf.push_usize(self.table_entries);
        buf.push_bool(self.designated);
    }
}

impl Canon for GpuConfig {
    fn canon(&self, buf: &mut CanonBuf) {
        buf.push_usize(self.n_cores);
        buf.push_usize(self.warps_per_core);
        buf.push_usize(self.threads_per_warp);
        buf.push_usize(self.schedulers_per_core);
        buf.push(&self.l1);
        buf.push(&self.l2);
        buf.push_usize(self.n_partitions);
        buf.push(&self.dram);
        buf.push_usize(self.xbar_requests_per_cycle);
        buf.push_u32(self.xbar_latency);
        buf.push(&self.sampling);
        buf.push(&self.scheduler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{AppWindow, MemCounters};

    /// `v` reads back from its own bytes, and neither a proper prefix of
    /// them nor a longer run of bytes decodes.
    fn assert_record<T: Record + PartialEq + fmt::Debug>(v: &T) -> Vec<u8> {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).as_ref(), Some(v));
        for cut in 0..bytes.len() {
            assert_eq!(T::from_bytes(&bytes[..cut]), None, "{v:?} cut at {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(T::from_bytes(&longer), None, "{v:?} with a trailing byte");
        bytes
    }

    fn level(l: u32) -> TlpLevel {
        TlpLevel::new(l).unwrap()
    }

    #[test]
    fn generic_records_round_trip_in_their_canon_layouts() {
        assert_eq!(assert_record(&7u64), 7u64.to_le_bytes());
        assert_eq!(assert_record(&9usize), 9u64.to_le_bytes());
        assert_eq!(assert_record(&-0.0f64), (-0.0f64).to_bits().to_le_bytes());
        let canon = |v: &dyn Canon| {
            let mut buf = CanonBuf::new();
            v.canon(&mut buf);
            buf.into_bytes()
        };
        assert_eq!(assert_record(&level(6)), canon(&level(6)));
        let combo = TlpCombo::pair(level(2), level(24));
        assert_eq!(assert_record(&combo), canon(&combo));
        // A vector is its length, then its items; a pair is its halves.
        let trace = vec![(3u64, vec![level(1), level(8)]), (5, vec![])];
        let bytes = assert_record(&trace);
        assert_eq!(bytes.len(), 8 + (8 + 8 + 2 * 4) + (8 + 8));
        assert_eq!(bytes[..8], 2u64.to_le_bytes());
        assert_eq!(assert_record(&Vec::<f64>::new()), 0u64.to_le_bytes());
    }

    #[test]
    fn window_records_hold_counters_cycles_then_peak() {
        let counters = MemCounters {
            l1_accesses: 1,
            l1_misses: 2,
            l2_accesses: 3,
            l2_misses: 4,
            dram_bytes: 5,
            row_hits: 6,
            row_misses: 7,
            warp_insts: 8,
        };
        let words: Vec<u8> = (1..=8u64).flat_map(u64::to_le_bytes).collect();
        assert_eq!(assert_record(&counters), words);
        let w = AppWindow::new(counters, 1_000, 12.5);
        let bytes = assert_record(&w);
        assert_eq!(bytes[..64], words[..]);
        assert_eq!(bytes[64..72], 1_000u64.to_le_bytes());
        assert_eq!(bytes[72..], 12.5f64.to_bits().to_le_bytes());
        assert_record(&vec![w, w]);
    }

    #[test]
    fn records_refuse_values_their_types_cannot_hold() {
        let window = |cycles: u64, peak: f64| {
            let mut buf = CanonBuf::new();
            MemCounters::default().put(&mut buf);
            buf.push_u64(cycles);
            buf.push_f64(peak);
            AppWindow::from_bytes(buf.as_bytes())
        };
        assert!(window(10, 1.0).is_some());
        for (cycles, peak) in [(0, 1.0), (10, 0.0), (10, -1.0), (10, f64::NAN)] {
            assert_eq!(window(cycles, peak), None, "{cycles} cycles, peak {peak}");
        }
        for l in [0u32, 25] {
            assert_eq!(TlpLevel::from_bytes(&l.to_le_bytes()), None, "level {l}");
        }
        assert_eq!(TlpCombo::from_bytes(&0u64.to_le_bytes()), None, "no levels");
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = CanonBuf::new();
        buf.push_u8(7);
        buf.push_u32(0xDEAD_BEEF);
        buf.push_u64(u64::MAX - 1);
        buf.push_usize(42);
        buf.push_f64(-0.0);
        buf.push_bool(true);
        buf.push_str("BLK_BFS");
        let bytes = buf.into_bytes();
        let mut r = CanonReader::new(&bytes);
        assert_eq!(r.read_u8(), Some(7));
        assert_eq!(r.read_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.read_u64(), Some(u64::MAX - 1));
        assert_eq!(r.read_usize(), Some(42));
        assert_eq!(r.read_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.read_bool(), Some(true));
        assert_eq!(r.read_str(), Some("BLK_BFS"));
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_fail_soft() {
        let mut buf = CanonBuf::new();
        buf.push_u64(123);
        let bytes = buf.into_bytes();
        let mut r = CanonReader::new(&bytes[..5]);
        assert_eq!(r.read_u64(), None);
        // A string whose claimed length exceeds the buffer must not panic.
        let mut buf = CanonBuf::new();
        buf.push_u64(1_000);
        buf.push_u8(b'x');
        let bytes = buf.into_bytes();
        assert_eq!(CanonReader::new(&bytes).read_str(), None);
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut r = CanonReader::new(&[2]);
        assert_eq!(r.read_bool(), None);
    }

    #[test]
    fn fingerprint_is_deterministic_and_length_aware() {
        let a = fingerprint(b"effective bandwidth");
        assert_eq!(a, fingerprint(b"effective bandwidth"));
        assert_ne!(a, fingerprint(b"effective bandwidtH"));
        // Zero padding of the tail must not collide with explicit zeros.
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abc\0"));
        assert_ne!(fingerprint(b""), fingerprint(b"\0"));
    }

    #[test]
    fn config_canon_distinguishes_presets_and_fields() {
        fn fp(cfg: &GpuConfig) -> Fingerprint {
            let mut buf = CanonBuf::new();
            buf.push(cfg);
            fingerprint(buf.as_bytes())
        }
        let paper = GpuConfig::paper();
        let small = GpuConfig::small();
        assert_eq!(fp(&paper), fp(&paper.clone()));
        assert_ne!(fp(&paper), fp(&small));
        let mut tweaked = GpuConfig::paper();
        tweaked.dram.page_policy = PagePolicy::Closed;
        assert_ne!(fp(&paper), fp(&tweaked));
        let mut tweaked = GpuConfig::paper();
        tweaked.scheduler = WarpSchedPolicy::Lrr;
        assert_ne!(fp(&paper), fp(&tweaked));
    }

    #[test]
    fn combo_canon_distinguishes_order() {
        fn fp(c: &TlpCombo) -> Fingerprint {
            let mut buf = CanonBuf::new();
            buf.push(c);
            fingerprint(buf.as_bytes())
        }
        let ab = TlpCombo::pair(TlpLevel::new(4).unwrap(), TlpLevel::new(8).unwrap());
        let ba = TlpCombo::pair(TlpLevel::new(8).unwrap(), TlpLevel::new(4).unwrap());
        assert_ne!(fp(&ab), fp(&ba));
    }
}
