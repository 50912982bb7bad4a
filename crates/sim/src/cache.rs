//! Content-addressed memoization of deterministic simulation results.
//!
//! Every measurement in this workspace is a pure function of its inputs —
//! `(GpuConfig, application profiles, seed, RunSpec, TLP combination and
//! controller knobs)` fully determine the output, an invariant the
//! `engine_equivalence` and `parallel_determinism` suites pin. That makes
//! results cacheable by *content*: this module keys each one by a stable
//! 128-bit [`Fingerprint`] of a canonical byte-serialization of those inputs
//! (see [`gpu_types::canon`]) and memoizes the result in two tiers:
//!
//! * an **in-process registry** of decoded values, on by default, so one
//!   campaign process (e.g. `experiments` generating every figure) measures
//!   each distinct input once, and a repeat read clones the value instead
//!   of decoding it;
//! * a **persistent on-disk store** of encoded records under a cache
//!   directory (`--cache-dir`), so repeated invocations skip simulation
//!   entirely.
//!
//! This is the only memo of a result: alone profiles, sweeps and runs all
//! read through it, so with the cache disabled (`--no-cache`) nothing is
//! kept and every read simulates. The process starts with the cache on, no
//! directory and no verification; the `experiments` flags are the only
//! settings ([`set_enabled`], [`set_dir`], [`set_verify_fraction`]).
//!
//! The memory tier is **single-flight**: concurrent lookups of the same
//! fingerprint elect one leader to simulate while the others block and
//! share its value (see [`memoize`]). Campaign-level parallelism can
//! therefore never duplicate a simulation, no matter how requests race.
//!
//! # Invalidation
//!
//! [`ENGINE_VERSION`] is folded into every fingerprint. **Any change to
//! engine semantics — anything that alters a simulated counter — and any
//! change to a cached payload encoding or to a [`Canon`] impl must bump
//! it**; the golden-fingerprint test (`crates/sim/tests/cache_store.rs`)
//! fails loudly on accidental drift. Entries written under another engine
//! version simply never match and are rewritten in place.
//!
//! # On-disk format
//!
//! One file per entry, `<32-hex-digit fingerprint>.rec`, framed as:
//!
//! ```text
//! magic "EBMC" | format u32 | engine u32 | fingerprint u128
//!             | payload_len u64 | checksum u128 | payload bytes
//! ```
//!
//! (all little-endian; the checksum is [`gpu_types::canon::fingerprint`] of
//! the payload). Readers treat *any* deviation — bad magic, version
//! mismatch, truncation, checksum failure — as a miss, so corrupt files are
//! ignored and rewritten. Writers stage into a unique temp file in the same
//! directory and `rename` it into place, which is atomic on POSIX: a
//! concurrent reader sees the old bytes, the new bytes, or no file — never
//! a torn record. Concurrent writers race benignly (same key ⇒ same bytes).
//!
//! # Verification
//!
//! With a verify fraction set (`--cache-verify`), a deterministic per-key
//! sample of hits — memory and disk alike — is re-simulated and its
//! encoding asserted bit-identical to the hit's — a standing audit that the
//! determinism invariant (and therefore the whole cache) still holds.
//!
//! Bytes exist only at the disk boundary and for verification: a memoized
//! value is a [`Record`], whose one layout is stated next to its type
//! (windows and counters in `gpu-types`, [`crate::alone::AloneSample`],
//! `ComboSweep` and `ControllerRun` in `ebm-core`). All hits and misses
//! are counted ([`stats`]) and surfaced through the trace subsystem as a
//! [`TraceEvent::CacheStats`] event.
//!
//! [`Canon`]: gpu_types::canon::Canon
//! [`TraceEvent::CacheStats`]: crate::trace::TraceEvent::CacheStats

use gpu_types::canon::{fingerprint, CanonBuf, CanonReader, Fingerprint, Record};
use gpu_types::{FxHashMap, SplitMix64};
use std::any::Any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Version of the simulation engine's observable semantics.
///
/// Folded into every cache fingerprint: results computed under different
/// engine versions never alias. Bump this when *any* of the following
/// changes:
///
/// * the cycle-level behaviour of the machine (anything that changes a
///   counter value for some input);
/// * a [`gpu_types::canon::Canon`] implementation of an input type;
/// * the byte encoding of any cached payload.
///
/// The golden-fingerprint test pins the `(ENGINE_VERSION, canonical
/// encoding, hash)` triple so accidental drift fails CI.
pub const ENGINE_VERSION: u32 = 2;

/// Version of the on-disk record *frame* (not the payload semantics).
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"EBMC";
/// Frame bytes preceding the payload: magic + format + engine + fingerprint
/// + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 4 + 16 + 8 + 16;

/// Builder for a cache key: a canonical byte stream seeded with the entry
/// kind and [`ENGINE_VERSION`], reduced to a [`Fingerprint`].
#[derive(Debug)]
pub struct KeyBuilder {
    buf: CanonBuf,
}

impl KeyBuilder {
    /// Starts a key for entries of `kind` (e.g. `"sweep"`, `"alone"`).
    pub fn new(kind: &str) -> Self {
        // Room for a machine config, an application and a run spec, so a
        // key is built without growing its buffer.
        let mut buf = CanonBuf::with_capacity(512);
        buf.push_str(kind);
        buf.push_u32(ENGINE_VERSION);
        KeyBuilder { buf }
    }

    /// Appends one input's canonical bytes.
    pub fn push<T: gpu_types::canon::Canon + ?Sized>(&mut self, v: &T) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a raw `u64` input (seeds, cycle counts).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.buf.push_u64(v);
        self
    }

    /// Appends a raw `usize` input (core counts), widened to `u64`.
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.buf.push_usize(v);
        self
    }

    /// Appends a bool input (knobs).
    pub fn push_bool(&mut self, v: bool) -> &mut Self {
        self.buf.push_bool(v);
        self
    }

    /// Hashes the accumulated bytes into the cache key.
    pub fn finish(&self) -> Fingerprint {
        fingerprint(self.buf.as_bytes())
    }
}

/// Hit/miss/bypass counters of the process-wide cache (monotonic since
/// process start or the last [`reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a tier (memory or disk).
    pub hits: u64,
    /// Hits served by the on-disk store specifically (subset of `hits`).
    pub disk_hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Lookups made while the cache was disabled.
    pub bypasses: u64,
    /// Records written to the on-disk store.
    pub stores: u64,
    /// Hits re-simulated and checked bit-identical by verify mode.
    pub verified: u64,
    /// Hits served by waiting on another thread's in-flight compute of the
    /// same fingerprint (single-flight joins; subset of `hits`).
    pub inflight_joined: u64,
}

impl CacheStats {
    /// Fraction of enabled lookups that hit, in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One live cell per [`CacheStats`] field. The cells publish no other
/// data, so every access is `Relaxed`.
#[derive(Clone, Copy)]
enum Cell {
    Hits,
    DiskHits,
    Misses,
    Bypasses,
    Stores,
    Verified,
    InflightJoined,
}

static CELLS: [AtomicU64; 7] = [const { AtomicU64::new(0) }; 7];

fn bump(cell: Cell) {
    CELLS[cell as usize].fetch_add(1, Ordering::Relaxed);
}

/// Runtime configuration of the process-wide cache.
struct Config {
    enabled: bool,
    dir: Option<PathBuf>,
    verify_fraction: f64,
}

/// The cache on, no directory, no verification.
static CONFIG: Mutex<Config> = Mutex::new(Config {
    enabled: true,
    dir: None,
    verify_fraction: 0.0,
});

/// A memoized value, type-erased: what the memory tier holds and what a
/// finished flight hands its joiners.
type Value = Arc<dyn Any + Send + Sync>;

fn memory() -> &'static Mutex<FxHashMap<Fingerprint, Value>> {
    static MEM: OnceLock<Mutex<FxHashMap<Fingerprint, Value>>> = OnceLock::new();
    MEM.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// The `T` behind a memory-tier or flight value.
///
/// # Panics
///
/// Panics, naming `fp`, when the value is of another type: two entry
/// points keyed different computations under one fingerprint.
fn downcast<T: Clone + 'static>(fp: Fingerprint, value: &Value) -> T {
    value.downcast_ref::<T>().cloned().unwrap_or_else(|| {
        panic!(
            "cache entry {fp} is not a {}: two computations share one fingerprint",
            std::any::type_name::<T>()
        )
    })
}

/// State of one in-flight computation (single-flight batching).
enum FlightState {
    /// The leader is still computing; joiners wait on the condvar.
    Pending,
    /// The leader finished; joiners take the shared value.
    Done(Value),
    /// The leader panicked; joiners retry the whole lookup (one of them
    /// becomes the next leader).
    Failed,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, outcome: FlightState) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = outcome;
        self.cv.notify_all();
    }
}

/// Registry of fingerprints currently being computed. An entry exists only
/// while a leader is between "memory miss" and "result published"; it is
/// removed (and waiters notified) before the leader returns.
fn inflight() -> &'static Mutex<FxHashMap<Fingerprint, Arc<Flight>>> {
    static INFLIGHT: OnceLock<Mutex<FxHashMap<Fingerprint, Arc<Flight>>>> = OnceLock::new();
    INFLIGHT.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// Removes the leader's registry entry on every exit path and marks the
/// flight failed if the leader never completed it — a panicking compute
/// must wake its joiners (they retry and re-raise the same panic themselves
/// rather than deadlocking on the condvar).
struct FlightGuard {
    fp: Fingerprint,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightGuard {
    /// Stores `value` in the memory tier, publishes it to every joiner and
    /// retires the flight.
    fn finish(mut self, value: Value) {
        self.completed = true;
        memory().lock().unwrap().insert(self.fp, value.clone());
        inflight()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.fp);
        self.flight.complete(FlightState::Done(value));
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if !self.completed {
            self.flight.complete(FlightState::Failed);
            inflight()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&self.fp);
        }
    }
}

/// Enables or disables the whole cache (both tiers). Disabled lookups call
/// straight through to the compute closure and count as bypasses.
pub fn set_enabled(enabled: bool) {
    CONFIG.lock().unwrap().enabled = enabled;
}

/// Points the persistent tier at `dir` (`None` keeps only the in-memory
/// registry). The directory is created on first write.
pub fn set_dir(dir: Option<PathBuf>) {
    CONFIG.lock().unwrap().dir = dir;
}

/// Sets the fraction of hits that verify mode re-simulates (0 disables
/// verification).
///
/// # Panics
///
/// Panics if `fraction` is not in `[0, 1]` (NaN included).
pub fn set_verify_fraction(fraction: f64) {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "cache verify fraction {fraction} is not in [0, 1]"
    );
    CONFIG.lock().unwrap().verify_fraction = fraction;
}

/// Drops every in-memory entry (the disk tier is untouched). Benchmarks use
/// this to measure disk-warm rather than memory-warm lookups.
pub fn clear_memory() {
    memory().lock().unwrap().clear();
}

/// Current counter snapshot.
pub fn stats() -> CacheStats {
    let get = |cell: Cell| CELLS[cell as usize].load(Ordering::Relaxed);
    CacheStats {
        hits: get(Cell::Hits),
        disk_hits: get(Cell::DiskHits),
        misses: get(Cell::Misses),
        bypasses: get(Cell::Bypasses),
        stores: get(Cell::Stores),
        verified: get(Cell::Verified),
        inflight_joined: get(Cell::InflightJoined),
    }
}

/// Zeroes every counter.
pub fn reset_stats() {
    for cell in &CELLS {
        cell.store(0, Ordering::Relaxed);
    }
}

/// Emits the current counters into `sink` as a
/// [`TraceEvent::CacheStats`](crate::trace::TraceEvent::CacheStats) event
/// plus one [`TraceEvent::CacheTier`](crate::trace::TraceEvent::CacheTier)
/// event per tier — the memory/disk hit funnel — (gated on the sink being
/// enabled, like every emission site).
pub fn emit_stats<S: crate::trace::TraceSink + ?Sized>(sink: &mut S) {
    if !sink.enabled() {
        return;
    }
    let s = stats();
    sink.emit(crate::trace::TraceEvent::CacheStats {
        cycle: 0,
        hits: s.hits,
        disk_hits: s.disk_hits,
        misses: s.misses,
        bypasses: s.bypasses,
        stores: s.stores,
        verified: s.verified,
        inflight_joined: s.inflight_joined,
    });
    // The funnel: a lookup that misses memory falls through to disk; a
    // disk hit or a compute back-fills the memory tier.
    sink.emit(crate::trace::TraceEvent::CacheTier {
        cycle: 0,
        tier: "memory".to_string(),
        hits: s.hits - s.disk_hits,
        misses: s.misses + s.disk_hits,
        stores: s.misses + s.disk_hits,
    });
    sink.emit(crate::trace::TraceEvent::CacheTier {
        cycle: 0,
        tier: "disk".to_string(),
        hits: s.disk_hits,
        misses: s.misses,
        stores: s.stores,
    });
}

/// Whether a hit on `fp` should be re-simulated under the given verify
/// fraction. Deterministic per key: the same sampled subset is audited on
/// every run, so a verify pass is reproducible.
fn should_verify(fp: Fingerprint, fraction: f64) -> bool {
    if fraction <= 0.0 {
        return false;
    }
    if fraction >= 1.0 {
        return true;
    }
    let seed = (fp.0 as u64) ^ ((fp.0 >> 64) as u64);
    SplitMix64::new(seed).next_f64() < fraction
}

/// Asserts that a re-simulation encodes to the bytes of the hit it audits.
fn verify_hit(fp: Fingerprint, cached: &[u8], fresh: &[u8]) {
    assert!(
        fresh == cached,
        "cache verification failed for {fp}: the hit encodes to {} bytes, its \
         re-simulation to {} bytes{} — either the determinism invariant broke or \
         ENGINE_VERSION was not bumped after an engine change",
        cached.len(),
        fresh.len(),
        if fresh.len() == cached.len() {
            " (same length, different content)"
        } else {
            ""
        }
    );
    bump(Cell::Verified);
}

/// Memoizes `compute`'s result under `fp`: looks it up in the memory tier,
/// then the disk tier, and on a miss runs `compute`, keeps the value in
/// memory and its [`Record`] bytes on disk.
///
/// A memory hit clones the kept value; only a disk hit decodes
/// ([`Record::from_bytes`]: every byte must be consumed), and only a disk
/// store or a verification encodes. A payload that fails to decode panics,
/// because checksummed bytes under the current [`ENGINE_VERSION`] can only
/// be undecodable if a layout changed without the mandatory version bump.
///
/// The compute closure runs with no cache lock held, so it may fan out
/// across threads (and those threads may themselves call into the cache).
/// Concurrent lookups of the same fingerprint are **single-flight**: the
/// first thread to miss becomes the leader and computes; every other thread
/// arriving before the result is published blocks and shares the leader's
/// value (counted as a hit and as `inflight_joined`). Exactly one
/// simulation runs per distinct in-flight key — the request-batching
/// primitive the campaign scheduler relies on. If the leader panics,
/// waiters wake, retry the lookup, and one of them recomputes
/// (deterministic inputs mean they re-raise the same panic rather than
/// deadlock).
///
/// # Panics
///
/// Panics on an undecodable disk payload; when verify mode re-simulates a
/// hit and its encoding is not bit-identical to the hit's; and, naming
/// `fp`, when the memory tier holds a value of another type under `fp`.
pub fn memoize<T: Record + Clone + Send + Sync + 'static>(
    fp: Fingerprint,
    compute: impl FnOnce() -> T,
) -> T {
    let (enabled, verify) = {
        let c = CONFIG.lock().unwrap();
        (c.enabled, should_verify(fp, c.verify_fraction))
    };
    if !enabled {
        bump(Cell::Bypasses);
        return compute();
    }

    // Re-checked after every failed join: by then the memory tier may have
    // been filled, or the failed leader's registry entry removed.
    let guard = loop {
        let hit = memory().lock().unwrap().get(&fp).cloned();
        if let Some(hit) = hit {
            bump(Cell::Hits);
            let value = downcast::<T>(fp, &hit);
            if verify {
                verify_hit(fp, &value.to_bytes(), &compute().to_bytes());
            }
            return value;
        }

        // `Err(flight)` means this thread registered the flight and leads;
        // `Ok(flight)` means another thread leads and this one joins.
        let role = {
            let mut inf = inflight().lock().unwrap_or_else(|e| e.into_inner());
            match inf.get(&fp) {
                Some(flight) => Ok(flight.clone()),
                None => {
                    let flight = Arc::new(Flight::new());
                    inf.insert(fp, flight.clone());
                    Err(flight)
                }
            }
        };
        match role {
            Err(flight) => {
                // This thread is the leader; the guard retires the registry
                // entry on every exit path, including a compute panic.
                break FlightGuard {
                    fp,
                    flight,
                    completed: false,
                };
            }
            Ok(flight) => {
                let mut state = flight.state.lock().unwrap_or_else(|e| e.into_inner());
                while matches!(*state, FlightState::Pending) {
                    state = flight.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                match &*state {
                    FlightState::Done(value) => {
                        bump(Cell::Hits);
                        bump(Cell::InflightJoined);
                        return downcast::<T>(fp, value);
                    }
                    // Leader panicked: retry from the top.
                    FlightState::Failed | FlightState::Pending => continue,
                }
            }
        }
    };

    let dir = CONFIG.lock().unwrap().dir.clone();
    if let Some(dir) = dir.as_deref() {
        if let Some(bytes) = DiskStore::new(dir).load(fp) {
            bump(Cell::Hits);
            bump(Cell::DiskHits);
            let value = T::from_bytes(&bytes).unwrap_or_else(|| {
                panic!(
                    "cache payload for {fp} does not decode ({} bytes): a payload \
                     encoding changed without bumping ENGINE_VERSION",
                    bytes.len()
                )
            });
            if verify {
                verify_hit(fp, &bytes, &compute().to_bytes());
            }
            guard.finish(Arc::new(value.clone()));
            return value;
        }
    }

    bump(Cell::Misses);
    let value = compute();
    if let Some(dir) = dir.as_deref() {
        if DiskStore::new(dir).store(fp, &value.to_bytes()) {
            bump(Cell::Stores);
        }
    }
    guard.finish(Arc::new(value.clone()));
    value
}

/// [`memoize`] for a computation that is its own byte payload: the memory
/// tier keeps the bytes as they are, and the disk tier stores them
/// verbatim.
pub fn get_or_compute(fp: Fingerprint, compute: impl FnOnce() -> Vec<u8>) -> Arc<[u8]> {
    memoize(fp, || Raw(compute().into())).0
}

/// [`get_or_compute`]'s record: bytes that are their own layout.
#[derive(Clone)]
struct Raw(Arc<[u8]>);

impl Record for Raw {
    fn put(&self, buf: &mut CanonBuf) {
        self.0.iter().for_each(|&b| buf.push_u8(b));
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        Some(Raw(std::iter::from_fn(|| r.read_u8()).collect()))
    }
}

/// The persistent tier: one framed, checksummed record file per
/// fingerprint in a flat directory. See the module docs for the format and
/// atomicity guarantees. [`memoize`] drives this internally; it is public
/// so tests (and external tooling) can exercise the format directly.
#[derive(Debug, Clone)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// A store rooted at `dir` (not created until the first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskStore { dir: dir.into() }
    }

    /// The record file path for `fp`.
    pub fn path_of(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fp}.rec"))
    }

    /// Loads the payload stored for `fp`. Returns `None` on any deviation —
    /// missing file, bad magic, format or engine version mismatch, frame
    /// truncation, length mismatch or checksum failure — never an error:
    /// a bad record is simply a miss and will be rewritten.
    pub fn load(&self, fp: Fingerprint) -> Option<Vec<u8>> {
        let raw = std::fs::read(self.path_of(fp)).ok()?;
        Self::decode(&raw, fp)
    }

    fn decode(raw: &[u8], fp: Fingerprint) -> Option<Vec<u8>> {
        if raw.len() < HEADER_LEN || raw[..4] != MAGIC {
            return None;
        }
        let u32_at = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().unwrap());
        let u128_at = |at: usize| u128::from_le_bytes(raw[at..at + 16].try_into().unwrap());
        if u32_at(4) != FORMAT_VERSION || u32_at(8) != ENGINE_VERSION || u128_at(12) != fp.0 {
            return None;
        }
        let len = usize::try_from(u64_at(28)).ok()?;
        let checksum = u128_at(36);
        let payload = raw.get(HEADER_LEN..)?;
        if payload.len() != len || fingerprint(payload).0 != checksum {
            return None;
        }
        Some(payload.to_vec())
    }

    fn encode(fp: Fingerprint, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&ENGINE_VERSION.to_le_bytes());
        out.extend_from_slice(&fp.0.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fingerprint(payload).0.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Writes (or rewrites) the record for `fp` atomically: the bytes are
    /// staged into a process-unique temp file in the cache directory and
    /// renamed into place. Returns whether the record landed; I/O failures
    /// are swallowed — a read-only or full disk degrades the cache, never
    /// the simulation.
    pub fn store(&self, fp: Fingerprint, payload: &[u8]) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{fp}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = Self::encode(fp, payload);
        if std::fs::write(&tmp, &bytes).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        let ok = std::fs::rename(&tmp, self.path_of(fp)).is_ok();
        if !ok {
            let _ = std::fs::remove_file(&tmp);
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ebm_cache_unit_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_round_trip() {
        let dir = temp_dir("roundtrip");
        let store = DiskStore::new(&dir);
        assert_eq!(store.load(fp(7)), None, "empty store misses");
        assert!(store.store(fp(7), b"payload bytes"));
        assert_eq!(store.load(fp(7)).as_deref(), Some(&b"payload bytes"[..]));
        // Overwrite with new content.
        assert!(store.store(fp(7), b"other"));
        assert_eq!(store.load(fp(7)).as_deref(), Some(&b"other"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_fingerprint_in_frame_is_a_miss() {
        let dir = temp_dir("wrongfp");
        let store = DiskStore::new(&dir);
        assert!(store.store(fp(1), b"data"));
        // A record renamed to another key's file name must not be served.
        std::fs::rename(store.path_of(fp(1)), store.path_of(fp(2))).unwrap();
        assert_eq!(store.load(fp(2)), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_constant_matches_layout() {
        let frame = DiskStore::encode(fp(3), b"xy");
        assert_eq!(frame.len(), HEADER_LEN + 2);
        assert_eq!(
            DiskStore::decode(&frame, fp(3)).as_deref(),
            Some(&b"xy"[..])
        );
    }

    #[test]
    fn verify_sampling_is_deterministic_and_bounded() {
        assert!(!should_verify(fp(1), 0.0));
        assert!(should_verify(fp(1), 1.0));
        let f = 0.25;
        let picked: Vec<bool> = (0..64).map(|i| should_verify(fp(i), f)).collect();
        assert_eq!(
            picked,
            (0..64).map(|i| should_verify(fp(i), f)).collect::<Vec<_>>()
        );
        let n = picked.iter().filter(|&&p| p).count();
        assert!(n > 0 && n < 64, "sampled {n}/64 at fraction {f}");
    }
}
