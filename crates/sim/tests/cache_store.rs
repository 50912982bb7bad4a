//! Cache-layer regression tests: golden-fingerprint stability, on-disk
//! store corruption recovery, concurrent writers, and the typed,
//! single-flight in-memory tier.
//!
//! These tests drive [`gpu_sim::cache::DiskStore`], the fingerprint
//! primitives and the memory tier directly, the latter only under
//! fingerprints private to this file. One test switches verify mode on;
//! every memory-tier test takes [`MEMORY`] so none of them sees it.

use gpu_sim::cache::{get_or_compute, memoize, DiskStore, KeyBuilder, ENGINE_VERSION};
use gpu_sim::harness::RunSpec;
use gpu_types::canon::{fingerprint, CanonBuf, CanonReader, Fingerprint, Record};
use gpu_types::GpuConfig;
use gpu_workloads::by_name;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serializes the tests that read or write the global memory tier, since
/// one of them changes the process-wide verify fraction.
static MEMORY: Mutex<()> = Mutex::new(());

fn memory_turn() -> std::sync::MutexGuard<'static, ()> {
    MEMORY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Times a [`Counted`] record has been decoded.
static DECODES: AtomicUsize = AtomicUsize::new(0);

/// A `u64` record that counts its decodes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counted(u64);

impl Record for Counted {
    fn put(&self, buf: &mut CanonBuf) {
        self.0.put(buf);
    }

    fn get(r: &mut CanonReader<'_>) -> Option<Self> {
        DECODES.fetch_add(1, Ordering::SeqCst);
        u64::get(r).map(Counted)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ebm_cache_store_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pins the `(ENGINE_VERSION, canonical encoding, hash)` triple for a fixed
/// representative key. If this value drifts, previously written cache
/// directories silently stop matching — which is only correct when
/// [`ENGINE_VERSION`] was bumped deliberately. When you bump the version
/// (or deliberately change a `Canon` impl), recompute the constant and
/// update it in the same commit.
#[test]
fn golden_fingerprint_is_stable() {
    assert_eq!(ENGINE_VERSION, 2, "update the golden hash with the bump");
    let mut key = KeyBuilder::new("golden");
    key.push(&GpuConfig::small())
        .push(by_name("BLK").expect("known app"))
        .push_u64(42)
        .push(&RunSpec::new(500, 2_000));
    assert_eq!(
        key.finish().to_hex(),
        "ae968d05947d97ae8dc56131c57a5b0b",
        "canonical encoding or hash changed: bump ENGINE_VERSION and update \
         this constant in the same commit"
    );
}

/// The raw byte hash itself is pinned independently of any `Canon` impl.
#[test]
fn raw_fingerprint_is_stable() {
    assert_eq!(
        fingerprint(b"ebm").to_hex(),
        "3413c7bd2546ed18c253f12d0d71e3c7"
    );
}

#[test]
fn fingerprints_differ_across_kinds_and_inputs() {
    let base = KeyBuilder::new("alone").push_u64(1).finish();
    assert_ne!(base, KeyBuilder::new("sweep").push_u64(1).finish());
    assert_ne!(base, KeyBuilder::new("alone").push_u64(2).finish());
    assert_eq!(base, KeyBuilder::new("alone").push_u64(1).finish());
}

#[test]
fn corrupt_records_are_misses_and_rewritable() {
    let dir = temp_dir("corrupt");
    let store = DiskStore::new(&dir);
    let fp = Fingerprint(0xABCD);
    let payload = b"simulation result bytes".to_vec();
    assert!(store.store(fp, &payload));
    let path = store.path_of(fp);

    // Flip one payload byte: checksum mismatch => miss.
    let mut raw = std::fs::read(&path).unwrap();
    *raw.last_mut().unwrap() ^= 0xFF;
    std::fs::write(&path, &raw).unwrap();
    assert_eq!(store.load(fp), None, "corrupt payload must miss");

    // Rewrite heals the entry.
    assert!(store.store(fp, &payload));
    assert_eq!(store.load(fp), Some(payload.clone()));

    // Truncate mid-frame: miss, not a panic.
    let raw = std::fs::read(&path).unwrap();
    std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
    assert_eq!(store.load(fp), None, "truncated record must miss");

    // Garbage shorter than the header: miss.
    std::fs::write(&path, b"xx").unwrap();
    assert_eq!(store.load(fp), None, "tiny garbage must miss");

    // An empty file (e.g. a crashed writer's leftovers): miss.
    std::fs::write(&path, b"").unwrap();
    assert_eq!(store.load(fp), None, "empty file must miss");

    assert!(store.store(fp, &payload));
    assert_eq!(store.load(fp), Some(payload));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two threads hammering one directory with interleaved writes and reads:
/// every load must return either `None` or a complete, checksummed payload
/// — never torn bytes (the atomic temp-file + rename contract).
#[test]
fn concurrent_writers_never_produce_torn_reads() {
    let dir = temp_dir("concurrent");
    let keys: Vec<Fingerprint> = (0..8).map(|i| Fingerprint(0x1000 + i)).collect();
    let payload_of = |fp: Fingerprint, writer: u64| -> Vec<u8> {
        // Both writers store different (but self-identifying) payloads for
        // the same keys, so a read can validate whichever version it sees.
        let mut p = fp.0.to_le_bytes().to_vec();
        p.extend_from_slice(&writer.to_le_bytes());
        p.extend(std::iter::repeat_n(writer as u8, 512));
        p
    };
    std::thread::scope(|scope| {
        for writer in 0u64..2 {
            let dir = &dir;
            let keys = &keys;
            scope.spawn(move || {
                let store = DiskStore::new(dir);
                for round in 0..30 {
                    for &fp in keys {
                        store.store(fp, &payload_of(fp, writer));
                        if let Some(bytes) = store.load(fp) {
                            // Whatever version landed, it must be one of
                            // the two complete payloads.
                            assert!(
                                bytes == payload_of(fp, 0) || bytes == payload_of(fp, 1),
                                "torn read at {fp} round {round}"
                            );
                        }
                    }
                }
            });
        }
    });
    // After the dust settles every key resolves to a complete record.
    let store = DiskStore::new(&dir);
    for &fp in &keys {
        let bytes = store.load(fp).expect("record must exist");
        assert!(bytes == payload_of(fp, 0) || bytes == payload_of(fp, 1));
    }
    // No temp files were leaked by successful writers.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-flight: N threads requesting the same fingerprint while the
/// leader is mid-compute must all block, receive the leader's value (their
/// own computation would differ), and run the compute closure exactly once.
#[test]
fn concurrent_requesters_share_one_execution() {
    let _turn = memory_turn();
    // Private to this test; no other get_or_compute caller in the workspace
    // uses a literal fingerprint in this range.
    let fp = Fingerprint(0x5F5F_0000_0000_0001);
    const JOINERS: usize = 3;
    let executions = AtomicUsize::new(0);
    let arrived = AtomicUsize::new(0);

    let results: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let leader = scope.spawn(|| {
            get_or_compute(fp, || {
                executions.fetch_add(1, Ordering::SeqCst);
                // Hold the flight open until every joiner has announced
                // itself, plus a grace period for them to reach the
                // condvar, so the joins genuinely overlap the compute.
                while arrived.load(Ordering::SeqCst) < JOINERS {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
                b"single-flight payload".to_vec()
            })
            .to_vec()
        });
        let joiners: Vec<_> = (0..JOINERS)
            .map(|_| {
                scope.spawn(|| {
                    // Wait until the leader is provably inside its compute
                    // closure before looking up the same key.
                    while executions.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    arrived.fetch_add(1, Ordering::SeqCst);
                    get_or_compute(fp, || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        b"a joiner's own payload".to_vec()
                    })
                    .to_vec()
                })
            })
            .collect();
        let mut out = vec![leader.join().expect("leader must not panic")];
        out.extend(
            joiners
                .into_iter()
                .map(|j| j.join().expect("joiner must not panic")),
        );
        out
    });

    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "exactly one simulation must run for one in-flight fingerprint"
    );
    for r in &results {
        assert_eq!(
            r.as_slice(),
            b"single-flight payload",
            "every requester must receive the leader's value"
        );
    }
    let joined = gpu_sim::cache::stats().inflight_joined;
    assert!(
        joined >= JOINERS as u64,
        "joiners must be counted as in-flight joins (saw {joined})"
    );
}

/// A panicking leader must not strand its joiners: they wake, retry, and
/// one of them recomputes the entry.
#[test]
fn failed_leader_lets_joiners_retry() {
    let _turn = memory_turn();
    let fp = Fingerprint(0x5F5F_0000_0000_0002);
    let attempts = AtomicUsize::new(0);
    let joiner_waiting = AtomicUsize::new(0);

    let joined_value = std::thread::scope(|scope| {
        let leader = scope.spawn(|| {
            get_or_compute(fp, || {
                attempts.fetch_add(1, Ordering::SeqCst);
                while joiner_waiting.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                panic!("leader dies mid-flight");
            })
        });
        let joiner = scope.spawn(|| {
            while attempts.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            joiner_waiting.store(1, Ordering::SeqCst);
            get_or_compute(fp, || {
                attempts.fetch_add(1, Ordering::SeqCst);
                b"recovered".to_vec()
            })
            .to_vec()
        });
        assert!(leader.join().is_err(), "leader must propagate its panic");
        joiner.join().expect("joiner must recover, not deadlock")
    });

    assert_eq!(joined_value.as_slice(), b"recovered");
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        2,
        "the joiner must have recomputed after the leader failed"
    );
}

/// The memory tier holds values: a hit clones the kept value, so neither
/// `Record::get` nor `compute` runs again.
#[test]
fn a_memory_hit_never_decodes() {
    let _turn = memory_turn();
    let fp = Fingerprint(0x5F5F_0000_0000_0003);
    let computes = AtomicUsize::new(0);
    let read = || {
        memoize(fp, || {
            computes.fetch_add(1, Ordering::SeqCst);
            Counted(42)
        })
    };
    let before = gpu_sim::cache::stats();
    let decodes = DECODES.load(Ordering::SeqCst);
    assert_eq!([read(), read(), read()], [Counted(42); 3]);
    let after = gpu_sim::cache::stats();
    assert_eq!(computes.load(Ordering::SeqCst), 1, "one miss computes");
    assert_eq!(
        DECODES.load(Ordering::SeqCst),
        decodes,
        "a memory hit decoded"
    );
    assert_eq!(
        (after.misses - before.misses, after.hits - before.hits),
        (1, 2)
    );
}

/// Sets the process-wide verify fraction to 1 until dropped, so a failing
/// assertion cannot leave verify mode on for the next test.
struct VerifyEveryHit;

impl VerifyEveryHit {
    fn on() -> Self {
        gpu_sim::cache::set_verify_fraction(1.0);
        VerifyEveryHit
    }
}

impl Drop for VerifyEveryHit {
    fn drop(&mut self) {
        gpu_sim::cache::set_verify_fraction(0.0);
    }
}

/// The text of a caught panic.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Verify mode re-computes a memory hit, compares the two encodings, and
/// panics — naming the fingerprint — when the re-computation differs.
#[test]
fn verify_mode_recomputes_memory_hits_and_panics_on_a_mismatch() {
    let _turn = memory_turn();
    let fp = Fingerprint(0x5F5F_0000_0000_0004);
    let computes = AtomicUsize::new(0);
    let compute = |v: u64| {
        computes.fetch_add(1, Ordering::SeqCst);
        Counted(v)
    };
    assert_eq!(memoize(fp, || compute(7)), Counted(7));

    let _verify = VerifyEveryHit::on();
    let before = gpu_sim::cache::stats().verified;
    let decodes = DECODES.load(Ordering::SeqCst);
    assert_eq!(memoize(fp, || compute(7)), Counted(7));
    assert_eq!(
        DECODES.load(Ordering::SeqCst),
        decodes,
        "a memory hit decoded"
    );
    assert_eq!(
        computes.load(Ordering::SeqCst),
        2,
        "the hit was re-computed"
    );
    assert_eq!(gpu_sim::cache::stats().verified - before, 1);

    let caught = std::panic::catch_unwind(|| memoize(fp, || Counted(8)));
    let text = panic_text(caught.expect_err("a mismatched re-computation must panic"));
    assert!(
        text.contains("cache verification failed") && text.contains(&fp.to_hex()),
        "{text}"
    );
}

/// One fingerprint read as two types is two computations sharing a key:
/// the second read panics and names the fingerprint.
#[test]
fn reading_a_fingerprint_as_another_type_panics_and_names_it() {
    let _turn = memory_turn();
    let fp = Fingerprint(0x5F5F_0000_0000_0006);
    assert_eq!(memoize(fp, || 5u64), 5);
    let caught = std::panic::catch_unwind(|| memoize(fp, || vec![5.0f64]));
    let text = panic_text(caught.expect_err("a second type must panic"));
    assert!(
        text.contains(&fp.to_hex()) && text.contains("Vec<f64>"),
        "{text}"
    );
}

/// A disk hit decodes the stored record with `Record::get`, which must
/// consume every byte: a payload with a byte to spare panics, naming the
/// fingerprint.
#[test]
fn a_disk_hit_decodes_the_whole_record() {
    let _turn = memory_turn();
    let dir = temp_dir("disk_hit");
    let fp = Fingerprint(0x5F5F_0000_0000_0007);
    gpu_sim::cache::set_dir(Some(dir.clone()));
    assert_eq!(memoize(fp, || Counted(3)), Counted(3));
    assert_eq!(
        DiskStore::new(&dir).load(fp),
        Some(3u64.to_le_bytes().to_vec()),
        "a miss stores the record's bytes"
    );

    gpu_sim::cache::clear_memory();
    let (before, decodes) = (gpu_sim::cache::stats(), DECODES.load(Ordering::SeqCst));
    assert_eq!(memoize(fp, || Counted(4)), Counted(3), "served from disk");
    assert_eq!(DECODES.load(Ordering::SeqCst), decodes + 1);
    assert_eq!(gpu_sim::cache::stats().disk_hits - before.disk_hits, 1);

    gpu_sim::cache::clear_memory();
    let mut longer = 3u64.to_le_bytes().to_vec();
    longer.push(0);
    assert!(DiskStore::new(&dir).store(fp, &longer));
    let caught = std::panic::catch_unwind(|| memoize(fp, || Counted(3)));
    gpu_sim::cache::set_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
    let text = panic_text(caught.expect_err("a record with a byte to spare must panic"));
    assert!(
        text.contains("does not decode") && text.contains(&fp.to_hex()),
        "{text}"
    );
}
