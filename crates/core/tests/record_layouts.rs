//! Pins the byte layout of every record the result cache writes.
//!
//! A cache directory written by one build must serve the next one, so a
//! payload's bytes are part of the cache contract just as the key's are
//! (`crates/sim/tests/cache_store.rs` pins the keys). This test runs each
//! memoized entry point once on the small machine into a fresh cache
//! directory, reads each record's payload back from disk and holds its
//! content fingerprint to a frozen value. A layout change that is not
//! accompanied by an `ENGINE_VERSION` bump fails here. A second test holds
//! every record kind to its own bytes: each round-trips, and no proper
//! prefix of it decodes.
//!
//! The cache directory is process-global, so the two tests take turns on
//! [`SERIAL`]: the round trip runs with the disk tier off and leaves
//! nothing in the pinned test's directory after that test removed it.

use ebm_core::metrics::EbObjective;
use ebm_core::pbsrun::{
    controller_run_fingerprint, run_controller_cached, ControllerSpec, PbsRunSpec,
};
use ebm_core::sweep::{sweep_fingerprint, ComboSweep};
use gpu_sim::alone::{alone_fingerprint, profile_alone};
use gpu_sim::cache::{DiskStore, KeyBuilder};
use gpu_sim::harness::{measure_fixed_cached, sampling_error_cached, FixedRunInputs, RunSpec};
use gpu_types::{fingerprint, Fingerprint, GpuConfig, Record, TlpCombo, TlpLevel};
use gpu_workloads::{by_name, Workload};
use std::sync::{Mutex, MutexGuard};

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the other still runs.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The content fingerprint of the payload stored under `key`.
fn payload_hex(store: &DiskStore, key: Fingerprint, what: &str) -> String {
    let payload = store
        .load(key)
        .unwrap_or_else(|| panic!("{what}: no record stored under {key}"));
    fingerprint(&payload).to_hex()
}

#[test]
fn every_record_kind_keeps_its_bytes() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("ebm_record_layouts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    gpu_sim::cache::set_enabled(true);
    gpu_sim::cache::set_dir(Some(dir.clone()));
    let store = DiskStore::new(&dir);

    let cfg = GpuConfig::small();
    let apps = [by_name("BLK").unwrap(), by_name("BFS").unwrap()];
    let inputs = FixedRunInputs {
        cfg: &cfg,
        apps: &apps,
        core_split: None,
        seed: 42,
        ccws: false,
    };
    let spec = RunSpec::new(300, 1_000);
    let combo = TlpCombo::pair(TlpLevel::new(2).unwrap(), TlpLevel::new(8).unwrap());

    measure_fixed_cached(&inputs, &combo, spec);
    let fixed = payload_hex(&store, inputs.fingerprint(&combo, spec), "fixed");

    let n_windows = 3;
    sampling_error_cached(&inputs, &combo, spec, n_windows);
    let mut key = KeyBuilder::new("sampling");
    inputs.push_key(&mut key);
    key.push(&combo).push(&spec).push_u64(n_windows);
    let sampling = payload_hex(&store, key.finish(), "sampling");

    profile_alone(&cfg, apps[1], 2, 42, spec);
    let alone = payload_hex(
        &store,
        alone_fingerprint(&cfg, apps[1], 2, 42, spec),
        "alone",
    );

    let workload = Workload::pair("BLK", "BFS");
    ComboSweep::measure(&cfg, &workload, 42, spec);
    let sweep = payload_hex(
        &store,
        sweep_fingerprint(&cfg, &workload, 42, spec),
        "sweep",
    );

    let start = TlpCombo::uniform(cfg.max_tlp(), 2);
    let pbs = ControllerSpec::Pbs(PbsRunSpec::scheme(EbObjective::Ws, 4));
    run_controller_cached(&inputs, &start, 20_000, 1_000, &pbs);
    let pbsrun = payload_hex(
        &store,
        controller_run_fingerprint(&inputs, &start, 20_000, 1_000, &pbs),
        "pbsrun",
    );

    gpu_sim::cache::set_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        [
            fixed.as_str(),
            sampling.as_str(),
            alone.as_str(),
            sweep.as_str(),
            pbsrun.as_str()
        ],
        [
            "1d932aac791068babf07d5a0f43ca796",
            "8bd6316b7a76839345205611242b7d65",
            "c652c474db0f51b4ffb05c6aa6b80a44",
            "fee26bd10208431c253208542ebe8b12",
            "dba210829a30cf6b89c06495226fe7ae",
        ],
        "a record's bytes changed: bump ENGINE_VERSION and update these \
         values in the same commit"
    );
}

/// `v`'s bytes decode to a value with the same bytes, and neither a proper
/// prefix of them nor a longer run decodes.
fn assert_record<T: Record>(v: &T, what: &str) {
    let bytes = v.to_bytes();
    let back = T::from_bytes(&bytes).unwrap_or_else(|| panic!("{what}: does not decode"));
    assert_eq!(back.to_bytes(), bytes, "{what}: the round trip changed it");
    for cut in 0..bytes.len() {
        assert!(
            T::from_bytes(&bytes[..cut]).is_none(),
            "{what}: decodes from {cut} of {} bytes",
            bytes.len()
        );
    }
    let mut longer = bytes;
    longer.push(0);
    assert!(T::from_bytes(&longer).is_none(), "{what}: a spare byte");
}

#[test]
fn every_record_kind_round_trips_and_no_prefix_decodes() {
    let _serial = serial();
    gpu_sim::cache::set_dir(None);
    // Another seed than the pinned test's, so neither reads the other's
    // values from the memory tier.
    let cfg = GpuConfig::small();
    let apps = [by_name("BLK").unwrap(), by_name("BFS").unwrap()];
    let inputs = FixedRunInputs {
        cfg: &cfg,
        apps: &apps,
        core_split: None,
        seed: 7,
        ccws: false,
    };
    let spec = RunSpec::new(300, 1_000);
    let combo = TlpCombo::pair(TlpLevel::new(4).unwrap(), TlpLevel::new(1).unwrap());
    assert_record(&measure_fixed_cached(&inputs, &combo, spec), "fixed");
    assert_record(&sampling_error_cached(&inputs, &combo, spec, 2), "sampling");
    assert_record(&profile_alone(&cfg, apps[0], 2, 7, spec).samples, "alone");
    let sweep = ComboSweep::measure(&cfg, &Workload::pair("BFS", "BLK"), 7, spec);
    assert_record(&sweep, "sweep");
    let start = TlpCombo::uniform(cfg.max_tlp(), 2);
    for spec in [
        ControllerSpec::Pbs(PbsRunSpec::scheme(EbObjective::Fi, 4)),
        ControllerSpec::DynCta,
    ] {
        let run = run_controller_cached(&inputs, &start, 12_000, 1_000, &spec);
        assert_record(&run, &format!("{spec:?}"));
    }
}
