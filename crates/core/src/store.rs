//! Concurrency-safe shared store behind the [`Evaluator`] views.
//!
//! A campaign used to thread one `&mut Evaluator` through every figure,
//! which serialized the whole evaluation. The two tables every evaluation
//! reads — alone profiles and combination sweeps — are append-only memo
//! tables of deterministic values, so they are held here behind **sharded
//! interior mutability**: any number of threads (campaign-scheduler
//! workers, figure renderers) share one [`ResultStore`] through cheap
//! [`Evaluator`] views and fill it concurrently. They are the only values
//! an [`Evaluator`] memoizes in-process itself — runs live in
//! [`gpu_sim::cache`], and a scheme result is computed from both — so they
//! are also all that `--no-cache` keeps for the life of a process.
//!
//! Locks are held only for lookups and inserts, never across a simulation:
//! the store's crate-private `ShardedMap::get_or_insert_with` computes
//! outside the lock and lets
//! the first finished value win. Duplicate concurrent computes of one key
//! are prevented one layer down, by the single-flight memory tier of
//! [`gpu_sim::cache`] — the store's job is sharing, not deduplication.
//!
//! [`Evaluator`]: crate::eval::Evaluator

use crate::eval::EvaluatorConfig;
use crate::sweep::ComboSweep;
use gpu_sim::alone::AloneProfile;
use gpu_types::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Number of independently locked shards per map. Sixteen keeps lock
/// contention negligible at campaign-scheduler worker counts (≤ host
/// cores) while staying cache-friendly.
const N_SHARDS: usize = 16;

/// A hash map split over [`N_SHARDS`] independently locked shards.
///
/// Values are returned **by clone**: everything stored here is either
/// cheap to clone or cloned far less often than it is simulated.
#[derive(Debug)]
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<Mutex<FxHashMap<K, V>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    fn new() -> Self {
        ShardedMap {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<FxHashMap<K, V>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % N_SHARDS]
    }

    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// Returns the cached value for `key`, computing and inserting it on a
    /// miss. `compute` runs with **no lock held** (it may simulate for
    /// seconds and recurse into the store); if another thread races the
    /// same key, the first insert wins and both callers observe it —
    /// harmless, because every value is a deterministic function of its
    /// key.
    pub(crate) fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        let fresh = compute();
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        shard.entry(key).or_insert(fresh).clone()
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }
}

/// The shared memo tables of one evaluation campaign.
///
/// Create one per campaign (usually implicitly, through
/// [`Evaluator::new`](crate::eval::Evaluator::new)), wrap it in an `Arc`,
/// and hand every thread its own [`Evaluator`](crate::eval::Evaluator)
/// view. All methods take `&self`; see the module docs for the locking
/// discipline.
pub struct ResultStore {
    pub(crate) cfg: EvaluatorConfig,
    /// Alone profiles, keyed by `(application name, core count)`: the
    /// same application is profiled on half the machine for a pair and a
    /// third of it for a triple.
    pub(crate) alone: ShardedMap<(&'static str, usize), AloneProfile>,
    /// Combination sweeps, keyed by workload name.
    pub(crate) sweeps: ShardedMap<String, ComboSweep>,
}

impl ResultStore {
    /// An empty store for the given campaign configuration.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid.
    pub fn new(cfg: EvaluatorConfig) -> Self {
        cfg.gpu.validate().expect("invalid machine configuration");
        ResultStore {
            cfg,
            alone: ShardedMap::new(),
            sweeps: ShardedMap::new(),
        }
    }

    /// The campaign configuration the store's contents are keyed under.
    pub fn config(&self) -> &EvaluatorConfig {
        &self.cfg
    }

    /// Number of cached alone profiles.
    pub fn cached_alone(&self) -> usize {
        self.alone.len()
    }

    /// Number of cached combination sweeps.
    pub fn cached_sweeps(&self) -> usize {
        self.sweeps.len()
    }
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("cached_alone", &self.cached_alone())
            .field("cached_sweeps", &self.cached_sweeps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_map_round_trips_and_counts() {
        let m: ShardedMap<u64, String> = ShardedMap::new();
        assert_eq!(m.get(&1), None);
        let v = m.get_or_insert_with(1, || "one".to_string());
        assert_eq!(v, "one");
        assert_eq!(m.get(&1).as_deref(), Some("one"));
        // A second compute for the same key is ignored: first insert wins.
        let v = m.get_or_insert_with(1, || "other".to_string());
        assert_eq!(v, "one");
        for k in 2..100 {
            m.get_or_insert_with(k, || format!("v{k}"));
        }
        assert_eq!(m.len(), 99);
        assert_eq!(m.get(&57).as_deref(), Some("v57"));
    }

    #[test]
    fn sharded_map_is_safe_under_concurrent_fills() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let m = &m;
                scope.spawn(move || {
                    for k in 0..200u64 {
                        let got = m.get_or_insert_with(k, || k * 10);
                        assert_eq!(got, k * 10, "thread {t} saw a foreign value");
                    }
                });
            }
        });
        assert_eq!(m.len(), 200);
    }
}
