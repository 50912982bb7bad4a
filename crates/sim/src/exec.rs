//! Scoped-thread fan-out for independent simulations.
//!
//! The evaluation campaign is dominated by *independent* full simulations:
//! the 64 entries of a TLP-combination sweep table, the ladder levels of an
//! alone profile, and the dozen schemes run per workload. Each
//! one builds a fresh same-seed machine, so they can execute on any thread
//! in any order without changing a single number — the only requirement is
//! that results are collected back in *input order*, which [`par_map`]
//! guarantees.
//!
//! The pool is std-only: [`std::thread::scope`] workers pulling indices off
//! an atomic counter. No work stealing, no channels — simulation granules
//! are milliseconds to seconds, so a single shared counter is contention-free
//! in practice.
//!
//! Thread count resolution order:
//!
//! 1. an explicit count passed to [`par_map_with`];
//! 2. the `EBM_THREADS` environment variable, if set and positive;
//! 3. [`std::thread::available_parallelism`].
//!
//! `EBM_THREADS=1` disables fan-out entirely (useful for profiling and for
//! the determinism regression tests, although parallel results are identical
//! by construction).
//!
//! Fan-outs never nest: [`par_map_with`] workers and [`with_workers`] pool
//! threads run with an [`in_sweep_fanout`] marker set, and [`worker_count`]
//! returns 1 inside them, so a pool of N workers uses exactly N threads
//! however deep the work nests. This is the only parallelism axis: a single
//! simulation always steps on the thread that runs it (ARCHITECTURE.md,
//! "Parallelism").

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

thread_local! {
    /// True on threads spawned by [`par_map_with`] — see [`in_sweep_fanout`].
    static IN_SWEEP_FANOUT: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is a [`par_map`]/[`par_map_with`] worker.
///
/// Used by [`worker_count`] to suppress nested parallelism: inside a
/// fan-out every CPU is already busy with an independent simulation, so
/// fanning out again would only oversubscribe the host.
pub fn in_sweep_fanout() -> bool {
    IN_SWEEP_FANOUT.with(Cell::get)
}

/// Parses a thread-count variable's value: a positive integer, surrounding
/// whitespace ignored.
fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("a thread count must be at least 1".to_string()),
        Ok(n) => Ok(n),
        Err(e) => Err(e.to_string()),
    }
}

/// Number of worker threads fan-outs use by default: the `EBM_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// host's available parallelism (1 if that cannot be determined). An
/// unusable value is reported on stderr once, naming the rejected value and
/// the count used instead.
///
/// Always 1 on fan-out worker threads (both [`par_map_with`] workers and
/// [`with_workers`] pool threads): a worker that fans out again would
/// oversubscribe the host with `N × N` threads, so nested [`par_map`]
/// calls run inline instead.
///
/// The host's parallelism is read once per process (on Linux each read
/// parses cgroup files, and every memoized read asks); `EBM_THREADS` is
/// read on every call.
pub fn worker_count() -> usize {
    static WARNED: Once = Once::new();
    static HOST: OnceLock<usize> = OnceLock::new();
    if in_sweep_fanout() {
        return 1;
    }
    let host = || {
        *HOST.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    };
    let Ok(value) = std::env::var("EBM_THREADS") else {
        return host();
    };
    parse_threads(&value).unwrap_or_else(|why| {
        let used = host();
        WARNED.call_once(|| {
            eprintln!("warning: ignoring EBM_THREADS={value:?} ({why}); using {used}")
        });
        used
    })
}

/// Maps `f` over `items` on [`worker_count`] scoped threads, returning the
/// results in input order.
///
/// See [`par_map_with`] for the guarantees.
///
/// # Examples
///
/// ```
/// use gpu_sim::exec::par_map;
/// // Results always come back in input order, whatever the thread count.
/// let doubled = par_map(vec![1, 2, 3], |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(worker_count(), items, f)
}

/// Maps `f` over `items` on at most `threads` scoped threads, returning the
/// results in input order.
///
/// Guarantees:
///
/// * **Index-ordered collection** — `result[i] == f(items[i])` regardless of
///   which worker ran it or when it finished.
/// * **Exactly-once execution** — each item is claimed by exactly one worker
///   via an atomic ticket counter.
/// * **Panic propagation** — a panic inside `f` propagates to the caller
///   when the scope joins (no silently missing entries).
///
/// With `threads <= 1` (or fewer than two items) the map runs inline on the
/// caller's thread, bit-for-bit identical to the threaded path because `f`
/// is the same closure either way.
///
/// # Examples
///
/// ```
/// use gpu_sim::exec::par_map_with;
/// let squares = par_map_with(4, (0u64..100).collect(), |x| x * x);
/// assert_eq!(squares[7], 49);
/// ```
pub fn par_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let threads = threads.min(n);
    // One slot per item. A Mutex<Option<_>> per slot costs nothing at the
    // granularity of full simulations and keeps everything in safe code:
    // the ticket counter already guarantees each input slot is taken (and
    // each output slot written) exactly once.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Mark the worker so nested fan-outs run inline
                    // ([`worker_count`] returns 1 here).
                    IN_SWEEP_FANOUT.with(|flag| flag.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = inputs[i]
                            .lock()
                            .expect("input slot poisoned")
                            .take()
                            .expect("ticket counter hands out each index once");
                        let result = f(item);
                        *outputs[i].lock().expect("output slot poisoned") = Some(result);
                    }
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload reaches the caller
        // verbatim (the scope's implicit join would replace it with its own
        // generic message).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("output slot poisoned")
                .expect("every index was claimed and completed")
        })
        .collect()
}

/// Runs `coordinator` on the calling thread while `threads` pool workers
/// run `worker(i)` (one call per worker, `i` in `0..threads`), then joins
/// the workers and returns the coordinator's result.
///
/// This is the long-lived sibling of [`par_map_with`]: instead of mapping a
/// closed item list, each worker runs a caller-supplied loop (typically
/// pulling work units off a shared queue until it drains). Worker threads
/// carry the [`in_sweep_fanout`] marker, so nested [`par_map`] calls
/// collapse to serial inside them — a pool of N workers uses exactly N
/// threads, however deep the work nests.
///
/// A worker panic propagates to the caller with its original payload, after
/// the coordinator has returned (the caller's queue protocol must therefore
/// not let the coordinator block forever on a dead worker — see
/// `ebm_bench::campaign` for the catch-and-flag pattern).
pub fn with_workers<R>(
    threads: usize,
    worker: impl Fn(usize) + Sync,
    coordinator: impl FnOnce() -> R,
) -> R {
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                scope.spawn(move || {
                    IN_SWEEP_FANOUT.with(|flag| flag.set(true));
                    worker(i)
                })
            })
            .collect();
        let result = coordinator();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        let out = par_map_with(8, (0..1000u64).collect(), |x| x * 3);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let work = |x: u64| {
            let mut rng = gpu_types::SplitMix64::new(x);
            (0..100)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let serial = par_map_with(1, (0..64).collect(), work);
        let parallel = par_map_with(6, (0..64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let e: Vec<u32> = par_map_with(4, Vec::<u32>::new(), |x| x);
        assert!(e.is_empty());
        assert_eq!(par_map_with(4, vec![9u32], |x| x + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map_with(64, vec![1, 2, 3], |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn parse_threads_accepts_only_positive_integers() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 12\n"), Ok(12));
        for bad in ["0", "abc", "", "-2", "1.5"] {
            assert!(parse_threads(bad).is_err(), "{bad:?} must be rejected");
        }
        assert!(parse_threads("0").unwrap_err().contains("at least 1"));
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn worker_count_suppressed_inside_fanout() {
        // A fan-out worker that fans out again must run inline: nested
        // par_map calls on worker threads report a width of 1.
        assert!(!in_sweep_fanout(), "caller thread is not a fan-out worker");
        let widths = par_map_with(3, (0..6).collect::<Vec<u32>>(), |_| {
            (in_sweep_fanout(), worker_count())
        });
        for (inside, w) in widths {
            assert!(inside, "worker threads must carry the fan-out marker");
            assert_eq!(w, 1, "worker_count must be 1 on fan-out workers");
        }
        assert!(!in_sweep_fanout(), "marker must not leak to the caller");
    }

    #[test]
    fn with_workers_runs_pool_and_coordinator() {
        use std::sync::atomic::AtomicU64;
        let ran = AtomicU64::new(0);
        let marked = AtomicU64::new(0);
        let out = with_workers(
            3,
            |_i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if in_sweep_fanout() && worker_count() == 1 {
                    marked.fetch_add(1, Ordering::Relaxed);
                }
            },
            || 42u32,
        );
        assert_eq!(out, 42, "coordinator result is returned");
        assert_eq!(ran.load(Ordering::Relaxed), 3, "each worker ran once");
        assert_eq!(
            marked.load(Ordering::Relaxed),
            3,
            "pool workers carry the fan-out marker and report width 1"
        );
    }

    #[test]
    #[should_panic(expected = "pool boom")]
    fn with_workers_propagates_worker_panics() {
        with_workers(
            2,
            |i| {
                if i == 1 {
                    panic!("pool boom");
                }
            },
            || (),
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = par_map_with(2, vec![0u32, 1, 2, 3], |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
