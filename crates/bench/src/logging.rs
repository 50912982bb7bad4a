//! Timestamped stderr logging for the campaign binaries.
//!
//! Every progress and summary line goes through the [`log!`](crate::log)
//! macro, which prefixes it with the seconds since the log epoch. Fatal
//! usage/I/O errors use `eprintln!` directly.

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide log epoch: [`pin_epoch`], or failing that the first
/// log line.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Pins the log epoch to now unless it is pinned already. A binary calls
/// this first thing in `main`, so timestamps count from process start
/// rather than from whichever log call happens to come first — in a
/// scheduled campaign, a progress dot deep in a late render.
pub fn pin_epoch() {
    epoch();
}

/// Seconds elapsed since the log epoch — the monotonic timestamp every
/// [`log!`](crate::log) line is prefixed with, so slow campaign phases are
/// identifiable from the log alone.
pub fn elapsed_s() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Prints one progress dot (no newline) — the campaign sweep loops'
/// heartbeat.
pub fn progress_dot() {
    eprint!(".");
}

/// Ends a progress-dot line.
pub fn progress_end() {
    eprintln!();
}

/// Logs a formatted message to stderr, prefixed with the monotonic seconds
/// elapsed since the log epoch ([`pin_epoch`](crate::logging::pin_epoch)),
/// e.g. `[   1.204s] cache: 11 hits …`.
///
/// ```
/// ebm_bench::log!("campaign completed in {:.1}s", 12.5);
/// ```
#[macro_export]
macro_rules! log {
    ($($arg:tt)*) => {
        eprintln!(
            "[{:8.3}s] {}",
            $crate::logging::elapsed_s(),
            format_args!($($arg)*)
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_counts_from_the_pin() {
        pin_epoch();
        let pinned = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(15));
        // Neither a log line nor a second pin moves the epoch.
        crate::log!("pinned");
        pin_epoch();
        let since_pin = pinned.elapsed().as_secs_f64();
        assert!(since_pin >= 0.015 && elapsed_s() >= since_pin);
    }
}
