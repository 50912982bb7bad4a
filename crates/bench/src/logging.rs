//! Level-gated stderr logging for the campaign binaries.
//!
//! Replaces the scattered bare `eprintln!` status lines: every message goes
//! through the [`log!`](crate::log) macro with a level, and the `EBM_LOG`
//! environment variable (`off` | `info` | `debug`, default `info`) decides
//! what reaches stderr.  Quiet CI runs (`EBM_LOG=off`) and verbose
//! debugging (`EBM_LOG=debug`) are both one env var away.
//!
//! Fatal usage/I/O errors keep using `eprintln!` directly — they must be
//! visible even under `EBM_LOG=off`.

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide log epoch: [`pin_epoch`], or failing that the first
/// log line or `level()` query.
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

/// Verbosity of a log message (and of the `EBM_LOG` threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing is printed.
    Off = 0,
    /// Campaign progress lines (the default).
    Info = 1,
    /// Per-sweep/per-run detail.
    Debug = 2,
}

impl LogLevel {
    fn parse(s: &str) -> Option<LogLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" | "quiet" => Some(LogLevel::Off),
            "info" | "1" => Some(LogLevel::Info),
            "debug" | "2" | "verbose" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

/// The process-wide threshold, parsed from `EBM_LOG` once on first use.
/// Unknown values fall back to `info` (never silently to `off`: losing
/// progress output is worse than seeing it).
pub fn level() -> LogLevel {
    static LEVEL: OnceLock<LogLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        // Pin the elapsed-time epoch no later than the first gate check,
        // so the first line's timestamp is ~0 regardless of setup cost.
        let _ = epoch();
        std::env::var("EBM_LOG")
            .ok()
            .and_then(|v| LogLevel::parse(&v))
            .unwrap_or(LogLevel::Info)
    })
}

/// Whether messages at `lvl` should be printed.
pub fn enabled(lvl: LogLevel) -> bool {
    lvl <= level() && level() != LogLevel::Off && lvl != LogLevel::Off
}

/// Prints one progress dot (no newline) at `info` level — the campaign
/// sweep loops' heartbeat.
pub fn progress_dot() {
    if enabled(LogLevel::Info) {
        eprint!(".");
    }
}

/// Ends a progress-dot line at `info` level.
pub fn progress_end() {
    if enabled(LogLevel::Info) {
        eprintln!();
    }
}

/// Logs a formatted message to stderr, gated on `EBM_LOG`. Every line is
/// prefixed with the monotonic seconds elapsed since the log epoch
/// ([`pin_epoch`](crate::logging::pin_epoch)), e.g. `[   1.204s] cache: 11 hits …`.
///
/// ```
/// ebm_bench::log!(info, "campaign completed in {:.1}s", 12.5);
/// ebm_bench::log!(debug, "sweep point {}", 3);
/// ```
#[macro_export]
macro_rules! log {
    (info, $($arg:tt)*) => {
        if $crate::logging::enabled($crate::logging::LogLevel::Info) {
            eprintln!(
                "[{:8.3}s] {}",
                $crate::logging::elapsed_s(),
                format_args!($($arg)*)
            );
        }
    };
    (debug, $($arg:tt)*) => {
        if $crate::logging::enabled($crate::logging::LogLevel::Debug) {
            eprintln!(
                "[{:8.3}s] {}",
                $crate::logging::elapsed_s(),
                format_args!($($arg)*)
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_values() {
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse("INFO"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse(" debug "), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("nope"), None);
    }

    #[test]
    fn elapsed_counts_from_the_pin() {
        pin_epoch();
        let pinned = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(15));
        // Neither a gate check nor a second pin moves the epoch.
        let _ = level();
        pin_epoch();
        let since_pin = pinned.elapsed().as_secs_f64();
        assert!(since_pin >= 0.015 && elapsed_s() >= since_pin);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(LogLevel::Off < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
    }
}
