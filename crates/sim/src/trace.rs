//! Structured trace/counter subsystem — zero-cost when disabled.
//!
//! The paper's mechanism is driven entirely by runtime introspection: the
//! Fig. 8 sampling hardware relays per-application miss rates and attained
//! bandwidth to the cores every window. This module makes those internal
//! dynamics observable as a stream of typed [`TraceEvent`]s without
//! perturbing the simulation:
//!
//! * [`TraceSink`] — the receiver trait. The harness gates every emission
//!   site on [`TraceSink::enabled`], so with the no-op [`NullSink`] (whose
//!   `enabled` is a constant `false`) the entire tracing path compiles away
//!   and the hot loop is untouched.
//! * [`RingSink`] — a bounded in-memory capture, for tests and programmatic
//!   replay ([`eb_series`], [`series_csv`]).
//! * [`JsonlSink`] — newline-delimited JSON written to a file (the
//!   `--trace <path>` flag of the `experiments` binary).
//!
//! The trace contract is declared once, in this module's event table: each
//! kind's tag, its fields' names, Rust types, versions and meanings. The
//! table generates [`TraceEvent`], its serialization ([`TraceEvent::to_json`],
//! through one JSON writer per field type) and [`SCHEMA`], which
//! `ebm_bench::schema` validates traces against and a test holds
//! `docs/TRACE_SCHEMA.md`'s field tables to. Every serialized record
//! carries [`TRACE_SCHEMA_VERSION`]. Tracing is strictly off the decision
//! path — sinks only *read* simulator state, so a run traced into a
//! [`RingSink`] or [`JsonlSink`] is bit-for-bit identical to the same run
//! with a [`NullSink`] (pinned by
//! `crates/core/tests/trace_replay.rs::tracing_is_off_the_decision_path`).
//!
//! # Examples
//!
//! ```
//! use gpu_sim::control::StaticController;
//! use gpu_sim::harness::run_controlled_traced;
//! use gpu_sim::machine::Gpu;
//! use gpu_sim::trace::{eb_series, RingSink};
//! use gpu_types::GpuConfig;
//! use gpu_workloads::Workload;
//!
//! let workload = Workload::pair("BLK", "BFS");
//! let mut gpu = Gpu::new(&GpuConfig::small(), workload.apps(), 42);
//! let mut sink = RingSink::new(4096);
//! let mut ctl = StaticController;
//! let run = run_controlled_traced(&mut gpu, &mut ctl, 10_000, 0, &mut sink);
//! // The EB trajectory of app 0, reconstructed from the generic trace,
//! // matches the harness's bespoke per-window series exactly.
//! let series = eb_series(sink.events(), 0);
//! assert_eq!(series.len() as u64, run.n_windows);
//! ```

use gpu_simt::WarpStalls;
use gpu_types::Histogram;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version stamped into every serialized trace record (`"v"` field).
///
/// Bump it whenever an event's fields change shape or meaning, and mark
/// new fields `#[since(N)]` in the event table; the schema-doc test then
/// prints the field tables `docs/TRACE_SCHEMA.md` must carry.
///
/// History: v2 added the `cache_stats` event (result-cache counters);
/// v3 added the `metrics_window` (metrics-registry snapshots) and
/// `profile_span` (bench self-profiler) events; v4 added the engine
/// skip diagnostics (`machine_fast_forward_fraction`,
/// `component_idle_skip_fraction`) to `metrics_window`; v5 added the
/// substrate telemetry events (`sched_unit`, `cache_tier`, and
/// `domain_window`, which is no longer emitted) and the `inflight_joined`
/// field of `cache_stats`.
pub const TRACE_SCHEMA_VERSION: u32 = 5;

/// Per-core stall breakdown of one sampling window (fractions of the
/// window's cycles; the remainder is issue cycles).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallBreakdown {
    /// Fraction stalled on outstanding memory.
    pub mem: f64,
    /// Fraction stalled on structural hazards (MSHRs / egress full).
    pub structural: f64,
    /// Fraction idle (ALU latency or all warps finished).
    pub idle: f64,
}

/// The JSON shape of a trace field: what the emitter writes for its Rust
/// type and what a validator accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonType {
    /// A non-negative integer.
    Int,
    /// A non-negative integer, or `null` for `None`.
    IntOrNull,
    /// A number, or `null` for a non-finite value (JSON has neither NaN
    /// nor infinities). Six decimal places.
    Num,
    /// A number, or `null` for `None` or a non-finite value.
    NumOrNull,
    /// A string.
    Str,
    /// An array of [`JsonType::Num`] values.
    NumArray,
    /// A [`Histogram`]: an object with the keys [`HISTOGRAM_KEYS`], trailing
    /// zero buckets trimmed.
    Histogram,
    /// An object with exactly these keys, in this order, each holding a
    /// value of the given type.
    Object(&'static [&'static str], &'static JsonType),
}

/// The keys of a serialized [`Histogram`], in order: three integers, then
/// the bucket counts as an array.
pub const HISTOGRAM_KEYS: [&str; 5] = ["count", "sum", "min", "max", "buckets"];

/// A Rust type a trace field can have: how a value serializes and the
/// JSON shape that serialization has, in one place.
pub(crate) trait TraceField {
    /// The JSON shape [`TraceField::write_json`] writes.
    const TYPE: JsonType;
    /// Appends the value as JSON.
    fn write_json(&self, out: &mut String);
}

macro_rules! int_fields {
    ($($t:ty)*) => {$(
        impl TraceField for $t {
            const TYPE: JsonType = JsonType::Int;
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
int_fields!(u8 u32 u64 usize);

impl TraceField for f64 {
    const TYPE: JsonType = JsonType::Num;
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:.6}");
        } else {
            out.push_str("null");
        }
    }
}

impl TraceField for Option<u8> {
    const TYPE: JsonType = JsonType::IntOrNull;
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl TraceField for Option<f64> {
    const TYPE: JsonType = JsonType::NumOrNull;
    fn write_json(&self, out: &mut String) {
        self.unwrap_or(f64::NAN).write_json(out);
    }
}

impl TraceField for &str {
    const TYPE: JsonType = JsonType::Str;
    /// Escapes `"`, `\` and control characters, so any string stays
    /// valid JSON.
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl TraceField for String {
    const TYPE: JsonType = JsonType::Str;
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl TraceField for Vec<f64> {
    const TYPE: JsonType = JsonType::NumArray;
    fn write_json(&self, out: &mut String) {
        write_array(out, self);
    }
}

impl TraceField for Histogram {
    const TYPE: JsonType = JsonType::Histogram;
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let scalars = [self.count(), self.sum(), self.min(), self.max()];
        for (key, v) in HISTOGRAM_KEYS.iter().zip(scalars) {
            push_key(out, key);
            v.write_json(out);
        }
        let buckets = self.buckets();
        let last = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        push_key(out, HISTOGRAM_KEYS[4]);
        write_array(out, &buckets[..last]);
        out.push('}');
    }
}

impl TraceField for WarpStalls {
    const TYPE: JsonType = JsonType::Object(&["mem", "exec", "barrier", "tlp_capped"], &u64::TYPE);
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            Self::TYPE,
            &[self.mem, self.exec, self.barrier, self.tlp_capped],
        );
    }
}

impl TraceField for StallBreakdown {
    const TYPE: JsonType = JsonType::Object(&["mem", "struct", "idle"], &f64::TYPE);
    fn write_json(&self, out: &mut String) {
        write_object(out, Self::TYPE, &[self.mem, self.structural, self.idle]);
    }
}

/// Appends `"key":`, after a comma unless it is the first key of its object.
fn push_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn write_array<T: TraceField>(out: &mut String, values: &[T]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        v.write_json(out);
    }
    out.push(']');
}

/// Writes `values` under the keys of the object type `ty`.
fn write_object<T: TraceField>(out: &mut String, ty: JsonType, values: &[T]) {
    let JsonType::Object(keys, elem) = ty else {
        unreachable!("{ty:?} is not an object type")
    };
    debug_assert!(keys.len() == values.len() && *elem == T::TYPE);
    out.push('{');
    for (key, v) in keys.iter().zip(values) {
        push_key(out, key);
        v.write_json(out);
    }
    out.push('}');
}

/// One field of an event kind, after the `v`/`kind`/`cycle` envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSchema {
    /// The JSON key (the Rust field name).
    pub name: &'static str,
    /// The JSON shape of the value.
    pub ty: JsonType,
    /// The schema version that introduced the field; records claiming an
    /// older version do not carry it.
    pub since: u32,
    /// What the field means.
    pub doc: &'static str,
}

/// One event kind of the trace contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSchema {
    /// The `kind` tag.
    pub kind: &'static str,
    /// The schema version that introduced the kind.
    pub since: u32,
    /// What the envelope's `cycle` means for this kind.
    pub cycle: &'static str,
    /// The fields after the envelope, in serialization order.
    pub fields: &'static [FieldSchema],
}

/// A field's `#[since(N)]` when it has one, else its kind's version.
macro_rules! first {
    ($v:literal $($rest:literal)*) => {
        $v
    };
}

/// The event table. Each entry declares one kind —
/// `Variant = "tag", since N { cycle: u64, field: Type, … }`, a doc comment
/// on the kind, on `cycle` and on every field, and `#[since(N)]` on fields
/// added after their kind — and generates the [`TraceEvent`] variant, its
/// share of `kind`/`cycle`/`write_fields` and its [`SCHEMA`] row.
macro_rules! trace_events {
    ($(
        $(#[doc = $kdoc:literal])*
        $variant:ident = $tag:literal, since $ksince:literal {
            $(#[doc = $cdoc:literal])*
            cycle: u64,
            $(
                $(#[doc = $fdoc:literal])*
                $(#[since($fsince:literal)])?
                $field:ident: $ty:ty
            ),* $(,)?
        }
    )*) => {
        /// A typed observability event: one variant per kind of the trace
        /// contract, each carrying the cycle it was recorded at.
        // `MetricsWindow` carries three fixed-size histograms (~300 B each),
        // which dwarfs the other variants. Events are transient —
        // constructed only when a sink is enabled, serialized or
        // ring-buffered in the thousands — so the per-event footprint is
        // irrelevant and boxing would only add indirection to every emit
        // site.
        #[allow(clippy::large_enum_variant)]
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEvent {$(
            $(#[doc = $kdoc])*
            $variant {
                $(#[doc = $cdoc])*
                cycle: u64,
                $($(#[doc = $fdoc])* $field: $ty,)*
            },
        )*}

        /// The trace contract: every kind [`TraceEvent`] serializes as, in
        /// declaration order, with its fields in serialization order.
        pub const SCHEMA: &[KindSchema] = &[$(
            KindSchema {
                kind: $tag,
                since: $ksince,
                cycle: concat!($($cdoc),*),
                fields: &[$(FieldSchema {
                    name: stringify!($field),
                    ty: <$ty as TraceField>::TYPE,
                    since: first!($($fsince)? $ksince),
                    doc: concat!($($fdoc),*),
                },)*],
            },
        )*];

        impl TraceEvent {
            /// The event's kind tag as serialized (`"kind"` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $tag,)*
                }
            }

            /// The cycle the event was recorded at.
            pub fn cycle(&self) -> u64 {
                match self {
                    $(TraceEvent::$variant { cycle, .. })|* => *cycle,
                }
            }

            /// Appends the fields after the envelope as `"key":value`
            /// pairs, comma-separated (and preceded by a comma unless `out`
            /// ends an object's opening brace).
            pub fn write_fields(&self, out: &mut String) {
                match self {
                    $(TraceEvent::$variant { $($field,)* .. } => {
                        $(
                            push_key(out, stringify!($field));
                            TraceField::write_json($field, out);
                        )*
                    })*
                }
            }
        }
    };
}

trace_events! {
    /// One application's sampling-window observation — the quantities the
    /// Fig. 8 hardware relays to the cores (EB inputs) plus IPC.
    WindowSample = "window_sample", since 1 {
        /// Window-end cycle.
        cycle: u64,
        /// Application index.
        app: u8,
        /// Effective bandwidth, `BW / CMR` (§III).
        eb: f64,
        /// Attained DRAM bandwidth, normalized to the machine peak.
        bw: f64,
        /// Combined miss rate, `L1MR × L2MR`.
        cmr: f64,
        /// L1 miss rate over the window.
        l1mr: f64,
        /// L2 miss rate over the window.
        l2mr: f64,
        /// Warp-instruction IPC over the window.
        ipc: f64,
    }

    /// A controller changed one application's TLP level.
    TlpDecision = "tlp_decision", since 1 {
        /// Cycle at which the new level took effect.
        cycle: u64,
        /// Application index.
        app: u8,
        /// Previous TLP level.
        old: u32,
        /// New TLP level, post-clamping: what the machine actually runs.
        new: u32,
        /// The controller's stated reason, e.g. `"sweep"`, `"hold-install"`,
        /// `"latency-tolerance"`.
        reason: &'static str,
    }

    /// A controller's internal phase transition (PBS's Fig. 11 search
    /// organization: boot → scale-sample → sweep → tune → hold).
    SearchPhase = "search_phase", since 1 {
        /// Cycle of the transition (the window at which it was observed).
        cycle: u64,
        /// Controller name, e.g. `"PBS-WS"`.
        scheme: String,
        /// New phase label.
        phase: String,
    }

    /// One memory partition's sampling-window telemetry.
    PartitionWindow = "partition_window", since 1 {
        /// Window-end cycle.
        cycle: u64,
        /// Partition index.
        partition: u32,
        /// Per-application attained DRAM bandwidth through this partition
        /// over the window, normalized to the whole-machine peak (summed
        /// over partitions it gives each application's `bw`).
        per_app_bw: Vec<f64>,
        /// DRAM row-buffer hit rate over the window (0 when no accesses).
        rowbuf_hit_rate: f64,
        /// Requests queued in the partition (ingress + memory-controller
        /// queue) at the window end.
        queue_depth: usize,
    }

    /// One SIMT core's sampling-window telemetry.
    CoreWindow = "core_window", since 1 {
        /// Window-end cycle.
        cycle: u64,
        /// Core index.
        core: u32,
        /// Application the core is assigned to.
        app: u8,
        /// Warp-instruction IPC over the window.
        ipc: f64,
        /// Average SWL-active (schedulable) warp slots over the window.
        active_warps: f64,
        /// Stall-cycle fractions of the window — memory, structural
        /// hazards, idle; the remainder is issue cycles.
        stall: StallBreakdown,
    }

    /// Result-cache counters ([`crate::cache`]) at the moment of emission —
    /// campaigns emit one at the end of a run so traces record how much
    /// simulation was memoized away.
    CacheStats = "cache_stats", since 2 {
        /// Always 0: the cache lives outside simulated time.
        cycle: u64,
        /// Lookups served from a cache tier (memory or disk).
        hits: u64,
        /// Hits served by the on-disk store (subset of `hits`).
        disk_hits: u64,
        /// Lookups that had to simulate.
        misses: u64,
        /// Lookups made while the cache was disabled.
        bypasses: u64,
        /// Records written to the on-disk store.
        stores: u64,
        /// Hits re-simulated and checked bit-identical by `--cache-verify`.
        verified: u64,
        /// Hits served by waiting on another thread's in-flight simulation
        /// of the same fingerprint (single-flight joins; subset of `hits`).
        #[since(5)]
        inflight_joined: u64,
    }

    /// One campaign work-graph unit, emitted when a scheduled or serial
    /// campaign finishes. The identity fields (`unit` … `est`) come from
    /// the deterministic plan; the runtime fields (`worker` … `cycles`)
    /// describe the actual execution and are zero when the campaign ran
    /// serially (plan-only emission).
    SchedUnit = "sched_unit", since 5 {
        /// Always 0: scheduling lives outside simulated time.
        cycle: u64,
        /// Unit index in plan order.
        unit: u64,
        /// The unit's label, e.g. `"alone:BLK@8"`, `"scheme:BLK_BFS/PBS-WS"`.
        label: String,
        /// The unit's 128-bit cache fingerprint, as 32 hex digits.
        fp: String,
        /// Number of dependencies the unit waited on.
        deps: u64,
        /// Static cost estimate the scheduler ordered the unit by, in
        /// simulated cycles (from the unit's run specification).
        est: u64,
        /// Pool worker that executed the unit (0-based; 0 on serial runs).
        worker: u64,
        /// Milliseconds from campaign start to unit start (wall clock,
        /// nondeterministic; 0 on serial runs).
        start_ms: f64,
        /// Wall-clock milliseconds the unit ran for (nondeterministic; 0 on
        /// serial runs).
        wall_ms: f64,
        /// Simulated cycles the executing worker attributed to the unit (0
        /// on serial runs and on cache hits).
        cycles: u64,
    }

    /// One result-cache tier's hit funnel at the moment of emission
    /// (companion to `cache_stats`, split per tier).
    CacheTier = "cache_tier", since 5 {
        /// Always 0: the cache lives outside simulated time.
        cycle: u64,
        /// Tier name: `"memory"` or `"disk"`.
        tier: String,
        /// Lookups this tier served.
        hits: u64,
        /// Lookups that fell past this tier.
        misses: u64,
        /// Entries written into this tier.
        stores: u64,
    }

    /// One sampling window's machine-wide metrics, rolled up by the
    /// harness's trace state: per-warp stall breakdown, DRAM
    /// request-latency histogram, and — on the machine-wide aggregate
    /// record only — the MSHR-occupancy and queue-depth gauges sampled at
    /// rollover. The two engine fractions
    /// are diagnostics, not simulation state: the per-cycle reference
    /// engine reports 0 where the event engine reports > 0.
    MetricsWindow = "metrics_window", since 3 {
        /// Window-end cycle.
        cycle: u64,
        /// Application index, or `null` (`None`) on the machine-wide
        /// aggregate record.
        app: Option<u8>,
        /// Per-warp stall-reason breakdown over the window, in warp-cycles.
        stalls: WarpStalls,
        /// DRAM request latency over the window, memory-controller queue
        /// entry to data return, in cycles.
        dram_lat: Histogram,
        /// L2-MSHR occupancy samples (entries in use), one per partition
        /// per window; empty on per-app records.
        mshr_occ: Histogram,
        /// Queue-depth samples — partition queues and the crossbars'
        /// per-window peak in-flight counts; empty on per-app records.
        queue_depth: Histogram,
        /// Fraction of the window's cycles the engine advanced by
        /// whole-machine jumps over event-free stretches; `null` on per-app
        /// records.
        #[since(4)]
        machine_fast_forward_fraction: Option<f64>,
        /// Fraction of individual component steps (cores, partitions,
        /// crossbars) the engine skipped over the window, relative to
        /// stepping every component every cycle; `null` on per-app records.
        #[since(4)]
        component_idle_skip_fraction: Option<f64>,
    }

    /// One bench self-profiler span (campaign → figure → sweep → run),
    /// emitted when a traced campaign finishes so the trace records where
    /// wall time and simulated cycles went.
    ProfileSpan = "profile_span", since 3 {
        /// The process-wide simulated-cycle counter at emit time: spans
        /// are wall-clock phenomena, so a campaign's spans share one stamp.
        cycle: u64,
        /// Span level: `"campaign"`, `"figure"`, `"sweep"` or `"run"`
        /// (older traces also carry `"unit"`).
        level: String,
        /// Human-readable span name, e.g. `"fig09"`.
        name: String,
        /// Nesting depth at creation (campaign = 0).
        depth: u32,
        /// Wall-clock seconds spent in the span.
        wall_s: f64,
        /// Simulated cycles attributed to the span: the process-wide delta,
        /// so parallel sweeps count every worker thread.
        cycles: u64,
        /// Result-cache hits (memory + disk) during the span.
        cache_hits: u64,
        /// Result-cache misses (simulations executed) during the span.
        cache_misses: u64,
        /// Worker-pool width available to the span (`gpu_sim::exec`).
        workers: u32,
    }
}

impl TraceEvent {
    /// Serializes the event as one JSON object (no trailing newline): the
    /// `v`/`kind`/`cycle` envelope, then [`TraceEvent::write_fields`].
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"v\":{TRACE_SCHEMA_VERSION},\"kind\":\"{}\",\"cycle\":{}",
            self.kind(),
            self.cycle()
        );
        self.write_fields(&mut s);
        s.push('}');
        s
    }
}

/// Receiver of trace events.
///
/// Emission sites are written as
/// `if sink.enabled() { sink.emit(...); }` — implementations whose
/// `enabled` is a constant `false` ([`NullSink`]) therefore cost nothing:
/// the event is never even constructed. `enabled` may be called once per
/// sampling window per site, so it must be cheap.
pub trait TraceSink {
    /// Whether emission sites should construct and send events.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event. Only called when [`TraceSink::enabled`] is true.
    fn emit(&mut self, event: TraceEvent);

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn emit(&mut self, event: TraceEvent) {
        (**self).emit(event)
    }
    fn flush(&mut self) {
        (**self).flush()
    }
}

/// The disabled sink: `enabled()` is a constant `false`, so every gated
/// emission site folds to nothing. This is what the untraced entry points
/// ([`crate::harness::run_controlled`]) pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&mut self, _event: TraceEvent) {}
}

/// Bounded in-memory capture. When full, the **oldest** events are dropped
/// (ring semantics) and counted, so a long run keeps its most recent
/// history and the loss is visible.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        RingSink {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// The captured events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.buf
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes the captured events out, leaving the sink empty.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// Newline-delimited-JSON file sink (one [`TraceEvent::to_json`] object per
/// line). Buffered; flushed explicitly and on drop.
///
/// A full disk loses trace lines, never the simulation: the first I/O
/// error of a write or flush is kept ([`JsonlSink::error`]) and every
/// event after it is dropped uncounted.
#[derive(Debug)]
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    written: u64,
    error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(JsonlSink {
            out: std::io::BufWriter::new(file),
            path,
            written: 0,
            error: None,
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of events written before the first I/O error, if any.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first I/O error a write or flush hit: the trace is incomplete.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }
}

impl TraceSink for JsonlSink {
    fn emit(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json();
        line.push('\n');
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Reconstructs one application's EB-over-time series (Fig. 11's y-axis)
/// from captured [`TraceEvent::WindowSample`] events: `(window-end cycle,
/// EB)` pairs in trace order.
pub fn eb_series<'a, I>(events: I, app: u8) -> Vec<(u64, f64)>
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    events
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::WindowSample {
                cycle, app: a, eb, ..
            } if *a == app => Some((*cycle, *eb)),
            _ => None,
        })
        .collect()
}

/// Renders the captured [`TraceEvent::WindowSample`] events as the
/// `cycle,app,ipc,bw,cmr,eb` CSV of the Fig. 11 exports — byte-identical to
/// [`crate::harness::series_csv`] of the same run's window series, which is
/// what `fig11` writes: the generic trace carries the whole artifact.
pub fn series_csv<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let mut out = String::from("cycle,app,ipc,bw,cmr,eb\n");
    for e in events {
        if let TraceEvent::WindowSample {
            cycle,
            app,
            eb,
            bw,
            cmr,
            ipc,
            ..
        } = e
        {
            let _ = writeln!(out, "{cycle},{app},{ipc:.4},{bw:.4},{cmr:.4},{eb:.4}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64, app: u8, eb: f64) -> TraceEvent {
        TraceEvent::WindowSample {
            cycle,
            app,
            eb,
            bw: 0.5,
            cmr: 0.25,
            l1mr: 0.5,
            l2mr: 0.5,
            ipc: 1.5,
        }
    }

    fn metrics_window_fixture() -> TraceEvent {
        let mut dram_lat = Histogram::new();
        dram_lat.record(100);
        dram_lat.record(260);
        TraceEvent::MetricsWindow {
            cycle: 15,
            app: Some(1),
            stalls: WarpStalls {
                mem: 40,
                exec: 10,
                barrier: 0,
                tlp_capped: 8,
            },
            dram_lat,
            mshr_occ: Histogram::new(),
            queue_depth: Histogram::new(),
            machine_fast_forward_fraction: None,
            component_idle_skip_fraction: None,
        }
    }

    /// Golden fixture pinning the schema-v5 `metrics_window` field names
    /// and histogram encoding byte-for-byte; any change here must bump
    /// [`TRACE_SCHEMA_VERSION`] and update `docs/TRACE_SCHEMA.md`.
    #[test]
    fn metrics_window_golden_v5() {
        assert_eq!(
            metrics_window_fixture().to_json(),
            "{\"v\":5,\"kind\":\"metrics_window\",\"cycle\":15,\"app\":1,\
             \"stalls\":{\"mem\":40,\"exec\":10,\"barrier\":0,\"tlp_capped\":8},\
             \"dram_lat\":{\"count\":2,\"sum\":360,\"min\":100,\"max\":260,\
             \"buckets\":[0,0,0,0,0,0,0,1,0,1]},\
             \"mshr_occ\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},\
             \"queue_depth\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},\
             \"machine_fast_forward_fraction\":null,\
             \"component_idle_skip_fraction\":null}"
        );
    }

    /// Aggregate records carry the engine skip fractions as numbers.
    #[test]
    fn metrics_window_aggregate_serializes_engine_fractions() {
        let e = TraceEvent::MetricsWindow {
            cycle: 20,
            app: None,
            stalls: WarpStalls::default(),
            dram_lat: Histogram::new(),
            mshr_occ: Histogram::new(),
            queue_depth: Histogram::new(),
            machine_fast_forward_fraction: Some(0.25),
            component_idle_skip_fraction: Some(0.5),
        };
        let json = e.to_json();
        assert!(
            json.ends_with(
                "\"machine_fast_forward_fraction\":0.250000,\
                 \"component_idle_skip_fraction\":0.500000}"
            ),
            "{json}"
        );
    }

    /// Golden fixture pinning the schema-v5 `profile_span` field names.
    #[test]
    fn profile_span_golden_v5() {
        let e = TraceEvent::ProfileSpan {
            cycle: 0,
            level: "sweep".into(),
            name: "BLK_BFS".into(),
            depth: 2,
            wall_s: 0.5,
            cycles: 200,
            cache_hits: 1,
            cache_misses: 2,
            workers: 8,
        };
        assert_eq!(
            e.to_json(),
            "{\"v\":5,\"kind\":\"profile_span\",\"cycle\":0,\"level\":\"sweep\",\
             \"name\":\"BLK_BFS\",\"depth\":2,\"wall_s\":0.500000,\"cycles\":200,\
             \"cache_hits\":1,\"cache_misses\":2,\"workers\":8}"
        );
    }

    /// Golden fixture pinning the schema-v5 `sched_unit` field names.
    #[test]
    fn sched_unit_golden_v5() {
        let e = TraceEvent::SchedUnit {
            cycle: 0,
            unit: 3,
            label: "alone:BLK@8".into(),
            fp: "00112233445566778899aabbccddeeff".into(),
            deps: 2,
            est: 450_000,
            worker: 1,
            start_ms: 1.5,
            wall_ms: 12.25,
            cycles: 300_000,
        };
        assert_eq!(
            e.to_json(),
            "{\"v\":5,\"kind\":\"sched_unit\",\"cycle\":0,\"unit\":3,\
             \"label\":\"alone:BLK@8\",\"fp\":\"00112233445566778899aabbccddeeff\",\
             \"deps\":2,\"est\":450000,\"worker\":1,\"start_ms\":1.500000,\
             \"wall_ms\":12.250000,\"cycles\":300000}"
        );
    }

    /// Golden fixture pinning the schema-v5 `cache_tier` field names.
    #[test]
    fn cache_tier_golden_v5() {
        let e = TraceEvent::CacheTier {
            cycle: 0,
            tier: "memory".into(),
            hits: 6,
            misses: 4,
            stores: 4,
        };
        assert_eq!(
            e.to_json(),
            "{\"v\":5,\"kind\":\"cache_tier\",\"cycle\":0,\"tier\":\"memory\",\
             \"hits\":6,\"misses\":4,\"stores\":4}"
        );
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn ring_sink_keeps_newest_and_counts_drops() {
        let mut ring = RingSink::new(2);
        assert!(ring.enabled());
        for i in 0..5 {
            ring.emit(sample(i, 0, i as f64));
        }
        assert_eq!(ring.dropped(), 3);
        let cycles: Vec<u64> = ring.events().iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![3, 4]);
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.events().is_empty());
    }

    #[test]
    fn every_kind_serializes_with_version_and_tag() {
        let events = [
            sample(10, 1, 2.0),
            TraceEvent::TlpDecision {
                cycle: 11,
                app: 0,
                old: 24,
                new: 4,
                reason: "search-sweep",
            },
            TraceEvent::SearchPhase {
                cycle: 12,
                scheme: "PBS-WS".into(),
                phase: "sweep".into(),
            },
            TraceEvent::PartitionWindow {
                cycle: 13,
                partition: 3,
                per_app_bw: vec![0.1, 0.2],
                rowbuf_hit_rate: 0.75,
                queue_depth: 5,
            },
            TraceEvent::CoreWindow {
                cycle: 14,
                core: 7,
                app: 1,
                ipc: 0.8,
                active_warps: 6.5,
                stall: StallBreakdown {
                    mem: 0.5,
                    structural: 0.1,
                    idle: 0.2,
                },
            },
            TraceEvent::CacheStats {
                cycle: 0,
                hits: 10,
                disk_hits: 4,
                misses: 2,
                bypasses: 0,
                stores: 2,
                verified: 1,
                inflight_joined: 3,
            },
            metrics_window_fixture(),
            TraceEvent::MetricsWindow {
                cycle: 16,
                app: None,
                stalls: WarpStalls::default(),
                dram_lat: Histogram::new(),
                mshr_occ: Histogram::new(),
                queue_depth: Histogram::new(),
                machine_fast_forward_fraction: Some(0.0),
                component_idle_skip_fraction: Some(0.125),
            },
            TraceEvent::ProfileSpan {
                cycle: 0,
                level: "figure".into(),
                name: "fig09".into(),
                depth: 1,
                wall_s: 1.25,
                cycles: 1_000_000,
                cache_hits: 3,
                cache_misses: 7,
                workers: 4,
            },
            TraceEvent::SchedUnit {
                cycle: 0,
                unit: 0,
                label: "sweep:BLK_BFS".into(),
                fp: "ffeeddccbbaa99887766554433221100".into(),
                deps: 0,
                est: 7,
                worker: 0,
                start_ms: 0.0,
                wall_ms: 0.0,
                cycles: 0,
            },
            TraceEvent::CacheTier {
                cycle: 0,
                tier: "disk".into(),
                hits: 4,
                misses: 2,
                stores: 2,
            },
        ];
        for e in &events {
            let json = e.to_json();
            assert!(json.starts_with(&format!("{{\"v\":{TRACE_SCHEMA_VERSION},")));
            assert!(
                json.contains(&format!("\"kind\":\"{}\"", e.kind())),
                "{json}"
            );
            assert!(json.ends_with('}'), "{json}");
            // Balanced braces (no nested-object truncation).
            let open = json.matches('{').count();
            assert_eq!(open, json.matches('}').count(), "{json}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let json = sample(0, 0, f64::INFINITY).to_json();
        assert!(json.contains("\"eb\":null"), "{json}");
    }

    #[test]
    fn strings_are_escaped() {
        let e = TraceEvent::SearchPhase {
            cycle: 0,
            scheme: "a\"b\\c".into(),
            phase: "p".into(),
        };
        assert!(e.to_json().contains("\"a\\\"b\\\\c\""));
    }

    #[test]
    fn eb_series_filters_by_app_in_order() {
        let events = vec![
            sample(100, 0, 1.0),
            sample(100, 1, 9.0),
            sample(200, 0, 2.0),
            TraceEvent::SearchPhase {
                cycle: 150,
                scheme: "s".into(),
                phase: "p".into(),
            },
        ];
        assert_eq!(eb_series(&events, 0), vec![(100, 1.0), (200, 2.0)]);
        assert_eq!(eb_series(&events, 1), vec![(100, 9.0)]);
    }

    #[test]
    fn series_csv_matches_bespoke_format() {
        let events = vec![sample(100, 0, 2.0)];
        let csv = series_csv(&events);
        assert_eq!(
            csv,
            "cycle,app,ipc,bw,cmr,eb\n100,0,1.5000,0.5000,0.2500,2.0000\n"
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let path =
            std::env::temp_dir().join(format!("gpu_ebm_trace_test_{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).expect("temp file");
            sink.emit(sample(1, 0, 1.0));
            sink.emit(sample(2, 1, 2.0));
            sink.flush();
            assert_eq!(sink.written(), 2);
            assert_eq!(sink.path(), path.as_path());
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A write failure is kept, not swallowed: `/dev/full` accepts the
    /// open and fails the first flush, and nothing after it is counted.
    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_sink_keeps_the_first_write_error() {
        let mut sink = JsonlSink::create("/dev/full").expect("/dev/full opens");
        sink.emit(sample(1, 0, 1.0));
        assert!(sink.error().is_none(), "the line is still buffered");
        sink.flush();
        let err = sink.error().expect("flushing into /dev/full fails");
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC: {err}");
        let written = sink.written();
        sink.emit(sample(2, 0, 1.0));
        sink.flush();
        assert_eq!(sink.written(), written);
    }
}
