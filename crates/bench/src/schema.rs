//! Trace-schema validator: checks JSONL trace lines against the contract
//! in `docs/TRACE_SCHEMA.md`.
//!
//! The emitter (`gpu_sim::trace`) writes every record with a stable field
//! order and a `v` schema version; this module is the consuming side of
//! that contract.  It is deliberately **strict**: field names must match
//! exactly, appear in the documented order, and no unknown fields are
//! tolerated — so a schema drift in the emitter fails `trace-tools
//! validate` (and the CI gate built on it) instead of silently producing
//! wrong analyses.  Per-version rules: `cache_stats` needs v ≥ 2,
//! `metrics_window` / `profile_span` need v ≥ 3, the engine skip
//! fractions on `metrics_window` appear from v ≥ 4 (older records with
//! the shorter field list still validate), and the substrate telemetry
//! kinds (`sched_unit`, `cache_tier`, and `domain_window`, which older v5
//! traces carry and the emitter no longer writes) plus
//! `cache_stats.inflight_joined` appear from v ≥ 5.

use crate::json::{parse, Json};
use gpu_types::Histogram;

/// Newest schema version this validator understands (kept in lock-step
/// with `gpu_sim::trace::TRACE_SCHEMA_VERSION` by a test).
pub const MAX_SCHEMA_VERSION: u64 = 5;

/// What a field's value must look like.
#[derive(Debug, Clone, Copy)]
enum Ty {
    /// Non-negative integer.
    U64,
    /// Finite number or `null` (non-finite floats serialize as `null`).
    NumOrNull,
    /// String.
    Str,
    /// Non-negative integer or `null` (`metrics_window.app`).
    U64OrNull,
    /// Array of (number or `null`) — `partition_window.per_app_bw`.
    NumArr,
    /// `core_window.stall`: `{mem, struct, idle}` fractions.
    StallFracObj,
    /// `metrics_window.stalls`: `{mem, exec, barrier, tlp_capped}` counts.
    StallCountObj,
    /// A serialized histogram, checked for internal consistency.
    Hist,
}

/// One field of an event record: name, value shape, and the schema
/// version that introduced it (a record only carries the fields its
/// claimed version knows, still in serialization order).
type FieldSpec = (&'static str, Ty, u64);

/// Kind tag, minimum schema version, and the fields after
/// `v`/`kind`/`cycle` in exact serialization order.
type KindSpec = (&'static str, u64, &'static [FieldSpec]);

const KINDS: &[KindSpec] = &[
    (
        "window_sample",
        1,
        &[
            ("app", Ty::U64, 1),
            ("eb", Ty::NumOrNull, 1),
            ("bw", Ty::NumOrNull, 1),
            ("cmr", Ty::NumOrNull, 1),
            ("l1mr", Ty::NumOrNull, 1),
            ("l2mr", Ty::NumOrNull, 1),
            ("ipc", Ty::NumOrNull, 1),
        ],
    ),
    (
        "tlp_decision",
        1,
        &[
            ("app", Ty::U64, 1),
            ("old", Ty::U64, 1),
            ("new", Ty::U64, 1),
            ("reason", Ty::Str, 1),
        ],
    ),
    (
        "search_phase",
        1,
        &[("scheme", Ty::Str, 1), ("phase", Ty::Str, 1)],
    ),
    (
        "partition_window",
        1,
        &[
            ("partition", Ty::U64, 1),
            ("per_app_bw", Ty::NumArr, 1),
            ("rowbuf_hit_rate", Ty::NumOrNull, 1),
            ("queue_depth", Ty::U64, 1),
        ],
    ),
    (
        "core_window",
        1,
        &[
            ("core", Ty::U64, 1),
            ("app", Ty::U64, 1),
            ("ipc", Ty::NumOrNull, 1),
            ("active_warps", Ty::NumOrNull, 1),
            ("stall", Ty::StallFracObj, 1),
        ],
    ),
    (
        "cache_stats",
        2,
        &[
            ("hits", Ty::U64, 2),
            ("disk_hits", Ty::U64, 2),
            ("misses", Ty::U64, 2),
            ("bypasses", Ty::U64, 2),
            ("stores", Ty::U64, 2),
            ("verified", Ty::U64, 2),
            ("inflight_joined", Ty::U64, 5),
        ],
    ),
    (
        "metrics_window",
        3,
        &[
            ("app", Ty::U64OrNull, 3),
            ("stalls", Ty::StallCountObj, 3),
            ("dram_lat", Ty::Hist, 3),
            ("mshr_occ", Ty::Hist, 3),
            ("queue_depth", Ty::Hist, 3),
            ("machine_fast_forward_fraction", Ty::NumOrNull, 4),
            ("component_idle_skip_fraction", Ty::NumOrNull, 4),
        ],
    ),
    (
        "profile_span",
        3,
        &[
            ("level", Ty::Str, 3),
            ("name", Ty::Str, 3),
            ("depth", Ty::U64, 3),
            ("wall_s", Ty::NumOrNull, 3),
            ("cycles", Ty::U64, 3),
            ("cache_hits", Ty::U64, 3),
            ("cache_misses", Ty::U64, 3),
            ("workers", Ty::U64, 3),
        ],
    ),
    (
        "sched_unit",
        5,
        &[
            ("unit", Ty::U64, 5),
            ("label", Ty::Str, 5),
            ("fp", Ty::Str, 5),
            ("deps", Ty::U64, 5),
            ("est", Ty::U64, 5),
            ("worker", Ty::U64, 5),
            ("start_ms", Ty::NumOrNull, 5),
            ("wall_ms", Ty::NumOrNull, 5),
            ("cycles", Ty::U64, 5),
        ],
    ),
    (
        "domain_window",
        5,
        &[
            ("domain", Ty::U64, 5),
            ("windows", Ty::U64, 5),
            ("window_cycles", Ty::U64, 5),
            ("core_steps", Ty::U64, 5),
            ("partition_steps", Ty::U64, 5),
        ],
    ),
    (
        "cache_tier",
        5,
        &[
            ("tier", Ty::Str, 5),
            ("hits", Ty::U64, 5),
            ("misses", Ty::U64, 5),
            ("stores", Ty::U64, 5),
        ],
    ),
];

fn check_obj_exact(v: &Json, fields: &[(&str, Ty)], ctx: &str) -> Result<(), String> {
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("{ctx}: expected object, got {}", v.type_name()))?;
    if obj.len() != fields.len() {
        let got: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        return Err(format!(
            "{ctx}: fields {got:?} do not match schema {want:?}"
        ));
    }
    for ((key, val), (want_key, ty)) in obj.iter().zip(fields) {
        if key != want_key {
            return Err(format!(
                "{ctx}: field '{key}' where schema expects '{want_key}' (order is part of the contract)"
            ));
        }
        check_ty(val, *ty, &format!("{ctx}.{key}"))?;
    }
    Ok(())
}

fn check_hist(v: &Json, ctx: &str) -> Result<(), String> {
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("{ctx}: expected histogram object"))?;
    let want = ["count", "sum", "min", "max", "buckets"];
    if obj.len() != want.len() || obj.iter().zip(want).any(|((k, _), w)| k != w) {
        let got: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        return Err(format!(
            "{ctx}: histogram fields {got:?}, expected {want:?}"
        ));
    }
    let field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{ctx}.{name}: expected non-negative integer"))
    };
    let (count, sum, min, max) = (field("count")?, field("sum")?, field("min")?, field("max")?);
    let buckets: Vec<u64> = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}.buckets: expected array"))?
        .iter()
        .map(|b| {
            b.as_u64()
                .ok_or_else(|| format!("{ctx}.buckets: non-integer bucket count"))
        })
        .collect::<Result<_, _>>()?;
    // Reuse the simulator's own invariant checks (bucket-count
    // conservation, min ≤ max, bounded bucket vector).
    Histogram::from_parts(count, sum, min, max, &buckets).map_err(|e| format!("{ctx}: {e}"))?;
    Ok(())
}

fn check_ty(v: &Json, ty: Ty, ctx: &str) -> Result<(), String> {
    match ty {
        Ty::U64 => v.as_u64().map(|_| ()).ok_or_else(|| {
            format!(
                "{ctx}: expected non-negative integer, got {}",
                v.type_name()
            )
        }),
        Ty::NumOrNull => match v {
            Json::Null => Ok(()),
            Json::Num(n) if n.is_finite() => Ok(()),
            _ => Err(format!(
                "{ctx}: expected finite number or null, got {}",
                v.type_name()
            )),
        },
        Ty::Str => v
            .as_str()
            .map(|_| ())
            .ok_or_else(|| format!("{ctx}: expected string, got {}", v.type_name())),
        Ty::U64OrNull => match v {
            Json::Null => Ok(()),
            _ => check_ty(v, Ty::U64, ctx),
        },
        Ty::NumArr => {
            let arr = v
                .as_arr()
                .ok_or_else(|| format!("{ctx}: expected array, got {}", v.type_name()))?;
            for (i, item) in arr.iter().enumerate() {
                check_ty(item, Ty::NumOrNull, &format!("{ctx}[{i}]"))?;
            }
            Ok(())
        }
        Ty::StallFracObj => check_obj_exact(
            v,
            &[
                ("mem", Ty::NumOrNull),
                ("struct", Ty::NumOrNull),
                ("idle", Ty::NumOrNull),
            ],
            ctx,
        ),
        Ty::StallCountObj => check_obj_exact(
            v,
            &[
                ("mem", Ty::U64),
                ("exec", Ty::U64),
                ("barrier", Ty::U64),
                ("tlp_capped", Ty::U64),
            ],
            ctx,
        ),
        Ty::Hist => check_hist(v, ctx),
    }
}

/// Validates one trace line; returns the record's kind tag on success.
///
/// # Errors
///
/// Returns a message describing the first violation: malformed JSON, an
/// unknown/misversioned kind, a missing, extra, reordered or mistyped
/// field, or an internally inconsistent histogram.
pub fn validate_line(line: &str) -> Result<&'static str, String> {
    let v = parse(line).map_err(|e| format!("invalid JSON {e}"))?;
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("record must be an object, got {}", v.type_name()))?;
    if obj.len() < 3 || obj[0].0 != "v" || obj[1].0 != "kind" || obj[2].0 != "cycle" {
        return Err("record must start with \"v\", \"kind\", \"cycle\"".to_string());
    }
    let version = obj[0]
        .1
        .as_u64()
        .ok_or("\"v\": expected non-negative integer")?;
    if version == 0 || version > MAX_SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema version {version} (this validator knows 1..={MAX_SCHEMA_VERSION})"
        ));
    }
    let kind = obj[1].1.as_str().ok_or("\"kind\": expected string")?;
    check_ty(&obj[2].1, Ty::U64, "cycle")?;
    let (tag, min_v, fields) = KINDS
        .iter()
        .find(|(k, _, _)| *k == kind)
        .ok_or_else(|| format!("unknown event kind \"{kind}\""))?;
    if version < *min_v {
        return Err(format!(
            "kind \"{kind}\" requires schema version >= {min_v}, record claims v{version}"
        ));
    }
    // A record carries exactly the fields its claimed version defines:
    // later additions are invisible to older records, and an older record
    // must not smuggle them in.
    let fields: Vec<&FieldSpec> = fields
        .iter()
        .filter(|(_, _, since)| version >= *since)
        .collect();
    let rest = &obj[3..];
    if rest.len() != fields.len() {
        let got: Vec<&str> = rest.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = fields.iter().map(|(k, _, _)| *k).collect();
        return Err(format!(
            "kind \"{kind}\": fields {got:?} do not match schema {want:?} for v{version}"
        ));
    }
    for ((key, val), (want_key, ty, _)) in rest.iter().zip(fields) {
        if key != want_key {
            return Err(format!(
                "kind \"{kind}\": field '{key}' where schema expects '{want_key}' (order is part of the contract)"
            ));
        }
        check_ty(val, *ty, &format!("{kind}.{key}"))?;
    }
    Ok(tag)
}

/// Outcome of validating a whole JSONL trace.
#[derive(Debug, Default)]
pub struct ValidationReport {
    /// Total non-empty lines examined.
    pub lines: u64,
    /// Per-kind record counts, in first-seen order.
    pub by_kind: Vec<(&'static str, u64)>,
    /// `(line number, message)` for each invalid line (1-based).
    pub errors: Vec<(u64, String)>,
}

impl ValidationReport {
    /// Whether every line validated.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Validates every non-empty line of a JSONL trace document.
pub fn validate_trace(text: &str) -> ValidationReport {
    let mut report = ValidationReport::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        report.lines += 1;
        match validate_line(line) {
            Ok(kind) => match report.by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => report.by_kind.push((kind, 1)),
            },
            Err(msg) => report.errors.push((i as u64 + 1, msg)),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_version_matches_emitter() {
        assert_eq!(
            MAX_SCHEMA_VERSION,
            gpu_sim::trace::TRACE_SCHEMA_VERSION as u64
        );
    }

    #[test]
    fn accepts_real_emitter_output_for_every_kind() {
        use gpu_sim::trace::{StallBreakdown, TraceEvent};
        use gpu_simt::WarpStalls;
        let mut h = Histogram::new();
        h.record(3);
        h.record(90);
        let events = [
            TraceEvent::WindowSample {
                cycle: 1,
                app: 0,
                eb: 1.5,
                bw: 0.5,
                cmr: f64::NAN,
                l1mr: 0.5,
                l2mr: 0.66,
                ipc: 2.0,
            },
            TraceEvent::TlpDecision {
                cycle: 2,
                app: 1,
                old: 24,
                new: 4,
                reason: "search-sweep",
            },
            TraceEvent::SearchPhase {
                cycle: 3,
                scheme: "PBS-WS".into(),
                phase: "hold".into(),
            },
            TraceEvent::PartitionWindow {
                cycle: 4,
                partition: 0,
                per_app_bw: vec![0.25, f64::INFINITY],
                rowbuf_hit_rate: 0.9,
                queue_depth: 7,
            },
            TraceEvent::CoreWindow {
                cycle: 5,
                core: 2,
                app: 0,
                ipc: 1.0,
                active_warps: 3.5,
                stall: StallBreakdown {
                    mem: 0.25,
                    structural: 0.0,
                    idle: 0.5,
                },
            },
            TraceEvent::CacheStats {
                cycle: 0,
                hits: 1,
                disk_hits: 0,
                misses: 2,
                bypasses: 3,
                stores: 2,
                verified: 0,
                inflight_joined: 1,
            },
            TraceEvent::MetricsWindow {
                cycle: 6,
                app: None,
                stalls: WarpStalls {
                    mem: 5,
                    exec: 2,
                    barrier: 0,
                    tlp_capped: 1,
                },
                dram_lat: h,
                mshr_occ: Histogram::new(),
                queue_depth: Histogram::new(),
                machine_fast_forward_fraction: Some(0.125),
                component_idle_skip_fraction: Some(0.75),
            },
            TraceEvent::ProfileSpan {
                cycle: 0,
                level: "figure".into(),
                name: "fig09".into(),
                depth: 1,
                wall_s: 0.125,
                cycles: 42,
                cache_hits: 0,
                cache_misses: 1,
                workers: 8,
            },
            TraceEvent::SchedUnit {
                cycle: 0,
                unit: 4,
                label: "scheme:BLK_BFS/pbs".into(),
                fp: "00112233445566778899aabbccddeeff".into(),
                deps: 3,
                est: 120_000,
                worker: 2,
                start_ms: 0.5,
                wall_ms: 7.75,
                cycles: 110_000,
            },
            TraceEvent::CacheTier {
                cycle: 0,
                tier: "memory".into(),
                hits: 1,
                misses: 2,
                stores: 2,
            },
        ];
        for e in &events {
            let line = e.to_json();
            assert_eq!(validate_line(&line), Ok(e.kind()), "{line}");
        }
        // No longer emitted, still valid input: v5 traces written before
        // the intra-simulation engine was retired carry it.
        let line = "{\"v\":5,\"kind\":\"domain_window\",\"cycle\":4096,\"domain\":1,\
                    \"windows\":64,\"window_cycles\":4096,\"core_steps\":32768,\
                    \"partition_steps\":8192}";
        assert_eq!(validate_line(line), Ok("domain_window"));
    }

    #[test]
    fn v5_kinds_and_fields_are_gated_by_record_version() {
        // A v4 cache_stats record predates inflight_joined: the shorter
        // field list validates...
        let v4 = "{\"v\":4,\"kind\":\"cache_stats\",\"cycle\":0,\"hits\":1,\"disk_hits\":0,\
                  \"misses\":2,\"bypasses\":3,\"stores\":2,\"verified\":0";
        assert_eq!(validate_line(&format!("{v4}}}")), Ok("cache_stats"));
        // ...and must not smuggle the v5-only field in.
        assert!(validate_line(&format!("{v4},\"inflight_joined\":1}}")).is_err());
        // The v5 kinds must not claim an older version.
        let err = validate_line(
            "{\"v\":4,\"kind\":\"cache_tier\",\"cycle\":0,\"tier\":\"memory\",\
             \"hits\":1,\"misses\":2,\"stores\":2}",
        )
        .unwrap_err();
        assert!(err.contains("requires schema version >= 5"), "{err}");
    }

    #[test]
    fn rejects_unknown_kind_and_bad_version() {
        assert!(validate_line("{\"v\":3,\"kind\":\"nope\",\"cycle\":0}")
            .unwrap_err()
            .contains("unknown event kind"));
        assert!(
            validate_line("{\"v\":99,\"kind\":\"search_phase\",\"cycle\":0}")
                .unwrap_err()
                .contains("unsupported schema version")
        );
        // v3-only kinds must not claim an older version.
        let err = validate_line(
            "{\"v\":2,\"kind\":\"profile_span\",\"cycle\":0,\"level\":\"run\",\"name\":\"x\",\
             \"depth\":0,\"wall_s\":0.100000,\"cycles\":1,\"cache_hits\":0,\"cache_misses\":0,\
             \"workers\":1}",
        )
        .unwrap_err();
        assert!(err.contains("requires schema version >= 3"), "{err}");
    }

    #[test]
    fn rejects_extra_missing_and_reordered_fields() {
        // Extra field.
        assert!(validate_line(
            "{\"v\":3,\"kind\":\"search_phase\",\"cycle\":0,\"scheme\":\"s\",\"phase\":\"p\",\"x\":1}"
        )
        .is_err());
        // Missing field.
        assert!(
            validate_line("{\"v\":3,\"kind\":\"search_phase\",\"cycle\":0,\"scheme\":\"s\"}")
                .is_err()
        );
        // Reordered fields.
        let err = validate_line(
            "{\"v\":3,\"kind\":\"search_phase\",\"cycle\":0,\"phase\":\"p\",\"scheme\":\"s\"}",
        )
        .unwrap_err();
        assert!(err.contains("order"), "{err}");
    }

    #[test]
    fn metrics_window_fields_are_gated_by_record_version() {
        // A v3 record predates the engine skip fractions: the shorter
        // field list validates...
        let v3 = "{\"v\":3,\"kind\":\"metrics_window\",\"cycle\":0,\"app\":null,\
             \"stalls\":{\"mem\":0,\"exec\":0,\"barrier\":0,\"tlp_capped\":0},\
             \"dram_lat\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},\
             \"mshr_occ\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},\
             \"queue_depth\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}";
        assert_eq!(validate_line(&format!("{v3}}}")), Ok("metrics_window"));
        // ...and a v3 record must not carry the v4-only fields.
        let smuggled = format!(
            "{v3},\"machine_fast_forward_fraction\":0.5,\
             \"component_idle_skip_fraction\":0.5}}"
        );
        assert!(validate_line(&smuggled).is_err());
        // A v4 record without them is missing fields.
        let truncated = format!("{}}}", v3.replacen("\"v\":3", "\"v\":4", 1));
        let err = validate_line(&truncated).unwrap_err();
        assert!(err.contains("do not match schema"), "{err}");
    }

    #[test]
    fn rejects_inconsistent_histograms() {
        // bucket counts sum to 1 but count claims 2.
        let err = validate_line(
            "{\"v\":3,\"kind\":\"metrics_window\",\"cycle\":0,\"app\":null,\
             \"stalls\":{\"mem\":0,\"exec\":0,\"barrier\":0,\"tlp_capped\":0},\
             \"dram_lat\":{\"count\":2,\"sum\":3,\"min\":3,\"max\":3,\"buckets\":[0,0,1]},\
             \"mshr_occ\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},\
             \"queue_depth\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}}",
        )
        .unwrap_err();
        assert!(err.contains("dram_lat"), "{err}");
    }

    #[test]
    fn validate_trace_counts_kinds_and_flags_bad_lines() {
        let text = "{\"v\":3,\"kind\":\"search_phase\",\"cycle\":0,\"scheme\":\"s\",\"phase\":\"p\"}\n\
                    \n\
                    not json\n\
                    {\"v\":3,\"kind\":\"search_phase\",\"cycle\":1,\"scheme\":\"s\",\"phase\":\"q\"}\n";
        let report = validate_trace(text);
        assert_eq!(report.lines, 3);
        assert_eq!(report.by_kind, vec![("search_phase", 2)]);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].0, 3);
        assert!(!report.is_ok());
    }
}
