//! The event table's serialization against a frozen copy of the
//! hand-written per-variant `to_json` it replaced: every kind, every float
//! field at NaN / ±∞ / rounding-sensitive values, escaped strings, empty
//! and trimmed histograms, `Some` and `None` options. A trace written by
//! the table is byte-identical to one the hand-written emitter wrote.

use gpu_sim::trace::{StallBreakdown, TraceEvent, TRACE_SCHEMA_VERSION};
use gpu_simt::WarpStalls;
use gpu_types::Histogram;
use std::fmt::Write as _;

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("null");
    }
}

fn push_hist(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max()
    );
    let buckets = h.buckets();
    let last = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    for (i, b) in buckets[..last].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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

/// The schema-v5 emitter as it was written by hand, kept verbatim.
fn frozen_to_json(e: &TraceEvent) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"v\":{TRACE_SCHEMA_VERSION},\"kind\":\"{}\",\"cycle\":{}",
        e.kind(),
        e.cycle()
    );
    match e {
        TraceEvent::WindowSample {
            app,
            eb,
            bw,
            cmr,
            l1mr,
            l2mr,
            ipc,
            ..
        } => {
            let _ = write!(s, ",\"app\":{app}");
            for (name, v) in [
                ("eb", eb),
                ("bw", bw),
                ("cmr", cmr),
                ("l1mr", l1mr),
                ("l2mr", l2mr),
                ("ipc", ipc),
            ] {
                let _ = write!(s, ",\"{name}\":");
                push_f64(&mut s, *v);
            }
        }
        TraceEvent::TlpDecision {
            app,
            old,
            new,
            reason,
            ..
        } => {
            let _ = write!(s, ",\"app\":{app},\"old\":{old},\"new\":{new},\"reason\":");
            push_str(&mut s, reason);
        }
        TraceEvent::SearchPhase { scheme, phase, .. } => {
            s.push_str(",\"scheme\":");
            push_str(&mut s, scheme);
            s.push_str(",\"phase\":");
            push_str(&mut s, phase);
        }
        TraceEvent::PartitionWindow {
            partition,
            per_app_bw,
            rowbuf_hit_rate,
            queue_depth,
            ..
        } => {
            let _ = write!(s, ",\"partition\":{partition},\"per_app_bw\":[");
            for (i, bw) in per_app_bw.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_f64(&mut s, *bw);
            }
            s.push_str("],\"rowbuf_hit_rate\":");
            push_f64(&mut s, *rowbuf_hit_rate);
            let _ = write!(s, ",\"queue_depth\":{queue_depth}");
        }
        TraceEvent::CoreWindow {
            core,
            app,
            ipc,
            active_warps,
            stall,
            ..
        } => {
            let _ = write!(s, ",\"core\":{core},\"app\":{app},\"ipc\":");
            push_f64(&mut s, *ipc);
            s.push_str(",\"active_warps\":");
            push_f64(&mut s, *active_warps);
            s.push_str(",\"stall\":{\"mem\":");
            push_f64(&mut s, stall.mem);
            s.push_str(",\"struct\":");
            push_f64(&mut s, stall.structural);
            s.push_str(",\"idle\":");
            push_f64(&mut s, stall.idle);
            s.push('}');
        }
        TraceEvent::CacheStats {
            hits,
            disk_hits,
            misses,
            bypasses,
            stores,
            verified,
            inflight_joined,
            ..
        } => {
            let _ = write!(
                s,
                ",\"hits\":{hits},\"disk_hits\":{disk_hits},\"misses\":{misses},\
                 \"bypasses\":{bypasses},\"stores\":{stores},\"verified\":{verified},\
                 \"inflight_joined\":{inflight_joined}"
            );
        }
        TraceEvent::MetricsWindow {
            app,
            stalls,
            dram_lat,
            mshr_occ,
            queue_depth,
            machine_fast_forward_fraction,
            component_idle_skip_fraction,
            ..
        } => {
            match app {
                Some(a) => {
                    let _ = write!(s, ",\"app\":{a}");
                }
                None => s.push_str(",\"app\":null"),
            }
            let _ = write!(
                s,
                ",\"stalls\":{{\"mem\":{},\"exec\":{},\"barrier\":{},\"tlp_capped\":{}}}",
                stalls.mem, stalls.exec, stalls.barrier, stalls.tlp_capped
            );
            for (name, h) in [
                ("dram_lat", dram_lat),
                ("mshr_occ", mshr_occ),
                ("queue_depth", queue_depth),
            ] {
                let _ = write!(s, ",\"{name}\":");
                push_hist(&mut s, h);
            }
            for (name, frac) in [
                (
                    "machine_fast_forward_fraction",
                    machine_fast_forward_fraction,
                ),
                ("component_idle_skip_fraction", component_idle_skip_fraction),
            ] {
                let _ = write!(s, ",\"{name}\":");
                match frac {
                    Some(f) => push_f64(&mut s, *f),
                    None => s.push_str("null"),
                }
            }
        }
        TraceEvent::ProfileSpan {
            level,
            name,
            depth,
            wall_s,
            cycles,
            cache_hits,
            cache_misses,
            workers,
            ..
        } => {
            s.push_str(",\"level\":");
            push_str(&mut s, level);
            s.push_str(",\"name\":");
            push_str(&mut s, name);
            let _ = write!(s, ",\"depth\":{depth},\"wall_s\":");
            push_f64(&mut s, *wall_s);
            let _ = write!(
                s,
                ",\"cycles\":{cycles},\"cache_hits\":{cache_hits},\
                 \"cache_misses\":{cache_misses},\"workers\":{workers}"
            );
        }
        TraceEvent::SchedUnit {
            unit,
            label,
            fp,
            deps,
            est,
            worker,
            start_ms,
            wall_ms,
            cycles,
            ..
        } => {
            let _ = write!(s, ",\"unit\":{unit},\"label\":");
            push_str(&mut s, label);
            s.push_str(",\"fp\":");
            push_str(&mut s, fp);
            let _ = write!(s, ",\"deps\":{deps},\"est\":{est},\"worker\":{worker}");
            s.push_str(",\"start_ms\":");
            push_f64(&mut s, *start_ms);
            s.push_str(",\"wall_ms\":");
            push_f64(&mut s, *wall_ms);
            let _ = write!(s, ",\"cycles\":{cycles}");
        }
        TraceEvent::CacheTier {
            tier,
            hits,
            misses,
            stores,
            ..
        } => {
            s.push_str(",\"tier\":");
            push_str(&mut s, tier);
            let _ = write!(
                s,
                ",\"hits\":{hits},\"misses\":{misses},\"stores\":{stores}"
            );
        }
    }
    s.push('}');
    s
}

const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    1.0 / 3.0,
    0.1 + 0.2,
    2.5,
    1e-7,
    123_456.789_012_34,
    1e300,
    -5.25,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const STRINGS: [&str; 5] = ["", "PBS-WS", "a\"b\\c", "tab\tnl\ncr\r\u{1}\u{1f}", "ünï€"];

fn histograms() -> Vec<Histogram> {
    let mut out = vec![Histogram::new()];
    for samples in [
        &[0][..],
        &[7, 3000],
        &[100, 260],
        &[u64::MAX],
        &[1, 2, 3, 4, 5, 1 << 20],
    ] {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        out.push(h);
    }
    out
}

/// Every kind, once per float value: `f` fills every float field, the
/// strings, histograms, options and integers vary with its index.
fn fixtures() -> Vec<TraceEvent> {
    let hists = histograms();
    let mut events = Vec::new();
    for (i, &f) in FLOATS.iter().enumerate() {
        let text = |k: usize| STRINGS[(i + k) % STRINGS.len()].to_string();
        let hist = |k: usize| hists[(i + k) % hists.len()];
        let n = i as u64 * 7919;
        let opt = |k: usize| (i + k).is_multiple_of(2).then_some(f);
        events.extend([
            TraceEvent::WindowSample {
                cycle: n,
                app: i as u8,
                eb: f,
                bw: f,
                cmr: f,
                l1mr: f,
                l2mr: f,
                ipc: f,
            },
            TraceEvent::TlpDecision {
                cycle: n,
                app: u8::MAX,
                old: u32::MAX,
                new: i as u32,
                reason: STRINGS[i % STRINGS.len()],
            },
            TraceEvent::SearchPhase {
                cycle: n,
                scheme: text(0),
                phase: text(1),
            },
            TraceEvent::PartitionWindow {
                cycle: n,
                partition: i as u32,
                per_app_bw: [f, 0.5, f][..i % 4].to_vec(),
                rowbuf_hit_rate: f,
                queue_depth: usize::MAX - i,
            },
            TraceEvent::CoreWindow {
                cycle: n,
                core: i as u32,
                app: 1,
                ipc: f,
                active_warps: f,
                stall: StallBreakdown {
                    mem: f,
                    structural: f,
                    idle: f,
                },
            },
            TraceEvent::CacheStats {
                cycle: 0,
                hits: n,
                disk_hits: n + 1,
                misses: u64::MAX,
                bypasses: 0,
                stores: 3,
                verified: 4,
                inflight_joined: 5,
            },
            TraceEvent::SchedUnit {
                cycle: 0,
                unit: n,
                label: text(2),
                fp: text(3),
                deps: 2,
                est: u64::MAX,
                worker: 1,
                start_ms: f,
                wall_ms: f,
                cycles: n,
            },
            TraceEvent::CacheTier {
                cycle: 0,
                tier: text(4),
                hits: n,
                misses: 1,
                stores: 2,
            },
            TraceEvent::MetricsWindow {
                cycle: n,
                app: (i % 3 != 0).then_some(i as u8),
                stalls: WarpStalls {
                    mem: n,
                    exec: 1,
                    barrier: 0,
                    tlp_capped: u64::MAX,
                },
                dram_lat: hist(0),
                mshr_occ: hist(1),
                queue_depth: hist(2),
                machine_fast_forward_fraction: opt(0),
                component_idle_skip_fraction: opt(1),
            },
            TraceEvent::ProfileSpan {
                cycle: u64::MAX - n,
                level: text(0),
                name: text(1),
                depth: i as u32,
                wall_s: f,
                cycles: n,
                cache_hits: 1,
                cache_misses: 2,
                workers: u32::MAX,
            },
        ]);
    }
    events
}

#[test]
fn event_table_serializes_byte_identically_to_the_hand_written_emitter() {
    let events = fixtures();
    let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds.len(),
        gpu_sim::trace::SCHEMA.len(),
        "a kind has no fixture"
    );
    for e in &events {
        assert_eq!(e.to_json(), frozen_to_json(e), "{e:?}");
    }
}
