#!/usr/bin/env bash
# Offline CI gate: format check, release build, full test suite (the
# engine-vs-oracle differential suite included), the benchmark's golden
# digests, and the perf_smoke determinism/throughput smoke. No network
# access required.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release (workspace) =="
cargo build --workspace --release

echo "== cargo test (workspace) =="
cargo test --workspace --release -q

echo "== cargo test --doc (workspace doctests) =="
cargo test --workspace --release -q --doc

echo "== cargo doc (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== golden digests (benchmark co-runs must reproduce their committed per-round MemCounters digests) =="
# Non-smoke runs gate the goldens; one second of samples still finishes all
# twelve checkpoint rounds. A non-zero exit is bit-drift in the engine.
for W in small-membound small-compute volta-busy; do
  bash benchmark/run.sh --workload "$W" --seed 42 --seconds 1 --trace 0 > /dev/null
  echo "golden digests OK: $W"
done

echo "== perf_smoke (smoke mode: verifies parallel == serial, cache warm == cold, obs overhead) =="
# Smoke-mode numbers must not clobber the committed full-machine
# BENCH_*.json files.
OBS_JSON="$(mktemp)"
ENG_JSON="$(mktemp)"
PAR_JSON="$(mktemp)"
CAMP_JSON="$(mktemp)"
HIST="$(mktemp)"
trap 'rm -f "$OBS_JSON" "$ENG_JSON" "$PAR_JSON" "$CAMP_JSON" "$HIST"' EXIT
cargo run -p ebm-bench --release --bin perf_smoke -- --smoke \
  --obs-out "$OBS_JSON" --engine-out "$ENG_JSON" --out "$PAR_JSON" \
  --campaign-out "$CAMP_JSON" --history "$HIST"
grep overhead_pct "$OBS_JSON"

echo "== obs overhead gate (disabled metrics/counters within max(1%, measured noise floor)) =="
awk -F': ' '
  /"metrics_off_overhead_pct"/ { moff = $2 + 0 }
  /"counters_off_overhead_pct"/ { coff = $2 + 0 }
  /"noise_floor_pct"/ { nf = $2 + 0 }
  END {
    lim = (nf > 1.0 ? nf : 1.0)
    if (moff > lim) { print "FAIL: metrics_off overhead " moff "% > max(1%, noise floor " nf "%)"; exit 1 }
    if (coff > lim) { print "FAIL: counters_off overhead " coff "% > max(1%, noise floor " nf "%)"; exit 1 }
    print "obs gate OK: metrics_off " moff "%, counters_off " coff "%, noise floor " nf "% (limit " lim "%)"
  }' "$OBS_JSON"

echo "== bench history gate (every perf_smoke section appended; bench-trend flags injected regressions) =="
HIST_LINES="$(wc -l < "$HIST")"
if [ "$HIST_LINES" -lt 2 ]; then
  echo "FAIL: bench history has $HIST_LINES snapshot line(s), expected one per section" >&2
  exit 1
fi
# Two identical rounds must pass trend analysis cleanly...
HIST2="$(mktemp)"
HIST_BAD="$(mktemp)"
trap 'rm -f "$OBS_JSON" "$ENG_JSON" "$PAR_JSON" "$CAMP_JSON" "$HIST" "$HIST2" "$HIST_BAD"' EXIT
cat "$HIST" "$HIST" > "$HIST2"
cargo run -p ebm-bench --release --bin trace-tools -- bench-trend "$HIST2"
# ...and an injected throughput collapse must fail it (self-test of the gate).
cp "$HIST2" "$HIST_BAD"
grep '"benchmark":"engine"' "$HIST" | head -n 1 \
  | sed 's/"memory_bound_speedup":[0-9.eE+-]*/"memory_bound_speedup":0.01/' >> "$HIST_BAD"
if cargo run -p ebm-bench --release --bin trace-tools -- bench-trend "$HIST_BAD" > /dev/null; then
  echo "FAIL: bench-trend did not flag the injected memory_bound_speedup regression" >&2
  exit 1
fi
echo "bench history gate OK: $HIST_LINES sections appended, trend comparison and regression self-test pass"

echo "== engine speedup gate (memory-bound co-run must beat the reference engine >= 3x) =="
grep memory_bound_speedup "$ENG_JSON"
awk -F': ' '/"memory_bound_speedup"/ {
  if ($2 + 0 < 3.0) { print "FAIL: memory_bound_speedup " $2 " < 3.0"; exit 1 }
}' "$ENG_JSON"

echo "== intra-sim scaling gate (lookahead windows must amortize barriers; divergence is always fatal) =="
# The intra_sim block is the last "speedup_vs_1_thread" in BENCH_parallel.
# Gates, in order:
#   * divergence across sim-thread counts is always fatal;
#   * the memory-bound smoke co-run must average more than one simulated
#     cycle per lookahead window (the windowed engine's whole point);
#   * sync points per kcycle must sit well under the retired per-cycle
#     3-phase design's ~3000 barrier crossings per stepped kcycle;
#   * on a multi-core host the best multi-worker run must beat serial;
#     on a 1-core host (`contended: true`) there is nothing to overlap,
#     so the gate instead bounds the time-slicing overhead: >= 0.5x.
awk -F': ' '
  /"host_parallelism"/ { host = $2 + 0 }
  /"identical_across_sim_threads"/ { if ($2 !~ /true/) bad = 1 }
  /"sync_points_per_kcycle"/ { sync = $2 + 0 }
  /"mean_window_cycles"/ { win = $2 + 0 }
  /"contended"/ { contended = ($2 ~ /true/) }
  /"speedup_vs_1_thread"/ { intra = $2 + 0 }
  END {
    if (bad) { print "FAIL: intra-sim parallel run diverged from serial"; exit 1 }
    if (win <= 1.0) {
      print "FAIL: mean_window_cycles " win " <= 1.0 on the memory-bound co-run"; exit 1
    }
    if (sync <= 0 || sync >= 3000) {
      print "FAIL: sync_points_per_kcycle " sync " not improved vs the ~3000/kcycle per-cycle-barrier baseline"; exit 1
    }
    if (!contended && host > 1 && intra < 1.0) {
      print "FAIL: intra-sim speedup " intra " < 1.0 on a " host "-core host"; exit 1
    }
    if (contended && intra < 0.5) {
      print "FAIL: intra-sim overhead on the contended 1-core host exceeds 2x (speedup " intra ")"; exit 1
    }
    print "intra-sim gate OK: speedup " intra "x, " sync " sync points/kcycle, mean window " win " cycles (host parallelism " host ", contended " (contended ? "true" : "false") ")"
  }
' "$PAR_JSON"

echo "== campaign scheduler bench gate (dedup > 0; scheduled not slower than serial on multi-core hosts) =="
grep -E 'dedup_ratio|speedup_cold|scheduled_identical' "$CAMP_JSON"
awk -F': ' '
  /"host_parallelism"/ { host = $2 + 0 }
  /"contended"/ { contended = ($2 ~ /true/) }
  /"dedup_ratio"/ { dedup = $2 + 0 }
  /"speedup_cold"/ { sp = $2 + 0 }
  /"scheduled_identical_to_serial"/ { ident = ($2 ~ /true/) }
  END {
    if (!ident) { print "FAIL: scheduled campaign renders diverged from serial"; exit 1 }
    if (dedup <= 0) { print "FAIL: campaign dedup_ratio " dedup " is not > 0"; exit 1 }
    if (!contended && host > 1 && sp < 1.0) {
      print "FAIL: scheduled campaign slower than serial (speedup_cold " sp ") on a " host "-core host"; exit 1
    }
    print "campaign bench gate OK: dedup " dedup ", cold speedup " sp "x (host parallelism " host ", contended " (contended ? "true" : "false") ")"
  }
' "$CAMP_JSON"

echo "== docs gates (PARALLELISM/BENCH_SCHEMA/TRACE_SCHEMA exist and pin their versions) =="
grep -q 'EBM_SIM_THREADS' docs/PARALLELISM.md
grep -q 'EBM_THREADS' docs/PARALLELISM.md
BENCH_VER="$(sed -n 's/^pub const BENCH_SCHEMA_VERSION: u32 = \([0-9]*\);$/\1/p' crates/bench/src/lib.rs)"
grep -q "BENCH schema (v$BENCH_VER)" docs/BENCH_SCHEMA.md
TRACE_VER="$(sed -n 's/^pub const TRACE_SCHEMA_VERSION: u32 = \([0-9]*\);$/\1/p' crates/sim/src/trace.rs)"
grep -q "Trace schema (v$TRACE_VER)" docs/TRACE_SCHEMA.md
echo "docs gates OK: BENCH schema v$BENCH_VER, trace schema v$TRACE_VER"

echo "== result cache round trip (experiments --quick twice, one cache dir) =="
CACHE_DIR="$(mktemp -d)"
COLD_OUT="$(mktemp -d)"
WARM_OUT="$(mktemp -d)"
TRACE_FILE="$(mktemp -u).jsonl"
SER_OUT="$(mktemp -d)"
PARSIM_OUT="$(mktemp -d)"
SCHED_REF="$(mktemp -d)"
SCHED_OUT="$(mktemp -d)"
SER_TRACE="$(mktemp -u).jsonl"
SCHED_TRACE="$(mktemp -u).jsonl"
REPORT_REF="$(mktemp)"
REPORT_HTML="$(mktemp)"
trap 'rm -rf "$CACHE_DIR" "$COLD_OUT" "$WARM_OUT" "$TRACE_FILE" "$OBS_JSON" "$ENG_JSON" "$PAR_JSON" "$CAMP_JSON" "$HIST" "$HIST2" "$HIST_BAD" "$SER_OUT" "$PARSIM_OUT" "$SCHED_REF" "$SCHED_OUT" "$SER_TRACE" "$SCHED_TRACE" "$REPORT_REF" "$REPORT_HTML"' EXIT
EBM_CACHE_DIR="$CACHE_DIR" cargo run -p ebm-bench --release --bin experiments -- \
  --quick --trace "$TRACE_FILE" --out "$COLD_OUT" 2> "$COLD_OUT/stderr.log"
EBM_CACHE_DIR="$CACHE_DIR" cargo run -p ebm-bench --release --bin experiments -- \
  --quick --out "$WARM_OUT" 2> "$WARM_OUT/stderr.log"
grep '\] cache: ' "$WARM_OUT/stderr.log"
# The warm run must be served by the cache...
if grep -q '\] cache: .*hit rate 0\.000' "$WARM_OUT/stderr.log"; then
  echo "FAIL: warm experiments run reported a zero cache hit rate" >&2
  exit 1
fi
# ...and must reproduce the cold run's reports byte for byte. PROFILE.json
# records wall-clock timings, which legitimately differ between runs.
rm -f "$COLD_OUT/stderr.log" "$WARM_OUT/stderr.log"
diff -r --exclude=PROFILE.json "$COLD_OUT" "$WARM_OUT"
echo "cache round trip OK: warm run hit the cache and reproduced every report"

echo "== trace schema gate (trace-tools validate on the --quick campaign trace) =="
cargo run -p ebm-bench --release --bin trace-tools -- validate "$TRACE_FILE"

echo "== intra-sim determinism gate (experiments --quick at 1 vs 4 sim threads, byte-compared) =="
# No EBM_CACHE_DIR: each process starts with an empty in-process registry,
# so both runs genuinely simulate. The two artifact trees must be
# byte-identical regardless of the domain-worker count (PROFILE.json holds
# wall-clock timings and legitimately differs). Scoped to the trace-enabled
# fig11 artifact: on a 1-core host EBM_THREADS resolves to 1, sweeps run
# inline rather than in fan-out workers, and the whole campaign would pay
# 4-worker barrier overhead per simulation — fig11 keeps the gate an
# end-to-end release-mode byte-compare at tolerable cost.
EBM_SIM_THREADS=1 cargo run -p ebm-bench --release --bin experiments -- \
  --quick --only fig11 --out "$SER_OUT" 2> "$SER_OUT/stderr.log"
EBM_SIM_THREADS=4 cargo run -p ebm-bench --release --bin experiments -- \
  --quick --only fig11 --out "$PARSIM_OUT" 2> "$PARSIM_OUT/stderr.log"
rm -f "$SER_OUT/stderr.log" "$PARSIM_OUT/stderr.log"
diff -r --exclude=PROFILE.json "$SER_OUT" "$PARSIM_OUT"
echo "intra-sim determinism OK: 1-thread and 4-thread artifacts are byte-identical"

echo "== campaign scheduler gate (experiments --quick serial vs scheduled, byte-compared at 1/2/4 workers) =="
# No EBM_CACHE_DIR: each process starts cold, so the scheduled runs
# genuinely execute the work graph. The serial loop is the reference the
# scheduler is held to, byte for byte, at every pool width (PROFILE.json
# holds wall-clock timings and legitimately differs).
cargo run -p ebm-bench --release --bin experiments -- \
  --quick --serial --trace "$SER_TRACE" --out "$SCHED_REF" 2> "$SCHED_REF/stderr.log"
rm -f "$SCHED_REF/stderr.log"
# The default report sections are deterministic: the serial run's report
# is the byte-exact reference every scheduled run below is held to.
cargo run -p ebm-bench --release --bin trace-tools -- report "$SER_TRACE" > "$REPORT_REF"
for T in 1 2 4; do
  rm -rf "$SCHED_OUT"; mkdir -p "$SCHED_OUT"
  rm -f "$SCHED_TRACE"
  EBM_THREADS=$T EBM_LOG=info cargo run -p ebm-bench --release --bin experiments -- \
    --quick --trace "$SCHED_TRACE" --out "$SCHED_OUT" 2> "$SCHED_OUT/stderr.log"
  grep '\] sched: ' "$SCHED_OUT/stderr.log"
  DEDUP="$(sed -n 's/.*\] sched:.*[( ]\([0-9][0-9]*\)% deduped.*/\1/p' "$SCHED_OUT/stderr.log")"
  if [ -z "$DEDUP" ] || [ "$DEDUP" -le 0 ]; then
    echo "FAIL: scheduled campaign at $T worker(s) reported no deduplication" >&2
    exit 1
  fi
  rm -f "$SCHED_OUT/stderr.log"
  diff -r --exclude=PROFILE.json "$SCHED_REF" "$SCHED_OUT"
  cargo run -p ebm-bench --release --bin trace-tools -- report "$SCHED_TRACE" \
    | diff "$REPORT_REF" -
  echo "campaign scheduler OK at $T worker(s): ${DEDUP}% deduped, artifacts and run report byte-identical to serial"
done

echo "== run report smoke (--timings/--profile/--html variants render and the page is self-contained) =="
cargo run -p ebm-bench --release --bin trace-tools -- report "$SCHED_TRACE" \
  --timings --profile "$SCHED_OUT/PROFILE.json" --html "$REPORT_HTML" > /dev/null
grep -q '<html>' "$REPORT_HTML"
if grep -qE 'src=|href=' "$REPORT_HTML"; then
  echo "FAIL: HTML report references external resources" >&2
  exit 1
fi
echo "run report smoke OK"

echo "CI OK"
