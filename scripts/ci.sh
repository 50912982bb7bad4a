#!/usr/bin/env bash
# Offline CI gate: format check, lints, release build, full test suite (the
# engine-vs-oracle differential suite included), the benchmark's binaries
# and golden digests, and the byte-compare gates over `experiments --quick`.
# Speed is not gated here: that is `bash benchmark/run.sh`
# (benchmark/README.md). No network access required.
set -euo pipefail

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

experiments() { cargo run -p ebm-bench --release --quiet --bin experiments -- --quick "$@"; }
trace_tools() { cargo run -p ebm-bench --release --quiet --bin trace-tools -- "$@"; }
# PROFILE.json records wall-clock timings, which legitimately differ
# between two runs of the same campaign.
same_artifacts() { diff -r --exclude=PROFILE.json --exclude=stderr.log "$1" "$2"; }

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

echo "== benchmark binaries (ebm-e2e and ebm-layers must build against crates/*) =="
# run.sh tolerates an ebm-layers build failure and reports the per-layer
# metrics as unavailable; here a crates/* API break is an error.
cargo build --release --offline --manifest-path benchmark/Cargo.toml --bins

echo "== golden digests (co-run MemCounters digests and campaign artifact fingerprints must reproduce) =="
# Non-smoke runs gate the goldens; one second of samples still finishes all
# twelve checkpoint rounds. A non-zero exit is bit-drift in the engine or,
# for campaign-quick, in an artifact's bytes.
for W in small-membound small-compute volta-busy campaign-quick; do
  bash benchmark/run.sh --workload "$W" --seed 42 --seconds 1 --trace 0 > /dev/null
  echo "golden digests OK: $W"
done

echo "== docs gates (PARALLELISM names its knobs; TRACE_SCHEMA pins the emitter's version) =="
grep -q 'EBM_SIM_THREADS' docs/PARALLELISM.md
grep -q 'EBM_THREADS' docs/PARALLELISM.md
TRACE_VER="$(sed -n 's/^pub const TRACE_SCHEMA_VERSION: u32 = \([0-9]*\);$/\1/p' crates/sim/src/trace.rs)"
grep -q "Trace schema (v$TRACE_VER)" docs/TRACE_SCHEMA.md
echo "docs gates OK: trace schema v$TRACE_VER"

echo "== result cache round trip (experiments --quick twice, one cache dir) =="
mkdir "$TMP/cold" "$TMP/warm"
EBM_CACHE_DIR="$TMP/cache" experiments --trace "$TMP/cold.jsonl" --out "$TMP/cold" 2> "$TMP/cold/stderr.log"
EBM_CACHE_DIR="$TMP/cache" experiments --out "$TMP/warm" 2> "$TMP/warm/stderr.log"
grep '\] cache: ' "$TMP/warm/stderr.log"
# The warm run must be served by the cache...
if grep -q '\] cache: .*hit rate 0\.000' "$TMP/warm/stderr.log"; then
  echo "FAIL: warm experiments run reported a zero cache hit rate" >&2
  exit 1
fi
# ...and must reproduce the cold run's reports byte for byte.
same_artifacts "$TMP/cold" "$TMP/warm"
echo "cache round trip OK: warm run hit the cache and reproduced every report"

echo "== trace schema gate (trace-tools validate on the --quick campaign trace) =="
trace_tools validate "$TMP/cold.jsonl"

echo "== intra-sim determinism gate (experiments --quick at 1 vs 4 sim threads, byte-compared) =="
# No EBM_CACHE_DIR: each process starts with an empty in-process registry,
# so both runs genuinely simulate. Scoped to the trace-enabled fig11
# artifact: on a 1-core host EBM_THREADS resolves to 1, sweeps run inline
# rather than in fan-out workers, and the whole campaign would pay 4-worker
# barrier overhead per simulation — fig11 keeps the gate an end-to-end
# release-mode byte-compare at tolerable cost.
for T in 1 4; do
  mkdir "$TMP/sim$T"
  EBM_SIM_THREADS=$T experiments --only fig11 --out "$TMP/sim$T" 2> "$TMP/sim$T/stderr.log"
done
same_artifacts "$TMP/sim1" "$TMP/sim4"
echo "intra-sim determinism OK: 1-thread and 4-thread artifacts are byte-identical"

echo "== campaign scheduler gate (experiments --quick serial vs scheduled, byte-compared at 1/2/4 workers) =="
# No EBM_CACHE_DIR: each process starts cold, so the scheduled runs
# genuinely execute the work graph. The serial walk of the plan is the
# reference the scheduler is held to, byte for byte, at every pool width;
# so is its run report, whose default sections are deterministic.
mkdir "$TMP/serial"
experiments --serial --trace "$TMP/serial.jsonl" --out "$TMP/serial" 2> "$TMP/serial/stderr.log"
trace_tools report "$TMP/serial.jsonl" > "$TMP/report.txt"
for T in 1 2 4; do
  mkdir "$TMP/sched$T"
  EBM_THREADS=$T EBM_LOG=info experiments --trace "$TMP/sched$T.jsonl" --out "$TMP/sched$T" 2> "$TMP/sched$T/stderr.log"
  grep '\] sched: ' "$TMP/sched$T/stderr.log"
  DEDUP="$(sed -n 's/.*\] sched:.*[( ]\([0-9][0-9]*\)% deduped.*/\1/p' "$TMP/sched$T/stderr.log")"
  if [ -z "$DEDUP" ] || [ "$DEDUP" -le 0 ]; then
    echo "FAIL: scheduled campaign at $T worker(s) reported no deduplication" >&2
    exit 1
  fi
  same_artifacts "$TMP/serial" "$TMP/sched$T"
  trace_tools report "$TMP/sched$T.jsonl" | diff "$TMP/report.txt" -
  echo "campaign scheduler OK at $T worker(s): ${DEDUP}% deduped, artifacts and run report byte-identical to serial"
done

echo "== run report smoke (--timings/--profile/--html variants render and the page is self-contained) =="
trace_tools report "$TMP/sched4.jsonl" \
  --timings --profile "$TMP/sched4/PROFILE.json" --html "$TMP/report.html" > /dev/null
grep -q '<html>' "$TMP/report.html"
if grep -qE 'src=|href=' "$TMP/report.html"; then
  echo "FAIL: HTML report references external resources" >&2
  exit 1
fi
echo "run report smoke OK"

echo "CI OK"
