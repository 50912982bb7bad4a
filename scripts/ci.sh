#!/usr/bin/env bash
# Offline CI gate: format check, lints, release build, the whole test
# suite in the dev profile (the engine-vs-oracle differential suite and the
# doctests included), the benchmark's binaries and golden digests, and the
# byte-compare gates over `experiments --quick`.
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

echo "== cargo test (workspace, dev profile: debug_assert cross-checks on) =="
cargo test -q

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

echo "== docs gates (the retired intra-sim knob and the hand-kept artifact plan stay gone) =="
if grep -rnE 'EBM_SIM_THREADS|sim_worker_count|run_windowed|DirectFabric|DomainState|mod domain' crates docs README.md ARCHITECTURE.md DESIGN.md EXPERIMENTS.md; then
  echo "FAIL: the intra-simulation engine retired in PR 14 is back" >&2
  exit 1
fi
# An artifact reads measurements through the planner's constructors only
# (crates/bench/src/campaign.rs); a render that simulates or writes files by
# itself is a read the plan cannot see.
if grep -nE 'measure_fixed_cached|run_controller_cached|run_controller_traced|sampling_error_cached|profile_alone|ComboSweep::measure|FixedRunInputs|std::fs' crates/bench/src/figures.rs ||
  grep -rn 'plan_artifact' crates; then
  echo "FAIL: figures.rs bypasses its Demands, or the plan_artifact mirror retired in PR 20 is back" >&2
  exit 1
fi
# docs/TRACE_SCHEMA.md's heading and field tables are checked against the
# trace declaration by `cargo test` (schema_doc_carries_the_declared_field_tables).
echo "docs gates OK"

echo "== result cache round trip (experiments --quick twice, one cache dir) =="
mkdir "$TMP/cold" "$TMP/warm"
experiments --cache-dir "$TMP/cache" --trace "$TMP/cold.jsonl" --out "$TMP/cold" 2> "$TMP/cold/stderr.log"
experiments --cache-dir "$TMP/cache" --out "$TMP/warm" 2> "$TMP/warm/stderr.log"
grep '\] cache: ' "$TMP/warm/stderr.log"
# The warm run must be served by the cache...
if grep -q '\] cache: .*hit rate 0\.000' "$TMP/warm/stderr.log"; then
  echo "FAIL: warm experiments run reported a zero cache hit rate" >&2
  exit 1
fi
# ...by the cache alone: a hit rate above zero is also what a run that
# re-simulates half its renders reports.
if ! grep -q '\] cache: .* 0 misses' "$TMP/warm/stderr.log" ||
  ! grep -q '^{"schema":1,"workers":[0-9]*,"spans":\[{"level":"campaign",[^}]*"cycles":0,' "$TMP/warm/PROFILE.json"; then
  echo "FAIL: warm experiments run missed the cache or simulated (PROFILE.json root span: $(grep -o '^[^}]*}' "$TMP/warm/PROFILE.json"))" >&2
  exit 1
fi
# ...and must reproduce the cold run's reports byte for byte.
same_artifacts "$TMP/cold" "$TMP/warm"
echo "cache round trip OK: warm run simulated nothing and reproduced every report"
# Every trace this script writes is held to the schema (trace-tools
# validate also fails a trace with no records, i.e. one that lost them all).
trace_tools validate "$TMP/cold.jsonl"

echo "== campaign scheduler gate (experiments --quick serial vs scheduled, byte-compared at 1/2/4 workers) =="
# No --cache-dir: each process starts cold, so the scheduled runs
# genuinely execute the work graph. The serial walk of the plan is the
# reference the scheduler is held to, byte for byte, at every pool width;
# so is its run report, whose default sections are deterministic.
mkdir "$TMP/serial"
experiments --serial --trace "$TMP/serial.jsonl" --out "$TMP/serial" 2> "$TMP/serial/stderr.log"
trace_tools validate "$TMP/serial.jsonl"
trace_tools report "$TMP/serial.jsonl" > "$TMP/report.txt"
for T in 1 2 4; do
  mkdir "$TMP/sched$T"
  EBM_THREADS=$T experiments --trace "$TMP/sched$T.jsonl" --out "$TMP/sched$T" 2> "$TMP/sched$T/stderr.log"
  grep '\] sched: ' "$TMP/sched$T/stderr.log"
  trace_tools validate "$TMP/sched$T.jsonl"
  DEDUP="$(sed -n 's/.*\] sched:.*[( ]\([0-9][0-9]*\)% deduped.*/\1/p' "$TMP/sched$T/stderr.log")"
  if [ -z "$DEDUP" ] || [ "$DEDUP" -le 0 ]; then
    echo "FAIL: scheduled campaign at $T worker(s) reported no deduplication" >&2
    exit 1
  fi
  same_artifacts "$TMP/serial" "$TMP/sched$T"
  trace_tools report "$TMP/sched$T.jsonl" | diff "$TMP/report.txt" -
  echo "campaign scheduler OK at $T worker(s): ${DEDUP}% deduped, artifacts and run report byte-identical to serial"
done
# The plan is a function of the configuration alone: a second run into the
# same --out (which now holds the first run's PROFILE.json) plans, and so
# reports, the same graph.
mkdir "$TMP/again"
for N in 1 2; do
  experiments --only fig07,tab04 --trace "$TMP/again$N.jsonl" --out "$TMP/again" 2> "$TMP/again$N.log"
  trace_tools report "$TMP/again$N.jsonl" > "$TMP/again$N.txt"
done
diff "$TMP/again1.txt" "$TMP/again2.txt"
echo "campaign plan OK: a rerun into the same output directory reports the same plan"

echo "== memo-less gate (experiments --quick --no-cache vs serial, byte-compared) =="
# With both cache tiers off the process keeps nothing: every read
# re-simulates, alone profiles, sweeps and scheme reads included. The
# results must not depend on any record having been kept.
mkdir "$TMP/nocache"
experiments --no-cache --out "$TMP/nocache" 2> "$TMP/nocache/stderr.log"
same_artifacts "$TMP/serial" "$TMP/nocache"
echo "memo-less campaign OK: artifacts byte-identical to serial"

echo "== verify gate (experiments --quick --cache-verify 1.0 over the warm cache dir: alone profiles, sweeps, schemes and PBS runs vs serial) =="
# Every hit — the memory tier's values and the disk tier's records alike —
# is re-simulated and its encoding compared to the hit's; a mismatch
# panics. Over the round trip's warm directory each first read is a disk
# hit, so every record these artifacts read is decoded, re-simulated and
# byte-compared. fig07 reads alone profiles and a sweep, fig01 four
# schemes over them, fig11 and the ablation PBS runs.
mkdir "$TMP/verify"
experiments --cache-dir "$TMP/cache" --cache-verify 1.0 --only fig01,fig07,fig11,ablation --out "$TMP/verify" 2> "$TMP/verify/stderr.log"
if ! grep -q '\] cache: [0-9]* hits ([1-9][0-9]* disk), 0 misses, .* [1-9][0-9]* verified' "$TMP/verify/stderr.log"; then
  echo "FAIL: --cache-verify 1.0 verified no disk record ($(grep '\] cache: ' "$TMP/verify/stderr.log"))" >&2
  exit 1
fi
for f in "$TMP/verify"/*; do
  case "$(basename "$f")" in PROFILE.json | stderr.log) continue ;; esac
  cmp "$f" "$TMP/serial/$(basename "$f")"
done
echo "verify gate OK: every hit re-simulated bit-identically, artifacts byte-identical to serial"

echo "== run report smoke (--timings/--html render, spans come from the trace, the page is self-contained) =="
trace_tools report "$TMP/sched4.jsonl" --timings --html "$TMP/report.html" > "$TMP/timings.txt"
# The profile-span section reads the trace's profile_span records: the
# campaign root span must be among its rows.
grep -q '^== profile spans (nondeterministic) ==$' "$TMP/timings.txt"
grep -qE '^campaign +.* experiments$' "$TMP/timings.txt"
# `profile` is the CLI's only reader of PROFILE.json (runs without a trace).
trace_tools profile "$TMP/sched4/PROFILE.json" > /dev/null
grep -q '<html>' "$TMP/report.html"
if grep -qE 'src=|href=' "$TMP/report.html"; then
  echo "FAIL: HTML report references external resources" >&2
  exit 1
fi
echo "run report smoke OK"

echo "CI OK"
