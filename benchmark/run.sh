#!/usr/bin/env bash
# The repository's benchmark (README.md in this directory, ../BENCHMARK.json).
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run of one workload, as the benchmark driver invokes it. With
#       --trace 0 `ebm-e2e` measures the end-to-end metrics; with --trace 1
#       `ebm-layers` records spans and measures the per-layer metrics. The
#       last line of standard output is the driver's JSON object.
#
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke] [--bless]
#       The whole suite: every workload untraced, then every workload traced,
#       then benchmark/out/result.json and benchmark/out/trace.json. If
#       `ebm-layers` does not build, the end-to-end metrics are still printed
#       and the per-layer ones are reported as unavailable.
#
# Either way it first builds, from source, the release `experiments` and
# `trace-tools` binaries of the root workspace and this package's own two.
# Exits non-zero if the build, a run or any correctness check fails.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

workload="" seed=42 secs="" trace="" flags=()
while (($#)); do
    case "$1" in
    --workload) workload=${2:?--workload needs a name}; shift 2 ;;
    --seed) seed=${2:?--seed needs a number}; shift 2 ;;
    --seconds) secs=${2:?--seconds needs a number}; shift 2 ;;
    --trace) trace=${2:?--trace needs 0 or 1}; shift 2 ;;
    --smoke | --bless) flags+=("$1"); shift ;;
    *) echo "run.sh: unknown argument \`$1\`" >&2; exit 2 ;;
    esac
done
if [[ -z $secs ]]; then
    if [[ " ${flags[*]-} " == *" --smoke "* ]]; then secs=1; else secs=20; fi
fi

if [[ ! -f Cargo.toml || ! -d crates || ! -f BENCHMARK.json ]]; then
    echo "run.sh: $ROOT holds no simulator source tree to build and measure" >&2
    exit 3
fi

# One target directory for both workspaces, so the simulator crates compile
# once. A relative CARGO_TARGET_DIR is relative to the checkout.
if [[ -z ${CARGO_TARGET_DIR-} ]]; then
    export CARGO_TARGET_DIR="$ROOT/benchmark/target"
elif [[ $CARGO_TARGET_DIR != /* ]]; then
    export CARGO_TARGET_DIR="$ROOT/$CARGO_TARGET_DIR"
fi
bin="$CARGO_TARGET_DIR/release"

# All end-to-end runs use one simulation thread per machine; the binaries set
# EBM_THREADS=min(nproc, 2) for campaign work themselves.
unset EBM_SIM_THREADS EBM_CACHE EBM_CACHE_DIR EBM_CACHE_VERIFY

build() { cargo build --release --offline --quiet "$@" >&2; }
t0=$(date +%s%N)
build --manifest-path Cargo.toml -p ebm-bench --bin experiments --bin trace-tools
build --manifest-path benchmark/Cargo.toml --bin ebm-e2e
layers=1
build --manifest-path benchmark/Cargo.toml --bin ebm-layers || layers=0
ms=$((($(date +%s%N) - t0) / 1000000))
export EBM_BENCH_COMPILE_S="$((ms / 1000)).$(printf '%03d' $((ms % 1000)))"
echo "run.sh: build took ${EBM_BENCH_COMPILE_S}s" >&2

run_one() { # <workload> <trace>
    local exe=ebm-e2e
    [[ $2 == 1 ]] && exe=ebm-layers
    "$bin/$exe" --workload "$1" --seed "$seed" --seconds "$secs" \
        --root "$ROOT" --bin-dir "$bin" ${flags[@]+"${flags[@]}"}
}

if [[ -n $workload ]]; then
    if [[ ${trace:-0} == 1 && $layers == 0 ]]; then
        echo "run.sh: ebm-layers failed to build; per-layer metrics are unavailable" >&2
        exit 4
    fi
    run_one "$workload" "${trace:-0}"
    exit
fi

status=0
workloads=$("$bin/ebm-e2e" workloads --root "$ROOT")
for w in $workloads; do run_one "$w" 0 || status=1; done
rm -f benchmark/out/*.layers.json benchmark/out/*.trace.json
if [[ $layers == 1 ]]; then
    for w in $workloads; do run_one "$w" 1 || status=1; done
else
    echo "run.sh: warning: ebm-layers failed to build; reporting per-layer metrics as unavailable" >&2
fi
"$bin/ebm-e2e" collect --root "$ROOT" || status=1
exit $status
