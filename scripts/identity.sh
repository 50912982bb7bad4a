#!/usr/bin/env bash
# Bit-identity of two revisions, as one command.
#
#   scripts/identity.sh --parent <rev> [--change <rev>]
#
# e.g. scripts/identity.sh --parent HEAD~1
#
# Exports both sides as scripts/ab.sh does (scripts/sides.sh: `git archive`
# into a temporary directory removed on exit, --change defaulting to the
# working tree, one CARGO_TARGET_DIR per side) and runs on each side:
#
#   - `benchmark/run.sh --seconds 1 --trace 0` for small-membound,
#     small-compute and volta-busy at seeds 42 and 7, and for
#     campaign-quick (whose golden does not depend on the seed). Each run
#     holds its co-run digests, or its artifact fingerprints, to the
#     side's benchmark/golden/ files and fails on a difference; the two
#     sides' golden files must be the same bytes and their runs report the
#     same exact `sim_ipc`.
#   - `experiments --quick` under --serial and at EBM_THREADS=1, 2 and 4,
#     each into a fresh --out: every artifact (PROFILE.json, which records
#     wall times, aside) and stdout are compared byte for byte between the
#     sides.
#
# Prints `identical` and exits 0, or names the first check, artifact and
# line that differ and exits 1. Needs git, tar, jq and cmp.
set -euo pipefail

usage() {
    echo "usage: scripts/identity.sh --parent <rev> [--change <rev>]" >&2
    exit 2
}

parent="" change=""
while (($#)); do
    case "$1" in
    --parent) parent=${2:?--parent needs a revision}; shift 2 ;;
    --change) change=${2:?--change needs a revision}; shift 2 ;;
    *) usage ;;
    esac
done
[[ -n $parent ]] || usage

source "$(dirname "${BASH_SOURCE[0]}")/sides.sh"
sides "$parent" "$change"
echo "identity: parent $parent, change $change"

# differ <what> <detail>: the verdict for the first difference found.
differ() {
    echo "identity: $1 differs: $2"
    echo "differs"
    exit 1
}

# first_diff <parent file or dir> <change file or dir>: prints
# "<file>, line <n>: <parent line> | <change line>" for the first file (in
# name order, PROFILE.json aside) whose bytes differ, or nothing.
first_diff() {
    local f n msg
    if [[ -d $1 ]]; then
        for f in $( (ls -A "$1"; ls -A "$2") | sort -u); do
            [[ $f == PROFILE.json ]] && continue
            [[ -e $1/$f && -e $2/$f ]] || { echo "$f: on one side only"; return; }
            first_diff "$1/$f" "$2/$f" | sed "s|^|$f: |"
            cmp -s "$1/$f" "$2/$f" || return 0
        done
    elif ! msg=$(cmp "$1" "$2" 2>&1); then
        n=$(sed -n 's/.*line \([0-9]*\).*/\1/p' <<< "$msg")
        # At the end of the shorter file cmp names its last whole line.
        [[ $msg == *EOF* ]] && n=$((${n:-0} + 1))
        echo "line $n: $(sed -n "${n}p" "$1") | $(sed -n "${n}p" "$2")"
    fi
}

# 1. Golden digests.
d=$(first_diff "${tree[parent]}/benchmark/golden" "${tree[change]}/benchmark/golden")
[[ -z $d ]] || differ "benchmark/golden" "$d"
runs=()
for w in small-membound small-compute volta-busy; do
    runs+=("$w 42" "$w 7")
done
runs+=("campaign-quick 42")
for r in "${runs[@]}"; do
    read -r w seed <<< "$r"
    for side in parent change; do
        out="$TMP/$side.$w.$seed"
        if ! CARGO_TARGET_DIR="$TMP/target-$side" bash "${tree[$side]}/benchmark/run.sh" \
            --workload "$w" --seed "$seed" --seconds 1 --trace 0 > "$out" 2> "$out.err"; then
            differ "$w seed $seed ($side)" \
                "$(grep -m1 '^check .* FAILED' "$out" | cut -d';' -f1 || tail -n 3 "$out.err")"
        fi
        tail -n 1 "$out" | jq -r '.metrics.sim_ipc.value' > "$out.ipc"
    done
    d=$(first_diff "$TMP/parent.$w.$seed.ipc" "$TMP/change.$w.$seed.ipc")
    [[ -z $d ]] || differ "$w seed $seed sim_ipc" "$d"
    echo "identity: $w seed $seed: goldens hold on both sides"
done

# 2. `experiments --quick` artifacts and stdout.
for mode in serial 1 2 4; do
    if [[ $mode == serial ]]; then label=--serial; else label=EBM_THREADS=$mode; fi
    for side in parent change; do
        out="$TMP/quick-$mode.$side"
        mkdir "$out"
        run=(env CARGO_TARGET_DIR="$TMP/target-$side")
        [[ $mode == serial ]] || run+=(EBM_THREADS="$mode")
        run+=(cargo run -q --release -p ebm-bench --bin experiments -- --quick --out "$out")
        [[ $mode == serial ]] && run+=(--serial)
        (cd "${tree[$side]}" && "${run[@]}" > "$out/stdout" 2> "$out.err") ||
            differ "experiments --quick $label ($side)" "$(tail -n 3 "$out.err")"
    done
    d=$(first_diff "$TMP/quick-$mode.parent" "$TMP/quick-$mode.change")
    [[ -z $d ]] || differ "experiments --quick $label" "$d"
    echo "identity: experiments --quick $label: artifacts and stdout equal"
done
echo "identical"
