#!/usr/bin/env bash
# Paired A/B runs: two revisions, run alternately, one table of medians.
#
#   scripts/ab.sh --parent <rev> [--change <rev>] [--pairs N] -- <run.sh args>
#   scripts/ab.sh --parent <rev> [--change <rev>] [--pairs N] --wall -- <command>
#
# e.g. scripts/ab.sh --parent HEAD~1 --pairs 5 -- --workload volta-busy --seconds 5 --trace 0
#      scripts/ab.sh --parent HEAD~1 --wall -- \
#          'cargo run -q --release -p ebm-bench --bin experiments -- --quick --out "$AB_OUT"'
#
# Exports <rev> with `git archive` into a temporary directory that is
# removed on exit; --change does the same for a second revision and
# defaults to the working tree. Each side builds into its own
# CARGO_TARGET_DIR. Each of the N pairs (default 5) runs once per side, and
# which side goes first alternates from pair to pair.
#
# By default a run is `benchmark/run.sh <run.sh args>` (the first pair also
# compiles), and for every end-to-end metric of BENCHMARK.json the value is
# read from `metrics.<m>.value` of the last line of stdout. With --wall a
# run is `bash -c <command>` in the side's tree, with AB_OUT naming a fresh
# empty directory, and its wall time is the one metric (`wall_s`); each
# side runs the command once untimed first, which compiles what it builds.
#
# The table gives both medians, the ratio change/parent, the pairs the
# change won, and both quartile ranges. A metric whose ranges overlap is
# `unresolved`, one equal in every pair `identical`. nproc and the load
# average are printed at start and end, and with them the share of the
# host's CPU time stolen by its hypervisor over the session (read from
# /proc/stat): other guests' load that the load average does not show.
# Needs git, tar, jq and awk; writes nothing under benchmark/.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh --parent <rev> [--change <rev>] [--pairs N] [--wall] -- <run.sh args | command>" >&2
    exit 2
}

parent="" change="" pairs=5 wall=0
while (($#)); do
    case "$1" in
    --parent) parent=${2:?--parent needs a revision}; shift 2 ;;
    --change) change=${2:?--change needs a revision}; shift 2 ;;
    --pairs) pairs=${2:?--pairs needs a number}; shift 2 ;;
    --wall) wall=1; shift ;;
    --) shift; break ;;
    *) usage ;;
    esac
done
[[ -n $parent && $pairs =~ ^[1-9][0-9]*$ && $# -gt 0 ]] || usage

source "$(dirname "${BASH_SOURCE[0]}")/sides.sh"
sides "$parent" "$change"

# name and better-direction of every metric
if ((wall)); then
    metrics=("wall_s lower")
    what="bash -c '$*'"
else
    mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$ROOT/BENCHMARK.json")
    what="benchmark/run.sh $*"
fi

load() { cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || echo unknown; }
# The host's CPU time so far: "<steal> <total>" in clock ticks, from the
# first line of /proc/stat (user nice system idle iowait irq softirq steal).
cpu_ticks() { awk '/^cpu / { print $9, $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9; exit }' /proc/stat 2>/dev/null; }
ticks0=$(cpu_ticks)
echo "ab: parent $parent, change $change, $pairs pairs of: $what"
echo "ab: nproc $(nproc), load average $(load) at start"

mkdir "$TMP/values"
# invoke <side> <args>: one run of the side's tree, its stdout and stderr
# where the caller sends them.
invoke() {
    local side=$1
    shift
    if ((wall)); then
        local out
        out="$(mktemp -d "$TMP/out.XXXX")"
        (cd "${tree[$side]}" && CARGO_TARGET_DIR="$TMP/target-$side" AB_OUT="$out" bash -c "$*")
    else
        CARGO_TARGET_DIR="$TMP/target-$side" bash "${tree[$side]}/benchmark/run.sh" "$@"
    fi
}
# run <side> <pair> <args>: one measured run; appends each metric's value
# (or `-` when the run reports none) to $TMP/values/<side>.<metric>.
run() {
    local side=$1 pair=$2 m t0
    shift 2
    local out="$TMP/$side.$pair.out" err="$TMP/$side.$pair.err"
    t0=$(date +%s%N)
    if ! invoke "$side" "$@" > "$out" 2> "$err"; then
        echo "ab.sh: the $side run of pair $pair failed; its stderr ends:" >&2
        tail -n 20 "$err" >&2
        exit 1
    fi
    if ((wall)); then
        echo "$(($(date +%s%N) - t0))" | awk '{ printf "%.6f\n", $1 / 1e9 }' >> "$TMP/values/$side.wall_s"
        return
    fi
    for line in "${metrics[@]}"; do
        m=${line%% *}
        tail -n 1 "$out" | jq -r --arg m "$m" '.metrics[$m].value // "-"' >> "$TMP/values/$side.$m"
    done
}
if ((wall)); then
    for side in parent change; do
        if ! invoke "$side" "$@" > "$TMP/$side.warmup.out" 2> "$TMP/$side.warmup.err"; then
            echo "ab.sh: the untimed $side run failed; its stderr ends:" >&2
            tail -n 20 "$TMP/$side.warmup.err" >&2
            exit 1
        fi
    done
    echo "ab: untimed first runs done"
fi
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        run "$side" "$i" "$@"
    done
    echo "ab: pair $i done (${order[0]} first)"
done
steal=$(echo "$ticks0 $(cpu_ticks)" | awk 'NF == 4 && $4 > $2 { printf "%.1f %%", 100 * ($3 - $1) / ($4 - $2); exit } { print "unknown" }')
echo "ab: nproc $(nproc), load average $(load) at end, CPU steal $steal of the session"

printf '%-14s %7s %12s %12s %7s %5s  %-25s %-25s %s\n' metric better \
    parent_med change_med ratio wins parent_q1..q3 change_q1..q3 verdict
for line in "${metrics[@]}"; do
    m=${line%% *} better=${line##* }
    paste "$TMP/values/parent.$m" "$TMP/values/change.$m" |
        awk -v m="$m" -v better="$better" '
        function quantile(v, n, q,   h, lo) {  # linear interpolation, v sorted
            h = (n - 1) * q; lo = int(h)
            return lo + 1 < n ? v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) : v[n]
        }
        function sort(v, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        $1 != "-" && $2 != "-" {
            n++; a[n] = $1; b[n] = $2
            if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
            if ($1 == $2) ties++
        }
        END {
            if (!n) { printf "%-14s %7s %12s\n", m, better, "unmeasured"; exit }
            sort(a, n); sort(b, n)
            am = quantile(a, n, 0.5); bm = quantile(b, n, 0.5)
            a1 = quantile(a, n, 0.25); a3 = quantile(a, n, 0.75)
            b1 = quantile(b, n, 0.25); b3 = quantile(b, n, 0.75)
            if (ties == n) verdict = "identical"
            else if ((a1 > b1 ? a1 : b1) <= (a3 < b3 ? a3 : b3)) verdict = "unresolved"
            else if ((better == "higher") == (bm > am)) verdict = "change better"
            else verdict = "change worse"
            printf "%-14s %7s %12.6g %12.6g %7.3f %2d/%-2d  %-25s %-25s %s\n", m, better, am, bm,
                am ? bm / am : 0, wins, n, sprintf("%.6g..%.6g", a1, a3),
                sprintf("%.6g..%.6g", b1, b3), verdict
        }'
done
