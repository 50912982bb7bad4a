#!/usr/bin/env bash
# A sampling profiler for a host without `perf`: where did the host time of
# one command go, by function.
#
#   scripts/profile.sh [--top N] [--hot SUBSTR] <command...>
#
# Builds a ~40-line C LD_PRELOAD sampler with the installed gcc (a
# SIGPROF handler records the interrupted instruction pointer; samples and
# the executable mappings are dumped at exit), runs <command...> under it and
# resolves the samples of every mapped ELF file to demangled symbols with
# `nm -C` and `readelf -lW` (a PIE's load delta). Prints the top N symbols
# (default 30) and, with --hot, the hottest instruction offsets inside the
# first symbol whose name contains SUBSTR (read them against `objdump -d`).
# When that symbol's binary carries line tables and `addr2line` is installed,
# each offset is followed by its source line and the chain of functions
# inlined there (`addr2line -i -f -C`), which is how samples a release build
# charges to one big function are told apart; then every sampled offset of
# the symbol is summed by the innermost `file:line` of its chain that is not
# in the toolchain's std sources, and the top N of those lines are printed. Build the profiled binary with
# CARGO_PROFILE_RELEASE_DEBUG=line-tables-only for that; it does not change
# the generated code.
#
# ITIMER_PROF ticks at 250 Hz on this host whatever interval is asked for,
# so a useful profile needs >= 10 s of CPU in the command (2 500 samples).
# Only the command's own process is sampled, not its children: profile the
# simulating binary directly, not a wrapper script. Profile a release build;
# symbols come from the symbol table, which release builds keep; samples in a
# function no table names are shown by file, so `[libc.so.6]` is the stripped
# libc's local functions, here its memcpy / memmove variants. Not a CI gate.
#
#   bash benchmark/run.sh --workload small-membound --seed 42 --seconds 1 --trace 0
#   scripts/profile.sh benchmark/target/release/ebm-e2e --workload small-membound \
#       --seed 42 --seconds 15 --root . --bin-dir benchmark/target/release
set -euo pipefail

top=30 hot=""
while (($#)); do
    case "$1" in
    --top) top=${2:?--top needs a count}; shift 2 ;;
    --hot) hot=${2:?--hot needs a symbol substring}; shift 2 ;;
    --) shift; break ;;
    -*) echo "profile.sh: unknown option \`$1\`" >&2; exit 2 ;;
    *) break ;;
    esac
done
if (($# == 0)); then
    echo "usage: scripts/profile.sh [--top N] [--hot SUBSTR] <command...>" >&2
    exit 2
fi
for tool in gcc nm readelf; do
    if ! command -v "$tool" > /dev/null; then
        echo "profile.sh: skipped, \`$tool\` is not installed" >&2
        exit 0
    fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/sampler.c" << 'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long *samples;
static volatile unsigned long n_samples;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig; (void)info;
    if (n_samples < MAX_SAMPLES)
        samples[n_samples++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("EBM_PROFILE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps))
        if (strstr(line, " r-xp ")) fprintf(out, "M %s", line);
    for (unsigned long i = 0; i < n_samples; i++) fprintf(out, "S %lx\n", samples[i]);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    struct itimerval every = {{0, 1000}, {0, 1000}};
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples) return;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    setitimer(ITIMER_PROF, &every, NULL);
}
EOF
gcc -O2 -shared -fPIC -o "$TMP/sampler.so" "$TMP/sampler.c"

status=0
EBM_PROFILE_OUT="$TMP/samples" LD_PRELOAD="$TMP/sampler.so" "$@" || status=$?
if [[ ! -s $TMP/samples ]]; then
    echo "profile.sh: the command (exit $status) left no samples" >&2
    exit 1
fi

# One "lo hi file-offset path" row per executable mapping, then per mapped
# ELF file its function symbols as "vaddr size name" and the vaddr - offset
# of its executable LOAD segment, which turns a sampled address into the
# link-time address `nm` prints: vaddr = ip - lo + map_offset + delta.
awk '$1 == "M" { split($2, r, "-"); print r[1], r[2], $4, $7 }' "$TMP/samples" > "$TMP/maps"
: > "$TMP/deltas"
n=0
while read -r _ _ _ path; do
    [[ $path == /* && -r $path ]] || continue
    grep -qxF "$path" "$TMP/seen" 2> /dev/null && continue
    echo "$path" >> "$TMP/seen"
    n=$((n + 1))
    delta=$(readelf -lW "$path" 2> /dev/null |
        awk '$1 == "LOAD" && $0 ~ / R ?E / { print $3, $2; exit }' |
        { read -r vaddr offset && echo $((vaddr - offset)) || true; })
    echo "$path $n ${delta:-0}" >> "$TMP/deltas"
    { nm -C --defined-only -S "$path" 2> /dev/null || true
      nm -C -D --defined-only -S "$path" 2> /dev/null || true; } |
        awk '$3 ~ /^[tTwW]$/ { a = $1; s = $2; $1 = $2 = $3 = ""; sub(/^ +/, ""); print a, s, $0 }' |
        sort -u > "$TMP/syms.$n"
done < "$TMP/maps"

awk -v top="$top" -v hot="$hot" -v tmp="$TMP" '
function hex(s,    i, c, v) {
    v = 0; s = tolower(s)
    for (i = 1; i <= length(s); i++) { c = index("0123456789abcdef", substr(s, i, 1)); v = v * 16 + c - 1 }
    return v
}
function load_syms(id,    f, line, parts, k, name) {
    f = tmp "/syms." id; k = 0
    while ((getline line < f) > 0) {
        split(line, parts, " ")
        name = line; sub(/^[^ ]+ [^ ]+ /, "", name)
        k++; sym_lo[id, k] = hex(parts[1]); sym_hi[id, k] = sym_lo[id, k] + hex(parts[2]); sym_name[id, k] = name
    }
    close(f); n_syms[id] = k
}
# Symbols are sorted by address: the last one starting at or below `v`.
function resolve(id, v,    lo, hi, mid) {
    lo = 1; hi = n_syms[id]
    if (hi == 0 || v < sym_lo[id, 1]) return 0
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (sym_lo[id, mid] <= v) lo = mid; else hi = mid - 1 }
    return lo
}
FILENAME == tmp "/deltas" { file_id[$1] = $2; delta[$1] = $3; load_syms($2); next }
FILENAME == tmp "/maps" { m++; map_lo[m] = hex($1); map_hi[m] = hex($2); map_off[m] = hex($3); map_path[m] = $4; next }
$1 == "S" {
    total++; ip = hex($2); name = "[unmapped]"
    for (i = 1; i <= m; i++) if (ip >= map_lo[i] && ip < map_hi[i]) {
        p = map_path[i]; base = p; sub(/.*\//, "", base); name = "[" base "]"
        if (p in file_id) {
            v = ip - map_lo[i] + map_off[i] + delta[p]; k = resolve(file_id[p], v)
            # Past the end of the nearest symbol: a function no symbol table
            # of the file names (a stripped libc: memcpy / memmove variants).
            if (k && v < sym_hi[file_id[p], k]) {
                name = sym_name[file_id[p], k]
                if (hot != "" && index(name, hot)) {
                    if (hot_sym == "") { hot_sym = name; hot_path = p; hot_base = sym_lo[file_id[p], k] }
                    if (name == hot_sym) hot_at[v - sym_lo[file_id[p], k]]++
                }
            }
        }
        break
    }
    count[name]++
}
END {
    printf "%d samples (ITIMER_PROF, ~250 Hz: %.1f s of CPU)\n", total, total / 250
    cmd = "sort -k1,1nr | head -n " top
    for (name in count) printf "%d %6.2f%%  %s\n", count[name], 100 * count[name] / total, name | cmd
    close(cmd)
    if (hot_sym != "") {
        printf "%s\n%s\n%d\n", hot_sym, hot_path, hot_base > (tmp "/hot_sym")
        for (o in hot_at) printf "%d %d\n", hot_at[o], o > (tmp "/hot")
    }
}' "$TMP/deltas" "$TMP/maps" "$TMP/samples"

if [[ -s $TMP/hot_sym ]]; then
    { read -r hot_sym; read -r hot_path; read -r hot_base; } < "$TMP/hot_sym"
    lines=0
    if command -v addr2line > /dev/null && readelf -SW "$hot_path" 2> /dev/null | grep -F .debug_line > /dev/null; then
        lines=1
    fi
    printf '\nhottest offsets in %s:\n' "$hot_sym"
    sort -k1,1nr "$TMP/hot" > "$TMP/hot_sorted"
    head -n 20 "$TMP/hot_sorted" | while read -r count offset; do
        printf '%d  +0x%x\n' "$count" "$offset"
        if ((lines)); then
            addr2line -i -f -C -e "$hot_path" "$(printf '0x%x' $((hot_base + offset)))" | sed 's/^/        /'
        fi
    done
    if ((lines)); then
        # Every offset, summed by the innermost line of its inline chain that
        # lies in the workspace (not in the toolchain's std sources).
        printf '\nhottest source lines in %s (all offsets, by innermost workspace line):\n' "$hot_sym"
        awk -v base="$hot_base" '{ printf "0x%x\n", base + $2 }' "$TMP/hot_sorted" |
            addr2line -a -i -f -C -e "$hot_path" > "$TMP/hot_chains"
        awk -v top="$top" -v root="$PWD/" '
        function flush() { if (b) { if (at == "") at = "[no workspace line]"; by[at] += n[b] } }
        NR == FNR { n[FNR] = $1; total += $1; next }
        /^0x[0-9a-f]+$/ { flush(); b++; at = ""; fn = 0; next }
        {
            fn = !fn
            if (fn || at != "" || $0 ~ /^(\/rustc\/|\?\?)/) next
            at = $0; sub(/ \(discriminator [0-9]+\)$/, "", at)
            if (index(at, root) == 1) at = substr(at, length(root) + 1)
        }
        END {
            flush()
            cmd = "sort -k1,1nr | head -n " top
            for (at in by) printf "%d %6.2f%%  %s\n", by[at], 100 * by[at] / total, at | cmd
            close(cmd)
        }' "$TMP/hot_sorted" "$TMP/hot_chains"
    fi
fi
exit "$status"
