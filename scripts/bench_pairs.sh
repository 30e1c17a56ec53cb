#!/usr/bin/env bash
# Alternating parent/change pairs of one plaway_bench workload, summarized
# per metric.
#
#   scripts/bench_pairs.sh <parent-bin> <change-bin> <workload> <pairs> \
#       [seconds] [first-seed] [extra-name...]
#
# <parent-bin> and <change-bin> are plaway_bench release binaries built
# from the two trees, each into its own target directory:
#
#   CARGO_TARGET_DIR=<dir> cargo build --release --offline \
#       --manifest-path plaway_bench/Cargo.toml
#
# Pair i runs both binaries on seed first-seed + i - 1 (first seed 1 by
# default) for <seconds> each (20 by default, the benchmark's run length).
# Odd pairs run the parent first and even pairs the change first, so drift
# on a shared machine lands on both sides.
#
# For every end-to-end metric in BENCHMARK.json, and for every extra name
# (any `name value unit` line the binary prints, e.g. `fibonacci.p50_us`),
# it prints the parent's median and quartiles, the change's median, the
# median of the per-pair change/parent ratios, how many pairs the change
# won by the metric's `better` direction, and the per-pair ratios. An extra
# name takes its direction from BENCHMARK.json's per-layer list, else it
# counts as lower-is-better; one the workload never prints is listed as
# such. Exits non-zero when a run fails or reports `failed` above 0.
#
# Reads BENCHMARK.json; writes only to a temporary directory.

set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 <parent-bin> <change-bin> <workload> <pairs> [seconds] [first-seed] [extra-name...]" >&2
    exit 2
fi
parent=$1
change=$2
workload=$3
pairs=$4
seconds=${5:-20}
seed0=${6:-1}
shift $(($# < 6 ? $# : 6))
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
for bin in "$parent" "$change"; do
    if [ ! -x "$bin" ]; then
        echo "bench_pairs: $bin is not an executable" >&2
        exit 2
    fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# `name better` for every metric BENCHMARK.json declares; end-to-end ones
# are marked so they are always reported.
awk '
/"end_to_end"/ { section = "e2e" }
/"per_layer"/  { section = "layer" }
/"name":/ && /"better":/ && section != "" {
    name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
    better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
    print name, better, section
}' "$spec" >"$out/spec"
{
    awk '$3 == "e2e" { print $1, $2 }' "$out/spec"
    for name in "$@"; do
        better=$(awk -v n="$name" '$1 == n { print $2 }' "$out/spec")
        echo "$name ${better:-lower}"
    done
} >"$out/metrics"

# run <bin> <file> <seed>: one timed run; stops the script if it fails.
run() {
    if ! "$1" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 >"$2" 2>&1; then
        echo "bench_pairs: $1 failed on seed $3:" >&2
        tail -5 "$2" >&2
        exit 1
    fi
    local failed
    failed=$(sed -n 's/.*"failed": *\([0-9][0-9]*\).*/\1/p' "$2" | tail -1)
    if [ -z "$failed" ] || [ "$failed" -gt 0 ]; then
        echo "bench_pairs: $1 on seed $3 reports failed=${failed:-missing}" >&2
        exit 1
    fi
}

for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run "$parent" "$out/p$i" "$seed"
        run "$change" "$out/c$i" "$seed"
    else
        run "$change" "$out/c$i" "$seed"
        run "$parent" "$out/p$i" "$seed"
    fi
    echo "pair $i/$pairs done (seed $seed)" >&2
done

printf 'workload %s: %d pairs of %d s, seeds %d..%d\n' \
    "$workload" "$pairs" "$seconds" "$seed0" $((seed0 + pairs - 1))
printf '%-20s %-6s %14s %14s %14s %14s %9s %6s\n' \
    metric better parent_med parent_q1 parent_q3 change_med ratio_med wins
while read -r name better; do
    if ! grep -q "^$name " "$out"/p* "$out"/c*; then
        printf '%-20s not printed by %s\n' "$name" "$workload"
        continue
    fi
    for i in $(seq 1 "$pairs"); do
        p=$(awk -v k="$name" '$1 == k { v = $2 } END { print v }' "$out/p$i")
        c=$(awk -v k="$name" '$1 == k { v = $2 } END { print v }' "$out/c$i")
        if [ -z "$p" ] || [ -z "$c" ]; then
            echo "bench_pairs: no $name line in pair $i" >&2
            exit 1
        fi
        echo "$p $c"
    done | awk -v name="$name" -v better="$better" '
    function quantile(sorted, n, q,    pos, lo) {
        pos = q * (n - 1) + 1
        lo = int(pos)
        return (lo >= n) ? sorted[n] : sorted[lo] + (pos - lo) * (sorted[lo + 1] - sorted[lo])
    }
    function sort(a, n,    i, j, v) {
        for (i = 2; i <= n; i++) {
            v = a[i]
            for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
            a[j + 1] = v
        }
    }
    {
        n++
        p[n] = $1; c[n] = $2
        r[n] = ($1 == 0) ? 0 : $2 / $1
        ratios = ratios sprintf(" %.3f", r[n])
        if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
    }
    END {
        sort(p, n); sort(c, n); sort(r, n)
        printf "%-20s %-6s %14.4g %14.4g %14.4g %14.4g %9.3f %3d/%d\n", name, better,
            quantile(p, n, 0.5), quantile(p, n, 0.25), quantile(p, n, 0.75),
            quantile(c, n, 0.5), quantile(r, n, 0.5), wins, n
        printf "%-20s per-pair ratios:%s\n", "", ratios
    }'
done <"$out/metrics"
