#!/usr/bin/env bash
# Per-kernel delta table between two BENCH_smoke.json files.
#
#   scripts/bench_diff.sh <baseline.json> <fresh.json>
#
# Emits a GitHub-flavored markdown table (kernel.mode | baseline ns |
# fresh ns | delta %), sorted by key, with keys present on only one side
# marked. The `batch.*_ns_per_call` throughput keys additionally get a
# calls/sec table (1e9 / ns-per-call) — the unit the batch trampoline's
# story is told in — the `index.*` pairs a speedup table (seq ns /
# indexed ns per probe, the ratio bench_gate enforces ≥ 5× on point and
# range) and the `serve.*` keys a concurrent-serving table
# (req/s + p99 per phase; higher req/s is better, so they are excluded
# from the ns table). CI's bench-gate job pipes this into
# $GITHUB_STEP_SUMMARY so the perf trajectory is visible per PR without
# downloading artifacts.
#
# Pure POSIX awk over the writer's fixed flat format ({"key": int, ...});
# the container has no jq and the CI runner should not need one.

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <baseline.json> <fresh.json>" >&2
    exit 2
fi

baseline=$1
fresh=$2
for f in "$baseline" "$fresh"; do
    if [ ! -r "$f" ]; then
        echo "bench_diff: cannot read $f" >&2
        exit 2
    fi
done

awk -v base="$baseline" -v fresh="$fresh" '
function parse(file, into,    line, k, v) {
    while ((getline line < file) > 0) {
        if (line !~ /":/) continue
        k = line; sub(/^[ \t]*"/, "", k); sub(/".*$/, "", k)
        v = line; sub(/^[^:]*:[ \t]*/, "", v); sub(/[ \t,]*$/, "", v)
        if (k != "" && v + 0 == v) into[k] = v + 0
    }
    close(file)
}
BEGIN {
    parse(base, b)
    parse(fresh, f)
    for (k in b) keys[k] = 1
    for (k in f) keys[k] = 1
    n = 0
    for (k in keys) sorted[++n] = k
    # insertion sort: tiny key count, no gawk asort dependency
    for (i = 2; i <= n; i++) {
        k = sorted[i]
        for (j = i - 1; j >= 1 && sorted[j] > k; j--) sorted[j + 1] = sorted[j]
        sorted[j + 1] = k
    }
    print "| kernel.mode | baseline ns | fresh ns | delta |"
    print "|---|---:|---:|---:|"
    for (i = 1; i <= n; i++) {
        k = sorted[i]
        if (k ~ /^serve\./) continue  # higher-is-better: own table below
        if (!(k in b))      printf "| %s | — | %d | _new_ |\n", k, f[k]
        else if (!(k in f)) printf "| %s | %d | — | _missing_ |\n", k, b[k]
        else                printf "| %s | %d | %d | %+.1f%% |\n", k, b[k], f[k], (f[k] / b[k] - 1) * 100
    }
    # Batch throughput in its native unit: calls/sec = 1e9 / ns-per-call.
    # A positive delta here means the trampoline got *faster*.
    hdr = 0
    for (i = 1; i <= n; i++) {
        k = sorted[i]
        if (k !~ /^batch\./ || k !~ /_ns_per_call$/) continue
        if (!hdr) {
            print ""
            print "| batch throughput | baseline calls/sec | fresh calls/sec | delta |"
            print "|---|---:|---:|---:|"
            hdr = 1
        }
        if (!(k in b))      printf "| %s | — | %d | _new_ |\n", k, 1e9 / f[k]
        else if (!(k in f)) printf "| %s | %d | — | _missing_ |\n", k, 1e9 / b[k]
        else                printf "| %s | %d | %d | %+.1f%% |\n", k, 1e9 / b[k], 1e9 / f[k], (b[k] / f[k] - 1) * 100
    }
    # Index access paths: seq-scan ns vs indexed ns per probe, with the
    # speedup factor on each side. The gate enforces >= 5x for the point
    # and range probes; settle_top is trajectory-only (its fixpoint fold
    # dominates the scan).
    hdr = 0
    for (i = 1; i <= n; i++) {
        k = sorted[i]
        if (k !~ /^index\./ || k !~ /\.indexed_ns$/) continue
        probe = k
        sub(/^index\./, "", probe); sub(/\.indexed_ns$/, "", probe)
        sk = "index." probe ".seq_ns"
        if (!hdr) {
            print ""
            print "| index probe | baseline speedup | fresh speedup |"
            print "|---|---:|---:|"
            hdr = 1
        }
        printf "| %s | %s | %s |\n", probe, speedup(b, k, sk), speedup(f, k, sk)
    }
    # Tiered execution: per-iteration ns of the fused fixpoint transition
    # in the VM vs the mono pipeline, per recognized kernel.
    # The speedup column is the ratio bench_gate enforces >= 1.5x on both
    # kernels (vm ns / mono ns; per-iteration so the unit is machine- and
    # input-size-portable).
    hdr = 0
    for (i = 1; i <= n; i++) {
        k = sorted[i]
        if (k !~ /^tier\./ || k !~ /\.vm_ns_per_iter$/) continue
        kernel = k
        sub(/^tier\./, "", kernel); sub(/\.vm_ns_per_iter$/, "", kernel)
        mk = "tier." kernel ".mono_ns_per_iter"
        if (!hdr) {
            print ""
            print "| tier kernel | baseline vm ns/iter | fresh vm ns/iter | baseline mono ns/iter | fresh mono ns/iter | baseline speedup | fresh speedup |"
            print "|---|---:|---:|---:|---:|---:|---:|"
            hdr = 1
        }
        printf "| %s | %s | %s | %s | %s | %s | %s |\n", kernel, \
            cell(b, k), cell(f, k), cell(b, mk), cell(f, mk), \
            speedup(b, mk, k), speedup(f, mk, k)
    }
    # Concurrent serving (serve_bench): req/s per phase with the 4-thread
    # p99 tail. Higher req/s is better — deltas here are intentionally not
    # percent-flagged like the ns table; the gate enforces the scaling
    # floor, this table just shows the trajectory.
    if (("serve.read.rps_1t" in b) || ("serve.read.rps_1t" in f)) {
        print ""
        print "| serving phase | baseline req/s | fresh req/s | baseline p99 ns | fresh p99 ns |"
        print "|---|---:|---:|---:|---:|"
        srow("read, 1 thread",        "serve.read.rps_1t",  "", b, f)
        srow("read, 4 threads",       "serve.read.rps_4t",  "serve.read.p99_ns", b, f)
        srow("mixed + churn, 4 threads", "serve.mixed.rps_4t", "serve.mixed.p99_ns", b, f)
        printf "\nread scaling at 4 threads (×100): %s → %s on %s → %s hardware threads\n", \
            cell(b, "serve.read.scaling_x100"), cell(f, "serve.read.scaling_x100"), \
            cell(b, "serve.threads_available"), cell(f, "serve.threads_available")
    }
    # Shared plan-cache counters over the whole serve run (from the
    # engine metrics registry, Database::metrics). The hit rate is the
    # column to watch: a planner or cache change that silently turns hits
    # into re-plans shows up here before it shows up in the latency table.
    if (("serve.cache.hits" in b) || ("serve.cache.hits" in f)) {
        print ""
        print "| plan cache (serve) | baseline | fresh |"
        print "|---|---:|---:|"
        printf "| hits | %s | %s |\n", cell(b, "serve.cache.hits"), cell(f, "serve.cache.hits")
        printf "| misses | %s | %s |\n", cell(b, "serve.cache.misses"), cell(f, "serve.cache.misses")
        printf "| evictions | %s | %s |\n", cell(b, "serve.cache.evictions"), cell(f, "serve.cache.evictions")
        printf "| hit rate | %s | %s |\n", hit_rate(b), hit_rate(f)
        printf "| warm hit rate | %s | %s |\n", warm_rate(b), warm_rate(f)
        print ""
        print "hit rate counts the whole run including the one-time per-session"
        print "prepares; warm hit rate is the steady-state mixed phase only"
        print "(prepare-once sessions replaying cached plans — the gate enforces"
        print ">= 90%)."
    }
}
function warm_rate(m) {
    if (!("serve.cache.warm_hit_rate_x100" in m)) return "—"
    return sprintf("%d%%", m["serve.cache.warm_hit_rate_x100"])
}
function hit_rate(m,    h, mi) {
    if (!("serve.cache.hits" in m) || !("serve.cache.misses" in m)) return "—"
    h = m["serve.cache.hits"]; mi = m["serve.cache.misses"]
    if (h + mi == 0) return "—"
    return sprintf("%.1f%%", h * 100 / (h + mi))
}
function cell(m, k) { return (k in m) ? m[k] : "—" }
function speedup(m, ik, sk) {
    if (!(ik in m) || !(sk in m) || m[ik] == 0) return "—"
    return sprintf("%.1fx", m[sk] / m[ik])
}
function srow(label, rk, pk, b, f) {
    printf "| %s | %s | %s | %s | %s |\n", label, cell(b, rk), cell(f, rk), \
        (pk == "") ? "—" : cell(b, pk), (pk == "") ? "—" : cell(f, pk)
}'
