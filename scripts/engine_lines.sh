#!/usr/bin/env bash
# Print the engine's non-test line count: each crates/engine/src/*.rs
# counted up to its first column-0 `#[cfg(test)]` (the whole file when it
# has none), then the total. Prints only; it gates nothing.
#
# Usage: bash scripts/engine_lines.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for f in crates/engine/src/*.rs; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
