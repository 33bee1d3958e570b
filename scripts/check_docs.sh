#!/usr/bin/env bash
# Verifies that every repo path referenced from README.md and the docs
# (docs/ARCHITECTURE.md, docs/BENCHMARKS.md, docs/HARDENING.md) exists, so
# the paper→code map cannot silently rot as files move. Referenced paths
# are backtick-quoted strings that look like repo files (contain a '/' and
# start with a known top-level directory).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for doc in README.md docs/ARCHITECTURE.md docs/BENCHMARKS.md docs/HARDENING.md; do
  [ -f "$doc" ] || { echo "missing $doc"; fail=1; continue; }
  # Pull `path`-style references; strip trailing :line anchors. `|| true`
  # keeps a reference-free doc from tripping set -e via grep's exit 1.
  refs=$(grep -o '`[^`]*`' "$doc" | tr -d '`' | sed 's/:[0-9]*$//' |
         { grep -E '^(src|tests|bench|examples|docs|scripts|perfbench|\.github)/' || true; } |
         sort -u)
  for ref in $refs; do
    if [ ! -e "$ref" ]; then
      echo "$doc references missing file: $ref"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK: all referenced files exist"
