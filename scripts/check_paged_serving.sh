#!/usr/bin/env bash
# Paged-serving equivalence gate, end to end through the CLI: build a demo
# corpus and snapshot, serve it twice — resident, then paged under a
# memory budget far below the snapshot size — driving the same query
# script through both (including a mid-session hot swap to a second
# snapshot, a rejected non-finite deadline and a rejected theta=0), and
# require byte-identical answers with timings stripped. The paged session
# must also prove it actually paged: a pool counter line with misses > 0
# and charged residency at or under the budget.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI=${VER_CLI:-build/examples/ver_cli}
[ -x "$CLI" ] || { echo "ver_cli not found at $CLI (set VER_CLI)"; exit 1; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Corpus + snapshot (and a byte-identical copy to hot-swap to).
"$CLI" demo-data "$WORK/portal" > "$WORK/query.txt"
"$CLI" build-index --index-path "$WORK/portal.versnap" "$WORK/portal"
cp "$WORK/portal.versnap" "$WORK/portal_b.versnap"

SNAP_BYTES=$(wc -c < "$WORK/portal.versnap")
BUDGET=$((256 * 1024))
if [ "$SNAP_BYTES" -le "$BUDGET" ]; then
  echo "snapshot ($SNAP_BYTES bytes) does not exceed the $BUDGET-byte budget; gate is vacuous"
  exit 1
fi

# demo-data prints one example attribute per line; the serve REPL takes
# them joined with '|' on one line.
QUERY_LINE=$(paste -sd'|' "$WORK/query.txt")

# `opts deadline=nan` and `opts theta=0` must be refused when parsed; were
# either kept, every later query would fail validation.
feed() {
  printf '%s\n' "$QUERY_LINE" "opts deadline=nan" "opts theta=0" \
                "$QUERY_LINE" "swap $WORK/portal_b.versnap" "$QUERY_LINE" \
                "stats" "quit"
}
NUM_QUERIES=3

feed | "$CLI" serve --index-path "$WORK/portal.versnap" \
  > "$WORK/resident.out" 2> "$WORK/resident.err"
feed | "$CLI" serve --index-path "$WORK/portal.versnap" \
  --memory-budget="$BUDGET" \
  > "$WORK/paged.out" 2> "$WORK/paged.err"

# Answers must be present and non-trivial (a served 0-view answer would
# pass a bare diff).
grep -Eq "^[1-9][0-9]* views" "$WORK/paged.out" || {
  echo "paged serve returned no views"; cat "$WORK/paged.err"; exit 1; }

for mode in resident paged; do
  grep -q "request option 'deadline' needs a finite seconds value (got 'nan')" \
    "$WORK/$mode.err" || {
    echo "$mode serve accepted opts deadline=nan"; cat "$WORK/$mode.err"; exit 1; }
  grep -q "request option 'theta=0' refused: .*override theta must be >= 1" \
    "$WORK/$mode.err" || {
    echo "$mode serve accepted opts theta=0"; cat "$WORK/$mode.err"; exit 1; }
  ANSWERS=$(grep -Ec "^[0-9]+ views" "$WORK/$mode.out" || true)
  if [ "$ANSWERS" -ne "$NUM_QUERIES" ]; then
    echo "$mode serve answered $ANSWERS of $NUM_QUERIES queries"
    cat "$WORK/$mode.err"; exit 1
  fi
done

# Result lines, timings stripped, must match byte for byte — before,
# across and after the hot swap.
strip_timings() {
  grep -E "^[0-9]+ views" "$1" | sed -E 's/ in [0-9.]+ms$//'
}
if ! diff <(strip_timings "$WORK/resident.out") \
          <(strip_timings "$WORK/paged.out"); then
  echo "paged serve diverged from resident serve"
  exit 1
fi

# The paged session must actually have paged...
POOL_LINE=$(grep "^pool:" "$WORK/paged.out" | tail -1)
[ -n "$POOL_LINE" ] || { echo "paged serve reported no pool counters"; exit 1; }
MISSES=$(sed -E 's/.*misses=([0-9]+).*/\1/' <<< "$POOL_LINE")
RESIDENT=$(sed -E 's/.*resident=([0-9-]+).*/\1/' <<< "$POOL_LINE")
if [ "$MISSES" -le 0 ]; then
  echo "paged serve faulted no extents (pool: $POOL_LINE)"; exit 1
fi
# ...and hold its budget once queries drained (pins released).
if [ "$RESIDENT" -gt "$BUDGET" ]; then
  echo "pool residency $RESIDENT exceeds budget $BUDGET (pool: $POOL_LINE)"
  exit 1
fi
# ...while the resident session reports none.
if grep -q "^pool:" "$WORK/resident.out"; then
  echo "resident serve unexpectedly reported pool counters"; exit 1
fi

echo "paged serving check OK: identical answers under a $BUDGET-byte budget" \
     "($SNAP_BYTES-byte snapshot), pool $POOL_LINE"
