#!/usr/bin/env bash
# Kill-resume chaos test for durable sweeps (DESIGN.md §3.10).
#
# Runs the perf_baseline smoke grid three times:
#   1. uninterrupted with a checkpoint, to capture the reference
#      `grid_digest:` (bit-exact content digest of every cell);
#   2. with a checkpoint journal, SIGKILLed as soon as the journal holds
#      at least one record (plus a deliberately torn frame appended, the
#      worst case a mid-write kill can leave);
#   3. resumed from the survived journal.
#
# Fails (exit 1) if the resumed digest diverges from the reference, if
# the resume replayed nothing from the journal, or if any cell was
# quarantined or silently dropped.
#
# Usage: tools/chaos_resume.sh [path/to/perf_baseline]
set -euo pipefail

BIN=${1:-./target/release/perf_baseline}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
JOURNAL="$WORK/grid.ohmj"
# The smoke grid is 3 platforms x 2 workloads.
TOTAL=6

digest_of() { awk '/^grid_digest:/ {print $2}' "$1"; }

echo "== reference run (uninterrupted) =="
"$BIN" --smoke --no-compare --checkpoint "$WORK/ref.ohmj" --out "$WORK/ref.json" \
  | tee "$WORK/ref.txt"
REF_DIGEST=$(digest_of "$WORK/ref.txt")
[ -n "$REF_DIGEST" ] || { echo "::error::no grid_digest in reference output"; exit 1; }

echo "== checkpointed run, SIGKILL partway =="
"$BIN" --smoke --no-compare --checkpoint "$JOURNAL" --out "$WORK/killed.json" \
  >"$WORK/killed.txt" 2>&1 &
PID=$!
# Kill as soon as the journal holds one verified record. If the run is
# too fast to catch, it simply completes — the resume assertions below
# still hold (everything cached).
for _ in $(seq 1 600); do
  if [ -f "$JOURNAL" ] && [ "$(grep -c '^REC ' "$JOURNAL" 2>/dev/null || true)" -ge 1 ]; then
    break
  fi
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
RECORDS=$(grep -c '^REC ' "$JOURNAL" || true)
echo "journal survived the kill with $RECORDS record(s)"
[ "$RECORDS" -ge 1 ] || { echo "::error::kill landed before any cell was journalled"; exit 1; }
# Worst-case tail: a frame torn mid-write. Resume must truncate it.
printf 'REC 00deadbeef' >>"$JOURNAL"

echo "== resumed run =="
"$BIN" --smoke --no-compare --checkpoint "$JOURNAL" --out "$WORK/resumed.json" \
  | tee "$WORK/resumed.txt"
RES_DIGEST=$(digest_of "$WORK/resumed.txt")
read -r COMPLETED CACHED QUARANTINED \
  <<<"$(awk '/^grid_cells:/ {print $2, $4, $6}' "$WORK/resumed.txt")"

if [ "$RES_DIGEST" != "$REF_DIGEST" ]; then
  echo "::error::resumed grid_digest $RES_DIGEST diverged from reference $REF_DIGEST"
  exit 1
fi
if [ "$CACHED" -lt 1 ]; then
  echo "::error::resume replayed no cells from the journal (cached=$CACHED)"
  exit 1
fi
if [ "$QUARANTINED" -ne 0 ]; then
  echo "::error::resume quarantined $QUARANTINED cells"
  exit 1
fi
if [ $((COMPLETED + CACHED)) -ne "$TOTAL" ]; then
  echo "::error::cells dropped: $COMPLETED completed + $CACHED cached != $TOTAL"
  exit 1
fi
echo "chaos resume OK: digest $RES_DIGEST, $CACHED cached + $COMPLETED re-simulated"
