#!/usr/bin/env bash
# Kill-resume chaos test for checkpointed runs (DESIGN.md §3.10).
#
# Drives `reproduce --checkpoint` on one output (default fig03, 20
# distinct cells) inside a scratch directory:
#   1. a checkpointed run, SIGKILLed as soon as the journal holds at
#      least one record, plus a deliberately torn frame appended (the
#      worst case a mid-write kill can leave);
#   2. a run resumed from the survived journal.
#
# Fails (exit 1) if the resumed output differs from the committed
# results/ file byte for byte, if the resume replayed nothing from the
# journal (distinct - simulated, since in-run repeats also read as
# cached), or if any cell was quarantined or dropped.
#
# Usage: tools/chaos_resume.sh [path/to/reproduce] [NAME]
set -euo pipefail

REPO=$(cd "$(dirname "$0")/.." && pwd)
BIN=$(realpath "${1:-$REPO/target/release/reproduce}")
NAME=${2:-fig03}
FILE=$(cd "$REPO/results" && ls "$NAME".*)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
JOURNAL="$WORK/cells.ohmj"
# reproduce writes results/ under its working directory.
cd "$WORK"

records() { grep -c '^REC ' "$JOURNAL" 2>/dev/null || true; }

echo "== checkpointed run of $NAME, SIGKILL partway =="
"$BIN" --checkpoint "$JOURNAL" "$NAME" >killed.txt 2>&1 &
PID=$!
# Kill as soon as the journal holds one verified record. If the run is
# too fast to catch, it simply completes — the resume assertions below
# still hold (everything replays).
for _ in $(seq 1 600); do
  if [ -f "$JOURNAL" ] && [ "$(records)" -ge 1 ]; then
    break
  fi
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
SURVIVED=$(records)
echo "journal survived the kill with $SURVIVED record(s)"
[ "$SURVIVED" -ge 1 ] || { echo "::error::kill landed before any cell was journalled"; exit 1; }
# Worst-case tail: a frame torn mid-write. Resume must truncate it.
printf 'REC 00deadbeef' >>"$JOURNAL"

echo "== resumed run =="
"$BIN" --checkpoint "$JOURNAL" "$NAME" | tee resumed.txt
# reproduce: N cells requested, D distinct, S simulated, Q quarantined, W s
read -r REQUESTED DISTINCT SIMULATED QUARANTINED \
  <<<"$(awk '/^reproduce:/ {print $2, $5, $7, $9}' resumed.txt)"
REPLAYED=$((DISTINCT - SIMULATED))

if ! cmp -s "results/$FILE" "$REPO/results/$FILE"; then
  echo "::error::resumed results/$FILE differs from the committed file"
  diff "results/$FILE" "$REPO/results/$FILE" | head -20
  exit 1
fi
if [ "$REPLAYED" -lt 1 ]; then
  echo "::error::resume replayed no cells from the journal ($SIMULATED of $DISTINCT simulated)"
  exit 1
fi
if [ "$QUARANTINED" -ne 0 ]; then
  echo "::error::resume quarantined $QUARANTINED cells"
  exit 1
fi
# Every distinct cell ends up journalled exactly once: replayed records
# plus the ones the resume appended. Fewer means a cell was dropped.
if [ "$(records)" -ne "$DISTINCT" ]; then
  echo "::error::cells dropped: journal holds $(records) records for $DISTINCT distinct cells"
  exit 1
fi
echo "chaos resume OK: results/$FILE matches; $REQUESTED cells, $REPLAYED replayed + $SIMULATED re-simulated"
