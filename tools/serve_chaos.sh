#!/usr/bin/env bash
# SIGKILL-restart chaos test for the ohm-serve daemon (DESIGN.md §3.11).
#
# Sibling of tools/chaos_resume.sh, aimed at the daemon instead of the
# in-process sweep runner:
#   1. runs the chaos job against an uninterrupted daemon to capture the
#      reference digest;
#   2. boots a fresh daemon on a clean state directory, submits the same
#      job, and SIGKILLs the daemon as soon as its cache journal holds at
#      least one record (plus a deliberately torn frame appended to the
#      journal and a torn JOB line appended to jobs.log — the worst case
#      a mid-write kill can leave);
#   3. restarts the daemon on the survived state directory and waits for
#      the job — which must resume under its original id — to finish;
#   4. SIGKILLs and boots the daemon once more: the finished job must
#      stay finished.
#
# Fails (exit 1) if the resumed digest diverges from the reference, if
# the restarted daemon replayed nothing from the journal, if any cell
# quarantined, if the job's `DONE` line was glued onto the torn jobs-log
# fragment, or if the finished job resumed again.
#
# Usage: tools/serve_chaos.sh [path/to/ohm-serve [path/to/ohm_client]]
set -euo pipefail

SERVE=${1:-./target/release/ohm-serve}
CLIENT=${2:-./target/release/ohm_client}
WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
JOURNAL="$WORK/state/cache.ohmj"
JOBS_LOG="$WORK/state/jobs.log"
# The chaos job is 2 platforms x 2 workloads. Its pagerank cells run
# about 20x longer than its lud cells (about a second on a 2-vCPU host),
# so the kill below lands after the first journal record but before the
# last cell, not after a job that already finished.
SPEC='{"config": {"base": "quick_test", "insts_per_warp": 50000, "seed": 3},
  "platforms": ["Ohm-base", "Hetero"], "workloads": ["lud", "pagerank"]}'
TOTAL=4

# Boots a daemon on $WORK/state; sets SERVE_PID and ADDR (HOST:PORT).
boot() {
  "$SERVE" --addr 127.0.0.1:0 --state-dir "$WORK/state" --workers 2 \
    >"$WORK/serve.out" 2>"$WORK/serve.err" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^ohm-serve listening on //p' "$WORK/serve.out")
    [ -n "$ADDR" ] && return
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.err" >&2; exit 1; }
    sleep 0.1
  done
  echo "::error::daemon never printed its address" >&2
  exit 1
}

digest_of() { awk '/^digest / {print $2}' "$1"; }

echo "== reference run (uninterrupted daemon) =="
boot
"$CLIENT" --addr "$ADDR" run <(printf '%s' "$SPEC") | tee "$WORK/ref.txt"
REF_DIGEST=$(digest_of "$WORK/ref.txt")
[ -n "$REF_DIGEST" ] || { echo "::error::no digest from reference run"; exit 1; }
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true; SERVE_PID=""
rm -rf "$WORK/state"

echo "== fresh daemon, SIGKILL mid-job =="
boot
JOB=$("$CLIENT" --addr "$ADDR" submit <(printf '%s' "$SPEC"))
echo "submitted $JOB"
# Kill as soon as the cache journal holds one verified record.
for _ in $(seq 1 600); do
  if [ -f "$JOURNAL" ] && [ "$(grep -c '^REC ' "$JOURNAL" 2>/dev/null || true)" -ge 1 ]; then
    break
  fi
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true; SERVE_PID=""
RECORDS=$(grep -c '^REC ' "$JOURNAL" || true)
echo "cache journal survived the kill with $RECORDS record(s)"
[ "$RECORDS" -ge 1 ] || { echo "::error::kill landed before any cell was journalled"; exit 1; }
# Worst-case tail: a frame torn mid-write. Recovery must truncate it.
printf 'REC 00deadbeef' >>"$JOURNAL"
# The same for the jobs log: a JOB line torn before its newline.
printf 'JOB j999 {\\"plat' >>"$JOBS_LOG"

echo "== restarted daemon resumes the job =="
boot
"$CLIENT" --addr "$ADDR" wait "$JOB" | tee "$WORK/resumed.txt"
RES_DIGEST=$(digest_of "$WORK/resumed.txt")
STATUS=$("$CLIENT" --addr "$ADDR" status "$JOB")
STATS=$("$CLIENT" --addr "$ADDR" stats)
echo "$STATUS"
echo "$STATS"

if [ "$RES_DIGEST" != "$REF_DIGEST" ]; then
  echo "::error::resumed digest $RES_DIGEST diverged from reference $REF_DIGEST"
  exit 1
fi
HITS=$(sed -n 's/.*"hits":\([0-9]*\).*/\1/p' <<<"$STATS")
if [ -z "$HITS" ] || [ "$HITS" -lt 1 ]; then
  echo "::error::restart replayed no cells from the cache journal (hits=${HITS:-?})"
  exit 1
fi
if ! grep -q '"quarantined":0' <<<"$STATUS"; then
  echo "::error::resumed job quarantined cells: $STATUS"
  exit 1
fi
if ! grep -q "\"resolved\":$TOTAL" <<<"$STATUS"; then
  echo "::error::cells dropped on resume: $STATUS"
  exit 1
fi
# The DONE line is appended just after the last cell resolves; it must
# land on a line of its own, not on the torn fragment.
for _ in $(seq 1 100); do
  grep -qx "DONE $JOB" "$JOBS_LOG" && break
  sleep 0.1
done
if ! grep -qx "DONE $JOB" "$JOBS_LOG"; then
  echo "::error::no 'DONE $JOB' line in jobs.log after the resumed job finished"
  cat "$JOBS_LOG" >&2
  exit 1
fi

echo "== killed again: the finished job stays finished =="
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true; SERVE_PID=""
boot
if AGAIN=$("$CLIENT" --addr "$ADDR" status "$JOB" 2>&1); then
  echo "::error::finished job $JOB resumed after another restart: $AGAIN"
  exit 1
fi
if ! grep -q 'HTTP 404' <<<"$AGAIN"; then
  echo "::error::expected HTTP 404 for finished job $JOB, got: $AGAIN"
  exit 1
fi
echo "serve chaos OK: digest $RES_DIGEST, $HITS cell(s) served from the survived journal"
