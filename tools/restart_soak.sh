#!/usr/bin/env bash
# Kill -9 restart soak for confcall_serve's crash-safety path.
#
# Each iteration starts the daemon with --state-in/--state-out pointed
# at the same checkpoint file, waits for it to reach the serving line
# (so at least one 50 ms checkpoint has a chance to land), then kills it
# with SIGKILL — no drain, no atexit, the torn-write worst case. The
# next iteration must come up printing exactly one typed state line:
# "state: restored from ..." (the checkpoint survived) or "state: cold
# start (...)" (it was missing/damaged and the loader said so). A hang,
# a crash on load, or a missing state line fails the soak. Then one
# graceful --steps run must restore and exit 0. Last, the same daemon runs
# under --supervise --max-restarts 2: its child is killed with SIGKILL,
# the supervisor must print "restarting in" and the new child must
# warm-restore, and SIGTERM to the supervisor must drain the child and
# exit 0 with "exited cleanly".
#
# Usage: restart_soak.sh [path/to/confcall_serve]
#   RESTART_SOAK_ITERS   kill -9 iterations (default 5)
set -u

BIN="${1:-build/tools/confcall_serve}"
ITERS="${RESTART_SOAK_ITERS:-5}"
WORK="$(mktemp -d)"
STATE="$WORK/state.bin"
sup=""
trap '[ -z "$sup" ] || kill -9 "$sup" $(pgrep -P "$sup") 2>/dev/null; rm -rf "$WORK"' EXIT

if [ ! -x "$BIN" ]; then
  echo "restart_soak: daemon binary not found: $BIN" >&2
  exit 2
fi

fail() {
  echo "restart_soak: FAIL: $1" >&2
  echo "---- last daemon log ----" >&2
  cat "$WORK/log" >&2
  exit 1
}

restored=0
for i in $(seq 1 "$ITERS"); do
  : > "$WORK/log"
  "$BIN" --scenario overloaded-urban --port 0 --port-file "$WORK/port" \
    --workers 2 --step-ms 5 --slo-p99-ms 2 --control-period-ms 100 \
    --state-in "$STATE" --state-out "$STATE" --checkpoint-every-ms 50 \
    >"$WORK/log" 2>&1 &
  pid=$!

  # Wait for the serving line (state line prints just after it).
  for _ in $(seq 1 200); do
    grep -q "serving on" "$WORK/log" && break
    kill -0 "$pid" 2>/dev/null || fail "iteration $i: daemon died on startup"
    sleep 0.05
  done
  grep -q "serving on" "$WORK/log" || fail "iteration $i: never started serving"
  for _ in $(seq 1 100); do
    grep -q "state: " "$WORK/log" && break
    sleep 0.05
  done
  grep -q "state: restored from\|state: cold start" "$WORK/log" \
    || fail "iteration $i: no typed state line after startup"
  grep -q "state: restored from" "$WORK/log" && restored=$((restored + 1))

  # Let a few checkpoint grid points pass, then kill without mercy.
  sleep 0.4
  kill -9 "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  echo "restart_soak: iteration $i: $(grep -o 'state: [^)]*)\|state: restored from [^ ]*' "$WORK/log" | head -1)"
done

# Every post-crash restart (iterations 2..N) should have found the
# checkpoint the previous incarnation wrote before dying.
[ "$ITERS" -lt 2 ] || [ "$restored" -ge 1 ] \
  || fail "no iteration ever warm-restored; checkpoints never survive kill -9"

# Final graceful run: restore the last kill -9 survivor's checkpoint,
# serve a bounded number of steps, drain, and exit 0.
: > "$WORK/log"
"$BIN" --scenario overloaded-urban --port 0 --workers 2 --steps 40 \
  --step-ms 5 --slo-p99-ms 2 --control-period-ms 100 \
  --state-in "$STATE" --state-out "$STATE" \
  >"$WORK/log" 2>&1
status=$?
[ "$status" -eq 0 ] || fail "graceful final run exited $status"
grep -q "state: restored from" "$WORK/log" \
  || fail "graceful final run did not warm-restore the soak checkpoint"

# Supervised run: kill -9 the child, require a restart that warm-restores
# the checkpoint, then SIGTERM the supervisor for a clean drain.
restores() { grep -c "state: restored from" "$WORK/log"; }
wait_for_restores() {
  for _ in $(seq 1 400); do
    [ "$(restores)" -ge "$1" ] && return 0
    kill -0 "$sup" 2>/dev/null || fail "supervisor died: wanted $1 restores"
    sleep 0.05
  done
  fail "supervised run: fewer than $1 'state: restored from' lines"
}
: > "$WORK/log"
"$BIN" --supervise --max-restarts 2 --scenario overloaded-urban --port 0 \
  --workers 2 --step-ms 5 --slo-p99-ms 2 --control-period-ms 100 \
  --state-in "$STATE" --state-out "$STATE" --checkpoint-every-ms 50 \
  >"$WORK/log" 2>&1 &
sup=$!
wait_for_restores 1
child="$(pgrep -P "$sup")"
[ -n "$child" ] || fail "supervised run: no child process under the supervisor"
sleep 0.4
kill -9 "$child"
wait_for_restores 2
grep -q "restarting in" "$WORK/log" \
  || fail "supervised run: no 'restarting in' line after kill -9"
kill -TERM "$sup"
wait "$sup"
status=$?
sup=""
[ "$status" -eq 0 ] || fail "supervisor exited $status after SIGTERM"
grep -q "supervised child exited cleanly" "$WORK/log" \
  || fail "supervised run: no 'exited cleanly' line after SIGTERM"

echo "restart_soak: PASS ($ITERS kill -9 iterations, $restored warm restores, supervised restart)"
