#!/usr/bin/env bash
# Smoke-test the sophied daemon end to end against the real binaries:
# start it, submit a K100 job over HTTP, poll to completion, check the
# best objective (the cut weight) matches a direct cmd/sophie run with
# the same seeds and
# config (the Go test suite proves bit-identity; this proves the shipped
# binary and HTTP plumbing agree with it), watch the job's SSE stream,
# then drain with SIGTERM. A second leg kill -9s a WAL-backed daemon
# mid-queue and restarts it over the same directory, asserting zero job
# loss.
set -euo pipefail

cd "$(dirname "$0")/.."
mkdir -p bin
go build -o bin/ ./cmd/sophie ./cmd/sophied

ADDR=127.0.0.1:18462
./bin/sophied -addr "$ADDR" -workers 2 &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "daemon never became healthy"; exit 1; }

SPEC='{"preset":"K100","replicas":2,"seed":7,"config":{"tile_size":32,"global_iters":30,"phi":0.2}}'
ID=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$SPEC" | grep -o '"id":"[^"]*"' | cut -d'"' -f4)
[ -n "$ID" ] || { echo "submission returned no job id"; exit 1; }
echo "submitted job $ID"

BODY=""
STATE=""
for _ in $(seq 1 200); do
  BODY=$(curl -sf "http://$ADDR/v1/jobs/$ID")
  STATE=$(echo "$BODY" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)
  [ "$STATE" = done ] && break
  if [ "$STATE" = failed ] || [ "$STATE" = cancelled ]; then
    echo "job ended $STATE: $BODY"
    exit 1
  fi
  sleep 0.1
done
[ "$STATE" = done ] || { echo "job never finished (last state: $STATE)"; exit 1; }

SERVICE_OBJ=$(echo "$BODY" | grep -o '"best_objective":[0-9.eE+-]*' | head -1 | cut -d: -f2)
DIRECT_OBJ=$(./bin/sophie -preset K100 -tile 32 -global 30 -phi 0.2 -replicas 2 -seed 7 \
  | sed -n 's/^batch: best objective \([0-9.]*\).*/\1/p')
echo "service best objective: $SERVICE_OBJ, direct best objective: $DIRECT_OBJ"
[ -n "$SERVICE_OBJ" ] && [ -n "$DIRECT_OBJ" ] || { echo "could not extract objectives"; exit 1; }
awk -v a="$SERVICE_OBJ" -v b="$DIRECT_OBJ" 'BEGIN { exit (a == b) ? 0 : 1 }' \
  || { echo "FAIL: service and direct objectives differ"; exit 1; }

curl -sf "http://$ADDR/metrics" | grep -q '"completed":1' \
  || { echo "metrics do not report the completed job"; exit 1; }

# The SSE stream of a terminal job delivers its state and result
# immediately and then ends — curl returns without hitting --max-time.
SSE=$(curl -sfN --max-time 10 "http://$ADDR/v1/jobs/$ID/events")
echo "$SSE" | grep -q '^event: state$'  || { echo "SSE stream missing state event"; exit 1; }
echo "$SSE" | grep -q '^event: result$' || { echo "SSE stream missing result event"; exit 1; }
echo "SSE stream OK"

kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
  echo "daemon exited non-zero on SIGTERM"
  exit 1
fi
trap - EXIT

# ---- kill -9 / restart leg: the WAL must lose nothing ----------------
WALDIR=$(mktemp -d)
trap 'rm -rf "$WALDIR"' EXIT
./bin/sophied -addr "$ADDR" -workers 1 -wal "$WALDIR" &
DAEMON=$!
trap 'kill -9 "$DAEMON" 2>/dev/null || true; rm -rf "$WALDIR"' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "WAL daemon never became healthy"; exit 1; }

# One job slow enough to still be running at the kill, plus queued jobs
# behind it on the single worker.
SLOW='{"preset":"K100","replicas":1,"seed":1,"config":{"tile_size":32,"global_iters":200000,"phi":0.2}}'
FAST='{"preset":"K100","replicas":1,"config":{"tile_size":32,"global_iters":20,"phi":0.2}}'
IDS=()
IDS+=("$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$SLOW" | grep -o '"id":"[^"]*"' | cut -d'"' -f4)")
for SEED in 2 3; do
  IDS+=("$(curl -sf -X POST "http://$ADDR/v1/jobs" \
    -d "$(echo "$FAST" | sed "s/\"replicas\":1,/\"replicas\":1,\"seed\":$SEED,/")" \
    | grep -o '"id":"[^"]*"' | cut -d'"' -f4)")
done
echo "WAL leg submitted jobs: ${IDS[*]}"

kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
echo "killed daemon with SIGKILL, restarting over $WALDIR"

./bin/sophied -addr "$ADDR" -workers 2 -wal "$WALDIR" &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true; rm -rf "$WALDIR"' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "restarted daemon never became healthy"; exit 1; }

# Every submitted job must be present and reach done: zero job loss.
for ID in "${IDS[@]}"; do
  STATE=""
  for _ in $(seq 1 600); do
    STATE=$(curl -sf "http://$ADDR/v1/jobs/$ID" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)
    [ "$STATE" = done ] && break
    if [ "$STATE" = failed ] || [ "$STATE" = cancelled ]; then
      echo "recovered job $ID ended $STATE"
      exit 1
    fi
    sleep 0.1
  done
  [ "$STATE" = done ] || { echo "job $ID lost or stuck after kill -9 (state: $STATE)"; exit 1; }
  echo "job $ID recovered and completed"
done

kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
  echo "daemon exited non-zero on SIGTERM after recovery"
  exit 1
fi
trap 'rm -rf "$WALDIR"' EXIT
echo "PASS: sophied smoke (incl. kill -9 recovery)"
