#!/usr/bin/env bash
# CI's one way to run a live toposerve: start it, wait for /healthz,
# drive it, drain it with SIGTERM. Run from the repo root with the
# binaries already built (./toposerve, and ./topoload for `load`).
#
#   serve.sh smoke <topology> <log> <free-after-submit> <domains-in-state>
#       curl smoke: submit a 2-GPU job, read state and decisions back,
#       check the log files, drain, restart on the same log, check the
#       job and the free capacity replayed, release. An unsplit topology
#       journals at <log> and lists 0 domains in /v1/state; a split one
#       journals at <log>.d0.. and lists one entry per domain.
#   serve.sh load <topology> <log> <topoload args...>
#       start a durable server (max-queue 256), run topoload against it
#       with the given arguments, drain.
set -euo pipefail

SRV=
trap '[ -z "$SRV" ] || kill "$SRV" 2>/dev/null || true' EXIT

# start <port> <toposerve args...>: background a server, set URL, wait
# until it answers /healthz.
start() {
  local port=$1
  shift
  ./toposerve -addr "127.0.0.1:$port" "$@" &
  SRV=$!
  URL="http://127.0.0.1:$port"
  for _ in $(seq 1 50); do
    curl -sf "$URL/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "serve.sh: toposerve did not come up on $URL" >&2
  return 1
}

# drain: SIGTERM, then wait for the final snapshot to be written.
drain() {
  kill -TERM "$SRV"
  wait "$SRV"
  SRV=
}

# expect <pattern> <curl args...>: the response must match.
expect() {
  local pattern=$1
  shift
  curl -sf "$@" | tee /dev/stderr | grep -q -- "$pattern"
}

case "${1:-}" in
smoke)
  topology=$2 log=$3 free=$4 domains=$5
  start 18080 -topology "$topology" -policy topo-p -log "$log"
  expect ok "$URL/healthz"
  expect '"status": "placed"' -X POST "$URL/v1/jobs" \
    -d '{"id":"smoke","model":"AlexNet","batch_size":4,"gpus":2,"min_utility":0.5}'
  expect "\"free_gpus\": $free," "$URL/v1/state"
  expect "\"topology\": \"${topology//[/\\[}\"" "$URL/v1/state"
  [ "$(curl -sf "$URL/v1/state" | grep -c '"domain":' || true)" = "$domains" ]
  expect '"job_id": "smoke"' "$URL/v1/decisions"
  if [ "$domains" = 0 ]; then
    test -f "$log"
  else
    for d in $(seq 0 $((domains - 1))); do test -f "$log.d$d"; done
    test ! -e "$log"
  fi
  drain
  start 18081 -topology "$topology" -policy topo-p -log "$log"
  expect '"job_id": "smoke"' "$URL/v1/decisions"
  expect "\"free_gpus\": $free," "$URL/v1/state"
  expect '"status": "released"' -X DELETE "$URL/v1/jobs/smoke"
  expect "\"free_gpus\": $((free + 2))," "$URL/v1/state"
  drain
  ;;
load)
  topology=$2 log=$3
  shift 3
  start 18090 -topology "$topology" -policy topo-p -log "$log" -max-queue 256
  ./topoload -url "$URL" -topology "$topology" -policy topo-p "$@"
  drain
  ;;
*)
  sed -n '2,16p' "$0" >&2
  exit 2
  ;;
esac
