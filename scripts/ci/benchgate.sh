#!/usr/bin/env bash
# CI's one perf gate: diff a bench artifact against its committed
# baseline and keep the markdown report. Run from the repo root.
#
#   benchgate.sh <baseline> <artifact> <report> [-diff-bench flags...]
#
# Always -wallclock-off: shared runners are too noisy for wall-clock
# gating (a slow neighbor trips even a 5x tolerance), so CI gates only
# the deterministic columns — allocation counts for micro-benchmarks,
# points and jobs simulated for grids, jobs and errors for serving runs —
# and records the wall-clock ones in the artifact for trend reading. Run
# the full diff locally (toposweep -diff-bench without the flag) when
# touching perf-sensitive code.
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: benchgate.sh <baseline> <artifact> <report> [-diff-bench flags...]" >&2
  exit 2
fi
baseline=$1 artifact=$2 report=$3
shift 3
go run ./cmd/toposweep -diff-bench -wallclock-off "$@" "$baseline" "$artifact" | tee "$report"
