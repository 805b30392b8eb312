#!/usr/bin/env bash
# CI's one determinism + golden gate for a sweep grid. Run from the repo
# root.
#
#   golden.sh <grid> <golden> <artifact> [toposweep flags for the 8-worker run...]
#
# Runs the grid at 8 workers into <artifact> and at 1 worker beside it
# (<artifact minus .json>_w1.json), demands the two be byte-identical
# (cmp), then diffs <artifact> against the committed <golden> with
# -diff -strict, appending the markdown report to SWEEP_DIFF.md. The sweep
# is deterministic, so ANY delta (-strict: improvements too) is a behavior
# change: intentional ones regenerate the golden (see docs/sweeps.md).
# Extra flags (-csv, -cpuprofile, ...) go to the 8-worker run only.
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: golden.sh <grid> <golden> <artifact> [toposweep flags...]" >&2
  exit 2
fi
grid=$1 golden=$2 artifact=$3
shift 3
w1=${artifact%.json}_w1.json
go run ./cmd/toposweep -grid "$grid" -workers 8 -out "$artifact" -quiet "$@"
go run ./cmd/toposweep -grid "$grid" -workers 1 -out "$w1" -quiet
cmp "$w1" "$artifact"
go run ./cmd/toposweep -diff -strict "$golden" "$artifact" | tee -a SWEEP_DIFF.md
