#!/usr/bin/env bash
# The benchmark's pair protocol over two prebuilt topoperf binaries:
#
#   pairs.sh [-n PAIRS] PARENT_BIN CHANGE_BIN [topoperf flags...]
#
#   -n  pairs to run (default 10)
#
# Run it from the root of a checkout: topoperf writes .bench_build/ in the
# working directory, and the workloads and each run's length are read from
# BENCHMARK.json, as the benchmark reads them. Pair i (1..n) runs every
# workload once on each binary with seed i; odd seeds run the parent first,
# even seeds the change. Every run is untraced (-trace 0) and appends to
# .bench_build/pairs/parent.json or change.json; flags after the two
# binaries (say -smoke) go to every run. At the end it prints topoperf
# -compare over the two documents, then for each workload and end-to-end
# metric the number of seeds, out of n, on which the change did better than
# the parent. A metric -compare finds worse than its bound is reported, not
# a failure: the script fails only when a run or the comparison itself does.
set -euo pipefail

n=10
while getopts n: opt; do
  case $opt in
    n) n=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -lt 2 ]; then
  echo "usage: $0 [-n pairs] PARENT_BIN CHANGE_BIN [topoperf flags...]" >&2
  exit 2
fi
if [ ! -f BENCHMARK.json ]; then
  echo "$0: run from the root of a checkout (no BENCHMARK.json here)" >&2
  exit 2
fi
parent=$(realpath "$1") change=$(realpath "$2")
shift 2
seconds=$(jq -r .run_seconds BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json | tr '\n' ' ')

out=.bench_build/pairs
mkdir -p "$out"
rm -f "$out/parent.json" "$out/change.json"

# one <side> <seed> <workload>: one untraced run appended to <side>.json.
one() {
  local bin=$parent
  [ "$1" = parent ] || bin=$change
  echo "== seed $2 $3 $1" >&2
  "$bin" -workload "$3" -seed "$2" -seconds "$seconds" -trace 0 -out "$out/$1.json" ${extra[@]+"${extra[@]}"} >/dev/null
}

extra=("$@")
for ((seed = 1; seed <= n; seed++)); do
  for w in $workloads; do
    if ((seed % 2)); then
      one parent "$seed" "$w"
      one change "$seed" "$w"
    else
      one change "$seed" "$w"
      one parent "$seed" "$w"
    fi
  done
done

if ! "$change" -compare "$out/parent.json" "$out/change.json" 2>"$out/compare.err"; then
  cat "$out/compare.err" >&2
  grep -q 'worse than their bound' "$out/compare.err" || exit 1
fi

echo
echo "change better, by seed (of $n):"
jq -rn --slurpfile p "$out/parent.json" --slurpfile c "$out/change.json" \
  --slurpfile b BENCHMARK.json --arg ws "$workloads" '
  def by_seed($doc; $w; $m):
    [$doc.runs[] | select(.workloads[$w].end_to_end[$m] != null)
     | {key: (.seed | tostring), value: .workloads[$w].end_to_end[$m].value}]
    | from_entries;
  ($ws | split(" ") | map(select(. != "")))[] as $w
  | $b[0].end_to_end[] as $m
  | by_seed($p[0]; $w; $m.name) as $pv
  | by_seed($c[0]; $w; $m.name) as $cv
  | [$pv | keys[] | select($cv[.] != null)] as $seeds
  | select($seeds | length > 0)
  | ([$seeds[] | select(if $m.better == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)] | length) as $wins
  | "\($w)\t\($m.name)\t\($wins)/\($seeds | length)"' |
  awk -F '\t' '{ printf "%-15s %-15s %s\n", $1, $2, $3 }'
