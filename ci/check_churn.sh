#!/bin/sh
# Control-plane churn gate, run by CI after
#   dune exec bench/main.exe -- fig-churn table3 --metrics-out churn.json
#   dune exec bench/main.exe -- table3 --metrics-out table3-a.json
#
# Two checks:
#
#   1. Delta publication must sustain >= 10x the full-recompile filter
#      update rate with 4 shards syncing and 512 background filters
#      installed.  The rates come from synchronous Shard.sync calls on
#      one domain, so the gate holds regardless of how many hardware
#      cores the CI runner exposes.
#
#   2. The Table-3 per-packet cycle figures from the churn run must be
#      byte-identical to a standalone Table-3 run: the delta machinery
#      (AIU mutation listeners, per-gate generation stamps, lazy flow
#      revalidation) must not perturb the data-path cost model at all.
#
# The metrics files are rp-metrics JSON, written one metric per line
# precisely so this script needs no JSON parser.
set -eu
# shellcheck source=ci/lib.sh
. "$(dirname "$0")/lib.sh"

churn="${1:-churn.json}"
base="${2:-table3-a.json}"
require_files "$churn" "$base"

echo "== fig-churn: delta publication vs full recompile =="
check_min "$churn" bench.churn.inline.updates_per_s 1
check_min "$churn" bench.churn.sharded4.delta.updates_per_s 1
check_min "$churn" bench.churn.sharded4.full.updates_per_s 1
check_min "$churn" bench.churn.delta_speedup_4 10

echo "== Table 3 unchanged by the delta machinery =="
check_same "$churn" "$base" bench.table3.best_effort.cycles
check_same "$churn" "$base" bench.table3.plugins_3gates.cycles
check_same "$churn" "$base" bench.table3.monolithic_drr.cycles
check_same "$churn" "$base" bench.table3.plugins_drr.cycles

exit $fail
