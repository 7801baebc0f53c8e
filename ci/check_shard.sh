#!/bin/sh
# Multicore-scaling gate, run by CI after
#   dune exec bench/main.exe -- fig-shard --metrics-out shard.json
#
# Fails when the sharded engine's aggregate model throughput at
# 4 worker domains is less than 2x the single-domain figure on the
# classifier-heavy fig-shard workload.  The speedup is computed from
# the cycle model (busiest shard's charged cycles), so the gate holds
# regardless of how many hardware cores the CI runner exposes.
#
# The metrics file is rp-metrics JSON, written one metric per line
# precisely so this script needs no JSON parser.
set -eu
# shellcheck source=ci/lib.sh
. "$(dirname "$0")/lib.sh"

file="${1:-shard.json}"
require_files "$file"

echo "== fig-shard: engine throughput scaling =="
check_min "$file" bench.fig_shard.domains1.mpps 0.001
check_min "$file" bench.fig_shard.domains4.mpps 0.001
check_min "$file" bench.fig_shard.speedup_4v1 2

exit $fail
