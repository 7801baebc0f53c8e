#!/bin/sh
# Trace-overhead gate, run by CI as
#   dune exec bench/main.exe -- table3 --metrics-out table3-base.json
#   dune exec bench/main.exe -- table3 --trace-sample 1 --metrics-out table3-traced.json
#   ci/check_trace_overhead.sh table3-base.json table3-traced.json
#
# Fails when a tracing-enabled Table-3 run's per-packet model cycles
# exceed the untraced baseline by more than 5% on any kernel.  By
# design the telemetry layer never charges the cycle cost model, so
# the two runs should be byte-identical on these metrics — the gate
# exists to catch a future change that accidentally puts event
# recording inside the modeled path.
#
# The metrics files are rp-metrics JSON, written one metric per line
# precisely so this script needs no JSON parser.
set -eu
# shellcheck source=ci/lib.sh
. "$(dirname "$0")/lib.sh"

base="${1:-table3-base.json}"
traced="${2:-table3-traced.json}"
require_files "$base" "$traced"

echo "== Table 3 model cycles: traced (sampling 1-in-1) vs untraced =="
check_overhead "$base" "$traced" bench.table3.best_effort.cycles 5
check_overhead "$base" "$traced" bench.table3.plugins_3gates.cycles 5
check_overhead "$base" "$traced" bench.table3.monolithic_drr.cycles 5
check_overhead "$base" "$traced" bench.table3.plugins_drr.cycles 5

exit $fail
