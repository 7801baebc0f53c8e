#!/bin/sh
# Batched data-path gate, run by CI after
#   dune exec bench/main.exe -- fig-batch table3 --csv-out batch.csv --metrics-out batch.json
#   dune exec bench/main.exe -- table3 --metrics-out table3-a.json
#
# Three checks:
#
#   1. Steady-state batched throughput (mean model Mpps over the
#      post-warm-up reporting intervals) must stay above a pinned
#      floor for both the inline engine and sharded:4.  The inline
#      figure comes entirely from the deterministic cycle model, so it
#      is byte-stable across runs and machines; the sharded figure is
#      per busiest domain and noisier, so its floor is looser.
#
#   2. Pool health: on the inline engine the pool must never run dry
#      (every packet is recycled before the next batch is pulled).  On
#      sharded:4 packets are genuinely in flight on worker domains, so
#      transient starvation is expected backpressure — the pump drains
#      completions and retries — but it must stay bounded.  The time
#      series must also have its expected row count, gating the
#      reporting plumbing itself.
#
#   3. The Table-3 per-packet cycle figures from the fig-batch run
#      must be byte-identical to a standalone Table-3 run: the batch
#      machinery (pool alloc/free, link rings, gate-major dispatch)
#      must not perturb the per-packet cost model at all.
#
# The metrics files are rp-metrics JSON, written one metric per line
# precisely so this script needs no JSON parser.
set -eu
# shellcheck source=ci/lib.sh
. "$(dirname "$0")/lib.sh"

batch="${1:-batch.json}"
base="${2:-table3-a.json}"
require_files "$batch" "$base"

echo "== fig-batch: steady-state batched throughput =="
check_min "$batch" bench.fig_batch.inline.steady_mpps 0.03
check_min "$batch" bench.fig_batch.sharded4.steady_mpps 0.02

echo "== fig-batch: pool health and time-series plumbing =="
check_max "$batch" bench.fig_batch.inline.pool_exhausted 0
check_max "$batch" bench.fig_batch.sharded4.pool_exhausted 2000
check_min "$batch" bench.fig_batch.inline.rows 10
check_min "$batch" bench.fig_batch.sharded4.rows 10
check_min "$batch" bench.fig_batch.inline.generated 30000
check_min "$batch" bench.fig_batch.sharded4.generated 30000

echo "== Table 3 unchanged by the batch machinery =="
check_same "$batch" "$base" bench.table3.best_effort.cycles
check_same "$batch" "$base" bench.table3.plugins_3gates.cycles
check_same "$batch" "$base" bench.table3.monolithic_drr.cycles
check_same "$batch" "$base" bench.table3.plugins_drr.cycles

exit $fail
