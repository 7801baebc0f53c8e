#!/bin/sh
# Bench-regression gate, run by CI after
#   dune exec bench/main.exe -- table2 table3 --metrics-out bench.json
#
# Fails when the worst-case filter-lookup memory accesses regress past
# the paper's Table-2 bounds (20 for IPv4, 24 for IPv6), or when the
# Table-3 per-packet cycle figures drift from the calibrated model.
#
# The metrics file is rp-metrics JSON, written one metric per line
# precisely so this script needs no JSON parser.
set -eu
# shellcheck source=ci/lib.sh
. "$(dirname "$0")/lib.sh"

file="${1:-bench.json}"
require_files "$file"

echo "== Table 2: worst-case filter-lookup memory accesses =="
check_max "$file" bench.table2.ipv4.worst_accesses 20
check_max "$file" bench.table2.ipv6.worst_accesses 24

echo "== Table 3: per-packet cycle model =="
check_near "$file" bench.table3.best_effort.cycles 6460 2
check_near "$file" bench.table3.plugins_3gates.cycles 6955 2
check_near "$file" bench.table3.monolithic_drr.cycles 8160 2
check_near "$file" bench.table3.plugins_drr.cycles 8105 2

exit $fail
