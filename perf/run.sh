#!/bin/sh
# Build the benchmark from source and run one measurement:
#
#   sh perf/run.sh --workload W --seed S --seconds N --trace 0|1
#
# from the repository root.  The build's output goes to stderr, so the
# last line on stdout is the run's JSON result.
set -e
dune build --root . ./perf/perf.exe 1>&2
exec ./_build/default/perf/perf.exe run "$@"
