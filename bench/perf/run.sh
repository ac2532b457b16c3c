#!/bin/sh
# Build the benchmark and the two programs it drives from this source tree,
# then run it with the given arguments (see README.md beside this file).
set -e
dune build --root . --cache=disabled ./bench/perf/perf.exe ./bin/plutocc.exe ./bin/plutod.exe 1>&2
exec ./_build/default/bench/perf/perf.exe \
  --plutocc ./_build/default/bin/plutocc.exe \
  --plutod ./_build/default/bin/plutod.exe "$@"
