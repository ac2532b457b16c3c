#!/bin/sh
# Solver-substrate smoke test.
#
# Compiles examples/matmul.c with --stats-json and fails if:
#   - any counter listed in ci/solver-smoke-ceiling.json exceeds its ceiling
#     (a regression in the incremental ILP/FM hot path), or
#   - the warm-start telemetry is absent (milp.warm_starts = 0 would mean
#     the incremental solver paths are silently disabled).
#
# Run from anywhere; uses `dune exec` so it works in CI and locally.
set -eu

cd "$(dirname "$0")/.."
ceiling_file=ci/solver-smoke-ceiling.json
stats_file=$(mktemp)
trap 'rm -f "$stats_file"' EXIT

# --no-fast-schedule: this job measures the exact ILP substrate, which the
# fast scheduling path would bypass entirely (ci/fastpath_smoke.sh covers
# the fast path's own ceilings).
dune exec bin/plutocc.exe -- examples/matmul.c \
  --no-fast-schedule --stats-json "$stats_file" -o /dev/null

# Pull `"name": <int>` out of a one-line JSON file (no jq dependency).
counter() {
  sed -n 's/.*"'"$1"'": \([0-9][0-9]*\).*/\1/p' "$2" | head -n 1
}

status=0
for name in "milp.solves" "milp.cold_builds"; do
  actual=$(counter "$name" "$stats_file")
  ceiling=$(counter "$name" "$ceiling_file")
  if [ -z "$actual" ]; then
    echo "solver-smoke: FAIL: counter $name missing from --stats-json output" >&2
    status=1
  elif [ -z "$ceiling" ]; then
    echo "solver-smoke: FAIL: no ceiling for $name in $ceiling_file" >&2
    status=1
  elif [ "$actual" -gt "$ceiling" ]; then
    echo "solver-smoke: FAIL: $name = $actual exceeds ceiling $ceiling" >&2
    status=1
  else
    echo "solver-smoke: ok: $name = $actual (ceiling $ceiling)"
  fi
done

warm=$(counter "milp.warm_starts" "$stats_file")
if [ -z "$warm" ] || [ "$warm" -eq 0 ]; then
  echo "solver-smoke: FAIL: milp.warm_starts = ${warm:-absent}; the warm solver paths appear to be disabled" >&2
  status=1
else
  echo "solver-smoke: ok: milp.warm_starts = $warm"
fi

exit $status
