#!/bin/sh
# Fast-scheduling-path smoke test.
#
# Two halves:
#
#   1. The differential half: runs the `fastpath` alcotest suite, which
#      compiles the whole kernel corpus with the fast path on AND off and
#      requires 100% bit-identical execution results between the two (plus
#      the matcher property tests and the >= 5x scheduling-solve cut).
#
#   2. The ceiling half: compiles each example kernel with --stats-json (fast
#      path on, the default) and fails if milp.solves exceeds its ceiling
#      in ci/fastpath-smoke-ceiling.json, or if the expected fast-path
#      verdict (accept / clean reject) changes.  This is what catches the
#      fast path silently rotting: a kernel that stops being accepted shows
#      up here as an ILP solve count jumping above its ceiling.
#
# Run from anywhere; uses `dune exec` so it works in CI and locally.
set -eu

cd "$(dirname "$0")/.."
ceiling_file=ci/fastpath-smoke-ceiling.json
stats_file=$(mktemp)
trap 'rm -f "$stats_file"' EXIT

echo "fastpath-smoke: differential suite (fast path vs exact ILP)"
dune exec test/test_main.exe -- test fastpath -e

# Pull `"name": <value>` fields out of one-line JSON (no jq dependency).
counter() {
  sed -n 's/.*"'"$1"'": \([0-9][0-9]*\).*/\1/p' "$2" | head -n 1
}
field() {
  sed -n 's/.*"'"$1"'": "\([a-z]*\)".*/\1/p' "$2" | head -n 1
}

status=0
for kernel in matmul lu mvt jacobi-1d; do
  dune exec bin/plutocc.exe -- "examples/$kernel.c" \
    --stats-json "$stats_file" -o /dev/null

  solves=$(counter "milp.solves" "$stats_file")
  solves=${solves:-0}
  ceiling=$(counter "$kernel.milp.solves" "$ceiling_file")
  if [ -z "$ceiling" ]; then
    echo "fastpath-smoke: FAIL: no ceiling for $kernel in $ceiling_file" >&2
    status=1
  elif [ "$solves" -gt "$ceiling" ]; then
    echo "fastpath-smoke: FAIL: $kernel milp.solves = $solves exceeds ceiling $ceiling" >&2
    status=1
  else
    echo "fastpath-smoke: ok: $kernel milp.solves = $solves (ceiling $ceiling)"
  fi

  verdict=$(field "$kernel.verdict" "$ceiling_file")
  accepts=$(counter "fastpath.accepts" "$stats_file")
  rejects=$(counter "fastpath.rejects" "$stats_file")
  case "$verdict" in
  accept)
    if [ "${accepts:-0}" -ge 1 ]; then
      echo "fastpath-smoke: ok: $kernel accepted by the fast path"
    else
      echo "fastpath-smoke: FAIL: $kernel no longer accepted by the fast path" >&2
      status=1
    fi
    ;;
  reject)
    # a clean rejection: the counter fires, the compile still succeeds
    # (plutocc already exited 0 above thanks to `set -e`)
    if [ "${rejects:-0}" -ge 1 ]; then
      echo "fastpath-smoke: ok: $kernel cleanly rejected (exact ILP fallback)"
    else
      echo "fastpath-smoke: FAIL: $kernel expected a fast-path rejection" >&2
      status=1
    fi
    ;;
  *)
    echo "fastpath-smoke: FAIL: no verdict for $kernel in $ceiling_file" >&2
    status=1
    ;;
  esac
done

exit $status
