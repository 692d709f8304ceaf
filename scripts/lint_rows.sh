#!/bin/sh
# lint_rows.sh — grep lint: in internal/engine a row is built only where a
# value is computed or by materialize. Joins emit row-index pairs, a column
# projection composes a column map, and filter, sort and top narrow or
# permute index vectors (relation.go); an operator that copies cells into a
# new row per input row brings back the per-row allocation late
# materialization removed, and compilation can't catch that drift. So in the
# package's non-test files:
#   - the methods of the join, project, filter, sort and top operators make
#     no storage.Row and append no slice into another;
#   - no function builds a row by appending a row into it (a joined row),
#     except materialize;
#   - outside relation.go and trace.go nothing calls rowBytes( or rowSizes(:
#     rows are sized in one place, relation.measure, which reads the segments
#     behind a relation's sources instead of walking its cells.
set -eu
cd "$(dirname "$0")/.."

bad=$(awk '
  FNR == 1 { fn = ""; split("", made) }
  /^func / { fn = $0; split("", made) }
  {
    if (fn ~ /^func materialize\(/) next
    op = fn ~ /^func \([a-z]+ \*(hashMatchNode|mergeJoinNode|nestedLoopsNode|projectNode|filterNode|sortNode|topNode)\) /
    if (op && ($0 ~ /make\(storage\.Row|storage\.Row\{/ || $0 ~ /append\(.*\.\.\.\)/)) {
      print FILENAME ":" FNR ": " $0
      next
    }
    if (match($0, /[A-Za-z_][A-Za-z0-9_]* *:?= *make\(storage\.Row/)) {
      v = substr($0, RSTART, RLENGTH); sub(/ *:?=.*/, "", v); made[v] = 1
    }
    for (v in made) {
      if (index($0, "append(" v ", ") && $0 ~ /\.\.\.\)/) {
        print FILENAME ":" FNR ": " $0
        next
      }
    }
  }
' $(ls internal/engine/*.go | grep -v '_test\.go$'))

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: a joined or gathered row built outside materialize; emit row indices or a column map (relation.go)"
  exit 1
fi

sized=$(grep -nE '(^|[^A-Za-z0-9_])(rowBytes|rowSizes)\(' \
  $(ls internal/engine/*.go | grep -v '_test\.go$' | grep -v -e '/relation\.go$' -e '/trace\.go$') || true)
if [ -n "$sized" ]; then
  echo "$sized"
  echo "lint: rows sized outside relation.go/trace.go; use relation.measure"
  exit 1
fi
echo "lint_rows: OK (joined and gathered rows are built by materialize only; rows are sized by relation.measure)"
