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
# And a table's segments are its only copy of its rows:
#   - storage.Table declares no []Row field;
#   - no non-test file outside internal/storage and bench/ calls
#     ScanSegments or (*storage.Table).Scan — shims that build rows or hand
#     out segments for bench/ and tests. A bufio.Scanner's Scan() is not one.
# And an upload parses into typed columns, not rows: non-test internal/ingest
# code names no storage.Row, no []sqltypes.Value block and no .Insert( —
# its table is cut from column builders by storage.NewTableFromColumns.
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
copy=$(awk '
  /^type Table struct \{/ { in_table = 1; next }
  in_table && /^}/ { in_table = 0 }
  in_table && /\[\]Row/ { print FILENAME ":" FNR ": " $0 }
' internal/storage/*.go)
if [ -n "$copy" ]; then
  echo "$copy"
  echo "lint: storage.Table keeps a row copy; its segments are the table"
  exit 1
fi

shims=$(awk '
  FNR == 1 { split("", scanner) }
  match($0, /[A-Za-z_][A-Za-z0-9_]* *:?= *bufio\.NewScanner\(/) {
    v = substr($0, RSTART, RLENGTH); sub(/ *:?=.*/, "", v); scanner[v] = 1
  }
  /ScanSegments\(/ { print FILENAME ":" FNR ": " $0; next }
  {
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_.()]*\.Scan\(\)/)) {
      call = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
      recv = call; sub(/\.Scan\(\)$/, "", recv)
      if (!(recv in scanner)) { print FILENAME ":" FNR ": " $0; break }
    }
  }
' $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './internal/storage/*' ! -path './.bench_build/*'))
if [ -n "$shims" ]; then
  echo "$shims"
  echo "lint: a table read through ScanSegments or Scan; read its segments (Table.All, SeekRange) instead"
  exit 1
fi
ingest=$(grep -nHE 'storage\.Row|\[\]sqltypes\.Value|\.Insert\(' \
  $(ls internal/ingest/*.go | grep -v '_test\.go$') || true)
if [ -n "$ingest" ]; then
  echo "$ingest"
  echo "lint: ingest builds rows or a cell block; append to storage.ColumnBuilders and call storage.NewTableFromColumns"
  exit 1
fi
echo "lint_rows: OK (joined and gathered rows are built by materialize only; rows are sized by relation.measure; tables keep no row copy; ingest builds typed columns)"
