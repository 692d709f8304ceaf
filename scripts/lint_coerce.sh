#!/bin/sh
# lint_coerce.sh — grep lint: a column compared with a literal coerces by one
# rule, sqltypes.NewProbe, which sits beside sqltypes.Compare. A seek, a
# zone map or a scan kernel that converts the literal itself (a Cast to the
# column's type, a parse of its text) is a second copy of that rule, and the
# copies drift: a BIT column once sought `b = 1` but scanned `b = '1'`. So
# in internal/engine's non-test files sqltypes.Cast appears only in expr.go
# and funcs.go, where CAST and arithmetic convert values, and nothing names
# sqltypes.ParseNumeric or sqltypes.ParseDateTime.
set -eu
cd "$(dirname "$0")/.."

bad=$(awk '
  /sqltypes\.Parse(Numeric|DateTime)/ {
    print FILENAME ":" FNR ": " $0
    next
  }
  /sqltypes\.Cast\(/ {
    if (FILENAME ~ /\/(expr|funcs)\.go$/) next
    print FILENAME ":" FNR ": " $0
  }
' $(ls internal/engine/*.go | grep -v '_test\.go$'))

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: a literal coerced outside sqltypes; compare a column with a literal through sqltypes.NewProbe"
  exit 1
fi
echo "lint_coerce: OK (internal/engine coerces literals through sqltypes.NewProbe only)"
