#!/bin/sh
# lint_hooks.sh — grep lint: internal/engine reports what an execution did
# through what it returns — the Result, each operator's ExecContext.Actual
# and the ExecContext's counters — and the catalog that ran it is the one
# reader. A process-wide observer (a Set...Hook setter over an
# atomic.Pointer[func ...]) is a side channel: whichever caller installed it
# last receives every other caller's counts. So in the package's non-test
# files no function named Set...Hook is declared and no atomic.Pointer holds
# a func.
set -eu
cd "$(dirname "$0")/.."

bad=$(awk '
  /^func (\([^)]*\) )?Set[A-Za-z0-9_]*Hook\(/ || /atomic\.Pointer\[func/ {
    print FILENAME ":" FNR ": " $0
  }
' $(ls internal/engine/*.go | grep -v '_test\.go$'))

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: a process-wide hook in internal/engine; return the measurement from the execution (Result, ExecContext.Actual, ExecContext) instead"
  exit 1
fi
echo "lint_hooks: OK (internal/engine declares no process-wide hook)"
