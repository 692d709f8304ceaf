#!/bin/sh
# lint_measure.sh — grep lint: every execution is measured, accounted and
# traced on one path. Plan.Execute supplies a Progress and an operator tracer
# when the caller gives none, and from there execOp sizes every operator
# output, charges it and notes it on the operator's accumulator, and every
# operator reserves its working state, unconditionally. A second path — a
# bare call when no one is watching, bookkeeping behind a gate, a per-query
# switch — is what made the measured run cost twice the unmeasured one before
# anyone noticed. So in internal/engine's non-test files:
#   - nothing compares a Progress or a tracer with nil (ctx.Progress == nil,
#     t := ctx.tracer; t != nil, or a nil receiver check in a *Progress or
#     *tracer method) except Plan.execute's defaults;
#   - nothing declares EnableTracing;
#   - no function or variable is named accounting or measuring.
set -eu
cd "$(dirname "$0")/.."

bad=$(awk '
  FNR == 1 { fn = ""; split("", held) }
  /^func / {
    fn = $0; split("", held)
    # The receiver of a *Progress or *tracer method is one too.
    if (match($0, /^func \([A-Za-z_][A-Za-z0-9_]* \*(Progress|tracer)\)/)) {
      v = substr($0, 7, RLENGTH - 6); sub(/ .*/, "", v); held[v] = 1
    }
  }
  /^func (\([^)]*\) )?(accounting|measuring)\(/ || /(^|[^A-Za-z0-9_.])(accounting|measuring) *:?= / || /^(var|const) (accounting|measuring)[ =]/ {
    print FILENAME ":" FNR ": " $0; next
  }
  /^func (\([^)]*\) )?EnableTracing\(/ || /^(var|const|type) EnableTracing[ =]/ || /^[ \t]+EnableTracing[ (]/ {
    print FILENAME ":" FNR ": " $0; next
  }
  # A variable holding a Progress or a tracer: p := ctx.Progress.
  match($0, /[A-Za-z_][A-Za-z0-9_]* *:?= *[A-Za-z_][A-Za-z0-9_.]*\.(Progress|tracer)($|[^A-Za-z0-9_(])/) {
    v = substr($0, RSTART, RLENGTH); sub(/ *:?=.*/, "", v); held[v] = 1
  }
  {
    hit = $0 ~ /(Progress|tracer) *[!=]= *nil/ || $0 ~ /nil *[!=]= *[A-Za-z_.]*(Progress|tracer)/
    for (v in held) if ($0 ~ ("(^|[^A-Za-z0-9_.])" v " *[!=]= *nil")) hit = 1
    if (hit && fn !~ /^func \([a-z]+ \*Plan\) execute\(/) print FILENAME ":" FNR ": " $0
  }
' $(ls internal/engine/*.go | grep -v '_test\.go$'))

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: a second execution path in internal/engine; every run is measured, accounted and traced (Plan.execute supplies the Progress and the tracer, execOp notes every operator), and nothing switches the tracer"
  exit 1
fi
echo "lint_measure: OK (one measured execution path: no Progress or tracer nil check but Execute's defaults, no EnableTracing, no accounting/measuring gate)"
