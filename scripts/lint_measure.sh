#!/bin/sh
# lint_measure.sh — grep lint: every execution is measured and accounted on
# one path. Plan.Execute supplies a Progress when the caller gives none, and
# from there execOp sizes every operator output and charges it, and every
# operator reserves its working state, unconditionally; the tracer is the
# only optional part. A second path — a bare call when no one is watching,
# bookkeeping behind a gate — is what made the measured run cost twice the
# unmeasured one before anyone noticed. So in internal/engine's non-test
# files:
#   - nothing compares a Progress with nil (ctx.Progress == nil,
#     p := ctx.Progress; p != nil, or a nil receiver check in a *Progress
#     method) except Plan.execute's default;
#   - no function or variable is named accounting or measuring.
set -eu
cd "$(dirname "$0")/.."

bad=$(awk '
  FNR == 1 { fn = ""; split("", prog) }
  /^func / {
    fn = $0; split("", prog)
    # The receiver of a *Progress method is a Progress too.
    if (match($0, /^func \([A-Za-z_][A-Za-z0-9_]* \*Progress\)/)) {
      v = substr($0, 7, RLENGTH - 6); sub(/ .*/, "", v); prog[v] = 1
    }
  }
  /^func (\([^)]*\) )?(accounting|measuring)\(/ || /(^|[^A-Za-z0-9_.])(accounting|measuring) *:?= / || /^(var|const) (accounting|measuring)[ =]/ {
    print FILENAME ":" FNR ": " $0; next
  }
  # A variable holding a Progress: p := ctx.Progress.
  match($0, /[A-Za-z_][A-Za-z0-9_]* *:?= *[A-Za-z_][A-Za-z0-9_.]*\.Progress($|[^A-Za-z0-9_(])/) {
    v = substr($0, RSTART, RLENGTH); sub(/ *:?=.*/, "", v); prog[v] = 1
  }
  {
    hit = $0 ~ /Progress *[!=]= *nil/ || $0 ~ /nil *[!=]= *[A-Za-z_.]*Progress/
    for (v in prog) if ($0 ~ ("(^|[^A-Za-z0-9_.])" v " *[!=]= *nil")) hit = 1
    if (hit && fn !~ /^func \([a-z]+ \*Plan\) execute\(/) print FILENAME ":" FNR ": " $0
  }
' $(ls internal/engine/*.go | grep -v '_test\.go$'))

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: a second execution path in internal/engine; every run is measured and accounted (execOp), only the tracer is optional"
  exit 1
fi
echo "lint_measure: OK (one measured execution path: no Progress nil check but Execute's default, no accounting/measuring gate)"
