#!/bin/sh
# lint_lock.sh — grep lint: queries read a published catalog state and take
# no lock. The catalog mutex (Catalog.mu) orders writers only: a mutation
# validates, journals and publishes under it, recovery and a checkpoint's
# capture read under it, and nothing on the query path may take it. So the
# query-path files may not name a .mu. at all.
#
# The read helpers are methods of the immutable state and need no lock, so
# no identifier in the package's non-test files ends in "Locked": that
# suffix marks a "must hold the lock" precondition, which none has.
set -eu
cd "$(dirname "$0")/.."
fail=0

for f in query.go bind.go preview.go explain.go; do
  if grep -n '\.mu\.' "internal/catalog/$f"; then
    echo "lint: internal/catalog/$f takes a catalog lock; the query path reads one loaded state (c.state.Load())"
    fail=1
  fi
done

for f in internal/catalog/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nE '[A-Za-z0-9_]Locked\b' "$f"; then
    echo "lint: $f names a ...Locked identifier; read helpers are methods of the published state and take no lock"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "lint_lock: OK (the query path takes no catalog lock; no ...Locked helpers)"
fi
exit $fail
