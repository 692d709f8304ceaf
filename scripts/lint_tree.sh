#!/bin/sh
# lint_tree.sh — grep lint: one plan tree carries a query's estimates and
# its actuals. internal/plan builds it in one walk over the compiled
# operators, splicing out the invisible ones (an empty PhysicalOp), and
# renders its wire forms, the trace form included; the engine only measures
# (ExecContext.Actual). A second walk that splices, or a second type that
# declares the trace form, is a second tree that has to be kept aligned with
# the first. So in non-test Go outside cmd/ (whose client mirrors the wire
# form without linking the server) and bench/, only internal/plan tests an
# operator for PhysicalOp == "" and only internal/plan declares a field
# tagged json:"actualRows".
set -eu
cd "$(dirname "$0")/.."

files=$(find . -path './.*' -prune -o -path ./cmd -prune -o -path ./bench -prune -o \
  -path ./internal/plan -prune -o -name '*.go' ! -name '*_test.go' -print | sort)

bad=$(grep -nE 'PhysicalOp == ""|json:"actualRows' $files || true)

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: only internal/plan splices invisible operators and declares the trace form; read actuals off the one plan tree (plan.Node.Actual, ExecContext.Actual)"
  exit 1
fi
echo "lint_tree: OK (one plan tree: only internal/plan splices and declares the trace form)"
