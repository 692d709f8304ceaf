#!/bin/sh
# lint_tree.sh — grep lint: one plan tree carries a query's estimates and
# its actuals, and it is written in one form. internal/plan builds the tree
# in one walk over the compiled operators, splicing out the invisible ones
# (an empty PhysicalOp); the engine only measures (ExecContext.Actual). A
# node's estimates are plan.Node's tags, and its run's actuals are its
# `actual` block, whose keys are engine.Actual's tags and are declared
# nowhere else. The history line, /plan and /trace all write that tree as
# it is. A second walk that splices, or a second type that declares the
# trace form, is a second tree that has to be kept aligned with the first.
# So in non-test Go outside cmd/ (whose client mirrors the wire form without
# linking the server) and bench/, only internal/plan tests an operator for
# PhysicalOp == "" and only internal/plan declares a field tagged
# json:"actualRows" — the trace form older lines hold, which plan.TraceJSON
# only reads. And no non-test Go anywhere writes that form again: nothing
# constructs a plan.TraceJSON{...} or declares a MarshalJSON on TraceJSON.
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

all=$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | sort)

bad=$(grep -nE 'TraceJSON\{|func \([A-Za-z_]* ?\*?TraceJSON\) MarshalJSON' $all || true)

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: the trace form is only read; write the plan tree itself, each node with its actual block (plan.Node, engine.Actual's tags)"
  exit 1
fi
echo "lint_tree: OK (one plan tree: only internal/plan splices and declares the trace form, and nothing writes it)"
