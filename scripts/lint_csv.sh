#!/bin/sh
# lint_csv.sh — grep lint: an upload is read by one tokenizer,
# internal/ingest's records.go, straight from the staged bytes. encoding/csv
# reads the same records — its rules are the upload contract — but as the
# tokenizer's test oracle only (FuzzTokenizer, loadBytesRef); a production
# import of it would be a second tokenizer to keep in step with the first.
# So no non-test Go outside bench/ imports encoding/csv.
set -eu
cd "$(dirname "$0")/.."

files=$(find . -path './.*' -prune -o -path ./bench -prune -o \
  -name '*.go' ! -name '*_test.go' -print | sort)

bad=$(grep -n '"encoding/csv"' $files || true)

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: encoding/csv is the tokenizer's test oracle only; read uploads with internal/ingest's tokenizer (records.go)"
  exit 1
fi
echo "lint_csv: OK (one tokenizer: encoding/csv is imported by tests only)"
