#!/usr/bin/env bash
# size.sh — the three numbers ROADMAP item 6 asks every deletion PR to
# report, before and after. Report only: it never fails a build.
set -euo pipefail
cd "$(dirname "$0")/.."
src() { find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'; }

echo "== non-test Go lines that are neither blank nor a // comment"
for d in cmd internal/*/ pkg/*/; do
  printf '%7d  %s\n' "$(src "$d" | xargs cat | grep -cvE '^\s*(//.*)?$')" "${d%/}"
done

# Top-level funcs, types, vars and consts, methods, and the members of
# const/var blocks and interfaces (one tab deep); struct fields are not
# counted.
exported='^(func (\([^)]+\) )?[A-Z]|type [A-Z]|var [A-Z]|const [A-Z]|	[A-Z][A-Za-z0-9_]*(\(| [^=:]*= |$))'
echo "== exported identifiers under pkg/"
for d in pkg/*/; do
  printf '%7d  %s\n' "$(src "$d" | xargs grep -hE "$exported" | wc -l)" "${d%/}"
done

echo "== //lint:allow directives"
printf '%7d  %s\n' "$(grep -rn '//lint:allow' --include='*.go' . | wc -l)" .
