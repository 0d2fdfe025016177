#!/usr/bin/env bash
# size.sh — the numbers ROADMAP item 10 asks every deletion PR to report,
# before and after. Report only: it never fails a build.
set -euo pipefail
cd "$(dirname "$0")/.."
src() { find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'; }

# bench/ is the benchmark's own module, reported whole so a PR that
# deletes from it can show the drop.
echo "== non-test Go lines that are neither blank nor a // comment"
for d in cmd/*/ internal/*/ pkg/*/ bench/; do
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

echo "== staccatodb options"
printf '%7d  %s\n' "$(grep -c '^func With' pkg/staccatodb/options.go)" pkg/staccatodb/options.go

echo "== //lint:allow directives"
printf '%7d  %s\n' "$(grep -rn '//lint:allow' --include='*.go' . | wc -l)" .
