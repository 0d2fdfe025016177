#!/usr/bin/env bash
# size.sh — the numbers ROADMAP item 10 asks every deletion PR to report,
# before and after. Report only: it never fails a build.
set -euo pipefail
cd "$(dirname "$0")/.."
src() { find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'; }

# bench/ is the benchmark's own module, reported whole so a PR that
# deletes from it can show the drop.
echo "== non-test Go lines that are neither blank nor a // comment"
lines() { src "$1" | xargs cat | grep -cvE '^\s*(//.*)?$'; }
for d in cmd/*/ internal/*/ pkg/*/; do
  printf '%7d  %s\n' "$(lines "$d")" "${d%/}"
done
# ROADMAP item 10 sets its target on this total.
printf '%7d  %s\n' "$(lines pkg)" "pkg/ total"
printf '%7d  %s\n' "$(lines bench)" bench

# Top-level funcs, types, vars and consts, methods, and the members of
# const/var blocks and interfaces (one tab deep); struct fields are not
# counted.
exported='^(func (\([^)]+\) )?[A-Z]|type [A-Z]|var [A-Z]|const [A-Z]|	[A-Z][A-Za-z0-9_]*(\(| [^=:]*= |$))'
echo "== exported identifiers under pkg/"
for d in pkg/*/; do
  printf '%7d  %s\n' "$(src "$d" | xargs grep -hE "$exported" | wc -l)" "${d%/}"
done
printf '%7d  %s\n' "$(src pkg | xargs grep -hE "$exported" | wc -l)" "pkg/ total"

echo "== staccatodb options"
printf '%7d  %s\n' "$(grep -c '^func With' pkg/staccatodb/options.go)" pkg/staccatodb/options.go

# Knobs, counted as independently settable values: each field of an
# exported ...Options struct under pkg/ (a "Name1, Name2 T" line counts
# each name), plus the staccatodb With... options above.
echo "== knobs: exported ...Options fields under pkg/, then the total with staccatodb options"
src pkg | sort | xargs awk -v with="$(grep -c '^func With' pkg/staccatodb/options.go)" '
/^type ([A-Z][A-Za-z0-9]*)?Options struct/ { name = $2; inside = 1; n = 0; next }
inside && /^}/ {
  split(FILENAME, dir, "/"); printf "%7d  %s.%s\n", n, dir[length(dir) - 1], name
  total += n; inside = 0; next
}
inside && /^\t[A-Za-z_]/ { line = $0; n++; while (sub(/^\t?[A-Za-z_0-9]+, /, "\t", line)) n++ }
END { printf "%7d  total\n", total + with }'

echo "== //lint:allow directives"
printf '%7d  %s\n' "$(grep -rn '//lint:allow' --include='*.go' . | wc -l)" .
