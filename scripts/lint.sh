#!/usr/bin/env bash
# lint.sh — the repo's static gate: formatting, go vet, the staccatolint
# invariant suite (cmd/staccatovet), a check that pkg/query compiles to
# no fused multiply-add on arm64, and a check that every test the docs
# cite by name exists. CI's lint job runs this script; run
# it locally before pushing to get the same verdict. Needs no network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" "$unformatted"
  exit 1
fi

echo "== go vet"
go vet ./...
# The seed generator is //go:build ignore, so ./... skips it; vet it by
# name so an API change it calls is caught here, not at the next regen.
go vet scripts/gen_fuzz_seeds.go

echo "== staccatovet (repo invariant suite)"
go run ./cmd/staccatovet ./...
# bench/ is a nested module, which ./... does not enter.
go -C bench run github.com/paper-repo/staccato-go/cmd/staccatovet ./...

echo "== no fused multiply-add in pkg/query on arm64"
# A probability must have the same bits on every GOARCH, but Go may fuse
# x*y + z into one multiply-add on arm64, which rounds once instead of
# twice. Writing each product as float64(x * y) forbids the fusion; the
# arm64 assembly listing of pkg/query shows whether one slipped through.
asm=$(GOARCH=arm64 go build -gcflags=-S ./pkg/query 2>&1)
if ! grep -q TEXT <<<"$asm"; then
  echo "no arm64 assembly listing for pkg/query"
  exit 1
fi
fused=$(grep -E $'\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t' <<<"$asm" || true)
if [ -n "$fused" ]; then
  echo "fused multiply-add in pkg/query; write the product as float64(x * y):"
  echo "$fused"
  exit 1
fi

echo "== tests cited by ARCHITECTURE.md and README.md exist"
# A backticked Test…, Fuzz… or Benchmark… name in the docs is a promise
# that the test is there; a rename or deletion must take the citation
# with it. A -run pattern such as `go test -run TestRecall` does not start
# the span, so it is not read as a name.
cited=$(grep -ohE '`(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' ARCHITECTURE.md README.md | tr -d '`' | sort -u)
defined=$(grep -rhoE --include='*_test.go' '^func (Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)
missing=$(comm -23 <(echo "$cited") <(echo "$defined"))
if [ -n "$missing" ]; then
  echo "cited in the docs, defined by no _test.go:" $missing
  exit 1
fi

echo "lint: all clean"
