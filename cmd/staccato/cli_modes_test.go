package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
)

// TestSearchVerboseModeStatsEndToEnd is the CLI acceptance scenario for
// candidate-restricted execution: ingest → search -v on a temp-dir
// store. A selective query with a -top limit must report mode=top-k
// (the bound-driven path Search auto-selects) with candidates fetched ≪
// corpus; -noindex must report mode=scan with identical results; and
// after the index log is deleted, `staccato index` must rebuild it and
// the same search must again run top-k with byte-identical output.
func TestSearchVerboseModeStatsEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	icfg := ingestConfig{store: dir, docs: 40, length: 40, seed: 19, chunks: 5, k: 3, batch: 9}
	if _, err := runIngest(&strings.Builder{}, icfg); err != nil {
		t.Fatal(err)
	}
	cases, err := testgen.Docs(icfg.docs, testgen.Config{Length: icfg.length, Seed: icfg.seed}, icfg.chunks, icfg.k)
	if err != nil {
		t.Fatal(err)
	}
	scfg := searchConfig{
		store: dir, workers: 2, top: 10, mode: "substring", combine: "and",
		verbose: true, terms: []string{cases[21].Doc.MAP()[8:15]},
	}

	var out strings.Builder
	rep, err := runSearch(&out, scfg)
	if err != nil {
		t.Fatalf("runSearch: %v\noutput:\n%s", err, out.String())
	}
	if rep.mode != query.ExecTopK {
		t.Fatalf("selective indexed search with -top ran mode=%q, want %q\noutput:\n%s",
			rep.mode, query.ExecTopK, out.String())
	}
	if rep.fetched == 0 || rep.fetched >= icfg.docs/2 {
		t.Fatalf("candidates fetched = %d, want selective (0 < fetched ≪ %d)", rep.fetched, icfg.docs)
	}
	if rep.fetched+rep.skipped+rep.pruned != icfg.docs {
		t.Fatalf("fetched %d + skipped %d + pruned %d != corpus %d",
			rep.fetched, rep.skipped, rep.pruned, icfg.docs)
	}
	for _, want := range []string{"mode=top-k", "early_stopped=", "bounds_skipped=", "candidates fetched:", "plan:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-v output missing %q:\n%s", want, out.String())
		}
	}

	// The same query with the index off: mode=scan, identical results.
	scanCfg := scfg
	scanCfg.noIndex = true
	var scanOut strings.Builder
	scanRep, err := runSearch(&scanOut, scanCfg)
	if err != nil {
		t.Fatal(err)
	}
	if scanRep.mode != query.ExecScan || scanRep.fetched != 0 {
		t.Fatalf("-noindex search: mode=%q fetched=%d, want %q/0", scanRep.mode, scanRep.fetched, query.ExecScan)
	}
	if !strings.Contains(scanOut.String(), "mode=scan") {
		t.Errorf("-noindex -v output missing mode=scan:\n%s", scanOut.String())
	}
	if !reflect.DeepEqual(scanRep.results, rep.results) {
		t.Fatalf("scan results differ from candidate-only results:\n scan %+v\n cand %+v", scanRep.results, rep.results)
	}

	// A 4-rune term at -fuzzy 1 — its pigeonhole pieces fall below the gram
	// size — no longer scans: -v shows the wildcard plan and how many
	// dictionary grams it was expanded to, and the table matches the
	// -noindex scan's. A 2-rune term still scans.
	shortCfg := scfg
	shortCfg.terms, shortCfg.fuzzy = []string{scfg.terms[0][:4]}, 1
	var shortOut strings.Builder
	shortRep, err := runSearch(&shortOut, shortCfg)
	if err != nil {
		t.Fatal(err)
	}
	if shortRep.mode != query.ExecTopK || shortRep.pruned == 0 {
		t.Fatalf("short fuzzy search: mode=%q pruned=%d, want a pruning %q run\noutput:\n%s",
			shortRep.mode, shortRep.pruned, query.ExecTopK, shortOut.String())
	}
	for _, want := range []string{`plan: wild(fuzzy("` + shortCfg.terms[0] + `", 1) ×`, "index used: true, "} {
		if !strings.Contains(shortOut.String(), want) {
			t.Errorf("short fuzzy -v output missing %q:\n%s", want, shortOut.String())
		}
	}
	if strings.Contains(shortOut.String(), "index used: true, 0 grams)") {
		t.Errorf("short fuzzy -v output reports no consulted grams:\n%s", shortOut.String())
	}
	shortCfg.noIndex = true
	shortScan, err := runSearch(&strings.Builder{}, shortCfg)
	if err != nil {
		t.Fatal(err)
	}
	if shortScan.mode != query.ExecScan || !reflect.DeepEqual(shortScan.results, shortRep.results) {
		t.Fatalf("short fuzzy -noindex search: mode=%q, results equal=%v", shortScan.mode, reflect.DeepEqual(shortScan.results, shortRep.results))
	}
	subCfg := scfg
	subCfg.terms = []string{scfg.terms[0][:2]}
	var subOut strings.Builder
	if subRep, err := runSearch(&subOut, subCfg); err != nil {
		t.Fatal(err)
	} else if subRep.mode != query.ExecScan || !strings.Contains(subOut.String(), `plan: scan(term "`+subCfg.terms[0]+`" shorter than gram size 3)`) {
		t.Fatalf("sub-gram search: mode=%q, want %q under a scan plan\noutput:\n%s", subRep.mode, query.ExecScan, subOut.String())
	}

	// Delete the index log, rebuild through the index subcommand, and
	// re-run: candidate-only again, byte-identical again.
	if err := os.Remove(filepath.Join(dir, "INDEX")); err != nil {
		t.Fatal(err)
	}
	var xout strings.Builder
	xrep, err := runIndex(&xout, indexConfig{store: dir})
	if err != nil {
		t.Fatalf("runIndex: %v\noutput:\n%s", err, xout.String())
	}
	if xrep.stats.IndexDocs != icfg.docs {
		t.Fatalf("rebuilt index covers %d docs, want %d", xrep.stats.IndexDocs, icfg.docs)
	}
	var out2 strings.Builder
	rep2, err := runSearch(&out2, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.mode != query.ExecTopK || !reflect.DeepEqual(rep2, rep) {
		t.Fatalf("post-rebuild search differs:\n before %+v\n after  %+v\noutput:\n%s", rep, rep2, out2.String())
	}

	// Through the real command line too: the -v flag must reach the
	// planner stats printer.
	var flagOut strings.Builder
	if err := searchMain(&flagOut, []string{"-store", dir, "-v", "-top", "10", scfg.terms[0]}); err != nil {
		t.Fatalf("searchMain: %v", err)
	}
	if !strings.Contains(flagOut.String(), "mode=top-k") {
		t.Errorf("searchMain -v output missing mode line:\n%s", flagOut.String())
	}
}
