package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// TestVerboseStatsJSONShape pins the satellite contract: ingest -v,
// index -v, and search -v all print a `stats:` line whose JSON is the
// canonical staccatodb.Stats encoding — the same object the staccato serve
// /v1/stats endpoint serves as "db" — with consistent live doc count
// and index persistence.
func TestVerboseStatsJSONShape(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if _, err := runIngest(&out, ingestConfig{
		store: dir, docs: 12, length: 40, seed: 5, chunks: 4, k: 3, batch: 8, verbose: true,
	}); err != nil {
		t.Fatal(err)
	}
	ingestStats := extractStatsLine(t, out.String())

	out.Reset()
	if _, err := runIndex(&out, indexConfig{store: dir, verbose: true}); err != nil {
		t.Fatal(err)
	}
	indexStats := extractStatsLine(t, out.String())

	out.Reset()
	if _, err := runSearch(&out, searchConfig{
		store: dir, top: 3, mode: "substring", combine: "and", verbose: true,
		terms: []string{"a"},
	}); err != nil {
		t.Fatal(err)
	}
	searchStats := extractStatsLine(t, out.String())

	for name, st := range map[string]staccatodb.Stats{
		"ingest": ingestStats, "index": indexStats, "search": searchStats,
	} {
		if st.Docs != 12 {
			t.Errorf("%s -v stats: docs = %d, want 12", name, st.Docs)
		}
		if !st.IndexEnabled || !st.IndexPersisted {
			t.Errorf("%s -v stats: index enabled=%v persisted=%v, want both true", name, st.IndexEnabled, st.IndexPersisted)
		}
	}

	// The printed line must round-trip into the same struct a live DB
	// reports — one shape, not a hand-maintained copy.
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if live := db.Stats(); live != indexStats {
		t.Errorf("printed stats %+v differ from live db.Stats() %+v", indexStats, live)
	}
}

// extractStatsLine finds the single `stats: {...}` line and decodes its
// JSON into the canonical Stats struct, failing on unknown fields so
// the CLI line cannot drift from the struct's tags.
func extractStatsLine(t *testing.T, output string) staccatodb.Stats {
	t.Helper()
	for _, line := range strings.Split(output, "\n") {
		rest, ok := strings.CutPrefix(line, "stats: ")
		if !ok {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(rest))
		dec.DisallowUnknownFields()
		var st staccatodb.Stats
		if err := dec.Decode(&st); err != nil {
			t.Fatalf("stats line is not canonical Stats JSON: %v\n%s", err, rest)
		}
		return st
	}
	t.Fatalf("no stats: line in output:\n%s", output)
	return staccatodb.Stats{}
}
