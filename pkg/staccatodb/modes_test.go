package staccatodb_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/refsearch"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// referenceAll answers queries with the sequential reference evaluator
// over the raw store in dir — no DB, no index, no engine.
func referenceAll(t *testing.T, dir string, queries []*query.Query) [][]query.Result {
	t.Helper()
	st, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out := make([][]query.Result, len(queries))
	for i, q := range queries {
		if out[i], err = refsearch.Search(context.Background(), st, q, query.SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSearchModesByteIdenticalProperty is this PR's acceptance property:
// over random boolean queries, Search output is byte-identical across
// the sequential reference (refsearch over the raw store), the full scan
// (no index), and candidate-only (indexed Search) — at 1, 2, and 8
// workers, on a fresh store, after
// Delete+Compact, and after a torn-tail reopen forces a stale-index
// rebuild.
func TestSearchModesByteIdenticalProperty(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 50, 61)
	truths := make([]string, len(cases))
	for i, c := range cases {
		truths[i] = c.Truth
	}
	queries := randomQueries(truths, 77, 25)
	fuzzyLeaves := 0
	for _, q := range queries {
		if strings.Contains(q.String(), "fuzzy(") {
			fuzzyLeaves++
		}
	}
	if fuzzyLeaves == 0 {
		t.Fatal("query battery has no fuzzy leaves; the property no longer covers them")
	}

	snips := query.SnippetOptions{MaxReadings: 2}
	runPhase := func(phase string) {
		t.Helper()
		candidateRuns := 0
		// baseline: worker-count 1's candidate-only output; every other
		// worker count and mode must reproduce it byte-for-byte.
		var baseline [][]query.Result
		var baselineSnips [][]query.DocSnippets
		for _, workers := range []int{1, 2, 8} {
			db, err := staccatodb.Open(dir, staccatodb.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", phase, workers, err)
			}
			for qi, q := range queries {
				res, stats, err := db.Search(ctx, q, query.SearchOptions{})
				if err != nil {
					t.Fatalf("%s workers=%d query %d: %v", phase, workers, qi, err)
				}
				if stats.Mode == query.ExecCandidateOnly {
					candidateRuns++
					if stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped != stats.DocsTotal {
						t.Fatalf("%s workers=%d query %d: incoherent candidate-only stats %+v",
							phase, workers, qi, stats)
					}
					if stats.CandidatesFetched != stats.DocsScanned+stats.CandidatesDeleted {
						t.Fatalf("%s workers=%d query %d: fetched %d != scanned %d + deleted %d",
							phase, workers, qi, stats.CandidatesFetched, stats.DocsScanned, stats.CandidatesDeleted)
					}
					if stats.CandidatesDeleted != 0 || stats.BoundsSkipped != 0 || stats.EarlyStopped {
						t.Fatalf("%s workers=%d query %d: top-k counters leaked into candidate-only stats %+v",
							phase, workers, qi, stats)
					}
				} else if stats.Mode != query.ExecScan {
					t.Fatalf("%s workers=%d query %d: unexpected mode %q", phase, workers, qi, stats.Mode)
				}

				// Snippets ride on Search, so they inherit its mode and
				// worker-count determinism — checked byte-for-byte like the
				// ranked results themselves.
				sn, _, err := db.Snippets(ctx, q, query.SearchOptions{}, snips)
				if err != nil {
					t.Fatalf("%s workers=%d query %d Snippets: %v", phase, workers, qi, err)
				}
				if len(sn) != len(res) {
					t.Fatalf("%s workers=%d query %d: %d snippets for %d results", phase, workers, qi, len(sn), len(res))
				}
				for i := range sn {
					if sn[i].DocID != res[i].DocID {
						t.Fatalf("%s workers=%d query %d: snippet %d is doc %q, result is %q",
							phase, workers, qi, i, sn[i].DocID, res[i].DocID)
					}
				}

				if workers == 1 {
					baseline = append(baseline, res)
					baselineSnips = append(baselineSnips, sn)
				} else {
					if !reflect.DeepEqual(res, baseline[qi]) {
						t.Fatalf("%s query %s: workers=%d output differs from workers=1\n got:  %+v\n want: %+v",
							phase, q.String(), workers, res, baseline[qi])
					}
					if !reflect.DeepEqual(sn, baselineSnips[qi]) {
						t.Fatalf("%s query %s: workers=%d snippets differ from workers=1\n got:  %+v\n want: %+v",
							phase, q.String(), workers, sn, baselineSnips[qi])
					}
				}
			}
			db.Close()

			// Mode 2: the sequential reference, read off the raw store once
			// the DB — whose reopen is what the torn-tail phase tests — has
			// let go of it. Every other worker count and mode is compared
			// with the baseline this vouches for.
			if workers == 1 {
				for qi, want := range referenceAll(t, dir, queries) {
					if !reflect.DeepEqual(baseline[qi], want) {
						t.Fatalf("%s query %s: candidate-only Search differs from the sequential reference\n search:    %+v\n reference: %+v",
							phase, queries[qi].String(), baseline[qi], want)
					}
				}
			}

			// Mode 3: full scan — index disabled entirely.
			noIdx, err := staccatodb.Open(dir, staccatodb.WithoutIndex(), staccatodb.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", phase, workers, err)
			}
			scanned := searchAll(t, noIdx, queries)
			for qi := range queries {
				if !reflect.DeepEqual(scanned[qi], baseline[qi]) {
					t.Fatalf("%s workers=%d query %s: full scan differs from candidate-only\n scan: %+v\n cand: %+v",
						phase, workers, queries[qi].String(), scanned[qi], baseline[qi])
				}
				sn, _, err := noIdx.Snippets(ctx, queries[qi], query.SearchOptions{}, snips)
				if err != nil {
					t.Fatalf("%s workers=%d query %d scan Snippets: %v", phase, workers, qi, err)
				}
				if !reflect.DeepEqual(sn, baselineSnips[qi]) {
					t.Fatalf("%s workers=%d query %s: full-scan snippets differ from candidate-only\n scan: %+v\n cand: %+v",
						phase, workers, queries[qi].String(), sn, baselineSnips[qi])
				}
			}
			noIdx.Close()
		}
		if candidateRuns == 0 {
			t.Fatalf("%s: no query ran candidate-only; the property test is vacuous", phase)
		}
	}

	// Phase 1: fresh corpus, ingested in several batches.
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(cases); i += 13 {
		end := i + 13
		if end > len(cases) {
			end = len(cases)
		}
		if err := db.Ingest(ctx, docsOf(cases[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	runPhase("fresh")

	// Phase 2: delete a slice, re-put a couple, compact.
	db, err = staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases[15:23] {
		if err := db.Delete(ctx, c.Doc.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Ingest(ctx, docsOf(cases[18:20])); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	db.Close()
	runPhase("after delete+compact")

	// Phase 3: tear the last segment's tail so the reopen truncates it
	// and the stale index is rebuilt from a scan.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err=%v)", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 4 {
		t.Fatalf("last segment too small to tear (%d bytes)", fi.Size())
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	runPhase("after torn-tail rebuild")
}

// TestFuzzyLexiconRescoreByteIdenticalAcrossModes runs fuzzy queries
// with lexicon rescoring enabled and requires the ranked output — and
// the snippets riding on it — to be byte-identical across candidate-only
// search, a full scan with the index disabled, and 1/2/8 workers. The
// rescorer re-weights every document's readings toward dictionary
// words, so any mode- or worker-dependence in where it is applied would
// surface as a probability diff here.
func TestFuzzyLexiconRescoreByteIdenticalAcrossModes(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 40, 433)
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Dictionary: every token of every ground truth, so the rescorer has
	// real in-lexicon words to boost in the retained readings.
	var words []string
	for _, c := range cases {
		words = append(words, strings.Fields(c.Truth)...)
	}
	lex := fuzzy.NewLexicon(words)
	if lex.Len() == 0 {
		t.Fatal("empty lexicon from corpus truths")
	}
	opts := query.SearchOptions{Rescore: lex.Rescorer()}
	snips := query.SnippetOptions{MaxReadings: 2}

	var queries []*query.Query
	for _, c := range cases[:6] {
		toks := strings.Fields(c.Truth)
		if len(toks) == 0 || len(toks[0]) < 4 {
			continue
		}
		queries = append(queries, mustQ(query.Fuzzy(toks[0], 1)))
	}
	if len(queries) == 0 {
		t.Fatal("no fuzzy probe queries built from corpus truths")
	}

	var baseline [][]query.Result
	var baselineSnips [][]query.DocSnippets
	matched := 0
	for _, workers := range []int{1, 2, 8} {
		for _, withIndex := range []bool{true, false} {
			dbOpts := []staccatodb.Option{staccatodb.WithWorkers(workers)}
			if !withIndex {
				dbOpts = append(dbOpts, staccatodb.WithoutIndex())
			}
			db, err := staccatodb.Open(dir, dbOpts...)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				res, _, err := db.Search(ctx, q, opts)
				if err != nil {
					t.Fatalf("workers=%d index=%v query %s: %v", workers, withIndex, q, err)
				}
				sn, _, err := db.Snippets(ctx, q, opts, snips)
				if err != nil {
					t.Fatalf("workers=%d index=%v query %s snippets: %v", workers, withIndex, q, err)
				}
				matched += len(res)
				if workers == 1 && withIndex {
					baseline = append(baseline, res)
					baselineSnips = append(baselineSnips, sn)
					continue
				}
				if !reflect.DeepEqual(res, baseline[qi]) {
					t.Fatalf("workers=%d index=%v query %s: rescored results differ from baseline\n got:  %+v\n want: %+v",
						workers, withIndex, q, res, baseline[qi])
				}
				if !reflect.DeepEqual(sn, baselineSnips[qi]) {
					t.Fatalf("workers=%d index=%v query %s: rescored snippets differ from baseline\n got:  %+v\n want: %+v",
						workers, withIndex, q, sn, baselineSnips[qi])
				}
			}
			db.Close()
		}
	}
	if matched == 0 {
		t.Fatal("no fuzzy query matched any document; the rescore property is vacuous")
	}
}

// TestShortTermExecutionModes pins which runs the wildcard lowering took
// over and which still scan: a short fuzzy term at distance 1 runs under
// a candidate set, while a term shorter than a gram, a negation, a fuzzy
// leaf over the pattern budget, and any query WithoutIndex render
// scan(...) and run ExecScan — with the same results either way.
func TestShortTermExecutionModes(t *testing.T) {
	ctx := context.Background()
	cases := corpus(t, 40, 91)
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	noIdx, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer noIdx.Close()
	for _, d := range []*staccatodb.DB{db, noIdx} {
		if err := d.Ingest(ctx, docsOf(cases)); err != nil {
			t.Fatal(err)
		}
	}
	word := cases[3].Doc.MAP()[6:10]
	for _, c := range []struct {
		q    *query.Query
		top  int
		mode query.ExecMode
		plan string
	}{
		{mustQ(query.Fuzzy(word, 1)), 0, query.ExecCandidateOnly, "wild(fuzzy("},
		{mustQ(query.Fuzzy(word, 1)), 5, query.ExecTopK, "wild(fuzzy("},
		{mustQ(query.Fuzzy(word[:3], 1)), 5, query.ExecTopK, "wild(fuzzy("},
		{mustQ(query.Substring(word[:2])), 5, query.ExecScan, "scan(term "},
		{mustQ(query.Keyword(word[:1])), 0, query.ExecScan, "scan(term "},
		{query.Not(mustQ(query.Substring(word[:2]))), 5, query.ExecScan, "scan(negation cannot prune)"},
		{mustQ(query.Fuzzy(word, 2)), 5, query.ExecScan, "scan(fuzzy term"},
		{query.Or(mustQ(query.Fuzzy(word, 1)), mustQ(query.Fuzzy(word, 2))), 0, query.ExecScan, "scan(fuzzy term"},
	} {
		opts := query.SearchOptions{TopN: c.top}
		res, stats, err := db.Search(ctx, c.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != c.mode || !strings.HasPrefix(stats.Plan, c.plan) || stats.IndexUsed != (c.mode != query.ExecScan) {
			t.Errorf("%s top=%d: mode %q index_used=%v plan %q, want mode %q under plan %s…",
				c.q, c.top, stats.Mode, stats.IndexUsed, stats.Plan, c.mode, c.plan)
		}
		if c.mode != query.ExecScan && (stats.PlanGrams == 0 || stats.DocsPruned == 0) {
			t.Errorf("%s top=%d: %d grams consulted, %d documents pruned; the lowering did no work", c.q, c.top, stats.PlanGrams, stats.DocsPruned)
		}
		scanned, scanStats, err := noIdx.Search(ctx, c.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if scanStats.Mode != query.ExecScan || scanStats.Plan != "scan (no index)" || scanStats.IndexUsed {
			t.Errorf("%s WithoutIndex: stats %+v, want an unplanned scan", c.q, scanStats)
		}
		if !reflect.DeepEqual(res, scanned) {
			t.Errorf("%s top=%d: indexed and WithoutIndex results differ\n indexed: %+v\n scan:    %+v", c.q, c.top, res, scanned)
		}
	}
}

// TestSnippetsRareMatchAcrossModes stores a document whose one matching
// reading family is far down its 8,192 readings — twelve even "a"/"b"
// chunks, then "yy" or, at 0.001, "ZZ" — and requires DB.Snippets to
// report its three best matching readings in every execution mode: the
// 2-rune "ZZ" scans, and "aZZ", a gram long, runs candidate-only and
// top-k and scans WithoutIndex.
func TestSnippetsRareMatchAcrossModes(t *testing.T) {
	ctx := context.Background()
	d := &staccato.Doc{ID: "many"}
	for range 12 {
		d.Chunks = append(d.Chunks, staccato.PathSet{Alts: []staccato.Alt{{Text: "a", Prob: 0.5}, {Text: "b", Prob: 0.5}}, Retained: 1})
	}
	d.Chunks = append(d.Chunks, staccato.PathSet{Alts: []staccato.Alt{{Text: "yy", Prob: 0.999}, {Text: "ZZ", Prob: 0.001}}, Retained: 1})
	indexed, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer indexed.Close()
	scanned, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer scanned.Close()
	for _, db := range []*staccatodb.DB{indexed, scanned} {
		if err := db.Ingest(ctx, []*staccato.Doc{d}); err != nil {
			t.Fatal(err)
		}
	}

	each := math.Ldexp(0.001, -12)
	for _, c := range []struct {
		db   *staccatodb.DB
		term string
		top  int
		mode query.ExecMode
		prob float64
		want []string
	}{
		{indexed, "ZZ", 0, query.ExecScan, 0.001, []string{"aaaaaaaaaaaaZZ", "aaaaaaaaaaabZZ", "aaaaaaaaaabaZZ"}},
		{indexed, "aZZ", 0, query.ExecCandidateOnly, 0.0005, []string{"aaaaaaaaaaaaZZ", "aaaaaaaaaabaZZ", "aaaaaaaaabaaZZ"}},
		{indexed, "aZZ", 1, query.ExecTopK, 0.0005, []string{"aaaaaaaaaaaaZZ", "aaaaaaaaaabaZZ", "aaaaaaaaabaaZZ"}},
		{scanned, "aZZ", 1, query.ExecScan, 0.0005, []string{"aaaaaaaaaaaaZZ", "aaaaaaaaaabaZZ", "aaaaaaaaabaaZZ"}},
	} {
		q := mustQ(query.Substring(c.term))
		sn, stats, err := c.db.Snippets(ctx, q, query.SearchOptions{TopN: c.top}, query.SnippetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != c.mode || len(sn) != 1 {
			t.Fatalf("%s top=%d: %d documents in mode %q, want 1 in %q", q, c.top, len(sn), stats.Mode, c.mode)
		}
		if math.Float64bits(sn[0].Prob) != math.Float64bits(c.prob) || len(sn[0].Readings) != len(c.want) {
			t.Fatalf("%s top=%d: %+v, want Prob %v and readings %q", q, c.top, sn[0], c.prob, c.want)
		}
		for i, r := range sn[0].Readings {
			if r.Text != c.want[i] || math.Float64bits(r.Prob) != math.Float64bits(each) {
				t.Fatalf("%s top=%d: reading %d = (%q, %v), want (%q, %v)", q, c.top, i, r.Text, r.Prob, c.want[i], each)
			}
		}
	}
}
