package staccatodb_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/refsearch"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

func mustQ(q *query.Query, err error) *query.Query {
	if err != nil {
		panic(err)
	}
	return q
}

func corpus(t *testing.T, n int, seed int64) []testgen.DocCase {
	t.Helper()
	cases, err := testgen.Docs(n, testgen.Config{Length: 30, Seed: seed}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

func docsOf(cases []testgen.DocCase) []*staccato.Doc {
	out := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		out[i] = c.Doc
	}
	return out
}

func TestOpenMemLifecycle(t *testing.T) {
	ctx := context.Background()
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cases := corpus(t, 20, 3)
	if err := db.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Docs != 20 || !st.IndexEnabled || st.IndexDocs != 20 || st.IndexGrams == 0 {
		t.Fatalf("Stats = %+v", st)
	}

	// A term from a doc's MAP string must surface that doc.
	term := cases[4].Doc.MAP()[8:14]
	res, stats, err := db.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.DocID == cases[4].Doc.ID && r.Prob > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted doc missing from results %+v", res)
	}
	if !stats.IndexUsed || stats.DocsPruned == 0 {
		t.Fatalf("expected index pruning on a selective term; stats %+v", stats)
	}

	// Get, Delete, and re-Search.
	if _, err := db.Get(ctx, cases[4].Doc.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(ctx, cases[4].Doc.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(ctx, cases[4].Doc.ID); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
	}
	res, _, err = db.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.DocID == cases[4].Doc.ID {
			t.Fatal("deleted doc still in results")
		}
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, cases[0].Doc); !errors.Is(err, staccatodb.ErrClosed) {
		t.Errorf("Put after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := db.Search(ctx, mustQ(query.Substring("xx")), query.SearchOptions{}); !errors.Is(err, staccatodb.ErrClosed) {
		t.Errorf("Search after Close: err = %v, want ErrClosed", err)
	}
}

// TestOpenMemCompact: an in-memory DB compacts its store and its index
// like a disk one. After put-supersede and delete churn, Compact must
// shrink the segments, leave exactly the postings of a fresh DB that
// ingested only the live documents, and keep answering like the
// sequential reference over those documents.
func TestOpenMemCompact(t *testing.T) {
	ctx := context.Background()
	db, err := staccatodb.OpenMem(staccatodb.WithMaxSegmentBytes(4 << 10))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	first, second := corpus(t, 40, 5), corpus(t, 40, 6) // the same IDs, other text
	if err := db.Ingest(ctx, docsOf(first)); err != nil {
		t.Fatal(err)
	}
	live := map[string]testgen.DocCase{}
	for _, c := range first {
		live[c.Doc.ID] = c
	}
	for _, c := range second[:15] {
		if err := db.Put(ctx, c.Doc); err != nil {
			t.Fatal(err)
		}
		live[c.Doc.ID] = c
	}
	for _, c := range first[25:35] {
		if err := db.Delete(ctx, c.Doc.ID); err != nil {
			t.Fatal(err)
		}
		delete(live, c.Doc.ID)
	}
	ref, err := diskstore.OpenMem(diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var liveDocs []*staccato.Doc
	var truths []string
	for _, c := range live {
		liveDocs = append(liveDocs, c.Doc)
		truths = append(truths, c.Truth)
		if err := ref.Put(ctx, c.Doc); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(truths)

	before := db.Stats()
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	fresh, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Ingest(ctx, liveDocs); err != nil {
		t.Fatal(err)
	}
	if want := fresh.Stats().IndexPostings; after.IndexPostings != want || before.IndexPostings <= want {
		t.Errorf("IndexPostings %d before Compact, %d after; want more before, then the fresh DB's %d", before.IndexPostings, after.IndexPostings, want)
	}
	if after.DiskBytes >= before.DiskBytes || after.Segments == 0 || after.Docs != len(live) {
		t.Errorf("Stats before Compact %+v, after %+v; want fewer disk bytes and %d docs", before, after, len(live))
	}
	queries := randomQueries(truths, 41, 20)
	got := searchAll(t, db, queries)
	for i, q := range queries {
		want, err := refsearch.Search(ctx, ref, q, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("after Compact, query %s = %+v; the reference over the live documents gives %+v", q.String(), got[i], want)
		}
	}
}

func TestOpenPersistsAndReloadsIndex(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 25, 7)

	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	term := cases[9].Doc.MAP()[5:11]
	want, wantStats, err := db.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, index.FileName)); err != nil {
		t.Fatalf("index log missing after Close: %v", err)
	}

	db2, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, gotStats, err := db2.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened results differ:\n got %+v\n want %+v", got, want)
	}
	if gotStats.DocsPruned != wantStats.DocsPruned || !gotStats.IndexUsed {
		t.Fatalf("reopened stats %+v, want pruning like %+v", gotStats, wantStats)
	}
	if st := db2.Stats(); st.IndexDocs != len(cases) {
		t.Fatalf("reopened IndexDocs = %d, want %d", st.IndexDocs, len(cases))
	}
}

// TestStaleIndexRebuilt mutates the store through a second DB opened
// WithoutIndex — writes the index never sees — and checks the next
// indexed Open detects the stale CommitState and rebuilds, finding the
// new document.
func TestStaleIndexRebuilt(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 12, 9)

	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(ctx, docsOf(cases[:10])); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Write two more docs with the index detached.
	raw, err := staccatodb.Open(dir, staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Ingest(ctx, docsOf(cases[10:])); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	db2, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st := db2.Stats(); st.IndexDocs != 12 {
		t.Fatalf("IndexDocs = %d after stale rebuild, want 12", st.IndexDocs)
	}
	term := cases[11].Doc.MAP()[5:11]
	res, stats, err := db2.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.DocID == cases[11].Doc.ID && r.Prob > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("doc written without index missing after rebuild; results %+v stats %+v", res, stats)
	}
}

// searchAll runs a fixed battery of queries and collects all outputs, the
// comparison unit for the parity tests below.
func searchAll(t *testing.T, db *staccatodb.DB, queries []*query.Query) [][]query.Result {
	t.Helper()
	ctx := context.Background()
	out := make([][]query.Result, len(queries))
	for i, q := range queries {
		res, _, err := db.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q.String(), err)
		}
		out[i] = res
	}
	return out
}

// randomQueries builds a deterministic battery of boolean queries over
// the corpus truths: substring, keyword, and fuzzy leaves, And/Or/Not,
// selective and unselective terms, and sub-gram-size terms.
func randomQueries(truths []string, seed int64, n int) []*query.Query {
	rng := rand.New(rand.NewSource(seed))
	pick := func() string {
		truth := truths[rng.Intn(len(truths))]
		ln := 2 + rng.Intn(6)
		if ln > len(truth) {
			ln = len(truth)
		}
		i := rng.Intn(len(truth) - ln + 1)
		return truth[i : i+ln]
	}
	leaf := func() *query.Query {
		term := pick()
		switch rng.Intn(4) {
		case 0:
			if !strings.ContainsRune(term, ' ') {
				return mustQ(query.Keyword(term))
			}
		case 1:
			// Distance capped so short terms stay at least somewhat
			// selective; the planner's scan fallback still gets exercised
			// by terms whose pieces undercut the gram size.
			dist := 1 + rng.Intn(2)
			if len(term) <= 3 {
				dist = 1
			}
			return mustQ(query.Fuzzy(term, dist))
		}
		return mustQ(query.Substring(term))
	}
	var build func(depth int) *query.Query
	build = func(depth int) *query.Query {
		if depth <= 0 || rng.Intn(3) == 0 {
			return leaf()
		}
		switch rng.Intn(4) {
		case 0:
			return query.And(build(depth-1), build(depth-1))
		case 1:
			return query.Or(build(depth-1), build(depth-1))
		case 2:
			return query.Not(build(depth - 1))
		default:
			return query.And(build(depth-1), query.Not(build(depth-1)))
		}
	}
	out := make([]*query.Query, n)
	for i := range out {
		out[i] = build(2)
	}
	return out
}

// TestSearchParityIndexOnOffProperty is the PR's acceptance property:
// over random boolean queries, Search output is byte-identical with the
// index on, off, and absent — on the fresh corpus, after Delete+Compact,
// and after a torn-tail reopen forces a stale-index rebuild.
func TestSearchParityIndexOnOffProperty(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 60, 13)
	truths := make([]string, len(cases))
	for i, c := range cases {
		truths[i] = c.Truth
	}
	queries := randomQueries(truths, 99, 40)

	// openAndRun opens the directory with and then without the index,
	// sequentially (the store is single-process), and requires identical
	// output from both.
	openAndRun := func(phase string) [][]query.Result {
		t.Helper()
		db, err := staccatodb.Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		withIdx := searchAll(t, db, queries)
		pruned := 0
		for _, q := range queries {
			_, stats, err := db.Search(ctx, q, query.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pruned += stats.DocsPruned
		}
		db.Close()
		if pruned == 0 {
			t.Fatalf("%s: index never pruned; parity test is vacuous", phase)
		}
		noIdx, err := staccatodb.Open(dir, staccatodb.WithoutIndex())
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		withoutIdx := searchAll(t, noIdx, queries)
		noIdx.Close()
		if !reflect.DeepEqual(withIdx, withoutIdx) {
			for i := range queries {
				if !reflect.DeepEqual(withIdx[i], withoutIdx[i]) {
					t.Fatalf("%s: query %s: indexed %+v != scanned %+v",
						phase, queries[i].String(), withIdx[i], withoutIdx[i])
				}
			}
		}
		return withIdx
	}

	// Phase 1: fresh corpus, ingested in several batches.
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(cases); i += 17 {
		end := i + 17
		if end > len(cases) {
			end = len(cases)
		}
		if err := db.Ingest(ctx, docsOf(cases[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	openAndRun("fresh")

	// Phase 2: delete a slice of docs, re-put a few, compact.
	db, err = staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases[20:30] {
		if err := db.Delete(ctx, c.Doc.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Ingest(ctx, docsOf(cases[25:27])); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	db.Close()
	openAndRun("after delete+compact")

	// Phase 3: tear the store's tail — cut into the last appended record —
	// so the reopen truncates it, the CommitState regresses, and the index
	// must drop to a stale rebuild.
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
	openAndRun("after torn-tail reopen")
}

func TestExplain(t *testing.T) {
	ctx := context.Background()
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cases := corpus(t, 10, 17)
	if err := db.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	// The unprunable negation folds out of the AND, leaving only the gram
	// branch in the effective plan.
	q := query.And(mustQ(query.Substring("abcdef")), query.Not(mustQ(query.Substring("xyzw"))))
	out := db.Explain(q)
	for _, want := range []string{"grams(", "candidates:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	// An OR with an unprunable disjunct renders as a forced scan.
	orQ := query.Or(mustQ(query.Substring("abcdef")), query.Not(mustQ(query.Substring("xyzw"))))
	if out := db.Explain(orQ); !strings.Contains(out, "scan(") || !strings.Contains(out, "all (plan cannot prune)") {
		t.Errorf("Explain of unprunable OR = %q", out)
	}
	// A fuzzy term too short for the pigeonhole goes through the gram
	// dictionary and says how much of it the lookup read: a slow short-term
	// query explains itself.
	short := mustQ(query.Fuzzy(cases[0].Doc.MAP()[4:8], 1))
	_, stats, err := db.Search(ctx, short, query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != query.ExecCandidateOnly || stats.PlanGrams < 1 || stats.DocsScanned < 1 {
		t.Errorf("short-term search stats = %+v, want a candidate-only run over consulted grams", stats)
	}
	for _, want := range []string{
		"wild(fuzzy(", " patterns)",
		fmt.Sprintf("%d dictionary grams consulted", stats.PlanGrams),
		fmt.Sprintf("candidates: %d of 10 docs", stats.DocsScanned),
	} {
		if out := db.Explain(short); !strings.Contains(out, want) {
			t.Errorf("Explain of a short fuzzy term missing %q:\n%s", want, out)
		}
	}
	noIdx, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer noIdx.Close()
	if out := noIdx.Explain(q); !strings.Contains(out, "no index") {
		t.Errorf("Explain without index = %q", out)
	}
}

func TestRebuildIndexAfterNoIndexIngest(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 15, 23)

	raw, err := staccatodb.Open(dir, staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	// A WithoutIndex DB has no commit hook to keep a rebuilt index
	// current, so RebuildIndex must refuse rather than attach one that
	// would silently rot.
	if err := raw.RebuildIndex(ctx); err == nil {
		t.Fatal("RebuildIndex on a WithoutIndex DB should refuse")
	}
	raw.Close()

	// Reopening with the index enabled IS the recovery path: the missing
	// log is detected as stale and rebuilt from a scan.
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := db.Stats()
	if !st.IndexEnabled || st.IndexDocs != len(cases) {
		t.Fatalf("Stats after indexed reopen = %+v", st)
	}
	// The forced refresh works on an index-enabled DB and re-snapshots.
	if err := db.RebuildIndex(ctx); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.IndexDocs != len(cases) {
		t.Fatalf("IndexDocs after RebuildIndex = %d, want %d", st.IndexDocs, len(cases))
	}
}

func TestDamagedIndexFileRebuilt(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 10, 29)
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	term := cases[3].Doc.MAP()[4:10]
	want, _, err := db.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Overwrite the index log with garbage; Open must rebuild, not fail.
	if err := os.WriteFile(filepath.Join(dir, index.FileName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, stats, err := db2.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results after index rebuild differ:\n got %+v\n want %+v", got, want)
	}
	if !stats.IndexUsed {
		t.Fatalf("index unused after rebuild; stats %+v", stats)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := staccatodb.OpenMem(staccatodb.WithGramSize(0)); err == nil {
		t.Error("WithGramSize(0) accepted")
	}
	if _, err := staccatodb.Open(filepath.Join(t.TempDir(), "x"), staccatodb.WithGramSize(-1)); err == nil {
		t.Error("WithGramSize(-1) accepted")
	}
}

func TestGramSizeChangeForcesRebuild(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 8, 43)
	db, err := staccatodb.Open(dir, staccatodb.WithGramSize(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db4, err := staccatodb.Open(dir, staccatodb.WithGramSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db4.Close()
	if st := db4.Stats(); st.IndexDocs != len(cases) {
		t.Fatalf("IndexDocs after gram-size change = %d, want %d", st.IndexDocs, len(cases))
	}
	// A 4-rune term is exactly one 4-gram; it must still prune.
	term := cases[1].Doc.MAP()[2:8]
	_, stats, err := db4.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IndexUsed {
		t.Fatalf("index unused after gram-size rebuild; stats %+v", stats)
	}
}

// TestDetachedCompactCannotCollideWithStaleIndex is the fingerprint
// regression test: mutate and compact the store with the index detached
// so the op count and byte size could coincide with the stale index's
// stamp by accident — the segment-number component of the CommitState
// must still force a rebuild, and a query for content only the
// replacement document holds must find it.
func TestDetachedCompactCannotCollideWithStaleIndex(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, 10, 53)

	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Detached: replace one document with different content, then compact
	// away the superseded record so the live op count returns to 10.
	replacement := corpus(t, 12, 99)[11].Doc
	replacement.ID = cases[5].Doc.ID
	raw, err := staccatodb.Open(dir, staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Put(ctx, replacement); err != nil {
		t.Fatal(err)
	}
	if err := raw.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	db2, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	term := replacement.MAP()[8:14]
	res, stats, err := db2.Search(ctx, mustQ(query.Substring(term)), query.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.DocID == replacement.ID && r.Prob > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("replacement content missing after detached compact (stale index survived?); results %+v stats %+v", res, stats)
	}
}
