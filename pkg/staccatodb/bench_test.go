package staccatodb_test

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// The indexed-vs-scan benchmark pair quantifies the headline win: a
// selective substring query over a 5000-doc disk corpus answered
// candidate-only — only the planner's candidates are fetched and
// evaluated — versus a full decode-and-evaluate scan. The corpus is 10×
// the original 500 because candidate-only execution's point is that the
// gap keeps growing with corpus size; the fetched_docs metric records
// how few documents the selective query actually touched, scanned_docs
// how many were evaluated in any mode and skipped_docs how many a
// limited run left unread. The tracked
// numbers for these layers come from `bash bench/run.sh --trace 1`.
const (
	benchCorpusDocs = 5000
	benchDocLen     = 40
	benchChunks     = 5
	benchK          = 3
)

var (
	benchOnce sync.Once
	benchDir  string
	benchTerm string
	benchErr  error
)

// TestMain removes the shared benchmark corpus (which outlives any one
// benchmark because of the sync.Once sharing) when the test binary
// exits, so repeated runs don't accumulate temp directories.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	for i := range topkCorpora {
		if dir := topkCorpora[i].dir; dir != "" {
			os.RemoveAll(dir)
		}
	}
	os.Exit(code)
}

// benchCorpus ingests the shared 5000-doc corpus (benchCorpusDocs) once
// per test binary and picks a selective query term: a 7-rune slice of one
// document's MAP string, long enough that its gram intersection names
// only a handful of candidates.
func benchCorpus(b *testing.B) (string, string) {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "staccatodb-bench-*")
		if benchErr != nil {
			return
		}
		ctx := context.Background()
		var db *staccatodb.DB
		db, benchErr = staccatodb.Open(benchDir, staccatodb.WithNoSync())
		if benchErr != nil {
			return
		}
		defer db.Close()
		var batch []*staccato.Doc
		benchErr = testgen.EachDoc(benchCorpusDocs,
			testgen.Config{Length: benchDocLen, Seed: 101}, benchChunks, benchK,
			func(dc testgen.DocCase) error {
				if dc.Doc.ID == "doc-0250" {
					benchTerm = dc.Doc.MAP()[10:17]
				}
				batch = append(batch, dc.Doc)
				if len(batch) >= 128 {
					if err := db.Ingest(ctx, batch); err != nil {
						return err
					}
					batch = batch[:0]
				}
				return nil
			})
		if benchErr == nil {
			benchErr = db.Ingest(ctx, batch)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDir, benchTerm
}

func benchSearch(b *testing.B, mkQuery func(term string) (*query.Query, error), opts ...staccatodb.Option) {
	b.Helper()
	dir, term := benchCorpus(b)
	ctx := context.Background()
	db, err := staccatodb.Open(dir, append([]staccatodb.Option{staccatodb.WithNoSync()}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	q, err := mkQuery(term)
	if err != nil {
		b.Fatal(err)
	}
	var lastStats query.SearchStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, stats, err := db.Search(ctx, q, query.SearchOptions{TopN: 10})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("selective query matched nothing; benchmark term is broken")
		}
		lastStats = stats
	}
	b.StopTimer()
	b.ReportMetric(float64(lastStats.DocsPruned), "pruned_docs")
	b.ReportMetric(float64(lastStats.DocsTotal), "total_docs")
	b.ReportMetric(float64(lastStats.CandidatesFetched), "fetched_docs")
	b.ReportMetric(float64(lastStats.DocsScanned), "scanned_docs")
	b.ReportMetric(float64(lastStats.BoundsSkipped), "skipped_docs")
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)*float64(benchCorpusDocs)/b.Elapsed().Seconds(), "docs/s")
	}
}

// BenchmarkSearchIndexed answers the selective query through the planner
// and the inverted index.
func BenchmarkSearchIndexed(b *testing.B) {
	benchSearch(b, query.Substring)
}

// BenchmarkSearchScan answers the same query with the index disabled —
// the full decode-and-evaluate scan the planner exists to avoid.
func BenchmarkSearchScan(b *testing.B) {
	benchSearch(b, query.Substring, staccatodb.WithoutIndex())
}

// BenchmarkSearchScanTies is the scan's other side: a 2-rune substring
// the index cannot plan, which about one document in five matches with
// certainty. `top:10` is final at the tenth certain match in ID order,
// so the run stops after a few rounds instead of evaluating all
// benchCorpusDocs; skipped_docs counts the rest.
func BenchmarkSearchScanTies(b *testing.B) {
	benchSearch(b, func(string) (*query.Query, error) { return query.Substring("e ") }, staccatodb.WithoutIndex())
}

// fuzzyBenchQuery wraps the shared 7-rune benchmark term in a
// distance-1 fuzzy leaf — long enough that both pigeonhole pieces clear
// the gram size, so the planner prunes instead of degrading to a scan.
func fuzzyBenchQuery(term string) (*query.Query, error) {
	return query.Fuzzy(term, 1)
}

// BenchmarkFuzzySearchIndexed answers a distance-1 fuzzy query over the
// same corpus through the fuzzy-gram pigeonhole plan: an OR over the
// term's pieces, each an AND of that piece's grams.
func BenchmarkFuzzySearchIndexed(b *testing.B) {
	benchSearch(b, fuzzyBenchQuery)
}

// BenchmarkFuzzySearchScan answers the same fuzzy query with the index
// disabled — every document runs the table DP over the Levenshtein
// DFA's table.
func BenchmarkFuzzySearchScan(b *testing.B) {
	benchSearch(b, fuzzyBenchQuery, staccatodb.WithoutIndex())
}

// The top-k benchmark corpus plants a marker chunk in every document
// whose alternatives tier the corpus into nested candidate sets of 10,
// 100, 1000, and 10000 documents, at strictly decreasing probability by
// document number. The index bounds therefore rank candidates perfectly,
// which is the regime bound-driven early termination is built for: a
// `-top 10` query should evaluate roughly the same handful of documents
// whether the candidate set holds ten documents or ten thousand.
// `bash bench/run.sh --trace 1` tracks the same effect as query.topk_us
// against query.ranked_us and query.early_stop_share;
// TestSearchTopKEarlyStopsDeterministically asserts the early stop.
const topkCorpusDocs = 10000

// The top-k corpora: the marker corpus ingested in ID order and in a
// shuffled order, and the ties corpus. The index numbers documents in the
// order they arrive, so only the shuffled ones hand the candidates over
// out of ID order — the shape overwrites leave behind.
const (
	topkInOrder = iota
	topkShuffled
	topkTies
)

var topkCorpora [3]struct {
	once sync.Once
	dir  string
	err  error
}

// The ties corpus has the shape of the bench's common keywords, which
// the marker corpus, whose bounds are all distinct, cannot show: of its
// 2,000 documents, shuffled, the first 500 hold " zqtie", and the first
// 200 of those in every reading, so 40% of the term's candidates have a
// bound of exactly 1 and evaluate to exactly 1, and a top 10 is settled
// by the tie at 1.
const (
	topkTiesDocs    = 2000
	topkTiesHolders = 500
	topkTiesCertain = 200
)

// topkTiesMarker is document i's marker chunk in the ties corpus, at
// probability p when the term is uncertain.
func topkTiesMarker(i int, p float64) []staccato.Alt {
	switch {
	case i < topkTiesCertain: // 0.75 + 0.25 is exactly 1
		return []staccato.Alt{{Text: " zqtie", Prob: 0.75}, {Text: " zqtie~", Prob: 0.25}}
	case i < topkTiesHolders:
		return []staccato.Alt{{Text: " zqtie", Prob: p}, {Text: "~", Prob: 1 - p}}
	}
	return []staccato.Alt{{Text: "~", Prob: 1}}
}

// topkMarker is document i's marker text: every tier the document
// belongs to, as space-delimited tokens so each tier contributes its own
// grams.
func topkMarker(i int) string {
	m := " zqall"
	if i < 1000 {
		m += " zqm1000"
	}
	if i < 100 {
		m += " zqc100"
	}
	if i < 10 {
		m += " zqx10"
	}
	return m
}

// topkCorpus ingests one of the shared top-k corpora once per test
// binary: the marker corpus in ID order or, like the ties corpus, in a
// fixed random order.
func topkCorpus(b *testing.B, kind int) string {
	b.Helper()
	c := &topkCorpora[kind]
	n := topkCorpusDocs
	if kind == topkTies {
		n = topkTiesDocs
	}
	c.once.Do(func() {
		var docs []*staccato.Doc
		c.err = testgen.EachDoc(n,
			testgen.Config{Length: benchDocLen, Seed: 202}, benchChunks, benchK,
			func(dc testgen.DocCase) error {
				// Strictly decreasing marker probability by document number
				// keeps the bound ranking total and deterministic.
				i := len(docs)
				p := 0.95 - 0.9*float64(i)/float64(n)
				alts := []staccato.Alt{{Text: topkMarker(i), Prob: p}, {Text: "~", Prob: 1 - p}}
				if kind == topkTies {
					alts = topkTiesMarker(i, p)
				}
				if len(alts) > 1 && alts[0].Prob < alts[1].Prob {
					alts[0], alts[1] = alts[1], alts[0]
				}
				dc.Doc.Chunks = append(dc.Doc.Chunks, staccato.PathSet{Alts: alts, Retained: 1})
				dc.Doc.Params.Chunks++
				docs = append(docs, dc.Doc)
				return nil
			})
		if c.err != nil {
			return
		}
		if kind != topkInOrder {
			rng := rand.New(rand.NewSource(48))
			rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		}
		if c.dir, c.err = os.MkdirTemp("", "staccatodb-topk-*"); c.err != nil {
			return
		}
		ctx := context.Background()
		var db *staccatodb.DB
		if db, c.err = staccatodb.Open(c.dir, staccatodb.WithNoSync()); c.err != nil {
			return
		}
		defer db.Close()
		for len(docs) > 0 && c.err == nil {
			n := min(128, len(docs))
			c.err, docs = db.Ingest(ctx, docs[:n]), docs[n:]
		}
	})
	if c.err != nil {
		b.Fatal(c.err)
	}
	return c.dir
}

// BenchmarkSearchTopK runs the same `-top 10` query against candidate
// sets three decades apart. The candidates metric confirms the tier the
// query selected; evaluated_docs and early_stopped expose how much of it
// the bound-driven path actually touched. The shuffled tiers run over the
// corpus ingested out of ID order, so the candidates leave the index in
// no order a sort could exploit; the ties tier over the ties corpus,
// where 200 of 500 candidates tie at the bound 1.
func BenchmarkSearchTopK(b *testing.B) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, term string
		want       int
		corpus     int
	}{
		{"cand=10", "zqx10", 10, topkInOrder},
		{"cand=100", "zqc100", 100, topkInOrder},
		{"cand=1000", "zqm1000", 1000, topkInOrder},
		{"cand=10000", "zqall", 10000, topkInOrder},
		{"shuffled/cand=1000", "zqm1000", 1000, topkShuffled},
		{"shuffled/cand=10000", "zqall", 10000, topkShuffled},
		{"ties/cand=500", "zqtie", topkTiesHolders, topkTies},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db, err := staccatodb.Open(topkCorpus(b, tc.corpus), staccatodb.WithNoSync())
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			q, err := query.Substring(tc.term)
			if err != nil {
				b.Fatal(err)
			}
			var lastStats query.SearchStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, stats, err := db.Search(ctx, q, query.SearchOptions{TopN: 10})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 10 || stats.Mode != query.ExecTopK {
					b.Fatalf("got %d results in mode %q, want 10 in %q", len(res), stats.Mode, query.ExecTopK)
				}
				lastStats = stats
			}
			b.StopTimer()
			cands := lastStats.CandidatesFetched + lastStats.BoundsSkipped
			if cands < tc.want {
				b.Fatalf("candidate set holds %d docs, want at least %d", cands, tc.want)
			}
			b.ReportMetric(float64(cands), "candidates")
			b.ReportMetric(float64(lastStats.DocsScanned), "evaluated_docs")
			b.ReportMetric(float64(lastStats.BoundsSkipped), "skipped_docs")
			early := 0.0
			if lastStats.EarlyStopped {
				early = 1
			}
			b.ReportMetric(early, "early_stopped")
		})
	}
}

// BenchmarkSearchTopKExhaustive is the control: the same widest query
// (every document a candidate) with no result limit, so every candidate
// is fetched and evaluated. The gap between this and
// BenchmarkSearchTopK/cand=10000 is what bound-driven early termination
// buys.
func BenchmarkSearchTopKExhaustive(b *testing.B) {
	dir := topkCorpus(b, topkInOrder)
	ctx := context.Background()
	db, err := staccatodb.Open(dir, staccatodb.WithNoSync())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	q, err := query.Substring("zqall")
	if err != nil {
		b.Fatal(err)
	}
	var lastStats query.SearchStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, stats, err := db.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != topkCorpusDocs {
			b.Fatalf("exhaustive search matched %d docs, want %d", len(res), topkCorpusDocs)
		}
		lastStats = stats
	}
	b.StopTimer()
	b.ReportMetric(float64(lastStats.DocsScanned), "evaluated_docs")
}

// BenchmarkIngest loads 2,048 error-model documents at (6,3) into a fresh
// store (WithNoSync, so the fsync does not drown the index work), in
// commits of 1, 4 and 256 documents: a Put, mixed-rw's small writes and
// the bulk load. It reports µs/doc over the whole load and allocs/op per
// load of all 2,048.
func BenchmarkIngest(b *testing.B) {
	cases, err := testgen.ErrDocs(2048, testgen.ErrModelConfig{Seed: 1}, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	ctx := context.Background()
	for _, size := range []int{1, 4, 256} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, err := staccatodb.Open(b.TempDir(), staccatodb.WithNoSync())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for from := 0; from < len(docs); from += size {
					if err := db.Ingest(ctx, docs[from:min(from+size, len(docs))]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				db.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(docs)), "µs/doc")
		})
	}
}
