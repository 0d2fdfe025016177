package staccatodb_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/refsearch"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// TestSearchTopKByteIdenticalProperty is the equivalence property for
// limited runs: for random corpora × random boolean/fuzzy queries ×
// TopN ∈ {1, 10, 100} × workers ∈ {1, 2, 8}, with the index and
// WithoutIndex, Search with a result limit must return exactly the first
// TopN entries of the exhaustive unlimited ranking — byte identical,
// whatever the engine pruned or skipped, on the bound-driven path and on
// the scan's ID-order path alike. Together with
// TestSearchModesByteIdenticalProperty (candidate-only == scan) this pins
// all three execution modes to one answer. Stats must be deterministic
// across worker counts and obey the accounting invariants.
func TestSearchTopKByteIdenticalProperty(t *testing.T) {
	ctx := context.Background()
	cases := corpus(t, 50, 83)
	truths := make([]string, len(cases))
	for i, c := range cases {
		truths[i] = c.Truth
	}
	queries := randomQueries(truths, 101, 20)

	topkRuns, scanRuns, earlyStops, tieStops := 0, 0, 0, 0
	type key struct {
		indexed  bool
		qi, topN int
		minProb  float64
	}
	baseline := map[key]query.SearchStats{}
	for _, run := range []struct {
		workers int
		indexed bool
	}{{1, true}, {2, true}, {8, true}, {1, false}, {2, false}, {8, false}} {
		workers := run.workers
		dbOpts := []staccatodb.Option{staccatodb.WithWorkers(workers)}
		if !run.indexed {
			dbOpts = append(dbOpts, staccatodb.WithoutIndex())
		}
		db, err := staccatodb.OpenMem(dbOpts...)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Ingest(ctx, docsOf(cases)); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			full, _, err := db.Search(ctx, q, query.SearchOptions{})
			if err != nil {
				t.Fatalf("query %d workers %d unlimited: %v", qi, workers, err)
			}
			// len(cases) and math.MaxInt cover every candidate set: one round
			// that no early stop can cut, whose size must not overflow.
			for _, sub := range []struct {
				topN    int
				minProb float64
			}{{1, 0}, {10, 0}, {100, 0}, {10, 0.25}, {len(cases), 0}, {math.MaxInt, 0}} {
				opts := query.SearchOptions{TopN: sub.topN, MinProb: sub.minProb}
				got, stats, err := db.Search(ctx, q, opts)
				if err != nil {
					t.Fatalf("query %d workers %d top %d: %v", qi, workers, sub.topN, err)
				}
				want := full
				if sub.minProb > 0 {
					want = nil
					for _, r := range full {
						if r.Prob >= sub.minProb {
							want = append(want, r)
						}
					}
				}
				if len(want) > sub.topN {
					want = want[:sub.topN]
				}
				if len(got) == 0 && len(want) == 0 {
					// DeepEqual treats nil and empty as different; both mean
					// "no results".
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d (%s) workers %d top %d min %.2f: results diverge\n got  %+v\n want %+v",
						qi, q, workers, sub.topN, sub.minProb, got, want)
				}
				switch stats.Mode {
				case query.ExecTopK:
					topkRuns++
				case query.ExecScan:
					scanRuns++
				}
				if sub.topN >= len(cases) && (stats.EarlyStopped || stats.BoundsSkipped != 0) {
					t.Fatalf("query %d top %d: a TopN covering every document cut the run: %+v", qi, sub.topN, stats)
				}
				if stats.EarlyStopped {
					earlyStops++
				}
				if stoppedOnTie(stats, full) {
					tieStops++
				}
				if stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped {
					t.Fatalf("query %d top %d: DocsTotal %d != scanned %d + pruned %d + skipped %d",
						qi, sub.topN, stats.DocsTotal, stats.DocsScanned, stats.DocsPruned, stats.BoundsSkipped)
				}
				if stats.Mode != query.ExecScan && stats.CandidatesFetched != stats.DocsScanned+stats.CandidatesDeleted {
					t.Fatalf("query %d top %d: CandidatesFetched %d != scanned %d + deleted %d",
						qi, sub.topN, stats.CandidatesFetched, stats.DocsScanned, stats.CandidatesDeleted)
				}
				k := key{run.indexed, qi, sub.topN, sub.minProb}
				if workers == 1 {
					baseline[k] = stats
				} else if !reflect.DeepEqual(stats, baseline[k]) {
					t.Fatalf("query %d top %d min %.2f: stats differ across worker counts\n w=1 %+v\n w=%d %+v",
						qi, sub.topN, sub.minProb, baseline[k], workers, stats)
				}
			}
		}
	}
	if topkRuns == 0 || scanRuns == 0 {
		t.Fatalf("vacuous property: %d runs took the top-k path, %d the scan", topkRuns, scanRuns)
	}
	t.Logf("top-k runs: %d, scan runs: %d, early stops: %d, on the tie clause: %d", topkRuns, scanRuns, earlyStops, tieStops)
}

// stoppedOnTie reports whether a top-k run provably stopped on the tie
// clause of its stop test: it left unevaluated a certain match of full,
// the exhaustive ranking. That match's bound is 1, so the next candidate's
// was too, and no result beats a bound of 1 strictly.
func stoppedOnTie(stats query.SearchStats, full []query.Result) bool {
	certain := 0
	for _, r := range full {
		if r.Prob >= 1 {
			certain++
		}
	}
	return stats.EarlyStopped && stats.DocsScanned < certain
}

// markerCorpus builds n hand-crafted docs whose single uncertain chunk
// carries a shared marker term at strictly decreasing probability, so the
// index bounds rank the docs perfectly and an early stop is guaranteed on
// any corpus larger than the engine's first evaluation round.
func markerCorpus(n int) []*staccato.Doc {
	docs := make([]*staccato.Doc, n)
	for i := range docs {
		p := 0.9 - 0.8*float64(i)/float64(n)
		alts := []staccato.Alt{{Text: " zzmarker ", Prob: p}, {Text: "~", Prob: 1 - p}}
		if alts[0].Prob < alts[1].Prob {
			alts[0], alts[1] = alts[1], alts[0]
		}
		docs[i] = &staccato.Doc{
			ID:     fmt.Sprintf("m-%03d", i),
			Params: staccato.Params{Chunks: 1, K: 2},
			Chunks: []staccato.PathSet{{Alts: alts, Retained: 1}},
		}
	}
	return docs
}

// TestSearchTopKEarlyStopsDeterministically pins the early-termination
// behaviour itself, which the random-corpus property cannot guarantee to
// exercise: on a corpus whose bounds rank the answer perfectly, a small
// TopN must stop after the first round, skip the tail, and still return
// exactly the truncated exhaustive ranking — with identical stats at
// every worker count.
func TestSearchTopKEarlyStopsDeterministically(t *testing.T) {
	ctx := context.Background()
	const n = 300
	q := mustQ(query.Substring("zzmarker"))

	var full []query.Result
	var first query.SearchStats
	for _, workers := range []int{1, 2, 8} {
		db, err := staccatodb.OpenMem(staccatodb.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Ingest(ctx, markerCorpus(n)); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			full, _, err = db.Search(ctx, q, query.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(full) != n {
				t.Fatalf("unlimited search matched %d docs, want %d", len(full), n)
			}
		}
		got, stats, err := db.Search(ctx, q, query.SearchOptions{TopN: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, full[:10]) {
			t.Fatalf("workers %d: top-10 diverges from truncated exhaustive ranking\n got  %+v\n want %+v",
				workers, got, full[:10])
		}
		if stats.Mode != query.ExecTopK || !stats.EarlyStopped || stats.BoundsSkipped == 0 {
			t.Fatalf("workers %d: expected an early-stopped top-k run, got %+v", workers, stats)
		}
		if stats.DocsScanned >= n/2 {
			t.Fatalf("workers %d: early stop still evaluated %d of %d docs", workers, stats.DocsScanned, n)
		}
		if stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped {
			t.Fatalf("workers %d: DocsTotal %d != scanned %d + pruned %d + skipped %d",
				workers, stats.DocsTotal, stats.DocsScanned, stats.DocsPruned, stats.BoundsSkipped)
		}
		if workers == 1 {
			first = stats
		} else if !reflect.DeepEqual(stats, first) {
			t.Fatalf("stats differ across worker counts:\n w=1 %+v\n w=%d %+v", first, workers, stats)
		}
	}

	// The docs ranked by bound are also ranked by true probability here,
	// so the winners must be the lowest-numbered marker docs in order.
	for i, r := range full[:10] {
		if want := fmt.Sprintf("m-%03d", i); r.DocID != want {
			t.Fatalf("rank %d: DocID = %s, want %s", i, r.DocID, want)
		}
	}
}

// certainTies is the corpus of the certain-tie tests: 300 docs carrying
// "zzcert", c-000 to c-299, where every third (i%3 == 2) is an uncertain
// match (0.6) and the rest a certain one (one alternative, P = 1). It
// returns the docs and a store holding them for refsearch.
func certainTies(t *testing.T) ([]*staccato.Doc, *diskstore.Store) {
	t.Helper()
	db, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	docs := make([]*staccato.Doc, 300)
	for i := range docs {
		alts := []staccato.Alt{{Text: " zzcert ", Prob: 1}}
		if i%3 == 2 {
			alts = []staccato.Alt{{Text: " zzcert ", Prob: 0.6}, {Text: "~", Prob: 0.4}}
		}
		docs[i] = &staccato.Doc{ID: fmt.Sprintf("c-%03d", i), Params: staccato.Params{Chunks: 1, K: len(alts)}, Chunks: []staccato.PathSet{{Alts: alts, Retained: 1}}}
	}
	if err := db.Ingest(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	return docs, db.Store()
}

// certainHead is the top 10 of the certain-tie corpus, under any rescorer
// that leaves a one-alternative chunk certain: its first ten certain docs
// at probability 1.
func certainHead() []query.Result {
	var head []query.Result
	for i := 0; len(head) < 10; i++ {
		if i%3 != 2 {
			head = append(head, query.Result{DocID: fmt.Sprintf("c-%03d", i), Prob: 1})
		}
	}
	return head
}

// TestTopKStopsAtCertainTies pins the tie clause of top-k's stop test: on
// the certainTies corpus, TopN 10 is ten 1.0 ties that no remaining
// bound can be strictly beaten by. The run must still stop after its
// first 32-doc round, since every bound-1 candidate it has not fetched
// has a larger ID than the tenth result, and return exactly what the
// exhaustive ranking and the sequential reference return.
func TestTopKStopsAtCertainTies(t *testing.T) {
	ctx := context.Background()
	docs, mem := certainTies(t)
	q := mustQ(query.Substring("zzcert"))
	ref, err := refsearch.Search(ctx, mem, q, query.SearchOptions{TopN: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, certainHead()) {
		t.Fatalf("reference top 10 = %+v, want %+v", ref, certainHead())
	}

	var first query.SearchStats
	for _, workers := range []int{1, 2, 8} {
		db, err := staccatodb.OpenMem(staccatodb.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Ingest(ctx, docs); err != nil {
			t.Fatal(err)
		}
		full, _, err := db.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := db.Search(ctx, q, query.SearchOptions{TopN: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, full[:10]) || !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers %d: top-10 %+v, want the exhaustive ranking's head %+v", workers, got, ref)
		}
		if stats.Mode != query.ExecTopK || !stats.EarlyStopped || stats.DocsScanned != 32 || stats.BoundsSkipped != 268 ||
			stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped {
			t.Fatalf("workers %d: stats %+v, want an early stop after one 32-doc round, 268 skipped", workers, stats)
		}
		if workers == 1 {
			first = stats
		} else if !reflect.DeepEqual(stats, first) {
			t.Fatalf("stats differ across worker counts:\n w=1 %+v\n w=%d %+v", first, workers, stats)
		}
	}
}

// TestScanStopsAtCertainTies pins the same stop where no admissible bound
// below 1 exists: a scan (WithoutIndex) walks the ID listing at the
// vacuous bound 1, and a rescored run — whose probabilities the index
// bounds do not cover — walks the listing or its candidates the same
// way. Eval never exceeds 1, so the tenth certain match, at listing
// position 13, ends the run after its first 32-doc round: 268 skipped,
// at any worker count, with the sequential reference's results. The
// rescorer, a lexicon boosting "zzcert", raises the uncertain docs above
// their index bounds but below 1.
func TestScanStopsAtCertainTies(t *testing.T) {
	ctx := context.Background()
	docs, mem := certainTies(t)
	q := mustQ(query.Substring("zzcert"))
	rescore := fuzzy.NewLexicon([]string{"zzcert"}).Rescorer()
	for _, arm := range []struct {
		name    string
		indexed bool
		rescore func(*staccato.Doc) *staccato.Doc
		mode    query.ExecMode
	}{
		{"scan", false, nil, query.ExecScan},
		{"rescored scan", false, rescore, query.ExecScan},
		{"rescored candidates", true, rescore, query.ExecCandidateOnly},
	} {
		t.Run(arm.name, func(t *testing.T) {
			opts := query.SearchOptions{TopN: 10, Rescore: arm.rescore}
			ref, err := refsearch.Search(ctx, mem, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, certainHead()) {
				t.Fatalf("reference top 10 = %+v, want %+v", ref, certainHead())
			}
			var first query.SearchStats
			for _, workers := range []int{1, 2, 8} {
				dbOpts := []staccatodb.Option{staccatodb.WithWorkers(workers)}
				if !arm.indexed {
					dbOpts = append(dbOpts, staccatodb.WithoutIndex())
				}
				db, err := staccatodb.OpenMem(dbOpts...)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if err := db.Ingest(ctx, docs); err != nil {
					t.Fatal(err)
				}
				got, stats, err := db.Search(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers %d: top-10 %+v, want the reference %+v", workers, got, ref)
				}
				if stats.Mode != arm.mode || !stats.EarlyStopped || stats.DocsScanned != 32 || stats.BoundsSkipped != 268 ||
					stats.DocsTotal != 300 || stats.DocsPruned != 0 {
					t.Fatalf("workers %d: stats %+v, want mode %s stopped after one 32-doc round, 268 of 300 skipped", workers, stats, arm.mode)
				}
				if workers == 1 {
					first = stats
				} else if !reflect.DeepEqual(stats, first) {
					t.Fatalf("stats differ across worker counts:\n w=1 %+v\n w=%d %+v", first, workers, stats)
				}
			}
		})
	}
}

// TestLegacyIndexFileRebuildsTransparently pins the migration story of
// every format bump: a store directory holding a well-formed v1, v2 or v3
// index log (valid frames, old magic) must open without error — v2 was
// written without the short-reading flag wildcard lookups rely on, v3
// doc-major with float bounds — rebuild the index from a scan, persist it
// in the current format, and answer top-k searches, a wildcard-planned one
// included, byte identically to the pre-downgrade database and to a
// database opened WithoutIndex.
func TestLegacyIndexFileRebuildsTransparently(t *testing.T) {
	for _, magic := range []string{"staccato-index v1", "staccato-index v2", "staccato-index v3"} {
		t.Run(magic, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			cases := corpus(t, 30, 7)

			db, err := staccatodb.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Ingest(ctx, docsOf(cases)); err != nil {
				t.Fatal(err)
			}
			queries := []*query.Query{
				mustQ(query.Substring(cases[11].Doc.MAP()[5:12])),
				mustQ(query.Fuzzy(cases[11].Doc.MAP()[5:8], 1)),
			}
			var wantRes [][]query.Result
			var wantStats []query.SearchStats
			for _, q := range queries {
				res, stats, err := db.Search(ctx, q, query.SearchOptions{TopN: 10})
				if err != nil {
					t.Fatal(err)
				}
				if stats.Mode != query.ExecTopK {
					t.Fatalf("%s ran in mode %q, want %q", q, stats.Mode, query.ExecTopK)
				}
				wantRes, wantStats = append(wantRes, res), append(wantStats, stats)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// Overwrite INDEX with a well-formed legacy log: correctly framed
			// header carrying the old magic and the same gram size.
			payload := append([]byte(magic), binary.AppendUvarint(nil, 3)...)
			frame := make([]byte, 8, 8+len(payload))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
			frame = append(frame, payload...)
			idxPath := filepath.Join(dir, index.FileName)
			if err := os.WriteFile(idxPath, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := index.Load(idxPath, 3); !errors.Is(err, index.ErrMismatch) {
				t.Fatalf("index.Load on a legacy file: err = %v, want ErrMismatch", err)
			}

			db2, err := staccatodb.Open(dir)
			if err != nil {
				t.Fatalf("Open over a legacy index log: %v", err)
			}
			defer db2.Close()
			st := db2.Stats()
			if !st.IndexEnabled || !st.IndexPersisted || st.IndexDocs != len(cases) {
				t.Fatalf("rebuilt stats = %+v, want persisted index over %d docs", st, len(cases))
			}
			for i, q := range queries {
				gotRes, gotStats, err := db2.Search(ctx, q, query.SearchOptions{TopN: 10})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRes, wantRes[i]) {
					t.Fatalf("%s: post-rebuild results diverge:\n got  %+v\n want %+v", q, gotRes, wantRes[i])
				}
				if !reflect.DeepEqual(gotStats, wantStats[i]) {
					t.Fatalf("%s: post-rebuild stats diverge:\n got  %+v\n want %+v", q, gotStats, wantStats[i])
				}
			}

			// The rebuild must have left a loadable current-format log behind.
			if _, _, err := index.Load(idxPath, 3); err != nil {
				t.Fatalf("index.Load after the rebuild: %v", err)
			}
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			scan, err := staccatodb.Open(dir, staccatodb.WithoutIndex())
			if err != nil {
				t.Fatal(err)
			}
			defer scan.Close()
			for i, q := range queries {
				if res, _, err := scan.Search(ctx, q, query.SearchOptions{TopN: 10}); err != nil || !reflect.DeepEqual(res, wantRes[i]) {
					t.Fatalf("%s: WithoutIndex results diverge (err %v):\n got  %+v\n want %+v", q, err, res, wantRes[i])
				}
			}
		})
	}
}
