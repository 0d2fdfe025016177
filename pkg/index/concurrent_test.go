package index_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// TestConcurrentIngestMatchesScan races four writers through DB.Ingest —
// overlapping IDs, 64-document commits, a searcher running beside them —
// and then holds what the index built to what a scan gives: every search,
// in every mode it runs, equals the same search WithoutIndex, and the
// index's entries, as its log replays them, equal those of a fresh
// rebuild, whose runs split over the workers. Run it under -race.
func TestConcurrentIngestMatchesScan(t *testing.T) {
	const writers, perWriter, commit, ids = 4, 256, 64, 384
	cases, err := testgen.ErrDocs(writers*perWriter, testgen.ErrModelConfig{Seed: 7}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Writer w writes IDs w·96 to w·96+255 (mod 384): each ID is written
	// by two or three writers, each with a document of its own.
	docs := make([]*staccato.Doc, len(cases))
	var queries []*query.Query
	for i, c := range cases {
		d := *c.Doc
		d.ID = fmt.Sprintf("id-%03d", (i/perWriter*96+i%perWriter)%ids)
		docs[i] = &d
		if i%64 == 0 {
			var words []string
			for _, w := range strings.Fields(c.Truth) {
				if len(w) >= 4 {
					words = append(words, w)
				}
			}
			if len(words) < 2 {
				continue
			}
			a, b := mustQuery(t)(query.Substring(words[0])), mustQuery(t)(query.Keyword(words[1]))
			queries = append(queries, a, b, query.And(a, b), query.Or(a, b), query.Not(a),
				mustQuery(t)(query.Fuzzy(words[0], 1)))
		}
	}
	searchOpts := []query.SearchOptions{{}, {TopN: 5}}

	ctx := context.Background()
	dir := t.TempDir()
	db, err := staccatodb.Open(dir, staccatodb.WithWorkers(4), staccatodb.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := docs[w*perWriter : (w+1)*perWriter]
			for from := 0; from < len(mine); from += commit {
				if err := db.Ingest(ctx, mine[from:from+commit]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var searcher sync.WaitGroup
	searcher.Add(1)
	go func() {
		defer searcher.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := db.Search(ctx, queries[i%len(queries)], searchOpts[i%2]); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	searcher.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every search, on the index the writers built, against the scan.
	modes := map[query.ExecMode]int{}
	var indexed [][]query.Result
	for _, q := range queries {
		for _, opts := range searchOpts {
			res, stats, err := db.Search(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			modes[stats.Mode]++
			indexed = append(indexed, res)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []query.ExecMode{query.ExecScan, query.ExecCandidateOnly, query.ExecTopK} {
		if modes[m] == 0 {
			t.Fatalf("no search ran %s (modes %v); the battery no longer covers it", m, modes)
		}
	}
	scan, err := staccatodb.Open(dir, staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, q := range queries {
		for _, opts := range searchOpts {
			res, _, err := scan.Search(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, indexed[i]) {
				t.Fatalf("%s %+v: indexed search differs from the scan\n indexed: %+v\n scan:    %+v", q, opts, indexed[i], res)
			}
			i++
		}
	}
	scan.Close()

	// The index's entries against a fresh rebuild's.
	entries := func() []index.Entry {
		t.Helper()
		ix, _, err := index.Load(filepath.Join(dir, index.FileName), index.DefaultGramSize)
		if err != nil {
			t.Fatal(err)
		}
		return ix.Entries()
	}
	built := entries()
	if len(built) != ids {
		t.Fatalf("the index holds %d documents, want %d", len(built), ids)
	}
	// A reopen without the log is the rebuild.
	if err := os.Remove(filepath.Join(dir, index.FileName)); err != nil {
		t.Fatal(err)
	}
	db, err = staccatodb.Open(dir, staccatodb.WithWorkers(4), staccatodb.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if rebuilt := entries(); !reflect.DeepEqual(built, rebuilt) {
		t.Fatal("the entries the concurrent writes built differ from a fresh rebuild's")
	}
}

func mustQuery(t *testing.T) func(*query.Query, error) *query.Query {
	return func(q *query.Query, err error) *query.Query {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
}
