package staccatodb_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// oneReading builds a document with a single certain reading.
func oneReading(id, text string) *staccato.Doc {
	return &staccato.Doc{
		ID:     id,
		Params: staccato.Params{Chunks: 1, K: 1},
		Chunks: []staccato.PathSet{{Alts: []staccato.Alt{{Text: text, Prob: 1}}, Retained: 1}},
	}
}

// TestWriteRefusesDocWithoutID: a nil document and one with an empty ID
// are store.ErrInvalidDoc to a library caller, like every other invalid
// document, through Put and Ingest alike, and the batch stores nothing.
func TestWriteRefusesDocWithoutID(t *testing.T) {
	ctx := context.Background()
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, doc := range []*staccato.Doc{nil, {}, oneReading("", "text")} {
		if err := db.Put(ctx, doc); !errors.Is(err, store.ErrInvalidDoc) {
			t.Errorf("Put(%+v) = %v, want store.ErrInvalidDoc", doc, err)
		}
		if err := db.Ingest(ctx, []*staccato.Doc{oneReading("ok", "text"), doc}); !errors.Is(err, store.ErrInvalidDoc) {
			t.Errorf("Ingest of a batch holding %+v = %v, want store.ErrInvalidDoc", doc, err)
		}
	}
	if st := db.Stats(); st.Docs != 0 || st.IndexDocs != 0 {
		t.Errorf("after refused writes: %+v, want nothing stored", st)
	}
}

// TestIngestNamesRefusedDoc: a batch whose docs[1] is not a product of
// distributions — one chunk's probabilities sum to 0.8 — is refused with
// store.ErrInvalidDoc naming docs[1], and neither the store nor the index
// changes.
func TestIngestNamesRefusedDoc(t *testing.T) {
	ctx := context.Background()
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put(ctx, oneReading("kept", "stored before")); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	bad := &staccato.Doc{ID: "bad", Chunks: []staccato.PathSet{{Alts: []staccato.Alt{{Text: "a", Prob: 0.4}, {Text: "b", Prob: 0.4}}, Retained: 1}}}
	err = db.Ingest(ctx, []*staccato.Doc{oneReading("ok", "text"), bad, oneReading("after", "more text")})
	if !errors.Is(err, store.ErrInvalidDoc) || !strings.Contains(err.Error(), "docs[1]") {
		t.Fatalf("Ingest = %v, want store.ErrInvalidDoc naming docs[1]", err)
	}
	if got := db.Stats(); got.Docs != before.Docs || got.IndexDocs != before.IndexDocs || got.IndexBytes != before.IndexBytes {
		t.Errorf("after a refused batch: %+v, want %+v", got, before)
	}
}

// TestDeleteOfAbsentIDWritesNothing: a Delete of an ID the store does
// not hold appends nothing to the segments or to the index log, so the
// next Open loads the INDEX as it stands instead of rebuilding it.
func TestDeleteOfAbsentIDWritesNothing(t *testing.T) {
	ctx := context.Background()
	fsys := framelog.NewMemFS()
	db, err := staccatodb.OpenFS(fsys)
	if err != nil {
		t.Fatal(err)
	}
	cases := corpus(t, 8, 61)
	if err := db.Ingest(ctx, docsOf(cases)); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	if err := db.Delete(ctx, "no-such-doc"); err != nil {
		t.Fatal(err)
	}
	if after := db.Stats(); after.IndexBytes != before.IndexBytes || after.DiskBytes != before.DiskBytes {
		t.Fatalf("deleting an absent ID moved the stats from %+v to %+v", before, after)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := fsys.ReadFile(index.FileName)
	if err != nil {
		t.Fatal(err)
	}
	db, err = staccatodb.OpenFS(fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if reopened, _ := fsys.ReadFile(index.FileName); !bytes.Equal(reopened, log) {
		t.Fatal("Open rewrote the INDEX: it rebuilt instead of loading")
	}
	if st := db.Stats(); !st.IndexPersisted || st.IndexDocs != len(cases) || st.IndexBytes != before.IndexBytes {
		t.Fatalf("stats after the reopen %+v, want %d indexed documents in the %d-byte log", st, len(cases), before.IndexBytes)
	}
}

// TestFailedWriteNeverPrunesStoredDoc holds the write path to "the index
// describes exactly what the store holds" when a write fails: whatever
// the failed call left in the store, a planned search must answer like a
// WithoutIndex twin that was fed the same calls.
func TestFailedWriteNeverPrunesStoredDoc(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	opens := []struct {
		name string
		open func(t *testing.T, opts ...staccatodb.Option) (*staccatodb.DB, error)
	}{
		{"mem", func(_ *testing.T, opts ...staccatodb.Option) (*staccatodb.DB, error) {
			return staccatodb.OpenMem(opts...)
		}},
		{"disk", func(t *testing.T, opts ...staccatodb.Option) (*staccatodb.DB, error) {
			return staccatodb.Open(t.TempDir(), opts...)
		}},
	}
	for _, o := range opens {
		t.Run(o.name, func(t *testing.T) {
			db, err := o.open(t)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			twin, err := o.open(t, staccatodb.WithoutIndex())
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			// both applies one call to the indexed DB and its twin and
			// requires them to agree on whether it failed.
			both := func(what string, wantErr bool, call func(*staccatodb.DB) error) {
				t.Helper()
				for _, d := range []*staccatodb.DB{db, twin} {
					if err := call(d); (err != nil) != wantErr {
						t.Fatalf("%s: err = %v, want error %v", what, err, wantErr)
					}
				}
			}
			// agree requires the planned search for term to match the
			// twin's full scan, and reports the indexed result.
			agree := func(term string) []query.Result {
				t.Helper()
				q := mustQ(query.Substring(term))
				got, stats, err := db.Search(ctx, q, query.SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !stats.IndexUsed {
					t.Fatalf("search %q did not plan through the index: %+v", term, stats)
				}
				want, _, err := twin.Search(ctx, q, query.SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("search %q: indexed %+v != scanned %+v (stats %+v)", term, got, want, stats)
				}
				return got
			}

			both("put", false, func(d *staccatodb.DB) error { return d.Put(ctx, oneReading("d", "hello world")) })
			both("cancelled put", true, func(d *staccatodb.DB) error { return d.Put(cancelled, oneReading("d", "zzzzzzzz")) })
			doc, err := db.Get(ctx, "d")
			if err != nil || doc.MAP() != "hello world" {
				t.Fatalf("Get after the failed replace = %v, %v; want the old text", doc, err)
			}
			if res := agree("hello"); len(res) != 1 || res[0].DocID != "d" {
				t.Fatalf("search for the stored text = %+v, want d", res)
			}
			agree("zzzzzzzz")

			both("cancelled ingest", true, func(d *staccatodb.DB) error {
				return d.Ingest(cancelled, []*staccato.Doc{
					oneReading("new-a", "alpha particle"),
					oneReading("d", "replacement text"),
					oneReading("new-b", "bravo company"),
				})
			})
			for _, term := range []string{"alpha", "replacement", "bravo", "hello"} {
				agree(term)
			}

			// A batch with an invalid document stores none of it, in
			// memory as on disk.
			both("ingest with a nil document", true, func(d *staccatodb.DB) error {
				return d.Ingest(ctx, []*staccato.Doc{oneReading("new-c", "charlie horse"), nil})
			})
			for _, d := range []*staccatodb.DB{db, twin} {
				if _, err := d.Get(ctx, "new-c"); !errors.Is(err, store.ErrNotFound) {
					t.Fatalf("Get(new-c) after the failed ingest: err = %v, want ErrNotFound", err)
				}
			}
			if res := agree("charlie"); len(res) != 0 {
				t.Fatalf("search for the failed ingest's text found %+v", res)
			}
		})
	}
}

// TestSearchAndMaintenanceRaceWrites runs writers, planned searches with
// Stats and Compact against one disk database at once. Every
// search must succeed and report, for each document, the probability of
// some version of it the test wrote, and counters that add up:
// DocsTotal == DocsScanned + DocsPruned + BoundsSkipped with DocsPruned
// never negative, however the writes move the corpus under a top-k or
// candidate-only run. Once the writers stop, the index must answer
// exactly like a scan, and the closed directory must reopen with the
// index loaded rather than rebuilt.
func TestSearchAndMaintenanceRaceWrites(t *testing.T) {
	const (
		numIDs       = 12
		numVersions  = 4
		numWriters   = 4
		opsPerWriter = 40
		numSearchers = 3
	)
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "db")
	cases := corpus(t, numIDs*numVersions, 71)
	truths := make([]string, len(cases))
	versions := make(map[string][]*staccato.Doc, numIDs)
	ids := make([]string, numIDs)
	for i := range ids {
		ids[i] = fmt.Sprintf("id-%02d", i)
		for v := 0; v < numVersions; v++ {
			c := cases[i*numVersions+v]
			c.Doc.ID = ids[i]
			versions[ids[i]] = append(versions[ids[i]], c.Doc)
			truths[i*numVersions+v] = c.Truth
		}
	}
	// Planned queries: terms of five runes always cover at least one
	// gram, alone and under And/Or; a 3-rune and a 4-rune fuzzy one go
	// through wildcard lookups, whose pooled scratch the searchers then
	// share under the writers.
	var queries []*query.Query
	for i := 0; i < len(truths); i += 3 {
		a := mustQ(query.Substring(truths[i][4:9]))
		b := mustQ(query.Substring(truths[(i+1)%len(truths)][10:15]))
		queries = append(queries, a, query.And(a, b), query.Or(a, b),
			mustQ(query.Fuzzy(truths[i][4:7], 1)), mustQ(query.Fuzzy(truths[i][4:8], 1)))
	}
	// valid[qi][id] holds the bit patterns of the probabilities query qi
	// gives the versions of id, evaluated on the documents as the store
	// returns them.
	valid := make([]map[string]map[uint64]bool, len(queries))
	for qi := range queries {
		valid[qi] = make(map[string]map[uint64]bool, numIDs)
	}
	for _, id := range ids {
		for _, d := range versions[id] {
			data, err := store.Encode(d)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := store.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				if valid[qi][id] == nil {
					valid[qi][id] = make(map[uint64]bool, numVersions)
				}
				valid[qi][id][math.Float64bits(q.Eval(stored))] = true
			}
		}
	}

	db, err := staccatodb.Open(dir, staccatodb.WithNoSync(), staccatodb.WithMaxSegmentBytes(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < numWriters; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			pick := func() *staccato.Doc { return versions[ids[rng.Intn(numIDs)]][rng.Intn(numVersions)] }
			for i := 0; i < opsPerWriter; i++ {
				var err error
				switch rng.Intn(4) {
				case 0:
					err = db.Ingest(ctx, []*staccato.Doc{pick(), pick(), pick()})
				case 1:
					err = db.Delete(ctx, ids[rng.Intn(numIDs)])
				default:
					err = db.Put(ctx, pick())
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", seed, i, err)
					return
				}
			}
		}(int64(w + 1))
	}
	planned := make([]int, numSearchers)
	for s := 0; s < numSearchers; s++ {
		readers.Add(1)
		go func(s int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + s)))
			for {
				select {
				case <-done:
					return
				default:
				}
				qi := rng.Intn(len(queries))
				res, stats, err := db.Search(ctx, queries[qi], query.SearchOptions{TopN: rng.Intn(4)})
				if err != nil {
					t.Errorf("search %s: %v", queries[qi], err)
					return
				}
				if stats.IndexUsed {
					planned[s]++
				}
				if stats.DocsPruned < 0 || stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped {
					t.Errorf("search %s: stats %+v do not add up", queries[qi], stats)
					return
				}
				// Stats reads the index log's size beside the writers' appends.
				if st := db.Stats(); st.IndexPersisted && st.IndexBytes == 0 {
					t.Errorf("stats during the race: %+v, a persisted index log is never empty", st)
					return
				}
				for _, r := range res {
					if !valid[qi][r.DocID][math.Float64bits(r.Prob)] {
						t.Errorf("search %s: %s at %v is no version of that document the test wrote", queries[qi], r.DocID, r.Prob)
						return
					}
				}
			}
		}(s)
	}
	rounds := 0
	readers.Add(1)
	go func() {
		defer readers.Done()
		for ; ; rounds++ {
			select {
			case <-done:
				return
			default:
			}
			if err := db.Compact(ctx); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}
	total := 0
	for _, n := range planned {
		total += n
	}
	if total == 0 || rounds == 0 {
		t.Fatalf("%d planned searches and %d maintenance rounds raced the writers; the test is vacuous", total, rounds)
	}
	t.Logf("%d planned searches and %d maintenance rounds raced %d writes", total, rounds, numWriters*opsPerWriter)

	battery := randomQueries(truths, 5, 30)
	withIdx := searchAll(t, db, battery)
	if st := db.Stats(); !st.IndexPersisted || st.IndexDocs != st.Docs {
		t.Fatalf("after the race: %+v, want a persisted index covering every document", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The log's last stamp must be the store's CommitState, so the next
	// Open loads the index instead of rebuilding it.
	_, stamp, err := index.Load(filepath.Join(dir, index.FileName), index.DefaultGramSize)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := raw.CommitState()
	raw.Close()
	if stamp != cs {
		t.Fatalf("index log stamped %+v, store at %+v: the next Open would rebuild", stamp, cs)
	}

	noIdx, err := staccatodb.Open(dir, staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer noIdx.Close()
	withoutIdx := searchAll(t, noIdx, battery)
	for i := range battery {
		if !reflect.DeepEqual(withIdx[i], withoutIdx[i]) {
			t.Fatalf("query %s: indexed %+v != scanned %+v", battery[i], withIdx[i], withoutIdx[i])
		}
	}
}
