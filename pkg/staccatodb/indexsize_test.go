package staccatodb_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// TestIndexSmallerThanStore is the size gate: on the error-model corpus at
// the benchmark's dial (6,3), ingested in the benchmark's 256-document
// commits, the index log is no larger than the segments it indexes. A
// reopen then loads that log as it stands — no rebuild — into the index the
// writer held, and answers with the same results and the same SearchStats,
// early stops included: both sides carry the same quantized bounds.
func TestIndexSmallerThanStore(t *testing.T) {
	ctx := context.Background()
	cases, err := testgen.ErrDocs(512, testgen.ErrModelConfig{Seed: 1}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	var queries []*query.Query
	for _, c := range cases[:40] {
		for _, w := range strings.Fields(c.Truth) {
			if len(w) >= 5 {
				queries = append(queries, mustQ(query.Keyword(w)), mustQ(query.Fuzzy(w, 1)))
				break
			}
		}
	}
	type answer struct {
		Results []query.Result
		Stats   query.SearchStats
	}
	ask := func(db *staccatodb.DB) (out []answer, stopped int) {
		for _, q := range queries {
			res, stats, err := db.Search(ctx, q, query.SearchOptions{TopN: 3})
			if err != nil {
				t.Fatal(err)
			}
			if stats.EarlyStopped {
				stopped++
			}
			out = append(out, answer{res, stats})
		}
		return out, stopped
	}

	dir := t.TempDir()
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < len(docs); at += 256 {
		if err := db.Ingest(ctx, docs[at:at+256]); err != nil {
			t.Fatal(err)
		}
	}
	want, stopped := ask(db)
	if stopped == 0 {
		t.Fatal("no query stopped early; the comparison no longer covers the bounds")
	}
	st := db.Stats()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, index.FileName)
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexBytes != int64(len(log)) {
		t.Errorf("Stats.IndexBytes = %d, the log is %d bytes", st.IndexBytes, len(log))
	}
	if st.IndexBytes > st.DiskBytes {
		t.Errorf("the index log (%d bytes, %d per document) outweighs the segments it indexes (%d bytes, %d per document)",
			st.IndexBytes, st.IndexBytes/int64(len(docs)), st.DiskBytes, st.DiskBytes/int64(len(docs)))
	}
	t.Logf("index %d B/doc, store %d B/doc", st.IndexBytes/int64(len(docs)), st.DiskBytes/int64(len(docs)))

	// What the log loads to is what applying the same entries builds.
	loaded, _, err := index.Load(logPath, index.DefaultGramSize)
	if err != nil {
		t.Fatal(err)
	}
	built := index.New(index.DefaultGramSize)
	for _, d := range docs {
		built.Apply([]index.Entry{index.EntryFor(d, built.GramSize())}, nil)
	}
	if loaded.Stats() != built.Stats() || !bytes.Equal(snapshotOf(t, loaded), snapshotOf(t, built)) {
		t.Errorf("the loaded index (%+v) differs from one built from the documents (%+v)", loaded.Stats(), built.Stats())
	}

	db, err = staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, log) {
		t.Error("Open rewrote the index log: it rebuilt instead of loading")
	}
	if got, _ := ask(db); !reflect.DeepEqual(got, want) {
		t.Error("a reopened database answers differently from the one that wrote the index")
	}
}

// TestStatsReportIndexSize: IndexBytes follows the log through appends and
// a compaction, IndexPostings counts dead postings until one — deleting
// every document leaves them all and a log that only grew, since delete
// records are too small to reach the rewrite trigger, and Compact drops
// every one — and an in-memory database reports its in-memory log the
// same way.
func TestStatsReportIndexSize(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	logSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, index.FileName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	docs := docsOf(corpus(t, 20, 3))
	if err := db.Ingest(ctx, docs); err != nil {
		t.Fatal(err)
	}
	full := db.Stats()
	if full.IndexBytes != logSize() || full.IndexPostings == 0 {
		t.Fatalf("after an ingest: %+v, want index_bytes %d and some postings", full, logSize())
	}
	for _, d := range docs {
		if err := db.Delete(ctx, d.ID); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.IndexDocs != 0 || st.IndexPostings != full.IndexPostings || st.IndexBytes <= full.IndexBytes || st.IndexBytes != logSize() {
		t.Errorf("after deleting every document: %+v, want the dead postings still counted and a longer log than %d", st, full.IndexBytes)
	}
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.IndexPostings != 0 || st.IndexGrams != 0 || st.IndexBytes >= full.IndexBytes || st.IndexBytes != logSize() {
		t.Errorf("after Compact: %+v, want no postings and a shorter log than %+v", st, full)
	}

	// In memory the index log lives on the in-memory file system, and
	// OpenMem reports it exactly as a database over one the test holds.
	fsys := framelog.NewMemFS()
	held, err := staccatodb.OpenFS(fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	mem, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	for _, db := range []*staccatodb.DB{held, mem} {
		if err := db.Ingest(ctx, docs); err != nil {
			t.Fatal(err)
		}
	}
	log, err := fsys.ReadFile(index.FileName)
	if err != nil {
		t.Fatal(err)
	}
	if st := mem.Stats(); !st.IndexPersisted || st.IndexBytes != int64(len(log)) || st.IndexPostings != full.IndexPostings || st != held.Stats() {
		t.Errorf("in memory: %+v, want a persisted index of %d log bytes and %d postings", st, len(log), full.IndexPostings)
	}
}
