package index_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
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
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// logShape reads an index log's frames: the length of its header and
// base commit together, and how many commits follow the base.
func logShape(t *testing.T, log []byte) (base int64, commits int) {
	t.Helper()
	r := framelog.NewReader(bytes.NewReader(log), int64(len(log)))
	for frames := 0; ; frames++ {
		_, err := r.Next()
		if err == io.EOF {
			return base, frames - 2
		}
		if err != nil {
			t.Fatalf("the index log is damaged after frame %d: %v", frames, err)
		}
		if frames == 1 {
			base = r.Offset()
		}
	}
}

// TestLogRewritesItself drives random puts, overwrites and deletes
// through a database whose index log rewrites itself past a lowered
// floor. After every write the log is within its trigger — 3/2 of its
// base, or the floor — because the commit that passes it is folded into a
// rewrite. After a close and reopen the log loads as it stands, and every
// search, in every mode it runs, equals the same search WithoutIndex.
func TestLogRewritesItself(t *testing.T) {
	const floor, ids, steps = 8 << 10, 96, 240
	index.SetRewriteFloor(t, floor)
	cases, err := testgen.ErrDocs(160, testgen.ErrModelConfig{Seed: 17}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*query.Query
	for _, c := range cases[:40] {
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
		f := mustQuery(t)(query.Fuzzy(words[0], 1))
		// An And over an Or or a fuzzy term intersects a union answered
		// per part of the index.
		queries = append(queries, a, b, f, query.And(a, b), query.Or(a, b), query.Not(a), query.And(b, query.Or(a, f)), query.And(b, f))
	}
	searchOpts := []query.SearchOptions{{}, {TopN: 5}}

	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, index.FileName)
	open := func(opts ...staccatodb.Option) *staccatodb.DB {
		t.Helper()
		db, err := staccatodb.Open(dir, append(opts, staccatodb.WithNoSync())...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	readLog := func() []byte {
		t.Helper()
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	// reopenMatchesScan closes db, answers every search WithoutIndex,
	// and reopens with the index: the log must load unchanged, and answer
	// the same.
	reopenMatchesScan := func(db *staccatodb.DB, when string) *staccatodb.DB {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		log := readLog()
		if _, commits := logShape(t, log); commits == 0 {
			t.Fatalf("%s: the log is a bare base, so a rebuild could not be told from a load", when)
		}
		scan := open(staccatodb.WithoutIndex())
		var want [][]query.Result
		for _, q := range queries {
			for _, opts := range searchOpts {
				res, _, err := scan.Search(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, res)
			}
		}
		scan.Close()
		db = open()
		if !bytes.Equal(readLog(), log) {
			t.Fatalf("%s: the reopen rebuilt the index instead of loading its log", when)
		}
		modes, i := map[query.ExecMode]int{}, 0
		for _, q := range queries {
			for _, opts := range searchOpts {
				res, stats, err := db.Search(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				modes[stats.Mode]++
				if !reflect.DeepEqual(res, want[i]) {
					t.Fatalf("%s: %s %+v: indexed search differs from the scan\n indexed: %+v\n scan:    %+v", when, q, opts, res, want[i])
				}
				i++
			}
		}
		for _, m := range []query.ExecMode{query.ExecScan, query.ExecCandidateOnly, query.ExecTopK} {
			if modes[m] == 0 {
				t.Fatalf("%s: no search ran %s (modes %v); the battery no longer covers it", when, m, modes)
			}
		}
		return db
	}

	rng := rand.New(rand.NewSource(5))
	db := open()
	defer func() { db.Close() }()
	rewrites, lastBase := 0, []byte(nil)
	for step := 1; step <= steps; step++ {
		if rng.Intn(5) == 0 {
			if err := db.Delete(ctx, fmt.Sprintf("id-%03d", rng.Intn(ids))); err != nil {
				t.Fatal(err)
			}
		} else {
			puts := make([]*staccato.Doc, 1+rng.Intn(8))
			for i := range puts {
				d := *cases[rng.Intn(len(cases))].Doc
				d.ID = fmt.Sprintf("id-%03d", rng.Intn(ids))
				puts[i] = &d
			}
			if err := db.Ingest(ctx, puts); err != nil {
				t.Fatal(err)
			}
		}
		log := readLog()
		base, _ := logShape(t, log)
		if trigger := max(base*3/2, floor); int64(len(log)) > trigger {
			t.Fatalf("step %d: the log is %d bytes, past its trigger of %d (base %d)", step, len(log), trigger, base)
		}
		if st := db.Stats(); st.IndexBytes != int64(len(log)) || !st.IndexPersisted {
			t.Fatalf("step %d: %+v, want a persisted index of %d log bytes", step, st, len(log))
		}
		if !bytes.Equal(log[:base], lastBase) {
			rewrites++
			lastBase = log[:base]
		}
		if step%(steps/3) == 0 {
			if _, commits := logShape(t, log); commits == 0 {
				d := *cases[0].Doc
				d.ID = "extra"
				if err := db.Put(ctx, &d); err != nil {
					t.Fatal(err)
				}
			}
			db = reopenMatchesScan(db, fmt.Sprintf("after step %d", step))
		}
	}
	if rewrites < 10 {
		t.Fatalf("the log was rewritten %d times; the test needs the floor low enough for many", rewrites)
	}
}

// TestDeletesRewriteTheLog commits documents in one batch and then
// deletes every one, a commit each. A delete record is a few bytes, so
// the log never grows past 3/2 of its base; the deletes rewrite it once
// more than half of the index's ordinals are dead, and so the deleted
// documents' postings go without a Persist.
func TestDeletesRewriteTheLog(t *testing.T) {
	index.SetRewriteFloor(t, 1)
	cases, err := testgen.ErrDocs(64, testgen.ErrModelConfig{Seed: 3}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(framelog.NewMemFS(), index.FileName, diskstore.CommitState{}, false, func(*index.Index) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	st := diskstore.CommitState{Ops: 1}
	if err := ix.Commit(ix.BatchOf(docs, 1), nil, st); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		st.Ops++
		if err := ix.Commit(ix.BatchOf(nil, 1), []string{d.ID}, st); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Stats(); got.Docs != 0 || got.Postings != 0 || got.LogBytes == 0 {
		t.Fatalf("after deleting every document: %+v, want no postings in a persisted index", got)
	}
}
