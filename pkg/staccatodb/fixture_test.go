package staccatodb_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/internal/refsearch"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// fixtureDir holds a committed store and its INDEX log, written by
// writeFixture and regenerated only by -update.
var fixtureDir = filepath.Join("testdata", "fixture")

// writeFixture runs the fixed write sequence the fixture store records
// onto fsys: 64 error-model documents at (6,3) in 2 KiB segments, with
// puts, overwrites and deletes, a Compact midway — so that its INDEX is a
// rewritten base — and more of each after it, which the log holds as the
// commits that follow the base. It returns the documents' truths.
func writeFixture(t *testing.T, fsys framelog.FS) []string {
	t.Helper()
	ctx := context.Background()
	cases, err := testgen.ErrDocs(64, testgen.ErrModelConfig{Seed: 23}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	docs := docsOf(cases)
	truths := make([]string, len(cases))
	for i, c := range cases {
		truths[i] = c.Truth
	}
	// renamed is docs[i] under the ID of docs[j]: an overwrite of j.
	renamed := func(i, j int) *staccato.Doc {
		d := *docs[i]
		d.ID = docs[j].ID
		return &d
	}
	db, err := staccatodb.OpenFS(fsys, staccatodb.WithMaxSegmentBytes(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return db.Ingest(ctx, docs[:24]) },
		func() error { return db.Put(ctx, docs[24]) },
		func() error { return db.Ingest(ctx, []*staccato.Doc{renamed(25, 3), renamed(26, 7), docs[27]}) },
		func() error { return db.Delete(ctx, docs[5].ID) },
		func() error { return db.Ingest(ctx, docs[28:40]) },
		func() error { return db.Delete(ctx, docs[11].ID) },
		func() error { return db.Compact(ctx) },
		func() error { return db.Ingest(ctx, docs[40:52]) },
		func() error { return db.Put(ctx, renamed(52, 30)) },
		func() error { return db.Delete(ctx, docs[14].ID) },
		func() error { return db.Ingest(ctx, append(docs[53:64:64], renamed(0, 41))) },
		func() error { return db.Delete(ctx, docs[44].ID) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return truths
}

// readFiles returns every file at the root of fsys by name.
func readFiles(t *testing.T, fsys framelog.FS) map[string][]byte {
	t.Helper()
	names, err := fsys.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		if out[name], err = fsys.ReadFile(name); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestFixtureStore pins the on-disk store and INDEX across builds. A copy
// of the committed fixture must open with its INDEX loaded, not rebuilt —
// Open leaves the log's bytes as they are — and answer like the
// reference filescan; and rerunning the sequence that wrote it must write
// the same files, byte for byte. An intended change of the store or
// INDEX format regenerates it, with go test ./pkg/staccatodb -run
// TestFixtureStore -update; a refactor must leave it as it is.
func TestFixtureStore(t *testing.T) {
	mem := framelog.NewMemFS()
	truths := writeFixture(t, mem)
	written := readFiles(t, mem)
	if *update {
		if err := os.RemoveAll(fixtureDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(fixtureDir, 0o755); err != nil {
			t.Fatal(err)
		}
		size := 0
		for name, data := range written {
			if err := os.WriteFile(filepath.Join(fixtureDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			size += len(data)
		}
		t.Logf("wrote %d files, %d bytes, to %s", len(written), size, fixtureDir)
		return
	}
	t.Run("rerun writes the same bytes", func(t *testing.T) {
		names, err := os.ReadDir(fixtureDir)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		var want []string
		for _, e := range names {
			want = append(want, e.Name())
		}
		var got []string
		for name := range written {
			got = append(got, name)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("the sequence wrote files %v, the fixture holds %v", got, want)
		}
		for _, name := range want {
			data, err := os.ReadFile(filepath.Join(fixtureDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(written[name], data) {
				t.Errorf("%s: the sequence wrote %d bytes that differ from the fixture's %d", name, len(written[name]), len(data))
			}
		}
	})
	t.Run("the committed store opens and loads its INDEX", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(fixtureDir)); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(filepath.Join(dir, index.FileName))
		if err != nil {
			t.Fatal(err)
		}
		db, err := staccatodb.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if after, _ := os.ReadFile(filepath.Join(dir, index.FileName)); !bytes.Equal(after, before) {
			t.Fatal("Open rewrote the fixture's INDEX: it rebuilt instead of loading")
		}
		st := db.Stats()
		if !st.IndexPersisted || st.IndexDocs != st.Docs || st.Docs != 57 {
			t.Fatalf("stats %+v, want 57 live documents, all indexed, persisted", st)
		}
		ctx := context.Background()
		for _, q := range append(randomQueries(truths, 3, 24), fixtureQueries()...) {
			for _, opts := range []query.SearchOptions{{}, {TopN: 5}} {
				got, _, err := db.Search(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refsearch.Search(ctx, db.Store(), q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: the fixture answers %+v, the reference %+v", q, opts, got, want)
				}
			}
		}
	})
}

// fixtureQueries are keyword and substring queries on the error model's
// vocabulary, which plan to the index, beside randomQueries' short ones.
func fixtureQueries() []*query.Query {
	var out []*query.Query
	for i, w := range testgen.Vocab(200)[:16] {
		out = append(out, mustQ(query.Keyword(w)), mustQ(query.Substring(w[:min(len(w), 3+i%3)])))
	}
	return append(out, query.And(out[0], out[2]), query.Or(out[4], out[7]))
}
