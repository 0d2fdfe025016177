package store_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

func sampleDoc(t *testing.T, id string, seed int64) *staccato.Doc {
	t.Helper()
	_, f := testgen.MustGenerate(testgen.Config{Length: 20, Seed: seed})
	d, err := staccato.Build(f, id, 4, 3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

func TestCodecRoundTrip(t *testing.T) {
	want := sampleDoc(t, "doc-7", 7)
	data, err := store.Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := store.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	good, err := store.Encode(sampleDoc(t, "d", 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0xFF),
	}
	for name, data := range cases {
		if _, err := store.Decode(data); err == nil {
			t.Errorf("%s: Decode accepted invalid input", name)
		}
	}
}

// newMemStore returns an empty in-memory store: a diskstore over an
// in-memory file system.
func newMemStore(t *testing.T) *diskstore.Store {
	t.Helper()
	st, err := diskstore.OpenFS(framelog.NewMemFS(), "", diskstore.Options{})
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// commitPuts stores docs in st as one batch.
func commitPuts(ctx context.Context, st *diskstore.Store, docs ...*staccato.Doc) error {
	b := st.Batch()
	for _, d := range docs {
		if err := b.Put(d); err != nil {
			return err
		}
	}
	return b.Commit(ctx)
}

// commitDeletes deletes ids from st as one batch.
func commitDeletes(ctx context.Context, st *diskstore.Store, ids ...string) error {
	b := st.Batch()
	for _, id := range ids {
		b.Delete(id)
	}
	return b.Commit(ctx)
}

func TestMemStorePutGet(t *testing.T) {
	ctx := context.Background()
	st := newMemStore(t)
	want := sampleDoc(t, "doc-1", 1)
	if err := commitPuts(ctx, st, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := st.Get(ctx, "doc-1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Get returned a different document than Put stored")
	}
	// The store must not alias the caller's document.
	want.Chunks[0].Alts[0].Text = "mutated"
	got2, err := st.Get(ctx, "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Chunks[0].Alts[0].Text == "mutated" {
		t.Error("store aliased the caller's document")
	}
}

func TestMemStoreDelete(t *testing.T) {
	ctx := context.Background()
	st := newMemStore(t)
	if err := commitPuts(ctx, st, sampleDoc(t, "doc-1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := commitDeletes(ctx, st, "doc-1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := st.Get(ctx, "doc-1"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Get after Delete = %v, want ErrNotFound", err)
	}
	if err := commitDeletes(ctx, st, "doc-1"); err != nil {
		t.Errorf("Delete of missing ID = %v, want nil (idempotent)", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := commitDeletes(cancelled, st, "x"); err == nil {
		t.Error("Delete ignored cancelled context")
	}
}

func TestMemStorePutValidation(t *testing.T) {
	st := newMemStore(t)
	if err := commitPuts(context.Background(), st, &staccato.Doc{}); err == nil {
		t.Error("Put accepted a document with no ID")
	}
	if err := commitPuts(context.Background(), st, nil); err == nil {
		t.Error("Put accepted nil")
	}
}

func TestMemStoreScanOrderAndStop(t *testing.T) {
	ctx := context.Background()
	st := newMemStore(t)
	for i, id := range []string{"c", "a", "b"} {
		if err := commitPuts(ctx, st, sampleDoc(t, id, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	var seen []string
	if err := st.Scan(ctx, func(d *staccato.Doc) error {
		seen = append(seen, d.ID)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !reflect.DeepEqual(seen, []string{"a", "b", "c"}) {
		t.Errorf("Scan order = %v, want ascending IDs", seen)
	}

	seen = nil
	if err := st.Scan(ctx, func(d *staccato.Doc) error {
		seen = append(seen, d.ID)
		return store.ErrStopScan
	}); err != nil {
		t.Fatalf("Scan with stop: %v", err)
	}
	if len(seen) != 1 {
		t.Errorf("ErrStopScan did not end the scan: visited %v", seen)
	}

	wantErr := errors.New("boom")
	if err := st.Scan(ctx, func(d *staccato.Doc) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("Scan error = %v, want %v", err, wantErr)
	}
}

// errModelDoc encodes one (6,3) document of the error-model corpus.
func errModelDoc(t testing.TB) []byte {
	t.Helper()
	cases, err := testgen.ErrDocs(1, testgen.ErrModelConfig{Seed: 1}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := store.Encode(cases[0].Doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeAllocs pins Decode's allocation shape: the document, its ID,
// one copy of the record and one backing array each for the chunks and
// the alternatives — not one string per alternative.
func TestDecodeAllocs(t *testing.T) {
	data := errModelDoc(t)
	doc, err := store.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	alts := 0
	for _, ch := range doc.Chunks {
		alts += len(ch.Alts)
	}
	if len(doc.Chunks) != 6 || alts < 12 {
		t.Fatalf("test document has %d chunks and %d alternatives; the test means a (6,3) document", len(doc.Chunks), alts)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := store.Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if n > 5 {
		t.Errorf("Decode of a %d-alternative document takes %v allocations, want at most 5", alts, n)
	}
}

func BenchmarkDecode(b *testing.B) {
	data := errModelDoc(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := store.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
