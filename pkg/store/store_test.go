package store_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
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

func TestMemStorePutGet(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	want := sampleDoc(t, "doc-1", 1)
	if err := st.Put(ctx, want); err != nil {
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
	st := store.NewMemStore()
	if err := st.Put(ctx, sampleDoc(t, "doc-1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(ctx, "doc-1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := st.Get(ctx, "doc-1"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Get after Delete = %v, want ErrNotFound", err)
	}
	if err := st.Delete(ctx, "doc-1"); err != nil {
		t.Errorf("Delete of missing ID = %v, want nil (idempotent)", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := st.Delete(cancelled, "x"); err == nil {
		t.Error("Delete ignored cancelled context")
	}
}

func TestMemStoreGetMissing(t *testing.T) {
	st := store.NewMemStore()
	_, err := st.Get(context.Background(), "nope")
	if !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestMemStorePutValidation(t *testing.T) {
	st := store.NewMemStore()
	if err := st.Put(context.Background(), &staccato.Doc{}); err == nil {
		t.Error("Put accepted a document with no ID")
	}
	if err := st.Put(context.Background(), nil); err == nil {
		t.Error("Put accepted nil")
	}
}

func TestMemStoreScanOrderAndStop(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	for i, id := range []string{"c", "a", "b"} {
		if err := st.Put(ctx, sampleDoc(t, id, int64(i+1))); err != nil {
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

// visitCounter wraps a DocStore and counts how many documents a Scan
// actually visits, so tests can prove early termination reached the
// backend rather than being filtered by the caller.
type visitCounter struct {
	store.DocStore
	visits int
}

func (v *visitCounter) Scan(ctx context.Context, fn func(*staccato.Doc) error) error {
	return v.DocStore.Scan(ctx, func(d *staccato.Doc) error {
		v.visits++
		return fn(d)
	})
}

func TestCountAndListIDs(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()

	n, err := store.Count(ctx, st)
	if err != nil || n != 0 {
		t.Fatalf("Count(empty) = %d, %v", n, err)
	}
	ids, err := store.ListIDs(ctx, st, 0)
	if err != nil || len(ids) != 0 {
		t.Fatalf("ListIDs(empty) = %v, %v", ids, err)
	}

	for i, id := range []string{"c", "a", "b", "d"} {
		if err := st.Put(ctx, sampleDoc(t, id, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if n, err = store.Count(ctx, st); err != nil || n != 4 {
		t.Errorf("Count = %d, %v, want 4", n, err)
	}
	if ids, err = store.ListIDs(ctx, st, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"a", "b", "c", "d"}) {
		t.Errorf("ListIDs = %v, want ascending IDs", ids)
	}
}

// TestListIDsStopsScanEarly is the ErrStopScan early-termination test:
// a limited listing must end the MemStore scan at the limit instead of
// visiting (and decoding) every document.
func TestListIDsStopsScanEarly(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	for i, id := range []string{"a", "b", "c", "d", "e"} {
		if err := st.Put(ctx, sampleDoc(t, id, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	counted := &visitCounter{DocStore: st}
	ids, err := store.ListIDs(ctx, counted, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"a", "b"}) {
		t.Errorf("ListIDs(limit=2) = %v, want [a b]", ids)
	}
	if counted.visits != 2 {
		t.Errorf("scan visited %d documents, want 2 (ErrStopScan must terminate the scan)", counted.visits)
	}
}

func TestMemStoreContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := store.NewMemStore()
	if err := st.Put(ctx, sampleDoc(t, "d", 1)); err == nil {
		t.Error("Put ignored cancelled context")
	}
	if _, err := st.Get(ctx, "d"); err == nil {
		t.Error("Get ignored cancelled context")
	}
}

// TestMemStoreListDocIDs covers DocStore.ListDocIDs on the reference
// backend: ascending order, no decode, deletes reflected.
func TestMemStoreListDocIDs(t *testing.T) {
	ctx := context.Background()
	m := store.NewMemStore()
	for _, id := range []string{"b", "a", "c"} {
		if err := m.Put(ctx, sampleDoc(t, id, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	ids, err := m.ListDocIDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"b", "c"}) {
		t.Errorf("ListDocIDs = %v, want [b c]", ids)
	}
}
