package diskstore_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

func batchDoc(t *testing.T, id string, seed int64) *staccato.Doc {
	t.Helper()
	_, f := testgen.MustGenerate(testgen.Config{Length: 20, Seed: seed})
	d, err := staccato.Build(f, id, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestGetBatchAcrossSegments forces the store across several segment
// files (tiny MaxSegmentBytes), then batch-reads IDs deliberately
// shuffled out of on-disk order — the offset-sorting path — plus a
// missing ID, a deleted ID, and a duplicate.
func TestGetBatchAcrossSegments(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := diskstore.Open(dir, diskstore.Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 12
	want := make(map[string]*staccato.Doc, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc-%02d", i)
		d := batchDoc(t, id, int64(i+1))
		if err := st.Put(ctx, d); err != nil {
			t.Fatal(err)
		}
		want[id] = d
	}
	if st.Stats().Segments < 2 {
		t.Fatalf("corpus fits one segment (%d); shrink MaxSegmentBytes", st.Stats().Segments)
	}
	if err := st.Delete(ctx, "doc-05"); err != nil {
		t.Fatal(err)
	}

	ids := []string{"doc-11", "doc-00", "doc-07", "nope", "doc-05", "doc-03", "doc-11"}
	got, err := st.GetBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("GetBatch returned %d docs for %d ids", len(got), len(ids))
	}
	for i, id := range ids {
		if id == "nope" || id == "doc-05" {
			if got[i] != nil {
				t.Errorf("slot %d (%s): want nil, got %+v", i, id, got[i])
			}
			continue
		}
		if !reflect.DeepEqual(got[i], want[id]) {
			t.Errorf("slot %d (%s): mismatch", i, id)
		}
	}

	// Batch reads survive a reopen (refs rebuilt by replay).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := diskstore.Open(dir, diskstore.Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	again, err := st2.GetBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Fatal("GetBatch after reopen differs")
	}
}

// TestGetBatchClosed: a closed store reports ErrClosed, not a panic on
// closed file handles.
func TestGetBatchClosed(t *testing.T) {
	ctx := context.Background()
	st, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, batchDoc(t, "d", 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBatch(ctx, []string{"d"}); !errors.Is(err, diskstore.ErrClosed) {
		t.Fatalf("GetBatch on closed store: err = %v, want ErrClosed", err)
	}
}

// TestGetBatchAlignment holds GetBatch to the DocStore contract on both
// file systems: out[i] answers ids[i], a missing ID is a nil slot, a
// duplicate ID decodes twice rather than aliasing one document, an empty
// batch is no error, and every slot equals the point Get.
func TestGetBatchAlignment(t *testing.T) {
	eachFS(t, diskstore.Options{}, func(t *testing.T, st *diskstore.Store) {
		ctx := context.Background()
		for i := 0; i < 5; i++ {
			if err := st.Put(ctx, batchDoc(t, fmt.Sprintf("doc-%d", i), int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		ids := []string{"doc-3", "missing", "doc-0", "doc-3"}
		got, err := st.GetBatch(ctx, ids)
		if err != nil || len(got) != len(ids) {
			t.Fatalf("GetBatch = %d docs, %v; want %d", len(got), err, len(ids))
		}
		for i, id := range ids {
			point, err := st.Get(ctx, id)
			if id == "missing" {
				if got[i] != nil || err == nil {
					t.Errorf("slot %d (%s) = %+v, Get err %v; want nil and an error", i, id, got[i], err)
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(got[i], point) {
				t.Errorf("slot %d (%s): batch %+v != point %+v (err %v)", i, id, got[i], point, err)
			}
		}
		if got[0] == got[3] {
			t.Error("duplicate IDs alias the same decoded document")
		}
		if out, err := st.GetBatch(ctx, nil); err != nil || len(out) != 0 {
			t.Errorf("GetBatch(nil) = %v, %v", out, err)
		}
	})
}
