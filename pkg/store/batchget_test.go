package store_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// TestMemStoreGetBatch checks the GetBatch contract on the reference
// implementation: output aligned with input, nil slots for missing IDs,
// duplicates allowed, and value semantics (no aliasing of stored state).
func TestMemStoreGetBatch(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	docs := make([]*staccato.Doc, 5)
	for i := range docs {
		docs[i] = sampleDoc(t, fmt.Sprintf("doc-%d", i), int64(i+1))
		if err := st.Put(ctx, docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ids := []string{"doc-3", "missing", "doc-0", "doc-3"}
	got, err := st.GetBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("GetBatch returned %d docs for %d ids", len(got), len(ids))
	}
	if got[1] != nil {
		t.Errorf("missing ID filled: %+v", got[1])
	}
	if !reflect.DeepEqual(got[0], docs[3]) || !reflect.DeepEqual(got[2], docs[0]) || !reflect.DeepEqual(got[3], docs[3]) {
		t.Errorf("GetBatch misaligned: %+v", got)
	}
	if got[0] == got[3] {
		t.Error("duplicate IDs alias the same decoded document")
	}

	// An empty batch is a no-op, not an error.
	if out, err := st.GetBatch(ctx, nil); err != nil || len(out) != 0 {
		t.Errorf("GetBatch(nil) = %v, %v", out, err)
	}

	// Context errors surface.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := st.GetBatch(cancelled, ids); err == nil {
		t.Error("GetBatch on a cancelled context succeeded")
	}
}

// TestMemStoreGetBatchMatchesGet: batch and point reads must return
// byte-identical documents.
func TestMemStoreGetBatchMatchesGet(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	var ids []string
	for i := 0; i < 8; i++ {
		d := sampleDoc(t, fmt.Sprintf("d-%02d", i), int64(40+i))
		if err := st.Put(ctx, d); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, d.ID)
	}
	batch, err := st.GetBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		point, err := st.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], point) {
			t.Errorf("%s: batch %+v != point %+v", id, batch[i], point)
		}
	}
}
