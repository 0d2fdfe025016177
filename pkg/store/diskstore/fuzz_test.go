package diskstore_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// FuzzSegmentReplay drives arbitrary bytes through the segment replay
// path — the record framing (length, crc, payload kind/id parsing) that
// guards every Open. The contract: Open either succeeds (truncating a
// torn tail) or returns an error; it never panics, and a store Open
// accepted must reopen to the same live-document count (replay's
// truncation must normalize the file, not keep re-interpreting damage).
// Seed corpus: testdata/fuzz/FuzzSegmentReplay (a real segment with
// puts and a tombstone, plus torn and bit-flipped variants),
// regenerated by scripts/gen_fuzz_seeds.go.
func FuzzSegmentReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		manifest := "staccato-diskstore v1\n1\n"
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := diskstore.Open(dir, diskstore.Options{})
		if err != nil {
			return // rejected (interior corruption), cleanly
		}
		live := st.Len()
		// Replay validated framing, not document payloads: Scan may error
		// on a fuzzer-crafted record whose doc bytes don't decode — that
		// is fine, as long as it doesn't panic.
		_ = st.Scan(context.Background(), func(d *staccato.Doc) error { return nil })
		if err := st.Close(); err != nil {
			t.Fatalf("Close after successful Open failed: %v", err)
		}
		st2, err := diskstore.Open(dir, diskstore.Options{})
		if err != nil {
			t.Fatalf("reopen after a successful Open failed: %v", err)
		}
		defer st2.Close()
		if st2.Len() != live {
			t.Fatalf("reopen changed the live count: %d -> %d", live, st2.Len())
		}
	})
}

// FuzzGetBatchMatchesGet holds GetBatch — sorted, run-coalesced reads
// sliced out of one buffer per run — to per-ID Get. The input's first
// byte is an op count; that many (op, id) byte pairs then drive puts,
// overwrites, multi-put batches, deletes and Compact against an
// in-memory store whose tiny segments roll every few records; every byte
// after them names an ID to fetch, mixing live, deleted, never-written
// and repeated IDs. GetBatch must equal Get slot by slot: nil where Get
// reports ErrNotFound, an identical document everywhere else; ViewBatch
// must visit exactly the slots Get finds, once each, with views holding
// Get's texts and probabilities. After every op ListDocIDs must equal the
// sorted live set, in a copy the caller may scribble on.
func FuzzGetBatchMatchesGet(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 1, 4, 1, 2, 3, 4, 2, 1})
	f.Add([]byte{6, 1, 0, 1, 5, 2, 3, 4, 0, 0, 3, 1, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 3, 3, 19})
	f.Add([]byte{3, 1, 7, 0, 7, 4, 7, 7, 7, 6, 8, 7})
	var pool []*staccato.Doc
	for i := 0; i < 8; i++ {
		_, fst := testgen.MustGenerate(testgen.Config{Length: 16, Seed: int64(i + 1)})
		d, err := staccato.Build(fst, "", 3, 2)
		if err != nil {
			f.Fatal(err)
		}
		pool = append(pool, d)
	}
	// doc returns pool document v under id; Put does not retain it.
	doc := func(id string, v int) *staccato.Doc {
		d := *pool[v%len(pool)]
		d.ID = id
		return &d
	}
	const ids = 20 // ops name 16 of them, so 4 are never written
	idOf := func(b byte) string { return fmt.Sprintf("d%02d", int(b)%ids) }
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		st, err := diskstore.OpenMem(diskstore.Options{MaxSegmentBytes: 512, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if len(data) == 0 {
			return
		}
		nOps := int(data[0]) % 32
		data = data[1:]
		live := map[string]bool{}
		for i := 0; i < nOps && len(data) >= 2; i++ {
			op, arg := data[0], data[1]
			data = data[2:]
			id := idOf(arg % 16)
			switch op % 5 {
			case 0, 1: // put, or overwrite if id is live
				err = st.Put(ctx, doc(id, int(op)))
				live[id] = true
			case 2: // a batch of puts, which can roll segments mid-commit
				b := st.Batch()
				var put []string
				for j := 0; j < 1+int(op)%4 && err == nil; j++ {
					put = append(put, idOf((arg+byte(j))%16))
					err = b.Put(doc(put[j], int(op)+j))
				}
				if err == nil {
					err = b.Commit(ctx)
				}
				for _, id := range put {
					live[id] = true
				}
			case 3:
				err = st.Delete(ctx, id)
				delete(live, id)
			case 4:
				err = st.Compact(ctx)
			}
			if err != nil {
				t.Fatalf("op %d (%d on %s): %v", i, op%5, id, err)
			}
			listed, err := st.ListDocIDs(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := slices.Sorted(maps.Keys(live)); !slices.Equal(listed, want) {
				t.Fatalf("after op %d (%d on %s): ListDocIDs = %v, want %v", i, op%5, id, listed, want)
			}
			if len(listed) > 0 {
				listed[0] = "scribbled"
				if again, err := st.ListDocIDs(ctx); err != nil || again[0] == "scribbled" {
					t.Fatalf("after op %d: ListDocIDs handed out its own listing (%v, %v)", i, again, err)
				}
			}
		}
		want := make([]string, len(data))
		for i, b := range data {
			want[i] = idOf(b)
		}
		got, err := st.GetBatch(ctx, want)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GetBatch returned %d docs for %d ids", len(got), len(want))
		}
		for i, id := range want {
			d, err := st.Get(ctx, id)
			switch {
			case errors.Is(err, store.ErrNotFound):
				if got[i] != nil {
					t.Fatalf("slot %d: GetBatch returned a document for %s, which Get does not find", i, id)
				}
			case err != nil:
				t.Fatalf("Get %s: %v", id, err)
			case !reflect.DeepEqual(got[i], d):
				t.Fatalf("slot %d: GetBatch and Get disagree on %s", i, id)
			}
		}
		visited := make([]bool, len(want))
		err = st.ViewBatch(ctx, want, func(i int, v *store.View) error {
			if visited[i] {
				return fmt.Errorf("slot %d visited twice", i)
			}
			visited[i] = true
			if got[i] == nil {
				return fmt.Errorf("slot %d: ViewBatch visited %s, which Get does not find", i, want[i])
			}
			if texts, probs := viewAlts(v); !slices.Equal(texts, docTexts(got[i])) || !slices.Equal(probs, docProbs(got[i])) {
				return fmt.Errorf("slot %d: ViewBatch and Get disagree on %s", i, want[i])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range got {
			if d != nil && !visited[i] {
				t.Fatalf("slot %d: ViewBatch skipped %s, which Get finds", i, want[i])
			}
		}
	})
}

// viewAlts lists a view's alternatives, chunk by chunk: each text, and
// each probability's bits. A chunk ends in a "|" text.
func viewAlts(v *store.View) (texts []string, probs []uint64) {
	lo := 0
	for _, hi := range v.Ends {
		for a := lo; a < hi; a++ {
			texts = append(texts, string(v.Data[v.Spans[2*a]:v.Spans[2*a+1]]))
			probs = append(probs, math.Float64bits(v.Probs[a]))
		}
		texts = append(texts, "|")
		lo = hi
	}
	return texts, probs
}

// docTexts and docProbs list d's alternatives the way viewAlts does.
func docTexts(d *staccato.Doc) (texts []string) {
	for _, ch := range d.Chunks {
		for _, alt := range ch.Alts {
			texts = append(texts, alt.Text)
		}
		texts = append(texts, "|")
	}
	return texts
}

func docProbs(d *staccato.Doc) (probs []uint64) {
	for _, ch := range d.Chunks {
		for _, alt := range ch.Alts {
			probs = append(probs, math.Float64bits(alt.Prob))
		}
	}
	return probs
}
