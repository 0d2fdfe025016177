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

	"github.com/paper-repo/staccato-go/internal/framelog"
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

// FuzzGetBatchMatchesGet holds the store's reads — Get, GetBatch,
// ViewBatch and Scan, all served by one reader — to a map model of the
// writes. The input's first byte is an op count; that many (op, id) byte
// pairs then drive puts, overwrites, multi-put batches, deletes, Compact
// and byte flips against an in-memory store whose tiny segments roll
// every few records; every byte after them names an ID to fetch, mixing
// live, deleted, never-written, damaged and repeated IDs. A flip inverts
// one byte, header bytes included, of a live record's frame: until the
// ID is written again or deleted, every read that meets the record is
// ErrCorrupt, and so is Compact, which must leave the store as it was.
// Every other read equals the model: Get and GetBatch a document where
// the model has one and ErrNotFound or nil where it has none, ViewBatch
// each of the model's slots once with its texts and probabilities, and
// Scan the model in ascending ID order. After every op ListDocIDs must
// equal the model's sorted IDs, in a copy the caller may scribble on.
func FuzzGetBatchMatchesGet(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 1, 4, 1, 2, 3, 4, 2, 1})
	f.Add([]byte{6, 1, 0, 1, 5, 2, 3, 4, 0, 0, 3, 1, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 3, 3, 19})
	f.Add([]byte{3, 1, 7, 0, 7, 4, 7, 7, 7, 6, 8, 7})
	f.Add([]byte{5, 2, 4, 5, 5, 11, 6, 4, 0, 0, 1, 4, 5, 6, 7, 8})
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
		fsys := framelog.NewMemFS()
		st, err := diskstore.OpenFS(fsys, "", diskstore.Options{MaxSegmentBytes: 512, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if len(data) == 0 {
			return
		}
		nOps := int(data[0]) % 32
		data = data[1:]
		model := map[string]*staccato.Doc{}
		damaged := map[string]bool{}
		put := func(d *staccato.Doc) {
			model[d.ID] = d
			delete(damaged, d.ID)
		}
		for i := 0; i < nOps && len(data) >= 2; i++ {
			op, arg := data[0], data[1]
			data = data[2:]
			id := idOf(arg % 16)
			switch op % 6 {
			case 0, 1: // put, or overwrite if id is live
				d := doc(id, int(op))
				if err = commitPuts(ctx, st, d); err == nil {
					put(d)
				}
			case 2: // a batch of puts, which can roll segments mid-commit
				b := st.Batch()
				var docs []*staccato.Doc
				for j := 0; j < 1+int(op)%4 && err == nil; j++ {
					docs = append(docs, doc(idOf((arg+byte(j))%16), int(op)+j))
					err = b.Put(docs[j])
				}
				if err == nil {
					err = b.Commit(ctx)
				}
				for _, d := range docs {
					put(d)
				}
			case 3:
				err = commitDeletes(ctx, st, id)
				delete(model, id)
				delete(damaged, id)
			case 4:
				err = st.Compact(ctx)
				if len(damaged) > 0 {
					if !errors.Is(err, diskstore.ErrCorrupt) {
						t.Fatalf("op %d: Compact over damaged records %v = %v, want ErrCorrupt", i, damaged, err)
					}
					err = nil
				}
			case 5: // flip one byte of a live, undamaged record's frame
				if model[id] == nil || damaged[id] {
					break
				}
				path, off, n, ok := st.FrameOf(id)
				if !ok {
					t.Fatalf("op %d: the store has no record for live %s", i, id)
				}
				err = flipByte(fsys, path, off+int64((int(op)/6*256+int(arg))%n))
				damaged[id] = true
			}
			if err != nil {
				t.Fatalf("op %d (%d on %s): %v", i, op%6, id, err)
			}
			listed, err := st.ListDocIDs(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := slices.Sorted(maps.Keys(model)); !slices.Equal(listed, want) {
				t.Fatalf("after op %d (%d on %s): ListDocIDs = %v, want %v", i, op%6, id, listed, want)
			}
			if len(listed) > 0 {
				listed[0] = "scribbled"
				if again, err := st.ListDocIDs(ctx); err != nil || again[0] == "scribbled" {
					t.Fatalf("after op %d: ListDocIDs handed out its own listing (%v, %v)", i, again, err)
				}
			}
		}

		want := make([]string, len(data))
		anyDamaged := false
		for i, b := range data {
			want[i] = idOf(b)
			anyDamaged = anyDamaged || damaged[want[i]]
		}
		for _, id := range want {
			d, err := st.Get(ctx, id)
			switch {
			case damaged[id]:
				if !errors.Is(err, diskstore.ErrCorrupt) {
					t.Fatalf("Get of damaged %s = %v, want ErrCorrupt", id, err)
				}
			case model[id] == nil:
				if !errors.Is(err, store.ErrNotFound) {
					t.Fatalf("Get of absent %s = %v, want ErrNotFound", id, err)
				}
			case err != nil:
				t.Fatalf("Get %s: %v", id, err)
			case !reflect.DeepEqual(d, model[id]):
				t.Fatalf("Get %s differs from the document written", id)
			}
		}

		got, err := st.GetBatch(ctx, want)
		switch {
		case anyDamaged:
			if !errors.Is(err, diskstore.ErrCorrupt) {
				t.Fatalf("GetBatch over damaged records = %v, want ErrCorrupt", err)
			}
		case err != nil:
			t.Fatal(err)
		case len(got) != len(want):
			t.Fatalf("GetBatch returned %d docs for %d ids", len(got), len(want))
		default:
			for i, id := range want {
				if m := model[id]; (m == nil) != (got[i] == nil) || m != nil && !reflect.DeepEqual(got[i], m) {
					t.Fatalf("slot %d: GetBatch of %s differs from the model", i, id)
				}
			}
		}

		visited := make([]bool, len(want))
		err = st.ViewBatch(ctx, want, func(i int, v *store.View) error {
			if visited[i] {
				return fmt.Errorf("slot %d visited twice", i)
			}
			visited[i] = true
			m := model[want[i]]
			if m == nil {
				return fmt.Errorf("slot %d: ViewBatch visited %s, which the model does not hold", i, want[i])
			}
			if texts, probs := viewAlts(v); !slices.Equal(texts, docTexts(m)) || !slices.Equal(probs, docProbs(m)) {
				return fmt.Errorf("slot %d: ViewBatch of %s differs from the model", i, want[i])
			}
			return nil
		})
		switch {
		case anyDamaged:
			if !errors.Is(err, diskstore.ErrCorrupt) {
				t.Fatalf("ViewBatch over damaged records = %v, want ErrCorrupt", err)
			}
		case err != nil:
			t.Fatal(err)
		default:
			for i, id := range want {
				if model[id] != nil && !visited[i] {
					t.Fatalf("slot %d: ViewBatch skipped %s, which the model holds", i, id)
				}
			}
		}

		var scanned []string
		err = st.Scan(ctx, func(d *staccato.Doc) error {
			if !reflect.DeepEqual(d, model[d.ID]) {
				return fmt.Errorf("Scan of %s differs from the model", d.ID)
			}
			scanned = append(scanned, d.ID)
			return nil
		})
		switch {
		case len(damaged) > 0:
			if !errors.Is(err, diskstore.ErrCorrupt) {
				t.Fatalf("Scan over damaged records %v = %v, want ErrCorrupt", damaged, err)
			}
		case err != nil:
			t.Fatal(err)
		case !slices.Equal(scanned, slices.Sorted(maps.Keys(model))):
			t.Fatalf("Scan visited %v, want the model's %v", scanned, slices.Sorted(maps.Keys(model)))
		}
	})
}

// flipByte inverts the byte at off in the file at path.
func flipByte(fsys framelog.FS, path string, off int64) error {
	f, err := fsys.OpenFile(path, os.O_RDWR)
	if err != nil {
		return err
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b, off)
	return err
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
