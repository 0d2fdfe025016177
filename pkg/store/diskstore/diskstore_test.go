package diskstore_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
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

func openT(t testing.TB, dir string, opts diskstore.Options) *diskstore.Store {
	t.Helper()
	st, err := diskstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// openMemT opens an empty store over an in-memory file system.
func openMemT(t testing.TB, opts diskstore.Options) *diskstore.Store {
	t.Helper()
	st, err := diskstore.OpenFS(framelog.NewMemFS(), "", opts)
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

// eachFS runs fn as one subtest per file system — an OS temp dir and
// OpenMem — each on a fresh store opened with opts.
func eachFS(t *testing.T, opts diskstore.Options, fn func(t *testing.T, st *diskstore.Store)) {
	t.Run("os", func(t *testing.T) { fn(t, openT(t, t.TempDir(), opts)) })
	t.Run("mem", func(t *testing.T) { fn(t, openMemT(t, opts)) })
}

func scanIDs(t *testing.T, st *diskstore.Store) []string {
	t.Helper()
	var ids []string
	if err := st.Scan(context.Background(), func(d *staccato.Doc) error {
		ids = append(ids, d.ID)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return ids
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

func TestPutGetDelete(t *testing.T) {
	eachFS(t, diskstore.Options{}, testPutGetDelete)
}

func testPutGetDelete(t *testing.T, st *diskstore.Store) {
	ctx := context.Background()
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

	if _, err := st.Get(ctx, "nope"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
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
	if err := commitPuts(ctx, st, nil); err == nil {
		t.Error("Put accepted nil")
	}
	if err := commitPuts(ctx, st, &staccato.Doc{}); err == nil {
		t.Error("Put accepted a document with no ID")
	}
}

func TestReopenPersists(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	st := openT(t, dir, diskstore.Options{})
	var want []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("doc-%02d", i)
		if err := commitPuts(ctx, st, sampleDoc(t, id, int64(i+1))); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	// Overwrite one and delete one; the replayed index must honor both.
	updated := sampleDoc(t, "doc-03", 99)
	if err := commitPuts(ctx, st, updated); err != nil {
		t.Fatal(err)
	}
	if err := commitDeletes(ctx, st, "doc-05"); err != nil {
		t.Fatal(err)
	}
	want = append(want[:5], want[6:]...)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openT(t, dir, diskstore.Options{})
	if got := scanIDs(t, st2); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened Scan = %v, want %v", got, want)
	}
	if n := st2.Len(); n != len(want) {
		t.Errorf("Len = %d, want %d", n, len(want))
	}
	got, err := st2.Get(ctx, "doc-03")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, updated) {
		t.Error("reopened store returned the superseded version of doc-03")
	}
	if _, err := st2.Get(ctx, "doc-05"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("deleted doc resurrected on reopen: %v", err)
	}
}

func TestScanOrderAndStop(t *testing.T) {
	eachFS(t, diskstore.Options{}, testScanOrderAndStop)
}

func testScanOrderAndStop(t *testing.T, st *diskstore.Store) {
	ctx := context.Background()
	for i, id := range []string{"c", "a", "b"} {
		if err := commitPuts(ctx, st, sampleDoc(t, id, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if got := scanIDs(t, st); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Scan order = %v, want ascending IDs", got)
	}
	var seen []string
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
	if err := st.Scan(ctx, func(*staccato.Doc) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("Scan error = %v, want %v", err, wantErr)
	}
}

// TestTornTailRecovery is the crash-recovery contract: a reopen after a
// torn final write drops only the torn record, keeps every earlier
// record, and leaves Scan order and Count consistent.
func TestTornTailRecovery(t *testing.T) {
	ctx := context.Background()
	corrupt := map[string]func(t *testing.T, path string){
		"truncated mid-record": func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		},
		"flipped payload byte": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0xFF
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage appended": func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		},
	}
	for name, breakTail := range corrupt {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st := openT(t, dir, diskstore.Options{})
			const n = 10
			for i := 0; i < n; i++ {
				if err := commitPuts(ctx, st, sampleDoc(t, fmt.Sprintf("doc-%02d", i), int64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			seg := lastSegment(t, dir)
			breakTail(t, seg)

			st2 := openT(t, dir, diskstore.Options{})
			ids := scanIDs(t, st2)
			// "garbage appended" damages no record; the other two tear the
			// last one (doc-09).
			wantDocs := n
			if name != "garbage appended" {
				wantDocs = n - 1
			}
			if len(ids) != wantDocs {
				t.Fatalf("after %s: %d docs survive (%v), want %d", name, len(ids), ids, wantDocs)
			}
			for i := 0; i < wantDocs; i++ {
				want := fmt.Sprintf("doc-%02d", i)
				if ids[i] != want {
					t.Errorf("ids[%d] = %q, want %q", i, ids[i], want)
				}
				if _, err := st2.Get(ctx, want); err != nil {
					t.Errorf("Get(%s) after recovery: %v", want, err)
				}
			}
			if n := len(scanIDs(t, st2)); n != wantDocs {
				t.Errorf("Scan visited %d documents, want %d", n, wantDocs)
			}

			// The torn tail must have been truncated: appending new writes
			// and reopening once more must not resurface the corruption.
			if err := commitPuts(ctx, st2, sampleDoc(t, "doc-zz", 77)); err != nil {
				t.Fatalf("Put after recovery: %v", err)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3 := openT(t, dir, diskstore.Options{})
			if n := len(scanIDs(t, st3)); n != wantDocs+1 {
				t.Errorf("Scan after post-recovery write visited %d documents, want %d", n, wantDocs+1)
			}
		})
	}
}

// TestMidFileCorruptionRefusesOpen distinguishes torn tails from media
// damage: a corrupt record with valid data after it cannot come from a
// crashed append, so Open must fail loudly instead of silently
// truncating away every later record.
func TestMidFileCorruptionRefusesOpen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openT(t, dir, diskstore.Options{})
	for i := 0; i < 10; i++ {
		if err := commitPuts(ctx, st, sampleDoc(t, fmt.Sprintf("doc-%02d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's document payload: its
	// checksum breaks while every later record remains intact.
	data[20] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diskstore.Open(dir, diskstore.Options{}); err == nil {
		t.Fatal("Open silently accepted mid-file corruption")
	} else if !strings.Contains(err.Error(), "not a torn tail") {
		t.Errorf("Open error = %v, want a refusing-to-drop-data message", err)
	}
	// The file must be untouched — no truncation happened.
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Errorf("refused Open still truncated the segment: %d -> %d bytes", len(data), len(after))
	}
}

// TestOpenExcludesSecondProcessHandle: the flock must make a second
// concurrent Open of the same directory fail fast (same-process handles
// share the flock on some platforms, so exercise it via a subprocess-free
// second Open — on Linux, flock(2) locks are per open-file-description,
// so a second OpenFile + flock conflicts even within one process).
func TestOpenExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, diskstore.Options{})
	if _, err := diskstore.Open(dir, diskstore.Options{}); err == nil {
		t.Fatal("second Open of a live store succeeded; expected the lock to refuse it")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock: reopening now works.
	st2 := openT(t, dir, diskstore.Options{})
	_ = st2
}

func TestBatchCommit(t *testing.T) {
	ctx := context.Background()
	st := openT(t, t.TempDir(), diskstore.Options{})

	b := st.Batch()
	for i := 0; i < 20; i++ {
		if err := b.Put(sampleDoc(t, fmt.Sprintf("doc-%02d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Later ops in one batch supersede earlier ones.
	override := sampleDoc(t, "doc-04", 123)
	if err := b.Put(override); err != nil {
		t.Fatal(err)
	}
	b.Delete("doc-07")
	if err := b.Commit(ctx); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if ops := st.CommitState().Ops; ops != 22 {
		t.Errorf("CommitState().Ops = %d after a batch of 22 operations, want 22", ops)
	}
	if st.Len() != 19 {
		t.Errorf("store Len = %d, want 19", st.Len())
	}
	got, err := st.Get(ctx, "doc-04")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, override) {
		t.Error("batch did not apply in order: doc-04 is the superseded version")
	}
	if _, err := st.Get(ctx, "doc-07"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("batched Delete did not apply: %v", err)
	}

	// A batch with a bad document latches the error.
	bad := st.Batch()
	if err := bad.Put(&staccato.Doc{}); err == nil {
		t.Fatal("Batch.Put accepted a document with no ID")
	}
	if err := bad.Commit(ctx); err == nil {
		t.Error("Commit ignored a latched Put error")
	}

	// Reuse after commit works, and commits only the new operation.
	if err := b.Put(sampleDoc(t, "doc-new", 50)); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if ops := st.CommitState().Ops; ops != 23 {
		t.Errorf("CommitState().Ops = %d after reusing the batch for one put, want 23", ops)
	}
	if _, err := st.Get(ctx, "doc-new"); err != nil {
		t.Errorf("Get after batch reuse: %v", err)
	}
}

// TestBatchDeletesOnlyLiveIDs: a batch's Delete appends a tombstone only
// for an ID that is live at its place in the batch, so a batch whose only
// op deletes an absent ID writes nothing, and a reopen replays what each
// order of Put and Delete left.
func TestBatchDeletesOnlyLiveIDs(t *testing.T) {
	ctx := context.Background()
	x := sampleDoc(t, "x", 1)
	for _, tc := range []struct {
		name    string
		ops     func(b *diskstore.Batch) error
		records uint64 // what the commit appends
		present bool   // x after a reopen
	}{
		{"delete of an absent ID", func(b *diskstore.Batch) error { b.Delete("x"); return nil }, 0, false},
		{"put then delete", func(b *diskstore.Batch) error { err := b.Put(x); b.Delete("x"); return err }, 2, false},
		{"delete then put", func(b *diskstore.Batch) error { b.Delete("x"); return b.Put(x) }, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := framelog.NewMemFS()
			st, err := diskstore.OpenFS(fsys, "", diskstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := commitPuts(ctx, st, sampleDoc(t, "y", 2)); err != nil {
				t.Fatal(err)
			}
			state, size := st.CommitState(), st.Stats().DiskBytes
			b := st.Batch()
			if err := tc.ops(b); err != nil {
				t.Fatal(err)
			}
			if err := b.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			after := st.CommitState()
			if got := after.Ops - state.Ops; got != tc.records {
				t.Errorf("the commit appended %d records, want %d", got, tc.records)
			}
			if tc.records == 0 && (after != state || st.Stats().DiskBytes != size) {
				t.Errorf("a commit that writes nothing moved the store from %+v, %d bytes to %+v, %d bytes", state, size, after, st.Stats().DiskBytes)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err = diskstore.OpenFS(fsys, "", diskstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Get(ctx, "x"); errors.Is(err, store.ErrNotFound) == tc.present {
				t.Errorf("Get(x) after a reopen = %v, want present %v", err, tc.present)
			}
			if reopened := st.CommitState(); reopened != after {
				t.Errorf("reopened at %+v, the commit left %+v", reopened, after)
			}
		})
	}
}

// TestPutRejectsNonDistributions pins the write-path guard: every chunk
// must be a probability distribution, or queries over the stored document
// return "probabilities" above 1. A rejected document fails its whole
// batch, so a valid document committed beside it is not stored either.
func TestPutRejectsNonDistributions(t *testing.T) {
	alts := func(probs ...float64) []staccato.Alt {
		out := make([]staccato.Alt, len(probs))
		for i, p := range probs {
			out[i] = staccato.Alt{Text: fmt.Sprintf("r%d", i), Prob: p}
		}
		return out
	}
	doc := func(chunks ...staccato.PathSet) *staccato.Doc {
		return &staccato.Doc{ID: "d", Chunks: chunks}
	}
	ok := staccato.PathSet{Alts: alts(0.25, 0.75), Retained: 1}
	cases := []struct {
		name  string
		doc   *staccato.Doc
		valid bool
	}{
		{"no chunks", doc(), true},
		{"one certain alt", doc(staccato.PathSet{Alts: alts(1), Retained: 0.5}), true},
		{"sum within 1e-6", doc(staccato.PathSet{Alts: alts(0.3, 0.7000005), Retained: 1}), true},
		{"retained zero", doc(ok, staccato.PathSet{Alts: alts(0.5, 0.5), Retained: 0}), true},
		{"sum above one", doc(ok, staccato.PathSet{Alts: alts(0.4, 0.4), Retained: 1}, staccato.PathSet{Alts: alts(0.9, 0.9), Retained: 1}), false},
		{"sum below one", doc(staccato.PathSet{Alts: alts(0.5, 0.4), Retained: 1}), false},
		{"negative prob", doc(staccato.PathSet{Alts: alts(4, -3), Retained: 1}), false},
		{"zero prob", doc(staccato.PathSet{Alts: alts(1, 0), Retained: 1}), false},
		{"NaN prob", doc(staccato.PathSet{Alts: alts(math.NaN()), Retained: 1}), false},
		{"no alts", doc(ok, staccato.PathSet{Retained: 1}), false},
		{"retained above one", doc(staccato.PathSet{Alts: alts(1), Retained: 1.5}), false},
		{"retained negative", doc(staccato.PathSet{Alts: alts(1), Retained: -0.1}), false},
		{"retained NaN", doc(staccato.PathSet{Alts: alts(1), Retained: math.NaN()}), false},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := openMemT(t, diskstore.Options{})
			err := commitPuts(ctx, st, tc.doc)
			if tc.valid {
				if err != nil {
					t.Fatalf("Put refused a valid document: %v", err)
				}
				return
			}
			if !errors.Is(err, store.ErrInvalidDoc) || !strings.Contains(err.Error(), "chunk ") {
				t.Fatalf("Put = %v, want store.ErrInvalidDoc naming the chunk", err)
			}
			b := st.Batch()
			b.Put(sampleDoc(t, "good", 1))
			b.Put(tc.doc)
			if err := b.Commit(ctx); !errors.Is(err, store.ErrInvalidDoc) {
				t.Errorf("Commit = %v, want store.ErrInvalidDoc", err)
			}
			if st.Len() != 0 {
				t.Errorf("store holds %d documents after refused writes, want 0", st.Len())
			}
		})
	}
}

// TestPutCapsIDLength: an ID of up to 256 bytes is stored, and one byte
// more is refused as an invalid document whose error names the limit —
// through Put and through a batch, which then stores nothing.
func TestPutCapsIDLength(t *testing.T) {
	ctx := context.Background()
	st := openMemT(t, diskstore.Options{})
	longest := sampleDoc(t, strings.Repeat("a", 256), 1)
	if err := commitPuts(ctx, st, longest); err != nil {
		t.Fatalf("Put of a 256-byte ID: %v", err)
	}
	if got, err := st.Get(ctx, longest.ID); err != nil || got.ID != longest.ID {
		t.Fatalf("Get of the 256-byte ID = %v, %v", got, err)
	}
	over := sampleDoc(t, strings.Repeat("b", 257), 2)
	if err := commitPuts(ctx, st, over); !errors.Is(err, store.ErrInvalidDoc) || !strings.Contains(err.Error(), "256") {
		t.Fatalf("Put of a 257-byte ID = %v, want store.ErrInvalidDoc naming the limit", err)
	}
	b := st.Batch()
	b.Put(sampleDoc(t, "good", 3))
	b.Put(over)
	if err := b.Commit(ctx); !errors.Is(err, store.ErrInvalidDoc) {
		t.Errorf("Commit = %v, want store.ErrInvalidDoc", err)
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d documents, want only the 256-byte ID", st.Len())
	}
}

func TestSegmentRollAndReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Tiny segments force many rolls, both on the Put path and inside one
	// large batch.
	st := openT(t, dir, diskstore.Options{MaxSegmentBytes: 512})
	const n = 30
	b := st.Batch()
	for i := 0; i < n; i++ {
		if err := b.Put(sampleDoc(t, fmt.Sprintf("doc-%02d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Segments < 3 {
		t.Fatalf("Segments = %d, want several (roll not exercised)", stats.Segments)
	}
	if stats.Docs != n {
		t.Fatalf("Docs = %d, want %d", stats.Docs, n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openT(t, dir, diskstore.Options{MaxSegmentBytes: 512})
	if got := len(scanIDs(t, st2)); got != n {
		t.Errorf("reopened store has %d docs, want %d", got, n)
	}
}

func TestCompact(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openT(t, dir, diskstore.Options{MaxSegmentBytes: 1024})

	const n = 20
	for i := 0; i < n; i++ {
		if err := commitPuts(ctx, st, sampleDoc(t, fmt.Sprintf("doc-%02d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Create garbage: overwrite everything once, delete half.
	for i := 0; i < n; i++ {
		if err := commitPuts(ctx, st, sampleDoc(t, fmt.Sprintf("doc-%02d", i), int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := commitDeletes(ctx, st, fmt.Sprintf("doc-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	wantIDs := scanIDs(t, st)
	before := st.Stats()

	if err := st.Compact(ctx); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := st.Stats()
	if after.DiskBytes >= before.DiskBytes {
		t.Errorf("DiskBytes %d -> %d: compaction reclaimed nothing", before.DiskBytes, after.DiskBytes)
	}
	if after.Docs != len(wantIDs) {
		t.Errorf("Docs after Compact = %d, want %d", after.Docs, len(wantIDs))
	}
	if got := scanIDs(t, st); !reflect.DeepEqual(got, wantIDs) {
		t.Errorf("Scan after Compact = %v, want %v", got, wantIDs)
	}
	// Live store still writable after the swap.
	if err := commitPuts(ctx, st, sampleDoc(t, "doc-post", 55)); err != nil {
		t.Fatalf("Put after Compact: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// And the compacted directory replays correctly.
	st2 := openT(t, dir, diskstore.Options{})
	got := scanIDs(t, st2)
	if len(got) != len(wantIDs)+1 {
		t.Errorf("reopened compacted store has %d docs, want %d", len(got), len(wantIDs)+1)
	}
}

// TestCompactEmptyStore ensures compacting away every document leaves a
// usable, reopenable store.
func TestCompactEmptyStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openT(t, dir, diskstore.Options{})
	if err := commitPuts(ctx, st, sampleDoc(t, "only", 1)); err != nil {
		t.Fatal(err)
	}
	if err := commitDeletes(ctx, st, "only"); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(ctx); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Len() != 0 {
		t.Errorf("Len = %d, want 0", st.Len())
	}
	if err := commitPuts(ctx, st, sampleDoc(t, "again", 2)); err != nil {
		t.Fatalf("Put after empty Compact: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, diskstore.Options{})
	if st2.Len() != 1 {
		t.Errorf("reopened Len = %d, want 1", st2.Len())
	}
}

// TestInterruptedCompactionSweep simulates a crash between writing new
// compaction segments and the manifest flip: the unreferenced file must
// be swept on Open and the old state must win.
func TestInterruptedCompactionSweep(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openT(t, dir, diskstore.Options{})
	for i := 0; i < 5; i++ {
		if err := commitPuts(ctx, st, sampleDoc(t, fmt.Sprintf("doc-%d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A would-be compaction output the manifest never learned about.
	stray := filepath.Join(dir, "seg-00000099.log")
	if err := os.WriteFile(stray, []byte("not yet flipped"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openT(t, dir, diskstore.Options{})
	if n := st2.Len(); n != 5 {
		t.Errorf("Len = %d, want the pre-compaction 5", n)
	}
	if _, err := os.Stat(stray); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stale segment %s not swept on Open (stat err=%v)", stray, err)
	}
}

// TestCompactKeepsDamage: Compact copies each record as the store's one
// reader checked it, so a flipped probability byte fails the compaction
// with ErrCorrupt instead of being sealed again under a fresh checksum,
// after which the store would reopen cleanly and answer 1.5 for 0.75.
// The old segments stay the store and the new ones are removed.
func TestCompactKeepsDamage(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openT(t, dir, diskstore.Options{})
	hello := &staccato.Doc{ID: "a", Chunks: []staccato.PathSet{{
		Alts: []staccato.Alt{{Text: "hello world", Prob: 0.75}, {Text: "hallo world", Prob: 0.25}}, Retained: 1,
	}}}
	if err := commitPuts(ctx, st, hello); err != nil {
		t.Fatal(err)
	}
	if err := commitPuts(ctx, st, sampleDoc(t, "b", 1)); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.75)))
	if at < 0 {
		t.Fatal("0.75 not found in the segment")
	}
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte{data[at+6] ^ 0x10}, int64(at+6)) // 0x3FE8… → 0x3FF8…: 0.75 → 1.5
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))

	if err := st.Compact(ctx); !errors.Is(err, diskstore.ErrCorrupt) {
		t.Fatalf("Compact over a damaged record = %v, want ErrCorrupt", err)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "seg-*.log")); !slices.Equal(after, before) {
		t.Errorf("segments after the failed Compact = %v, want the old %v", after, before)
	}
	if _, err := st.Get(ctx, "a"); !errors.Is(err, diskstore.ErrCorrupt) {
		t.Errorf("Get of the damaged record = %v, want ErrCorrupt", err)
	}
	if _, err := st.Get(ctx, "b"); err != nil {
		t.Errorf("Get of the intact record: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return // replay refused the interior damage
	}
	defer st2.Close()
	if d, err := st2.Get(ctx, "a"); err == nil {
		t.Fatalf("reopened store answers the damaged record: %+v", d.Chunks)
	}
}

func TestOpenRefusesManifestlessSegments(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diskstore.Open(dir, diskstore.Options{}); err == nil {
		t.Error("Open accepted a directory with segments but no manifest")
	}
}

func TestClosedStore(t *testing.T) {
	eachFS(t, diskstore.Options{}, testClosedStore)
}

func testClosedStore(t *testing.T, st *diskstore.Store) {
	ctx := context.Background()
	doc := sampleDoc(t, "d", 1)
	if err := commitPuts(ctx, st, doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if err := commitPuts(ctx, st, doc); !errors.Is(err, diskstore.ErrClosed) {
		t.Errorf("Put on closed = %v, want ErrClosed", err)
	}
	if _, err := st.Get(ctx, "d"); !errors.Is(err, diskstore.ErrClosed) {
		t.Errorf("Get on closed = %v, want ErrClosed", err)
	}
	if err := commitDeletes(ctx, st, "d"); !errors.Is(err, diskstore.ErrClosed) {
		t.Errorf("Delete on closed = %v, want ErrClosed", err)
	}
	if err := st.Scan(ctx, func(*staccato.Doc) error { return nil }); !errors.Is(err, diskstore.ErrClosed) {
		t.Errorf("Scan on closed = %v, want ErrClosed", err)
	}
	if err := st.Compact(ctx); !errors.Is(err, diskstore.ErrClosed) {
		t.Errorf("Compact on closed = %v, want ErrClosed", err)
	}
}

// TestContextCancelled: every method that takes a context refuses a
// cancelled one, and a refused write stores nothing.
func TestContextCancelled(t *testing.T) {
	eachFS(t, diskstore.Options{}, testContextCancelled)
}

func testContextCancelled(t *testing.T, st *diskstore.Store) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := commitPuts(context.Background(), st, sampleDoc(t, "d", 1)); err != nil {
		t.Fatal(err)
	}
	b := st.Batch()
	if err := b.Put(sampleDoc(t, "e", 2)); err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() error{
		"Put":    func() error { return commitPuts(ctx, st, sampleDoc(t, "f", 3)) },
		"Delete": func() error { return commitDeletes(ctx, st, "d") },
		"Commit": func() error { return b.Commit(ctx) },
		"Get":    func() error { _, err := st.Get(ctx, "d"); return err },
		"GetBatch": func() error {
			_, err := st.GetBatch(ctx, []string{"d"})
			return err
		},
		"ListDocIDs": func() error { _, err := st.ListDocIDs(ctx); return err },
		"Scan":       func() error { return st.Scan(ctx, func(*staccato.Doc) error { return nil }) },
		"Compact":    func() error { return st.Compact(ctx) },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context = %v, want context.Canceled", name, err)
		}
	}
	if ids := scanIDs(t, st); !reflect.DeepEqual(ids, []string{"d"}) {
		t.Errorf("after the refused writes the store holds %v, want [d]", ids)
	}
}

// TestEngineParityOSAndMem is the acceptance gate: the same corpus in a
// store on disk and one over the in-memory file system must produce
// byte-identical ranked results from the query engine, including after a
// simulated torn-write reopen of the disk store.
func TestEngineParityOSAndMem(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	cases, err := testgen.Docs(60, testgen.Config{Length: 40, Seed: 11}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	mem := openMemT(t, diskstore.Options{MaxSegmentBytes: 8 << 10})
	disk := openT(t, dir, diskstore.Options{MaxSegmentBytes: 8 << 10})
	b := disk.Batch()
	for _, c := range cases {
		if err := commitPuts(ctx, mem, c.Doc); err != nil {
			t.Fatal(err)
		}
		if err := b.Put(c.Doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	sub, err := query.Substring("e")
	if err != nil {
		t.Fatal(err)
	}
	neg, err := query.Substring("zz")
	if err != nil {
		t.Fatal(err)
	}
	q := query.And(sub, query.Not(neg))
	opts := query.SearchOptions{TopN: 25}

	wantRes, err := query.NewEngine(mem, query.EngineOptions{Workers: 4}).Search(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRes) == 0 {
		t.Fatal("query matched nothing; broaden the test term")
	}
	gotRes, err := query.NewEngine(disk, query.EngineOptions{Workers: 4}).Search(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("disk results differ from mem results:\n disk %+v\n mem  %+v", gotRes, wantRes)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail (a partial frame, no complete record lost) and reopen:
	// still byte-identical.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	disk2 := openT(t, dir, diskstore.Options{})
	gotRes2, err := query.NewEngine(disk2, query.EngineOptions{Workers: 4}).Search(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes2, wantRes) {
		t.Fatalf("post-torn-reopen results differ from mem results:\n disk %+v\n mem  %+v", gotRes2, wantRes)
	}
}

// TestCommitStateRegressionPaths: the staleness fingerprint must change
// whenever replay would see different history — after a torn-tail
// truncation it regresses, after compaction it resets to the live count.
func TestCommitStateRegressionPaths(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openT(t, dir, diskstore.Options{})
	for i := 0; i < 5; i++ {
		if err := commitPuts(ctx, st, sampleDoc(t, fmt.Sprintf("d%d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := commitDeletes(ctx, st, "d0"); err != nil {
		t.Fatal(err)
	}
	full := st.CommitState()
	if full.Ops != 6 {
		t.Fatalf("Ops = %d, want 6", full.Ops)
	}
	st.Close()

	// Tear into the last record: replay truncates it, and the state must
	// regress below the pre-crash fingerprint.
	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, diskstore.Options{})
	torn := st2.CommitState()
	if torn.Ops != full.Ops-1 || torn.Bytes >= full.Bytes {
		t.Errorf("post-torn state %+v, want regression from %+v", torn, full)
	}
	if err := st2.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	compacted := st2.CommitState()
	if compacted.Ops != uint64(st2.Len()) {
		t.Errorf("post-compact Ops = %d, want live doc count %d", compacted.Ops, st2.Len())
	}
	// Ops and Bytes can coincide with a pre-compact stamp by size
	// accident; the segment number cannot, because compaction always
	// allocates fresh, higher numbers. This is what keeps the staleness
	// fingerprint collision-free across compactions.
	if compacted.Seg <= torn.Seg {
		t.Errorf("post-compact Seg = %d, want > pre-compact %d", compacted.Seg, torn.Seg)
	}
	st2.Close()
	st3 := openT(t, dir, diskstore.Options{})
	if got := st3.CommitState(); got != compacted {
		t.Errorf("reopened state %+v != in-process post-compact %+v", got, compacted)
	}
}

// TestListDocIDs covers DocStore.ListDocIDs on both file systems.
func TestListDocIDs(t *testing.T) {
	eachFS(t, diskstore.Options{}, testListDocIDs)
}

func testListDocIDs(t *testing.T, st *diskstore.Store) {
	ctx := context.Background()
	for _, id := range []string{"c", "a", "b"} {
		if err := commitPuts(ctx, st, sampleDoc(t, id, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := commitDeletes(ctx, st, "b"); err != nil {
		t.Fatal(err)
	}
	ids, err := st.ListDocIDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"a", "c"}) {
		t.Errorf("ListDocIDs = %v, want [a c]", ids)
	}
	if !reflect.DeepEqual(ids, scanIDs(t, st)) {
		t.Errorf("ListDocIDs disagrees with Scan order")
	}
}

// TestListDocIDsUnderWrites lists IDs from two goroutines while a third
// puts and deletes: every listing must be strictly ascending, and once
// the writes stop the kept listing must be the live set — a listing
// sorted before a write changed the set must not be kept after it.
func TestListDocIDsUnderWrites(t *testing.T) {
	ctx := context.Background()
	st := openMemT(t, diskstore.Options{NoSync: true})
	doc := sampleDoc(t, "x", 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ids, err := st.ListDocIDs(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
					t.Errorf("listing not strictly ascending: %v", ids)
					return
				}
			}
		}()
	}
	var want []string
	for i := range 60 {
		d := *doc
		d.ID = fmt.Sprintf("d%02d", i)
		if err := commitPuts(ctx, st, &d); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := commitDeletes(ctx, st, d.ID); err != nil {
				t.Fatal(err)
			}
		} else {
			want = append(want, d.ID)
		}
	}
	close(done)
	wg.Wait()
	if ids, err := st.ListDocIDs(ctx); err != nil || !slices.Equal(ids, want) {
		t.Fatalf("ListDocIDs after the writes = %v, %v; want %v", ids, err, want)
	}
}
