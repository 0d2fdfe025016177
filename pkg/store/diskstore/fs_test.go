package diskstore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/internal/framelog/faultfs"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

func fsDoc(t *testing.T, id string, seed int64) *staccato.Doc {
	t.Helper()
	_, f := testgen.MustGenerate(testgen.Config{Length: 20, Seed: seed})
	d, err := staccato.Build(f, id, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// storeFiles returns the segment files and MANIFEST of the store in dir
// on fsys, by name.
func storeFiles(t *testing.T, fsys framelog.FS, dir string) map[string][]byte {
	t.Helper()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, name := range names {
		if name == manifestName || isSegName(name) {
			if files[name], err = fsys.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return files
}

// TestFileSystemsWriteIdenticalBytes: the same Put, Batch, Delete,
// segment roll and Compact leave the same segment names, segment bytes
// and MANIFEST bytes on the OS and in memory — OpenMem runs the disk
// store's code, not a model of it.
func TestFileSystemsWriteIdenticalBytes(t *testing.T) {
	ctx := context.Background()
	opts := Options{MaxSegmentBytes: 1 << 10}
	dir := t.TempDir()
	mem := framelog.NewMemFS()
	var stores []*Store
	for _, fsys := range []framelog.FS{framelog.OS, mem} {
		d := dir
		if fsys == mem {
			d = ""
		}
		st, err := OpenFS(fsys, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores = append(stores, st)
	}
	same := func(when string) {
		t.Helper()
		got, want := storeFiles(t, mem, ""), storeFiles(t, framelog.OS, dir)
		if len(want) < 3 {
			t.Fatalf("%s: only %d files on the OS; the test means to roll segments", when, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: in-memory files differ from the OS files", when)
		}
	}
	for _, st := range stores {
		for i := 0; i < 6; i++ {
			b := st.Batch()
			if err := b.Put(fsDoc(t, fmt.Sprintf("p-%d", i), int64(i+1))); err != nil {
				t.Fatal(err)
			}
			if err := b.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}
		b := st.Batch()
		for i := 0; i < 6; i++ {
			if err := b.Put(fsDoc(t, fmt.Sprintf("b-%d", i), int64(i+10))); err != nil {
				t.Fatal(err)
			}
		}
		b.Delete("p-2")
		if err := b.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		b.Delete("b-4")
		if err := b.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	same("after the writes")
	for _, st := range stores {
		if err := st.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
	same("after Compact")
}

// TestFailedBatchNeverReappears fails each WriteAt and Sync of a batch
// that rolls two segments in turn. The failed Commit must leave the
// store holding exactly what it held before, in process and after a
// reopen over the same file system: no record the batch flushed before
// the failure — in the segment it started in or one it rolled to — may
// replay.
func TestFailedBatchNeverReappears(t *testing.T) {
	ctx := context.Background()
	opts := Options{MaxSegmentBytes: 1 << 10}
	held := func(t *testing.T, st *Store) map[string]*staccato.Doc {
		t.Helper()
		ids, err := st.ListDocIDs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := st.GetBatch(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]*staccato.Doc, len(ids))
		for i, id := range ids {
			out[id] = docs[i]
		}
		return out
	}
	for n := 1; ; n++ {
		mem := framelog.NewMemFS()
		ffs := faultfs.New(mem)
		st, err := OpenFS(ffs, "", opts)
		if err != nil {
			t.Fatal(err)
		}
		b := st.Batch()
		for i := 0; i < 3; i++ {
			if err := b.Put(fsDoc(t, fmt.Sprintf("old-%d", i), int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		before := held(t, st)
		for i := 0; i < 8; i++ {
			if err := b.Put(fsDoc(t, fmt.Sprintf("new-%d", i), int64(i+20))); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Put(fsDoc(t, "old-0", 99)); err != nil {
			t.Fatal(err)
		}
		b.Delete("old-1")
		segs := st.Stats().Segments
		ffs.Arm(faultfs.Fault{Name: "*", Ops: faultfs.WriteAt | faultfs.Sync, N: n})
		err = b.Commit(ctx)
		if ffs.Calls() < n {
			// The batch made fewer than n faultable calls: every one has
			// been failed in turn.
			if err != nil {
				t.Fatalf("unfaulted Commit: %v", err)
			}
			if st.Stats().Segments < segs+2 {
				t.Fatalf("the batch rolled %d segments; the test means to roll two", st.Stats().Segments-segs)
			}
			st.Close()
			return
		}
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("call %d failed: Commit = %v, want the injected error", n, err)
		}
		if got := held(t, st); !reflect.DeepEqual(got, before) {
			t.Fatalf("call %d failed: in process the store holds %d docs, want the %d it held before", n, len(got), len(before))
		}
		st.Close()
		re, err := OpenFS(mem, "", opts)
		if err != nil {
			t.Fatalf("call %d failed: reopen: %v", n, err)
		}
		if got := held(t, re); !reflect.DeepEqual(got, before) {
			t.Fatalf("call %d failed: the reopened store holds %d docs, want exactly the %d it held before the batch", n, len(got), len(before))
		}
		re.Close()
	}
}

// TestGetBatchReadsPerRun pins GetBatch's I/O: one ReadAt per run of
// records that sit back to back in one segment, however many IDs the run
// holds.
func TestGetBatchReadsPerRun(t *testing.T) {
	ctx := context.Background()
	ingest := func(t *testing.T, opts Options) (*Store, *faultfs.FS) {
		t.Helper()
		ffs := faultfs.New(framelog.NewMemFS())
		st, err := OpenFS(ffs, "", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		b := st.Batch()
		for i := 0; i < 128; i++ {
			if err := b.Put(fsDoc(t, fmt.Sprintf("doc-%03d", i), int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		return st, ffs
	}
	reads := func(t *testing.T, st *Store, ffs *faultfs.FS, n int) int {
		t.Helper()
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("doc-%03d", i)
		}
		before := ffs.Reads()
		docs, err := st.GetBatch(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range docs {
			if d == nil || d.ID != ids[i] {
				t.Fatalf("slot %d: got %v, want %s", i, d, ids[i])
			}
		}
		return ffs.Reads() - before
	}

	t.Run("one run", func(t *testing.T) {
		st, ffs := ingest(t, Options{})
		if got := reads(t, st, ffs, 64); got != 1 {
			t.Errorf("a batch of 64 adjacent records took %d reads, want 1", got)
		}
	})
	t.Run("overwrite in the middle", func(t *testing.T) {
		st, ffs := ingest(t, Options{})
		b := st.Batch()
		if err := b.Put(fsDoc(t, "doc-032", 999)); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if got := reads(t, st, ffs, 64); got != 3 {
			t.Errorf("a batch split by one overwritten record took %d reads, want 3", got)
		}
	})
	t.Run("segment roll", func(t *testing.T) {
		st, ffs := ingest(t, Options{MaxSegmentBytes: 8 << 10})
		segs := st.Stats().Segments
		if segs < 3 {
			t.Fatalf("the corpus fits %d segments; the test means to roll", segs)
		}
		if got := reads(t, st, ffs, 128); got != segs {
			t.Errorf("a batch over %d segments took %d reads, want one per segment", segs, got)
		}
	})
}
