package diskstore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
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
		st, err := open(fsys, d, opts)
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
			if err := st.Put(ctx, fsDoc(t, fmt.Sprintf("p-%d", i), int64(i+1))); err != nil {
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
		if err := st.Delete(ctx, "b-4"); err != nil {
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

// faultFS fails the n-th WriteAt or Sync on any file it opened, counting
// from arm, and passes everything else through.
type faultFS struct {
	framelog.FS
	calls, failAt int
}

var errInjected = errors.New("injected I/O failure")

func (f *faultFS) arm(n int) { f.calls, f.failAt = 0, n }

func (f *faultFS) OpenFile(name string, flag int) (framelog.File, error) {
	file, err := f.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return faultFile{file, f}, nil
}

func (f *faultFS) fail() error {
	if f.failAt == 0 {
		return nil
	}
	if f.calls++; f.calls == f.failAt {
		return errInjected
	}
	return nil
}

type faultFile struct {
	framelog.File
	fs *faultFS
}

func (f faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.fail(); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f faultFile) Sync() error {
	if err := f.fs.fail(); err != nil {
		return err
	}
	return f.File.Sync()
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
		ffs := &faultFS{FS: mem}
		st, err := open(ffs, "", opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := st.Put(ctx, fsDoc(t, fmt.Sprintf("old-%d", i), int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		before := held(t, st)
		b := st.Batch()
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
		ffs.arm(n)
		err = b.Commit(ctx)
		if ffs.calls < n {
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
		if !errors.Is(err, errInjected) {
			t.Fatalf("call %d failed: Commit = %v, want the injected error", n, err)
		}
		if got := held(t, st); !reflect.DeepEqual(got, before) {
			t.Fatalf("call %d failed: in process the store holds %d docs, want the %d it held before", n, len(got), len(before))
		}
		st.Close()
		re, err := open(mem, "", opts)
		if err != nil {
			t.Fatalf("call %d failed: reopen: %v", n, err)
		}
		if got := held(t, re); !reflect.DeepEqual(got, before) {
			t.Fatalf("call %d failed: the reopened store holds %d docs, want exactly the %d it held before the batch", n, len(got), len(before))
		}
		re.Close()
	}
}
