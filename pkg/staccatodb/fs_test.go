package staccatodb_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/internal/framelog/faultfs"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// indexWrites is the fault that refuses every write to the index log and
// its snapshot staging file: write opens, WriteAt and Sync. The store's
// own files pass through.
var indexWrites = faultfs.Fault{Name: index.FileName + "*", Ops: faultfs.OpenWrite | faultfs.WriteAt | faultfs.Sync}

// TestIndexLogFailureDegrades drives the index log's failure policy: a log
// that cannot be written never fails Open or a write. The index stays
// installed, unpersisted, and answers exactly like a scan; maintenance
// reports the failure; a reopen once the log is writable again rebuilds
// and answers the same; and once a later fault clears, Compact takes the
// index back to its log, which the next reopen loads.
func TestIndexLogFailureDegrades(t *testing.T) {
	ctx := context.Background()
	cases := corpus(t, 30, 11)
	docs := docsOf(cases)
	var truths []string
	for _, c := range cases {
		truths = append(truths, c.Truth)
	}
	battery := randomQueries(truths, 3, 20)
	ref, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Ingest(ctx, docs); err != nil {
		t.Fatal(err)
	}
	agrees := func(t *testing.T, db *staccatodb.DB, when string) {
		t.Helper()
		got, want := searchAll(t, db, battery), searchAll(t, ref, battery)
		for i := range battery {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: query %s: indexed %+v != scanned %+v", when, battery[i], got[i], want[i])
			}
		}
	}
	unpersisted := func(t *testing.T, db *staccatodb.DB, when string) {
		t.Helper()
		if st := db.Stats(); !st.IndexEnabled || st.IndexPersisted || st.IndexBytes != 0 || st.IndexDocs != st.Docs {
			t.Fatalf("%s: %+v, want an installed, unpersisted index covering every document", when, st)
		}
	}
	// populated returns a file system holding the corpus and its index log.
	populated := func(t *testing.T) *faultfs.FS {
		t.Helper()
		ffs := faultfs.New(framelog.NewMemFS())
		db, err := staccatodb.OpenFS(ffs)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Ingest(ctx, docs); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return ffs
	}

	// (a) Open: a fresh log that cannot be reopened for appending, and a
	// missing one whose rebuilt snapshot cannot be written.
	for _, missing := range []bool{false, true} {
		ffs := populated(t)
		if missing {
			if err := ffs.Remove(index.FileName); err != nil {
				t.Fatal(err)
			}
		}
		ffs.Arm(indexWrites)
		db, err := staccatodb.OpenFS(ffs)
		if err != nil {
			t.Fatalf("Open over an unwritable index log (missing %v): %v", missing, err)
		}
		unpersisted(t, db, "after Open")
		agrees(t, db, "after Open")
		db.Close()
	}

	ffs := populated(t)
	db, err := staccatodb.OpenFS(ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Stats().IndexPersisted {
		t.Fatal("a writable log is not being persisted")
	}
	logBefore, err := ffs.ReadFile(index.FileName)
	if err != nil {
		t.Fatal(err)
	}

	// (b) Writes after the log fails still succeed, and persistence stops.
	ffs.Arm(indexWrites)
	moved := docs[0]
	for _, d := range []*staccatodb.DB{db, ref} {
		if err := d.Delete(ctx, moved.ID); err != nil {
			t.Fatalf("Delete with an unwritable index log: %v", err)
		}
		if err := d.Put(ctx, moved); err != nil {
			t.Fatalf("Put with an unwritable index log: %v", err)
		}
		if err := d.Delete(ctx, docs[1].ID); err != nil {
			t.Fatalf("Delete with an unwritable index log: %v", err)
		}
	}
	unpersisted(t, db, "after writes")
	agrees(t, db, "after writes")

	// (c) Maintenance reports the failure and keeps the index installed.
	if err := db.Compact(ctx); err == nil || !strings.Contains(err.Error(), "persisting index") || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Compact with an unwritable index log: err = %v, want the persisting-index error", err)
	}
	unpersisted(t, db, "after Compact")
	agrees(t, db, "after Compact")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// (d) Disarmed, a reopen finds the log stale, rebuilds and persists.
	ffs.Arm(faultfs.Fault{})
	if logNow, _ := ffs.ReadFile(index.FileName); !bytes.Equal(logNow, logBefore) {
		t.Fatal("the index log changed while its writes were refused")
	}
	re, err := staccatodb.OpenFS(ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	logAfter, err := ffs.ReadFile(index.FileName)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(logAfter, logBefore) {
		t.Error("the reopen loaded the stale index log instead of rebuilding")
	}
	if st := re.Stats(); !st.IndexPersisted || st.IndexBytes != int64(len(logAfter)) || st.IndexDocs != st.Docs {
		t.Errorf("after the reopen: %+v, want a persisted index of %d log bytes", st, len(logAfter))
	}
	agrees(t, re, "after the reopen")

	// (e) A refused append stops persistence again; once the fault
	// clears, Compact persists the index anew, and a reopen loads that
	// log as it stands.
	ffs.Arm(indexWrites)
	for _, d := range []*staccatodb.DB{re, ref} {
		if err := d.Delete(ctx, docs[2].ID); err != nil {
			t.Fatalf("Delete with an unwritable index log: %v", err)
		}
	}
	unpersisted(t, re, "after a refused append")
	ffs.Arm(faultfs.Fault{})
	if err := re.Compact(ctx); err != nil {
		t.Fatalf("Compact once the fault cleared: %v", err)
	}
	compacted, err := ffs.ReadFile(index.FileName)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); !st.IndexPersisted || st.IndexBytes != int64(len(compacted)) || st.IndexDocs != st.Docs {
		t.Fatalf("after Compact: %+v, want a persisted index of %d log bytes", st, len(compacted))
	}
	agrees(t, re, "after Compact")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := staccatodb.OpenFS(ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if now, _ := ffs.ReadFile(index.FileName); !bytes.Equal(now, compacted) {
		t.Error("the reopen rebuilt the index instead of loading the log Compact wrote")
	}
	if st := loaded.Stats(); !st.IndexPersisted || st.IndexBytes != int64(len(compacted)) {
		t.Errorf("after the reopen: %+v, want a persisted index of %d log bytes", st, len(compacted))
	}
	agrees(t, loaded, "after reopening the compacted log")
}

// TestFileSystemsWriteIdenticalIndexLogs runs one write and maintenance
// sequence through a database on disk and one in memory: the two index
// logs must be byte-identical after every step, and each database must
// report its log's length as IndexBytes.
func TestFileSystemsWriteIdenticalIndexLogs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	disk, err := staccatodb.Open(dir, staccatodb.WithMaxSegmentBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := framelog.NewMemFS()
	inMem, err := staccatodb.OpenFS(mem, staccatodb.WithMaxSegmentBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer inMem.Close()

	docs := docsOf(corpus(t, 24, 5))
	steps := []struct {
		name string
		do   func(*staccatodb.DB) error
	}{
		{"open", func(*staccatodb.DB) error { return nil }},
		{"ingest", func(db *staccatodb.DB) error { return db.Ingest(ctx, docs[:16]) }},
		{"put", func(db *staccatodb.DB) error { return db.Put(ctx, docs[16]) }},
		{"ingest again", func(db *staccatodb.DB) error { return db.Ingest(ctx, docs[10:]) }},
		{"delete", func(db *staccatodb.DB) error { return db.Delete(ctx, docs[3].ID) }},
		{"compact", func(db *staccatodb.DB) error { return db.Compact(ctx) }},
		{"delete after compact", func(db *staccatodb.DB) error { return db.Delete(ctx, docs[12].ID) }},
	}
	for _, step := range steps {
		for _, db := range []*staccatodb.DB{disk, inMem} {
			if err := step.do(db); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, index.FileName))
		if err != nil {
			t.Fatal(err)
		}
		inMemory, err := mem.ReadFile(index.FileName)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, inMemory) {
			t.Fatalf("after %s: the in-memory index log (%d bytes) differs from the one on disk (%d bytes)", step.name, len(inMemory), len(onDisk))
		}
		for _, db := range []*staccatodb.DB{disk, inMem} {
			if st := db.Stats(); !st.IndexPersisted || st.IndexBytes != int64(len(onDisk)) {
				t.Fatalf("after %s: %+v, want a persisted index of %d log bytes", step.name, st, len(onDisk))
			}
		}
	}
}
