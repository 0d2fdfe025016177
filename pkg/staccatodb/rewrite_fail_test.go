package staccatodb_test

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/internal/framelog/faultfs"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// rewriteSteps fails one step of an index log rewrite, named by its key:
// opening the staging file, writing it, syncing it, renaming it over the
// log, or reopening the renamed log for appending. "" fails nothing.
var rewriteSteps = map[string]faultfs.Fault{
	"":          {},
	"temp open": {Name: index.FileName + framelog.TempSuffix, Ops: faultfs.OpenWrite},
	"write":     {Name: index.FileName + framelog.TempSuffix, Ops: faultfs.WriteAt},
	"sync":      {Name: index.FileName + framelog.TempSuffix, Ops: faultfs.Sync},
	"rename":    {Name: index.FileName, Ops: faultfs.Rename},
	"reopen":    {Name: index.FileName, Ops: faultfs.OpenWrite},
}

// TestLogRewriteFailureDegrades fails each step of the automatic rewrite
// that a write passing the 1 MiB floor sets off. The write still
// succeeds. The log on disk is the old one with the write's commit
// appended — or, once the rename has happened, the new one — and never a
// mix, and no staging file is left. Persistence then stops, as after a
// failed append: the index serves on unpersisted, and a reopen after
// further writes rebuilds. Answers equal a scan throughout.
func TestLogRewriteFailureDegrades(t *testing.T) {
	ctx := context.Background()
	cases := corpus(t, 4200, 29)
	docs := docsOf(cases)
	var truths []string
	for _, c := range cases[:200] {
		truths = append(truths, c.Truth)
	}
	battery := randomQueries(truths, 7, 20)

	// A log just under the floor, and a commit that takes it past.
	filled := framelog.NewMemFS()
	db, err := staccatodb.OpenFS(filled)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; db.Stats().IndexBytes < 1<<20-48<<10; n += 64 {
		if err := db.Ingest(ctx, docs[n:n+64]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	trigger, moved := docs[n:n+256], docs[0].ID
	ref, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Ingest(ctx, docs[:n+256]); err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, ref, battery)
	if err := ref.Delete(ctx, moved); err != nil {
		t.Fatal(err)
	}
	wantAfterDelete := searchAll(t, ref, battery)
	agrees := func(t *testing.T, db *staccatodb.DB, want [][]query.Result, when string) {
		t.Helper()
		if got := searchAll(t, db, battery); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: indexed answers differ from the scan's", when)
		}
	}

	for _, step := range []string{"", "temp open", "write", "sync", "rename", "reopen"} {
		t.Run("fail "+step, func(t *testing.T) {
			ffs := faultfs.New(cloneFS(t, filled))
			db, err := staccatodb.OpenFS(ffs)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			before, err := ffs.ReadFile(index.FileName)
			if err != nil {
				t.Fatal(err)
			}
			ffs.Arm(rewriteSteps[step])
			if err := db.Ingest(ctx, trigger); err != nil {
				t.Fatalf("the write that set off the rewrite failed: %v", err)
			}
			ffs.Arm(faultfs.Fault{})
			after, err := ffs.ReadFile(index.FileName)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ffs.ReadFile(index.FileName + framelog.TempSuffix); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("the rewrite left its staging file behind (err %v)", err)
			}
			renamed := step == "" || step == "reopen"
			if appended := bytes.HasPrefix(after, before) && len(after) > len(before); appended == renamed {
				t.Fatalf("the log grew from %d to %d bytes, old prefix kept %v; want the %s log", len(before), len(after), appended, map[bool]string{false: "old", true: "new"}[renamed])
			}
			if renamed && len(after) >= len(before) {
				t.Fatalf("the rewritten log is %d bytes, not below the %d it replaced", len(after), len(before))
			}
			if st := db.Stats(); st.IndexPersisted != (step == "") || st.IndexDocs != st.Docs {
				t.Fatalf("after the write: %+v, want persisted %v", st, step == "")
			}
			agrees(t, db, want, "after the write")

			// Either log holds the write's commit, so it loads as it stands.
			copied := cloneFS(t, ffs)
			loaded, err := staccatodb.OpenFS(copied)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if now, _ := copied.ReadFile(index.FileName); !bytes.Equal(now, after) {
				t.Fatal("the reopen rebuilt the index instead of loading the log the rewrite left")
			}
			agrees(t, loaded, want, "after a reopen")

			// A later write is not logged, so the next open rebuilds.
			if err := db.Delete(ctx, moved); err != nil {
				t.Fatal(err)
			}
			if st := db.Stats(); st.IndexPersisted != (step == "") {
				t.Fatalf("after a delete: %+v, want persisted %v", st, step == "")
			}
			agrees(t, db, wantAfterDelete, "after a delete")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := staccatodb.OpenFS(ffs)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if st := re.Stats(); !st.IndexPersisted || st.IndexDocs != st.Docs {
				t.Fatalf("after the reopen: %+v, want a persisted index", st)
			}
			if now, _ := ffs.ReadFile(index.FileName); step != "" && bytes.HasPrefix(now, after) {
				t.Fatal("the reopen loaded a log that missed the delete instead of rebuilding")
			}
			agrees(t, re, wantAfterDelete, "after the reopen")
		})
	}
}

// cloneFS copies every file at the root of src into a fresh in-memory
// file system.
func cloneFS(t *testing.T, src framelog.FS) framelog.FS {
	t.Helper()
	dst := framelog.NewMemFS()
	names, err := src.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := src.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dst.OpenFile(name, os.O_RDWR|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return dst
}
