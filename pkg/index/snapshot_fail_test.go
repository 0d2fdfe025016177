package index_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// TestFailedSnapshotLeavesNoTemp: a snapshot that fails before its rename
// — on a full disk that is an index-sized write — must surface the error,
// leave the previous log loadable, and strand no INDEX.tmp.
func TestFailedSnapshotLeavesNoTemp(t *testing.T) {
	stage := map[string]func(t *testing.T, path string){
		"temp cannot be opened": func(t *testing.T, path string) {
			if err := os.Mkdir(path+".tmp", 0o755); err != nil { // a directory: the write-only open fails
				t.Fatal(err)
			}
		},
		"rename fails": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil { // a file cannot replace a non-empty directory
				t.Fatal(err)
			}
		},
	}
	for name, breakIt := range stage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, index.FileName)
			old := index.New(3)
			old.Add(doc([]string{"hello"}))
			if err := old.Persist(framelog.OS, path, diskstore.CommitState{Ops: 1}, false); err != nil {
				t.Fatal(err)
			}
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}
			breakIt(t, path)

			next := index.New(3)
			next.Add(doc([]string{"world"}))
			if err := next.Persist(framelog.OS, path, diskstore.CommitState{Ops: 2}, false); err == nil {
				t.Fatal("Persist reported success over a failed replace")
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
				t.Errorf("failed snapshot left %v behind", left)
			}
			if name == "temp cannot be opened" {
				if _, st, err := index.Load(path, 3); err != nil || st != (diskstore.CommitState{Ops: 1}) {
					t.Errorf("previous log after a failed snapshot: state %+v, err %v; want it intact", st, err)
				}
			}
		})
	}
}
