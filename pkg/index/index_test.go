package index_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

func candidates(t *testing.T, ix *index.Index, grams ...string) []string {
	t.Helper()
	ids, _, ok := ix.CandidatesWithBounds(grams)
	if !ok {
		t.Fatalf("Candidates(%v) cannot answer", grams)
	}
	ids, _ = index.ByID(ids, nil)
	return ids
}

func TestIndexAddDeleteCandidates(t *testing.T) {
	ix := index.New(3)
	ix.Add(doc([]string{"hello"}))
	d2 := doc([]string{"help", "felt"})
	d2.ID = "u"
	ix.Add(d2)

	if got := candidates(t, ix, "ell"); !reflect.DeepEqual(got, []string{"t"}) {
		t.Errorf("Candidates(ell) = %v, want [t]", got)
	}
	if got := candidates(t, ix, "hel"); !reflect.DeepEqual(got, []string{"t", "u"}) {
		t.Errorf("Candidates(hel) = %v, want [t u]", got)
	}
	if got := candidates(t, ix, "hel", "elp"); !reflect.DeepEqual(got, []string{"u"}) {
		t.Errorf("Candidates(hel,elp) = %v, want [u]", got)
	}
	if got := candidates(t, ix, "zzz"); len(got) != 0 {
		t.Errorf("Candidates(zzz) = %v, want empty", got)
	}
	if _, _, ok := ix.CandidatesWithBounds(nil); ok {
		t.Error("Candidates(no grams) must refuse to answer")
	}

	ix.Delete("t")
	if got := candidates(t, ix, "hel"); !reflect.DeepEqual(got, []string{"u"}) {
		t.Errorf("after delete, Candidates(hel) = %v, want [u]", got)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
}

func TestIndexSupersede(t *testing.T) {
	ix := index.New(3)
	ix.Add(doc([]string{"aaaa"}))
	ix.Add(doc([]string{"bbbb"})) // same ID "t": replaces
	if got := candidates(t, ix, "aaa"); len(got) != 0 {
		t.Errorf("superseded grams still matching: %v", got)
	}
	if got := candidates(t, ix, "bbb"); !reflect.DeepEqual(got, []string{"t"}) {
		t.Errorf("Candidates(bbb) = %v, want [t]", got)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
}

func TestIndexOverflowDocAlwaysCandidate(t *testing.T) {
	ix := index.New(3)
	ix.Apply([]index.Entry{{ID: "big", Overflow: true}}, nil)
	ix.Add(doc([]string{"hello"}))
	if got := candidates(t, ix, "zzz"); !reflect.DeepEqual(got, []string{"big"}) {
		t.Errorf("Candidates(zzz) = %v, want the overflow doc", got)
	}
	if got := candidates(t, ix, "ell"); !reflect.DeepEqual(got, []string{"big", "t"}) {
		t.Errorf("Candidates(ell) = %v, want [big t]", got)
	}
	ix.Delete("big")
	if got := candidates(t, ix, "zzz"); len(got) != 0 {
		t.Errorf("deleted overflow doc still a candidate: %v", got)
	}
}

func TestIndexEntriesRoundTrip(t *testing.T) {
	ix := index.New(3)
	ix.Add(doc([]string{"hello", "hallo"}))
	d2 := doc([]string{"world"})
	d2.ID = "u"
	ix.Add(d2)
	ix.Apply([]index.Entry{{ID: "big", Overflow: true}}, nil)

	ix2 := index.New(3)
	if err := ix2.Commit(ix.Snapshot(), nil, diskstore.CommitState{}); err != nil {
		t.Fatal(err)
	}
	for _, grams := range [][]string{{"ell"}, {"hal"}, {"orl"}, {"zzz"}} {
		a := candidates(t, ix, grams...)
		b := candidates(t, ix2, grams...)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Candidates(%v): %v vs round-tripped %v", grams, a, b)
		}
	}
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), index.FileName)
	ix := index.New(3)
	ix.Add(doc([]string{"hello"}))
	st := diskstore.CommitState{Ops: 7, Bytes: 1234}
	if err := ix.Persist(framelog.OS, path, st, false); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := index.Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != st {
		t.Errorf("state = %+v, want %+v", gotSt, st)
	}
	if !reflect.DeepEqual(got.Entries(), ix.Entries()) {
		t.Errorf("entries = %+v, want %+v", got.Entries(), ix.Entries())
	}
}

func TestAppendReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), index.FileName)
	ix := index.New(3)
	if err := ix.Persist(framelog.OS, path, diskstore.CommitState{}, true); err != nil {
		t.Fatal(err)
	}
	e1 := index.EntryFor(doc([]string{"hello"}), 3)
	if err := ix.Commit(index.Invert([]index.Entry{e1}), nil, diskstore.CommitState{Ops: 1, Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(index.Invert(nil), []string{"t"}, diskstore.CommitState{Ops: 2, Bytes: 20}); err != nil {
		t.Fatal(err)
	}
	d2 := doc([]string{"world"})
	d2.ID = "u"
	if err := ix.Commit(index.Invert([]index.Entry{index.EntryFor(d2, 3)}), nil, diskstore.CommitState{Ops: 3, Bytes: 30}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	got, st, err := index.Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if (st != diskstore.CommitState{Ops: 3, Bytes: 30}) {
		t.Errorf("state = %+v, want ops 3 bytes 30", st)
	}
	if got.Len() != 1 {
		t.Errorf("Len = %d, want 1 (t deleted)", got.Len())
	}
	if ids := candidates(t, got, "orl"); !reflect.DeepEqual(ids, []string{"u"}) {
		t.Errorf("Candidates(orl) = %v, want [u]", ids)
	}
}

func TestLoadTornTailTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), index.FileName)
	ix := index.New(3)
	ix.Add(doc([]string{"hello"}))
	if err := ix.Persist(framelog.OS, path, diskstore.CommitState{Ops: 1, Bytes: 1}, true); err != nil {
		t.Fatal(err)
	}
	d2 := doc([]string{"world"})
	d2.ID = "u"
	if err := ix.Commit(index.Invert([]index.Entry{index.EntryFor(d2, 3)}), nil, diskstore.CommitState{Ops: 2, Bytes: 2}); err != nil {
		t.Fatal(err)
	}
	ix.Close()

	// Tear the last record: drop its final 3 bytes.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	full := fi.Size()
	if err := os.Truncate(path, full-3); err != nil {
		t.Fatal(err)
	}

	got, st, err := index.Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if (st != diskstore.CommitState{Ops: 1, Bytes: 1}) {
		t.Errorf("state after torn tail = %+v, want the snapshot's", st)
	}
	if got.Len() != 1 {
		t.Errorf("Len = %d, want 1 (torn add dropped)", got.Len())
	}
	// The torn bytes must be gone so future appends land on a frame
	// boundary.
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= full-3 {
		t.Errorf("file size %d not truncated below %d", fi.Size(), full-3)
	}
}

// TestLoadSweepsStrandedTemp: a crash in the middle of a rewrite strands
// the staging file beside the log. Load removes it, and loads the log as
// it stands: its every commit, its last stamp, not a byte rewritten.
func TestLoadSweepsStrandedTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), index.FileName)
	ix := index.New(3)
	ix.Add(doc([]string{"hello"}))
	if err := ix.Persist(framelog.OS, path, diskstore.CommitState{Ops: 1}, true); err != nil {
		t.Fatal(err)
	}
	d2 := doc([]string{"world"})
	d2.ID = "u"
	if err := ix.Commit(index.Invert([]index.Entry{index.EntryFor(d2, 3)}), nil, diskstore.CommitState{Ops: 2, Bytes: 20}); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+framelog.TempSuffix, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, st, err := index.Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + framelog.TempSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("staging file after Load: %v, want it removed", err)
	}
	if after, _ := os.ReadFile(path); !reflect.DeepEqual(after, before) {
		t.Error("Load changed the log")
	}
	if (st != diskstore.CommitState{Ops: 2, Bytes: 20}) {
		t.Errorf("state = %+v, want the appended commit's", st)
	}
	if ids := candidates(t, got, "orl"); got.Len() != 2 || !reflect.DeepEqual(ids, []string{"u"}) {
		t.Errorf("Len = %d, Candidates(orl) = %v; want 2 and [u]", got.Len(), ids)
	}
}

func TestLoadMissingAndMismatched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, index.FileName)
	if _, _, err := index.Load(path, 3); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Load(missing) err = %v, want fs.ErrNotExist", err)
	}
	ix := index.New(4)
	if err := ix.Persist(framelog.OS, path, diskstore.CommitState{}, false); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := index.Load(path, 3); !errors.Is(err, index.ErrMismatch) {
		t.Errorf("Load(q=3 over q=4 file) err = %v, want ErrMismatch", err)
	}
	if err := os.WriteFile(path, []byte("not an index file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := index.Load(path, 3); !errors.Is(err, index.ErrMismatch) {
		t.Errorf("Load(garbage) err = %v, want ErrMismatch", err)
	}
}

func TestStats(t *testing.T) {
	ix := index.New(3)
	ix.Add(doc([]string{"hello"}))
	ix.Apply([]index.Entry{{ID: "big", Overflow: true}}, nil)
	if st, want := ix.Stats(), (index.Stats{Docs: 2, Grams: 3, Postings: 3, OverflowDocs: 1}); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	// Postings is counted as Apply appends, dead postings included: a
	// supersede adds the new entry's grams (hel again, elp new) and takes
	// nothing away, nor does a delete.
	ix.Add(doc([]string{"help"}))
	ix.Delete("big")
	if st, want := ix.Stats(), (index.Stats{Docs: 1, Grams: 4, Postings: 5}); st != want {
		t.Errorf("after a supersede and a delete: Stats = %+v, want %+v", st, want)
	}
}

// TestDuplicateIDInOneCommit: an ID added twice by one commit ends at its
// last entry — in the index that applied the commit and, because the log
// stores the commit's own ordinals, in one that loads it.
func TestDuplicateIDInOneCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), index.FileName)
	logged := index.New(3)
	if err := logged.Persist(framelog.OS, path, diskstore.CommitState{}, false); err != nil {
		t.Fatal(err)
	}
	other := doc([]string{"world"})
	other.ID = "u"
	commit := index.Invert([]index.Entry{
		index.EntryFor(doc([]string{"hello"}), 3), index.EntryFor(other, 3), index.EntryFor(doc([]string{"help"}), 3),
	})
	if err := logged.Commit(commit, nil, diskstore.CommitState{Ops: 1}); err != nil {
		t.Fatal(err)
	}
	if err := logged.Close(); err != nil {
		t.Fatal(err)
	}
	applied := index.New(3)
	if err := applied.Commit(commit, nil, diskstore.CommitState{}); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := index.Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	for when, ix := range map[string]*index.Index{"applied": applied, "loaded": loaded} {
		if ix.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2", when, ix.Len())
		}
		if got := candidates(t, ix, "llo"); len(got) != 0 {
			t.Errorf("%s: the superseded entry still answers: %v", when, got)
		}
		if got := candidates(t, ix, "hel"); !reflect.DeepEqual(got, []string{"t"}) {
			t.Errorf("%s: Candidates(hel) = %v, want [t]", when, got)
		}
		if got := candidates(t, ix, "elp"); !reflect.DeepEqual(got, []string{"t"}) {
			t.Errorf("%s: Candidates(elp) = %v, want [t]", when, got)
		}
	}
}
