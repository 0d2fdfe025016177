package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// assertAligned checks the invariant every lookup indexes by: each gram's
// bound list is exactly as long as its posting list.
func assertAligned(t *testing.T, when string, ix *Index) {
	t.Helper()
	for _, part := range ix.cur.Load().parts {
		for k, g := range part.grams {
			if p := part.Batch.run(k); len(p.ords) != len(p.bnds) {
				t.Fatalf("%s: gram %q has %d postings but %d bounds", when, g, len(p.ords), len(p.bnds))
			}
		}
	}
}

// TestPostingsAndBoundsStayAligned drives random Apply sequences — adds,
// supersedes, deletes, overflow documents, hand-built entries with short
// or missing Bounds — through the in-memory index, the append log, and
// snapshot round trips. Candidates, intersect, and Snapshot index
// a gram's bnds by posting position without a length check, which is only
// sound while this holds.
func TestPostingsAndBoundsStayAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grams := []string{"abc", "bcd", "cde", "def", "efg", "fgh"}
	randomEntry := func() Entry {
		e := Entry{ID: fmt.Sprintf("d%02d", rng.Intn(30))}
		if rng.Intn(8) == 0 {
			e.Overflow = true
			return e
		}
		for _, g := range grams {
			if rng.Intn(2) == 0 {
				e.Grams = append(e.Grams, g)
				e.Bounds = append(e.Bounds, Quantize(rng.Float64()))
			}
		}
		if rng.Intn(4) == 0 && len(e.Bounds) > 0 {
			e.Bounds = e.Bounds[:rng.Intn(len(e.Bounds))] // hand-built: short or empty Bounds
		}
		return e
	}
	path := filepath.Join(t.TempDir(), FileName)
	ix := New(3)
	if err := ix.Persist(framelog.OS, path, diskstore.CommitState{}, false); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		var adds []Entry
		var dels []string
		seen := map[string]bool{}
		for n := rng.Intn(4); n > 0; n-- {
			if e := randomEntry(); !seen[e.ID] {
				seen[e.ID] = true
				adds = append(adds, e)
			}
		}
		for n := rng.Intn(3); n > 0; n-- {
			if id := fmt.Sprintf("d%02d", rng.Intn(30)); !seen[id] {
				seen[id] = true
				dels = append(dels, id)
			}
		}
		if err := ix.Commit(Invert(adds), dels, diskstore.CommitState{Ops: uint64(step + 1)}); err != nil {
			t.Fatal(err)
		}
		assertAligned(t, fmt.Sprintf("after Apply %d", step), ix)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, _, err := Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertAligned(t, "after Load of the append log", replayed)

	if err := replayed.Persist(framelog.OS, path, diskstore.CommitState{Ops: 200}, false); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertAligned(t, "after Load of a snapshot", snap)
	for _, g := range grams {
		want, wantB, _ := ix.CandidatesWithBounds([]string{g})
		got, gotB, _ := snap.CandidatesWithBounds([]string{g})
		want, wantB = ByID(want, wantB)
		got, gotB = ByID(got, gotB)
		if fmt.Sprint(want, wantB) != fmt.Sprint(got, gotB) {
			t.Fatalf("gram %q: snapshot round trip changed the answer\n live: %v %v\n snap: %v %v", g, want, wantB, got, gotB)
		}
	}
}
