package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// opsEntries is the pool FuzzIndexOps writes documents from: hand-built
// entries over the 64 grams of the alphabet "abcd", so that documents share
// grams, with an overflow entry and two whose readings are short. Some
// also hold 日本語 or 日本誌, nine-byte grams that share their first seven
// bytes.
var opsEntries = func() []Entry {
	rng := rand.New(rand.NewSource(5))
	out := make([]Entry, 16)
	for i := range out {
		e := &out[i]
		e.Overflow, e.Short = i == 0, i == 1 || i == 2
		if e.Overflow {
			continue
		}
		for g := 0; g < 64; g++ {
			if rng.Intn(6) == 0 {
				e.Grams = append(e.Grams, string([]byte{'a' + byte(g/16), 'a' + byte(g/4%4), 'a' + byte(g%4)}))
				e.Bounds = append(e.Bounds, uint16(rng.Intn(maxBound+1)))
			}
		}
		for _, g := range []string{"日本語", "日本誌"} {
			if rng.Intn(3) == 0 {
				e.Grams = append(e.Grams, g)
				e.Bounds = append(e.Bounds, uint16(rng.Intn(maxBound+1)))
			}
		}
	}
	return out
}()

// opsLookups are the four lookups FuzzIndexOps puts after every step: a
// Grams, a Patterns with wildcards, an And and an Or.
var opsLookups = []Lookup{
	{Grams: []string{"abc", "bcd"}},
	{Patterns: [][]rune{{'a', -1, 'c'}, {'b', 'c', -1, 'a'}}},
	{And: []Lookup{{Grams: []string{"bca"}}, {Patterns: [][]rune{{-1, 'd', 'a', 'b'}}}}},
	{Or: []Lookup{{Grams: []string{"aaa"}}, {Grams: []string{"dcb", "日本誌"}}, {Patterns: [][]rune{{'c', -1, -1, 'd'}, {'日', '本', -1}}}}},
}

// FuzzIndexOps is a model check of the index's whole life. The input
// decodes to steps — a commit of new IDs, overwrites and a delete; a
// forced rewrite (Persist); a close and reopen that loads the log — over
// eight IDs and the opsEntries pool. After every step each of opsLookups
// must answer, as a set of (ID, bound) pairs and with the same live
// count, exactly what an index built fresh by one Commit of the
// documents then live answers. The rewrite floor is lowered so that
// commits rewrite the log on their own as well.
func FuzzIndexOps(f *testing.F) {
	SetRewriteFloor(f, 600)
	f.Add([]byte{0, 3, 1, 2, 3, 0, 4, 5, 6, 7, 1})
	f.Add([]byte{0, 0x47, 0x12, 0x9c, 2, 0, 0x31, 0xe0, 3, 1, 0x55, 0x10, 3, 0, 0x23})
	f.Add([]byte{1, 0xff, 0x01, 0x7e, 0, 0x80, 0x40, 0x20, 2, 3, 0, 0x11, 0x22, 0x33, 0x44, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := framelog.NewMemFS()
		ix := New(3)
		if err := ix.Persist(fsys, FileName, diskstore.CommitState{}, false); err != nil {
			t.Fatal(err)
		}
		live := map[string]Entry{}
		ops := uint64(0)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for step := 0; len(data) > 0 && step < 64; step++ {
			var did string
			switch op := next() % 4; op {
			case 0, 1: // a commit: up to three puts, then perhaps a delete
				var adds []Entry
				var dels []string
				named := map[string]bool{}
				for n := next()%3 + 1; n > 0; n-- {
					b := next()
					id := fmt.Sprintf("d%d", b%8)
					e := opsEntries[b/8%16]
					e.ID = id
					adds = append(adds, e)
					named[id] = true
				}
				if b := next(); b%2 == 1 && !named[fmt.Sprintf("d%d", b/2%8)] {
					dels = append(dels, fmt.Sprintf("d%d", b/2%8))
				}
				for _, id := range dels {
					delete(live, id)
				}
				for _, e := range adds {
					live[e.ID] = e
				}
				ops++
				if err := ix.Commit(Invert(adds), dels, diskstore.CommitState{Ops: ops}); err != nil {
					t.Fatal(err)
				}
				did = fmt.Sprintf("commit %d (%d puts, dels %v)", ops, len(adds), dels)
			case 2:
				if err := ix.Persist(fsys, FileName, diskstore.CommitState{Ops: ops}, false); err != nil {
					t.Fatal(err)
				}
				did = "persist"
			case 3:
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				ix, err = Open(fsys, FileName, diskstore.CommitState{Ops: ops}, false, func(*Index) error {
					return fmt.Errorf("the log of commit %d did not load", ops)
				})
				if err != nil {
					t.Fatal(err)
				}
				did = "reopen"
			}
			want := New(3)
			ids := make([]string, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			var fresh []Entry
			for _, id := range ids {
				fresh = append(fresh, live[id])
			}
			if err := want.Commit(Invert(fresh), nil, diskstore.CommitState{}); err != nil {
				t.Fatal(err)
			}
			for i, l := range opsLookups {
				gotIDs, gotB, _, gotLive, gotOK := ix.sortedCandidates(l)
				wantIDs, wantB, _, wantLive, wantOK := want.sortedCandidates(l)
				if gotOK != wantOK || gotLive != wantLive || !reflect.DeepEqual(gotIDs, wantIDs) || !reflect.DeepEqual(gotB, wantB) {
					t.Fatalf("step %d (%s), lookup %d: got %v %v live %d ok %v, want %v %v live %d ok %v",
						step, did, i, gotIDs, gotB, gotLive, gotOK, wantIDs, wantB, wantLive, wantOK)
				}
			}
		}
		ix.Close()
	})
}
