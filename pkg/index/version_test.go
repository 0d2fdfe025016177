package index

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// TestReadersPinAVersion races lookups against a writer's commits and a
// second writer's rewrites (Persist), which merge every part into one.
// Every commit adds two documents, overwrites one and deletes another,
// so the live count a lookup reports names the commit whose version it
// read. Each answer must equal, as a set of (ID, bound) pairs, the
// answer of an index built fresh by one Commit of the documents live
// after that commit: a reader sees a whole commit or none of it. Run it
// under -race.
func TestReadersPinAVersion(t *testing.T) {
	const start, commits, readers = 8, 120, 4
	SetRewriteFloor(t, 1<<10)
	rng := rand.New(rand.NewSource(3))
	entry := func(id string) Entry {
		e := opsEntries[rng.Intn(len(opsEntries))]
		e.ID = id
		return e
	}
	type commit struct {
		adds []Entry
		dels []string
	}
	var plan []commit
	live := map[string]Entry{}
	var ids []string    // live IDs, in the order they were added
	var want [][]string // per commit, per lookup: the fresh index's answer
	// answer is one lookup's answer and the live count it reports.
	answer := func(ix *Index, l Lookup) (string, int) {
		got, bounds, _, n, ok := ix.sortedCandidates(l)
		return fmt.Sprint(got, bounds, ok), n
	}
	for k := 0; k <= commits; k++ {
		var c commit
		if k == 0 {
			for i := range start {
				c.adds = append(c.adds, entry(fmt.Sprintf("d%03d", i)))
			}
		} else {
			over := ids[rng.Intn(len(ids))]
			gone := over
			for gone == over {
				gone = ids[rng.Intn(len(ids))]
			}
			c.adds = []Entry{entry(fmt.Sprintf("n%03d-a", k)), entry(over), entry(fmt.Sprintf("n%03d-b", k))}
			c.dels = []string{gone}
		}
		for _, id := range c.dels {
			delete(live, id)
			ids = slices.DeleteFunc(ids, func(x string) bool { return x == id })
		}
		for _, e := range c.adds {
			if _, ok := live[e.ID]; !ok {
				ids = append(ids, e.ID)
			}
			live[e.ID] = e
		}
		plan = append(plan, c)
		fresh := New(3)
		var all []Entry
		for _, id := range ids {
			all = append(all, live[id])
		}
		fresh.Apply(all, nil)
		var answers []string
		for _, l := range opsLookups {
			a, _ := answer(fresh, l)
			answers = append(answers, a)
		}
		want = append(want, answers)
	}

	fsys := framelog.NewMemFS()
	ix := New(3)
	if err := ix.Persist(fsys, FileName, diskstore.CommitState{}, false); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(Invert(plan[0].adds), nil, diskstore.CommitState{Ops: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var writers, lookers sync.WaitGroup
	var looked atomic.Int64 // lookups answered
	var failed atomic.Bool  // a reader stopped at a wrong answer
	writers.Add(2)
	go func() {
		defer writers.Done()
		for k, c := range plan[1:] {
			// Some lookup runs between any two commits, until a reader
			// fails and stops looking.
			for n := looked.Load(); looked.Load() == n && !failed.Load(); {
				runtime.Gosched()
			}
			if failed.Load() {
				return
			}
			if err := ix.Commit(Invert(c.adds), c.dels, diskstore.CommitState{Ops: uint64(k + 2)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < commits/8; i++ {
			if err := ix.Persist(fsys, FileName, diskstore.CommitState{}, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	versions := make([]map[int]bool, readers) // the commits each reader saw
	for r := range readers {
		versions[r] = map[int]bool{}
		lookers.Add(1)
		go func() {
			defer lookers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, l := range opsLookups {
					got, n := answer(ix, l)
					if k := n - start; k < 0 || k > commits {
						t.Errorf("a lookup reported %d live documents, no commit's count", n)
						failed.Store(true)
						return
					} else if got != want[k][i] {
						t.Errorf("lookup %d on the version of commit %d: got %s, want %s", i, k, got, want[k][i])
						failed.Store(true)
						return
					} else {
						versions[r][k] = true
					}
					looked.Add(1)
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	lookers.Wait()
	saw := map[int]bool{}
	for _, v := range versions {
		maps.Copy(saw, v)
	}
	if len(saw) < commits/4 {
		t.Errorf("the readers saw %d of %d versions; the test means them to run beside the commits", len(saw), commits+1)
	}
}
