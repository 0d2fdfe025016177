package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/index"
)

// TestRankingMatchesRanked: over random candidate sets — many ties at the
// bound 1, many at one of a few quantized bounds, IDs in shuffled order —
// the top-k ranking hands out exactly the positions Ranked lists, under
// every kind of round schedule: each take returns the next positions'
// IDs, ascending, and peek the position after them. Its usable count is
// where sort.Search over Ranked puts the MinProb cut. Neither the ranking
// nor IDs, which sorts by ID, changes the set's own storage.
func TestRankingMatchesRanked(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	q := func(p float64) float64 { return index.Dequantize(index.Quantize(p)) }
	ties := []float64{1, 1, q(0.5), q(0.25), 0}
	for trial := range 600 {
		n := rng.Intn(300)
		ids, bounds := make([]string, n), make([]float64, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("d%04d", i)
			if bounds[i] = q(rng.Float64()); rng.Intn(3) > 0 {
				bounds[i] = ties[rng.Intn(len(ties))]
			}
		}
		rng.Shuffle(n, func(i, j int) {
			ids[i], ids[j] = ids[j], ids[i]
			bounds[i], bounds[j] = bounds[j], bounds[i]
		})
		set := &CandidateSet{ids: slices.Clone(ids), bounds: slices.Clone(bounds)}
		want := set.Ranked()
		minProb := []float64{0, 0, rng.Float64(), q(0.5), 1}[rng.Intn(5)]
		usable := len(want)
		if minProb > 0 {
			usable = sort.Search(usable, func(i int) bool { return want[i].Bound*boundSlack < minProb })
		}
		what := fmt.Sprintf("trial %d: %d candidates, MinProb %v", trial, n, minProb)

		seq := rankBounds(set, minProb)
		if seq.usable != usable || seq.total != n {
			t.Fatalf("%s: %d of %d positions usable, want %d of %d", what, seq.usable, seq.total, usable, n)
		}
		schedule := rng.Intn(3)
		for next, size := 0, firstRound(1+rng.Intn(20), usable); next < usable; {
			switch schedule {
			case 0:
				size = 1
			case 1:
				size = 1 + rng.Intn(40)
			}
			size = min(size, usable-next)
			got := seq.take(size)
			wantIDs := make([]string, 0, size)
			for _, c := range want[next : next+size] {
				wantIDs = append(wantIDs, c.ID)
			}
			slices.Sort(wantIDs)
			if !slices.Equal(got, wantIDs) {
				t.Fatalf("%s, schedule %d: positions [%d, %d) = %v, want %v", what, schedule, next, next+size, got, wantIDs)
			}
			next += size
			if next < usable && seq.peek() != want[next] {
				t.Fatalf("%s, schedule %d: position %d = %+v, want %+v", what, schedule, next, seq.peek(), want[next])
			}
			size *= 2
		}

		byID := slices.Sorted(slices.Values(ids))
		if got := set.IDs(); !reflect.DeepEqual(got, byID) {
			t.Fatalf("%s: IDs = %v, want %v", what, got, byID)
		}
		if !slices.Equal(set.ids, ids) || !slices.Equal(set.bounds, bounds) {
			t.Fatalf("%s: ranking and IDs reordered the set's own candidates", what)
		}
	}
}
