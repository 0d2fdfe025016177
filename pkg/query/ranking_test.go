package query

import (
	"fmt"
	"math"
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
		quantized := make([]uint16, n)
		for i, b := range bounds {
			quantized[i] = index.Quantize(b)
		}
		set := &CandidateSet{ans: index.AnswerOf(slices.Clone(ids), quantized, 0, 0)}
		want := set.Ranked()
		minProb := []float64{0, 0, rng.Float64(), q(0.5), 1}[rng.Intn(5)]
		usable := len(want)
		if minProb > 0 {
			usable = sort.Search(usable, func(i int) bool { return want[i].Bound*boundSlack < minProb })
		}
		what := fmt.Sprintf("trial %d: %d candidates, MinProb %v", trial, n, minProb)

		seq := rankCandidates(set, minProb)
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
		for k := range n {
			if set.ans.ID(k) != ids[k] || set.ans.Bound(k) != quantized[k] {
				t.Fatalf("%s: ranking and IDs reordered the set's own candidates", what)
			}
		}
	}
}

// TestUsableFromMatchesFloatRule: over every one of the 65,536 quantized
// bounds and a grid of MinProb values — each bound's own value, widened
// and not, and the floats next to them, the edges of [0, 1] and past
// them — a candidate is cut by the integer threshold exactly when the
// float rule cuts it: its bound, raised to 1 where the slack widens it to
// 1 or more, widened by the slack and below MinProb. bound is that raised
// bound.
func TestUsableFromMatchesFloatRule(t *testing.T) {
	raised := func(q uint16) float64 {
		if b := index.Dequantize(q); b*boundSlack < 1 {
			return b
		}
		return 1
	}
	grid := []float64{math.Inf(-1), -1, 0, math.NaN(), 1e-300, 1, math.Nextafter(1, 2), boundSlack, math.Nextafter(boundSlack, 2), 2, math.Inf(1)}
	rng := rand.New(rand.NewSource(65536))
	for range 64 {
		b := index.Dequantize(uint16(rng.Intn(1 << 16)))
		for _, p := range []float64{b, b * boundSlack} {
			grid = append(grid, p, math.Nextafter(p, 0), math.Nextafter(p, 2))
		}
		grid = append(grid, rng.Float64())
	}
	for q := range 1 << 16 {
		if got, want := bound(uint16(q)), raised(uint16(q)); got != want {
			t.Fatalf("bound(%d) = %v, want %v", q, got, want)
		}
	}
	for _, minProb := range grid {
		from := usableFrom(minProb)
		for q := range 1 << 16 {
			cut := minProb > 0 && raised(uint16(q))*boundSlack < minProb
			if (q < from) != cut {
				t.Fatalf("MinProb %v: bound %d (%v) is cut %v by the threshold %d, %v by the float rule", minProb, q, index.Dequantize(uint16(q)), q < from, from, cut)
			}
		}
	}
}
