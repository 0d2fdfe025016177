package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestInvert pins what a Batch holds for entries EntryFor would never
// produce as well as those it would: unsorted grams, a gram listed twice
// (kept once, at the larger bound), missing bounds (read as 1), and an
// overflow entry, whose grams are dropped.
func TestInvert(t *testing.T) {
	b := Invert([]Entry{
		{ID: "a", Grams: []string{"bcd", "abc", "bcd"}, Bounds: []uint16{5, 7, 9}},
		{ID: "over", Grams: []string{"abc"}, Overflow: true, Short: true},
		{ID: "c", Grams: []string{"abc", "xyz"}, Bounds: []uint16{3}, Short: true},
	})
	want := &Batch{
		ids:   []string{"a", "over", "c"},
		flags: []byte{0, flagOverflow, flagShort},
		grams: []string{"abc", "bcd", "xyz"},
		ends:  []uint32{2, 3, 4},
		ords:  []uint32{0, 2, 0, 2},
		bnds:  []uint16{7, 3, 9, maxBound},
	}
	if !reflect.DeepEqual(b, want) {
		t.Errorf("Invert = %+v, want %+v", b, want)
	}
	if got := Invert(nil); len(got.ids)+len(got.grams) != 0 {
		t.Errorf("Invert(nil) = %+v, want the empty batch", got)
	}
	// Un-inverting gives the entries back, canonical: sorted, deduplicated,
	// every bound present, an overflow entry bare.
	entries := b.Entries()
	if again := Invert(entries); !reflect.DeepEqual(again, b) {
		t.Errorf("Invert(Entries()) = %+v, want %+v", again, b)
	}
}

// TestMergeEqualsInvert merges the batches of consecutive ranges of random
// entries — as few ranges as Commit's tiering joins, and more than
// maxFanIn, as load's can — with and without dead documents, and requires
// the batch of the live entries inverted at once.
func TestMergeEqualsInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ranges := range []int{1, 2, maxFanIn, maxFanIn + 1, 100} {
		for _, withDead := range []bool{false, true} {
			var all, live []Entry
			var parts []*Batch
			var dead []uint64
			for range ranges {
				var entries []Entry
				for range 1 + rng.Intn(4) {
					e := Entry{ID: fmt.Sprintf("d%d", len(all)), Overflow: rng.Intn(8) == 0, Short: rng.Intn(4) == 0}
					for range rng.Intn(6) {
						e.Grams = append(e.Grams, string([]byte{"abc"[rng.Intn(3)], "abc"[rng.Intn(3)], "xy"[rng.Intn(2)]}))
						e.Bounds = append(e.Bounds, uint16(1+rng.Intn(maxBound)))
					}
					if e.Overflow {
						e.Short = false
					}
					if withDead && rng.Intn(3) == 0 {
						o := len(all)
						for len(dead) <= o/64 {
							dead = append(dead, 0)
						}
						dead[o/64] |= 1 << (o % 64)
					} else {
						live = append(live, e)
					}
					all, entries = append(all, e), append(entries, e)
				}
				parts = append(parts, Invert(entries))
			}
			got, want := merge(parts, dead), Invert(live)
			if !slices.Equal(got.ids, want.ids) || !slices.Equal(got.flags, want.flags) || !slices.Equal(got.grams, want.grams) ||
				!slices.Equal(got.ends, want.ends) || !slices.Equal(got.ords, want.ords) || !slices.Equal(got.bnds, want.bnds) {
				t.Errorf("%d ranges, dead %t: merge = %+v, want %+v", ranges, withDead, got, want)
			}
		}
	}
}
