package index

import (
	"reflect"
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
