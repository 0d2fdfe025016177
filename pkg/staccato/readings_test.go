package staccato_test

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// enumerated pairs one reading with its probability and its position in
// Readings' index-order enumeration (the tie-break BestReadings promises).
type enumerated struct {
	text string
	prob float64
	ord  int
}

// bruteBest replays Doc.Readings and sorts it the way BestReadings
// promises to enumerate: probability descending, ties by index order.
func bruteBest(d *staccato.Doc) []enumerated {
	var all []enumerated
	d.Readings(func(text string, prob float64) bool {
		all = append(all, enumerated{text: text, prob: prob, ord: len(all)})
		return true
	})
	sort.SliceStable(all, func(i, j int) bool { return all[i].prob > all[j].prob })
	return all
}

// TestBestReadingsMatchesBruteForce checks the lazy enumeration against
// the exhaustive oracle on a battery of generated documents: same
// readings, same order, bit-identical probabilities.
func TestBestReadingsMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, f := testgen.MustGenerate(testgen.Config{Length: 18, Seed: seed})
		doc, err := staccato.Build(f, "d", 3, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := bruteBest(doc)
		var got []enumerated
		doc.BestReadings(func(text string, prob float64) bool {
			got = append(got, enumerated{text: text, prob: prob})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: BestReadings emitted %d readings, Readings has %d", seed, len(got), len(want))
		}
		for i := range got {
			//lint:allow floateq BestReadings documents bit-identical probabilities with Readings (same multiplication order); an epsilon test would hide an order regression
			if got[i].text != want[i].text || got[i].prob != want[i].prob {
				t.Fatalf("seed %d: reading %d: got (%q, %v), want (%q, %v)",
					seed, i, got[i].text, got[i].prob, want[i].text, want[i].prob)
			}
		}
		// Early stop: asking for just the best reading must yield the MAP
		// string (per-chunk top alternatives), the k-best base case.
		var first string
		calls := 0
		doc.BestReadings(func(text string, _ float64) bool {
			first = text
			calls++
			return false
		})
		if calls != 1 || first != doc.MAP() {
			t.Fatalf("seed %d: first BestReadings reading %q (calls=%d), want MAP %q", seed, first, calls, doc.MAP())
		}
	}
}

// TestBestReadingsDegenerateDocs pins the edge cases: a chunkless doc has
// exactly the empty reading at probability 1, and a doc with an empty
// alternative list encodes no complete reading at all.
func TestBestReadingsDegenerateDocs(t *testing.T) {
	empty := &staccato.Doc{ID: "empty"}
	n := 0
	empty.BestReadings(func(text string, prob float64) bool {
		//lint:allow floateq the empty product is exactly 1 by definition, not a computed probability
		if text != "" || prob != 1 {
			t.Fatalf("empty doc reading = (%q, %v), want (\"\", 1)", text, prob)
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("empty doc emitted %d readings, want 1", n)
	}

	hollow := &staccato.Doc{ID: "hollow", Chunks: []staccato.PathSet{{}}}
	hollow.BestReadings(func(string, float64) bool {
		t.Fatal("doc with an empty chunk must emit no readings")
		return false
	})
}

// TestBestReadingsRankUnsortedAlternatives feeds documents whose chunks
// list their alternatives in an order other than Build's — as an ingest
// request may — and requires BestReadings and MAP to rank them anyway:
// the best reading first, and the same enumeration as the sorted
// document's.
func TestBestReadingsRankUnsortedAlternatives(t *testing.T) {
	d := &staccato.Doc{ID: "u", Chunks: []staccato.PathSet{
		{Alts: []staccato.Alt{{Text: "xab", Prob: 0.2}, {Text: "yab", Prob: 0.8}}, Retained: 1},
	}}
	if got := d.MAP(); got != "yab" {
		t.Fatalf("MAP = %q, want the p=0.8 alternative \"yab\"", got)
	}
	d.BestReadings(func(text string, prob float64) bool {
		if text != "yab" || math.Float64bits(prob) != math.Float64bits(0.8) {
			t.Fatalf("best reading (%q, %v), want (\"yab\", 0.8)", text, prob)
		}
		return false
	})

	for seed := int64(1); seed <= 4; seed++ {
		_, f := testgen.MustGenerate(testgen.Config{Length: 18, Seed: seed})
		sorted, err := staccato.Build(f, "d", 3, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		shuffled := &staccato.Doc{ID: sorted.ID, Chunks: make([]staccato.PathSet, len(sorted.Chunks))}
		for i, c := range sorted.Chunks {
			alts := append([]staccato.Alt(nil), c.Alts...)
			slices.Reverse(alts)
			shuffled.Chunks[i] = staccato.PathSet{Alts: alts, Retained: c.Retained}
		}
		if got, want := shuffled.MAP(), sorted.MAP(); got != want {
			t.Fatalf("seed %d: MAP of reversed alternatives %q, want %q", seed, got, want)
		}
		var want, got []enumerated
		sorted.BestReadings(func(text string, prob float64) bool {
			want = append(want, enumerated{text: text, prob: prob})
			return true
		})
		shuffled.BestReadings(func(text string, prob float64) bool {
			got = append(got, enumerated{text: text, prob: prob})
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: reversed alternatives enumerate\n%v\nwant\n%v", seed, got, want)
		}
	}
}
