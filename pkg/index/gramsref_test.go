package index

import (
	"math"
	"sort"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// referenceGramMass is the boundary DP as it was first written — a string
// per window, maps keyed by them — kept as the oracle for docGramMass, which
// must visit the same events in the same order and so produce the same
// floats.
func referenceGramMass(doc *staccato.Doc, q int) (grams []string, bounds []float64, ok bool) {
	mass := make(map[string]float64)
	suffixes := map[string]float64{"": 1}
	window := make(map[string]struct{}, 8)
	for _, ch := range doc.Chunks {
		alts := ch.Alts
		if len(alts) == 0 {
			alts = []staccato.Alt{{}}
		}
		tails := make([]string, 0, len(suffixes))
		for t := range suffixes {
			tails = append(tails, t)
		}
		sort.Strings(tails)
		next := make(map[string]float64, len(suffixes))
		for _, tail := range tails {
			tailMass := suffixes[tail]
			for _, alt := range alts {
				w := tailMass * alt.Prob
				runes := []rune(tail + alt.Text)
				clear(window)
				for i := 0; i+q <= len(runes); i++ {
					g := string(runes[i : i+q])
					if _, dup := window[g]; dup {
						continue
					}
					window[g] = struct{}{}
					mass[g] += w
				}
				next[string(runes[len(runes)-min(len(runes), q-1):])] += w
			}
		}
		if len(next) > maxSuffixes {
			return nil, nil, false
		}
		suffixes = next
	}
	for g := range mass {
		grams = append(grams, g)
	}
	sort.Strings(grams)
	for _, g := range grams {
		bounds = append(bounds, min(1, mass[g]))
	}
	return grams, bounds, true
}

// gramCorpus is the error-model corpus at the benchmark's dial, plus
// documents that stress what it lacks: multi-byte and invalid UTF-8, empty
// alternatives and chunks, a gram repeated inside one window, an overflow.
func gramCorpus(t testing.TB) []*staccato.Doc {
	cases, err := testgen.ErrDocs(60, testgen.ErrModelConfig{Seed: 5}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var docs []*staccato.Doc
	for _, c := range cases {
		docs = append(docs, c.Doc)
	}
	alts := func(texts ...string) staccato.PathSet {
		ps := staccato.PathSet{Retained: 1}
		for i, text := range texts {
			ps.Alts = append(ps.Alts, staccato.Alt{Text: text, Prob: 1 / float64(len(texts)+i)})
		}
		return ps
	}
	var wideA, wideB []string
	for i := 0; i < 40; i++ {
		wideA, wideB = append(wideA, string(rune('a'+i))), append(wideB, string(rune('①'+i)))
	}
	return append(docs,
		&staccato.Doc{ID: "bytes", Chunks: []staccato.PathSet{alts("né", "n\xffe", "\xc3"), alts("\xa9日本", "", "語x"), {}, alts("aaaa", "aa")}},
		&staccato.Doc{ID: "short", Chunks: []staccato.PathSet{alts("a", ""), alts("b")}},
		&staccato.Doc{ID: "overflow", Chunks: []staccato.PathSet{alts(wideA...), alts(wideB...), alts("z")}},
	)
}

// TestDocGramMassMatchesReference: the allocation-free DP returns the
// reference's grams and, bit for bit, its bounds, at several gram sizes —
// and keeps its allocations to what it must keep (the grams, the suffixes,
// the working buffers), where the reference made a string per window.
func TestDocGramMassMatchesReference(t *testing.T) {
	docs := gramCorpus(t)
	overflowed := false
	for _, q := range []int{1, 2, 3, 4} {
		for _, d := range docs {
			grams, mass, _, ok := docGramMass(d, q)
			wantGrams, wantMass, wantOK := referenceGramMass(d, q)
			if ok != wantOK || len(grams) != len(wantGrams) {
				t.Fatalf("q=%d doc %s: ok %v with %d grams, reference %v with %d", q, d.ID, ok, len(grams), wantOK, len(wantGrams))
			}
			overflowed = overflowed || !ok
			for i := range grams {
				if grams[i] != wantGrams[i] || math.Float64bits(mass[i]) != math.Float64bits(wantMass[i]) {
					t.Fatalf("q=%d doc %s gram %d: %q at %v, reference %q at %v", q, d.ID, i, grams[i], mass[i], wantGrams[i], wantMass[i])
				}
			}
		}
	}
	if !overflowed {
		t.Error("no document overflowed; the corpus no longer covers that exit")
	}

	docs = docs[:60] // the error-model documents: ≈ 105 grams each
	perDoc := testing.AllocsPerRun(5, func() {
		for _, d := range docs {
			EntryFor(d, DefaultGramSize)
		}
	}) / float64(len(docs))
	// ≈ 105 gram strings, two dozen suffix strings and a few buffers; a
	// string per window and two per event made it 345.
	if perDoc > 180 {
		t.Errorf("EntryFor makes %.0f allocations per document, want at most 180", perDoc)
	}
	t.Logf("EntryFor: %.0f allocations per document", perDoc)
}

func BenchmarkEntryFor(b *testing.B) {
	docs := gramCorpus(b)[:60]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EntryFor(docs[i%len(docs)], DefaultGramSize)
	}
}
