package index

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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
	return append(docs, stressDocs()...)
}

// stressDocs are documents the error model never makes: multi-byte and
// invalid UTF-8, empty alternatives and chunks, a gram repeated inside one
// window, a reading shorter than any gram, and an overflow.
func stressDocs() []*staccato.Doc {
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
	return []*staccato.Doc{
		{ID: "bytes", Chunks: []staccato.PathSet{alts("né", "n\xffe", "\xc3"), alts("\xa9日本", "", "語x"), {}, alts("aaaa", "aa")}},
		{ID: "short", Chunks: []staccato.PathSet{alts("a", ""), alts("b")}},
		{ID: "overflow", Chunks: []staccato.PathSet{alts(wideA...), alts(wideB...), alts("z")}},
	}
}

// referenceShort reports whether doc has a reading shorter than q runes,
// by its shortest reading.
func referenceShort(doc *staccato.Doc, q int) bool {
	shortest := 0
	for _, ch := range doc.Chunks {
		least := math.MaxInt
		for _, alt := range ch.Alts {
			least = min(least, len([]rune(alt.Text)))
		}
		if least < math.MaxInt {
			shortest += least
		}
	}
	return shortest < q
}

// TestDocGramMassMatchesReference: the extractor returns the reference's
// grams and, bit for bit, their masses, at several gram sizes, with one
// extractor — one dictionary — shared by the whole corpus as a commit's
// range shares it. A 256-document commit keeps its allocations to what it
// must keep: each distinct gram once, the suffixes once, the working
// buffers and the Batch.
func TestDocGramMassMatchesReference(t *testing.T) {
	docs := gramCorpus(t)
	overflowed := false
	for _, q := range []int{1, 2, 3, 4} {
		x := newExtractor(docs, q)
		for i, d := range docs {
			short, ok := x.extract(d, int32(i))
			wantGrams, wantMass, wantOK := referenceGramMass(d, q)
			if short != referenceShort(d, q) {
				t.Fatalf("q=%d doc %s: short %v, reference %v", q, d.ID, short, !short)
			}
			if ok != wantOK {
				t.Fatalf("q=%d doc %s: ok %v, reference %v", q, d.ID, ok, wantOK)
			}
			if !ok {
				overflowed = true
				continue
			}
			got := slices.Clone(x.touched)
			slices.SortFunc(got, func(a, b gramMass) int { return strings.Compare(x.texts[a.slot], x.texts[b.slot]) })
			if len(got) != len(wantGrams) {
				t.Fatalf("q=%d doc %s: %d grams, reference %d", q, d.ID, len(got), len(wantGrams))
			}
			for i, g := range got {
				text, mass := x.texts[g.slot], min(1, g.mass)
				if text != wantGrams[i] || math.Float64bits(mass) != math.Float64bits(wantMass[i]) {
					t.Fatalf("q=%d doc %s gram %d: %q at %v, reference %q at %v", q, d.ID, i, text, mass, wantGrams[i], wantMass[i])
				}
			}
		}
	}
	if !overflowed {
		t.Error("no document overflowed; the corpus no longer covers that exit")
	}

	commit := fingerprintDocs(t)[:256] // error-model documents: ≈ 105 grams each
	ix := New(DefaultGramSize)
	for _, workers := range []int{1, 2} {
		perDoc := testing.AllocsPerRun(5, func() { ix.BatchOf(commit, workers) }) / float64(len(commit))
		// A string per distinct gram of the range and per suffix, and
		// the dictionaries' growth; extracting each document's entry
		// made it 131 with Invert's inversion.
		if perDoc > 48 {
			t.Errorf("BatchOf at %d workers makes %.1f allocations per document, want at most 48", workers, perDoc)
		}
		t.Logf("BatchOf at %d workers: %.1f allocations per document", workers, perDoc)
	}
}

// BenchmarkBatchOf extracts and inverts one 256-document error-model
// commit, inline and split over two workers.
func BenchmarkBatchOf(b *testing.B) {
	commit := fingerprintDocs(b)[:256]
	ix := New(DefaultGramSize)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.BatchOf(commit, workers)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(commit)), "µs/doc")
		})
	}
}
