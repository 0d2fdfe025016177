package query

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// FuzzSnippetsAgreeWithEval holds snippet extraction to the DP, over
// documents and queries spliced from fuzzPieces — invalid UTF-8 included
// — and, when reverse is odd, over documents whose chunks list their
// alternatives least probable first. The oracle enumerates every reading
// in ascending rank vector (each chunk's alternative rank under
// staccato.CompareAlts, chunk 0 most significant), keeps those Eval
// accepts on a document holding only that reading's alternatives, and
// sorts them stably by descending probability. It checks that
//
//   - MatchText's verdict on each reading is Eval's on a document
//     encoding only that reading, and a matching single-leaf query
//     reports the occurrence that made it match;
//   - Eval > 0 exactly when Snippets reports a reading;
//   - Snippets reports the oracle's first readings, text and
//     probability bits, except inside a tie that straddles the last
//     place, where rounding may settle which tied readings make it (see
//     bestReadings): there each reported reading is a distinct tied
//     matching reading, in rank-vector order. Documents whose
//     probabilities are all powers of two multiply without rounding, and
//     must match the oracle everywhere;
//   - every span MatchText and Snippets report indexes its reading (see
//     spanOffsetsErr).
func FuzzSnippetsAgreeWithEval(f *testing.F) {
	// Substring("�") over a reading holding the invalid byte 0x80,
	// and Substring("\xff") over one holding 0xff: the automaton reads
	// both bytes as U+FFFD.
	f.Add(uint8(0), uint8(0), []byte{0, 17}, []byte{0, 0, 0, 16})
	f.Add(uint8(1), uint8(0), []byte{2, 19, 5, 17}, []byte{0, 0, 0, 19})
	// Reversed alternatives under a short substring and a boolean.
	f.Add(uint8(2), uint8(1), []byte{}, []byte{0, 0, 0, 1})
	f.Add(uint8(3), uint8(1), []byte{1, 16, 3, 18}, []byte{4, 0, 1, 3, 2, 0, 0, 16})
	// Equal probabilities, where every matching reading of a length ties:
	// Substring("a"), And(Substring("a"), Not(Substring("e"))), and
	// Substring("e") over reversed alternatives.
	f.Add(uint8(4), uint8(0), []byte{}, []byte{0, 0, 0, 0})
	f.Add(uint8(4), uint8(0), []byte{}, []byte{13, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(4), uint8(1), []byte{}, []byte{0, 0, 0, 1})
	// Powers of two, exact products with ties among them: Substring("th"),
	// Or(Substring("e"), Substring(" ")), Keyword("th") over reversed
	// alternatives, and Not(Substring("o")) with "-" spliced in.
	f.Add(uint8(5), uint8(0), []byte{}, []byte{0, 0, 0, 6})
	f.Add(uint8(5), uint8(0), []byte{}, []byte{7, 0, 0, 1, 0, 0, 7})
	f.Add(uint8(5), uint8(1), []byte{}, []byte{0, 1, 0, 6})
	f.Add(uint8(5), uint8(1), []byte{6, 8}, []byte{9, 0, 0, 2})
	// Fuzzy("the", 1) with 0xff spliced after the "h" alternative: the
	// reading "th\xffe" matches with the invalid byte inside the window.
	f.Add(uint8(5), uint8(0), []byte{3, 39}, []byte{0, 5, 1, 6, 1})
	var bases []*staccato.Doc
	for seed := int64(1); seed <= 4; seed++ {
		_, f0 := testgen.MustGenerate(testgen.Config{Length: 24, Seed: seed})
		d, err := staccato.Build(f0, fmt.Sprintf("d%d", seed), 4, 3)
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, d)
	}
	chunk := func(alts ...staccato.Alt) staccato.PathSet { return staccato.PathSet{Alts: alts, Retained: 1} }
	ae := chunk(staccato.Alt{Text: "a", Prob: 0.5}, staccato.Alt{Text: "e", Prob: 0.5})
	bases = append(bases,
		&staccato.Doc{ID: "ties", Chunks: []staccato.PathSet{ae, ae, ae, ae, ae, ae}},
		&staccato.Doc{ID: "dyadic", Chunks: []staccato.PathSet{
			chunk(staccato.Alt{Text: "t", Prob: 0.5}, staccato.Alt{Text: "a", Prob: 0.25}, staccato.Alt{Text: "o", Prob: 0.25}),
			chunk(staccato.Alt{Text: "h", Prob: 0.5}, staccato.Alt{Text: "th", Prob: 0.5}),
			chunk(staccato.Alt{Text: "e", Prob: 0.25}, staccato.Alt{Text: " ", Prob: 0.25}, staccato.Alt{Text: "o", Prob: 0.5}),
			chunk(staccato.Alt{Text: "n", Prob: 0.125}, staccato.Alt{Text: "t", Prob: 0.125}, staccato.Alt{Text: "s", Prob: 0.25}, staccato.Alt{Text: "h", Prob: 0.5}),
			chunk(staccato.Alt{Text: " ", Prob: 0.5}, staccato.Alt{Text: "e", Prob: 0.5}),
		}})
	f.Fuzz(func(t *testing.T, base, reverse uint8, edits, spec []byte) {
		q := fuzzQuery(spec)
		if q == nil {
			return
		}
		d := fuzzDoc(bases[int(base)%len(bases)], edits)
		exact := true
		for _, c := range d.Chunks {
			if reverse%2 == 1 {
				slices.Reverse(c.Alts)
			}
			for _, a := range c.Alts {
				if frac, _ := math.Frexp(a.Prob); frac != 0.5 {
					exact = false
				}
			}
		}
		_, single := q.expr.(leafExpr)

		type reading struct {
			text string
			prob float64
			ord  int // the position of its rank vector in ascending order
		}
		var matching []reading
		ranked := make([][]staccato.Alt, len(d.Chunks))
		for i, c := range d.Chunks {
			ranked[i] = slices.SortedStableFunc(slices.Values(c.Alts), staccato.CompareAlts)
		}
		pick := &staccato.Doc{ID: "pick", Chunks: make([]staccato.PathSet, len(d.Chunks))}
		ord := 0
		var walk func(i int, text string, prob float64)
		walk = func(i int, text string, prob float64) {
			if i < len(ranked) {
				for _, a := range ranked[i] {
					pick.Chunks[i] = chunk(staccato.Alt{Text: a.Text, Prob: 1})
					walk(i+1, text+a.Text, prob*a.Prob)
				}
				return
			}
			one := &staccato.Doc{ID: "one", Chunks: []staccato.PathSet{chunk(staccato.Alt{Text: text, Prob: 1})}}
			want := q.Eval(one) > 0
			matched, spans := q.MatchText(text)
			if matched != want {
				t.Fatalf("%s on %q: MatchText = %v, Eval says %v", q, text, matched, want)
			}
			if matched && single && len(spans) == 0 {
				t.Fatalf("%s on %q: a matching leaf reported no occurrence", q, text)
			}
			if err := spanOffsetsErr(text, spans); err != nil {
				t.Fatalf("%s: MatchText: %v", q, err)
			}
			if q.Eval(pick) > 0 {
				matching = append(matching, reading{text, prob, ord})
			}
			ord++
		}
		walk(0, "", 1)
		sort.SliceStable(matching, func(i, j int) bool { return matching[i].prob > matching[j].prob })

		const maxReadings = 5
		sn := q.Snippets(d, SnippetOptions{MaxReadings: maxReadings})
		if (sn.Prob > 0) != (len(sn.Readings) > 0) {
			t.Fatalf("%s: Eval = %v but Snippets reported %d readings", q, sn.Prob, len(sn.Readings))
		}
		if want := min(len(matching), maxReadings); len(sn.Readings) != want {
			t.Fatalf("%s: Snippets reported %d readings, want %d of %d matching", q, len(sn.Readings), want, len(matching))
		}
		last := -1 // the rank-vector position of the last tied reading found
		for i, rd := range sn.Readings {
			if err := spanOffsetsErr(rd.Text, rd.Spans); err != nil {
				t.Fatalf("%s: Snippets: %v", q, err)
			}
			want := matching[i]
			if math.Float64bits(rd.Prob) != math.Float64bits(want.prob) {
				t.Fatalf("%s: reading %d (%q) at p=%v, but the %d-th most probable matching reading has p=%v",
					q, i, rd.Text, rd.Prob, i+1, want.prob)
			}
			tied := i
			for tied < len(matching) && math.Float64bits(matching[tied].prob) == math.Float64bits(want.prob) {
				tied++
			}
			if exact || tied <= maxReadings {
				if rd.Text != want.text {
					t.Fatalf("%s: reading %d is %q, want %q at p=%v", q, i, rd.Text, want.text, want.prob)
				}
				continue
			}
			// A tie straddling the last place: rd is a tied reading with
			// its text, after the ones reported before it in rank-vector
			// order.
			g := i
			for g > 0 && math.Float64bits(matching[g-1].prob) == math.Float64bits(want.prob) {
				g--
			}
			j := slices.IndexFunc(matching[g:tied], func(m reading) bool { return m.text == rd.Text && m.ord > last })
			if j < 0 {
				t.Fatalf("%s: reading %d (%q, %v) is not a tied matching reading after the ones before it", q, i, rd.Text, rd.Prob)
			}
			last = matching[g+j].ord
		}
	})
}

// spanOffsetsErr reports the first span whose offsets do not index text:
// 0 ≤ Start ≤ End ≤ len(text), and RuneStart and RuneEnd count the runes
// before Start and End, an invalid byte counting as one rune as ranging
// over the text decodes it.
func spanOffsetsErr(text string, spans []Span) error {
	for _, sp := range spans {
		if sp.Start < 0 || sp.Start > sp.End || sp.End > len(text) ||
			utf8.RuneCountInString(text[:sp.Start]) != sp.RuneStart ||
			utf8.RuneCountInString(text[:sp.End]) != sp.RuneEnd {
			return fmt.Errorf("span %+v does not index the %d bytes of %q", sp, len(text), text)
		}
	}
	return nil
}

// TestSpanOffsetsOverInvalidUTF8: every finder reports offsets that index
// a reading holding bytes that are not UTF-8, and a fuzzy span over an
// exact occurrence is the substring span, byte for byte.
func TestSpanOffsetsOverInvalidUTF8(t *testing.T) {
	const text = "ab\xffcdefg \x80sta\xc3cato"
	var leaves []*Query
	for _, q := range []func() (*Query, error){
		func() (*Query, error) { return Substring("cdef") },
		func() (*Query, error) { return Substring("\xff") },
		func() (*Query, error) { return Keyword("cdefg") },
		func() (*Query, error) { return Keyword("cato") },
		func() (*Query, error) { return Fuzzy("cdef", 1) },
		func() (*Query, error) { return Fuzzy("staccato", 1) },
		func() (*Query, error) { return Fuzzy("ab\x80cd", 2) },
	} {
		leaf, err := q()
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, leaf)
		matched, spans := leaf.MatchText(text)
		if !matched || len(spans) == 0 {
			t.Fatalf("%s on %q: MatchText = %v %+v, want a match", leaf, text, matched, spans)
		}
		if err := spanOffsetsErr(text, spans); err != nil {
			t.Errorf("%s: %v", leaf, err)
		}
	}
	_, exact := leaves[0].MatchText(text)
	_, approx := leaves[4].MatchText(text)
	if len(approx) != 1 || approx[0] != exact[0] {
		t.Errorf("fuzzy(\"cdef\", 1) spans %+v, want the substring span %+v", approx, exact)
	}
}
