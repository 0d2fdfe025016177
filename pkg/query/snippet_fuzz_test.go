package query

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// FuzzSnippetsAgreeWithEval holds snippet extraction to the DP, over
// documents and queries spliced from fuzzPieces — invalid UTF-8 included
// — and, when reverse is odd, over documents whose chunks list their
// alternatives least probable first. It checks that
//
//   - MatchText's verdict on each reading is Eval's on a document
//     encoding only that reading, and a matching single-leaf query
//     reports the occurrence that made it match;
//   - with an exhaustive budget, Eval > 0 exactly when Snippets reports a
//     reading, and Snippets never reports Truncated;
//   - every reported reading is a real reading of the document, at its
//     product probability, and the reported readings are the most
//     probable matching ones.
func FuzzSnippetsAgreeWithEval(f *testing.F) {
	// Substring("�") over a reading holding the invalid byte 0x80,
	// and Substring("\xff") over one holding 0xff: the automaton reads
	// both bytes as U+FFFD.
	f.Add(uint8(0), uint8(0), []byte{0, 17}, []byte{0, 0, 0, 16})
	f.Add(uint8(1), uint8(0), []byte{2, 19, 5, 17}, []byte{0, 0, 0, 19})
	// Reversed alternatives under a short substring and a boolean.
	f.Add(uint8(2), uint8(1), []byte{}, []byte{0, 0, 0, 1})
	f.Add(uint8(3), uint8(1), []byte{1, 16, 3, 18}, []byte{4, 0, 1, 3, 2, 0, 0, 16})
	var bases []*staccato.Doc
	for seed := int64(1); seed <= 4; seed++ {
		_, f0 := testgen.MustGenerate(testgen.Config{Length: 24, Seed: seed})
		d, err := staccato.Build(f0, fmt.Sprintf("d%d", seed), 4, 3)
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, d)
	}
	f.Fuzz(func(t *testing.T, base, reverse uint8, edits, spec []byte) {
		q := fuzzQuery(spec)
		if q == nil {
			return
		}
		d := fuzzDoc(bases[int(base)%len(bases)], edits)
		if reverse%2 == 1 {
			for _, c := range d.Chunks {
				slices.Reverse(c.Alts)
			}
		}
		_, single := q.expr.(leafExpr)

		type reading struct {
			text string
			prob float64
		}
		var matching []reading
		d.Readings(func(text string, prob float64) bool {
			one := &staccato.Doc{ID: "one", Chunks: []staccato.PathSet{
				{Alts: []staccato.Alt{{Text: text, Prob: 1}}, Retained: 1},
			}}
			want := q.Eval(one) > 0
			matched, spans := q.MatchText(text)
			if matched != want {
				t.Fatalf("%s on %q: MatchText = %v, Eval says %v", q, text, matched, want)
			}
			if matched && single && len(spans) == 0 {
				t.Fatalf("%s on %q: a matching leaf reported no occurrence", q, text)
			}
			if matched {
				matching = append(matching, reading{text, prob})
			}
			return true
		})
		sort.SliceStable(matching, func(i, j int) bool { return matching[i].prob > matching[j].prob })

		const maxReadings = 5
		sn := q.Snippets(d, SnippetOptions{MaxReadings: maxReadings, MaxEnumerate: int(d.NumReadings()) + 1})
		if (sn.Prob > 0) != (len(sn.Readings) > 0) {
			t.Fatalf("%s: Eval = %v but Snippets reported %d readings", q, sn.Prob, len(sn.Readings))
		}
		if sn.Truncated {
			t.Fatalf("%s: Truncated under an exhaustive budget", q)
		}
		if want := min(len(matching), maxReadings); len(sn.Readings) != want {
			t.Fatalf("%s: Snippets reported %d readings, want %d of %d matching", q, len(sn.Readings), want, len(matching))
		}
		for i, rd := range sn.Readings {
			if math.Float64bits(rd.Prob) != math.Float64bits(matching[i].prob) {
				t.Fatalf("%s: reading %d (%q) at p=%v, but the %d-th most probable matching reading has p=%v",
					q, i, rd.Text, rd.Prob, i+1, matching[i].prob)
			}
			if !slices.Contains(matching, reading{rd.Text, rd.Prob}) {
				t.Fatalf("%s: reported reading (%q, %v) is not a matching reading of the document", q, rd.Text, rd.Prob)
			}
		}
	})
}
