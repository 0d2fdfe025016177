package query_test

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// oracleReading is one entry of the brute-force snippet oracle.
type oracleReading struct {
	text string
	prob float64
}

// matchOracle decides the query against one concrete string with an
// implementation independent of pkg/query's span finder: plain
// strings.Contains for substring leaves and a FieldsFunc token split for
// keyword leaves, composed through a tiny recursive evaluation of the
// rendered query. It only handles the shapes randomSnippetQueries builds.
type matchOracle struct {
	mode string // "substring" or "keyword"
}

func (o matchOracle) leafMatches(text, term string) bool {
	if o.mode == "keyword" {
		for _, tok := range strings.FieldsFunc(text, func(r rune) bool { return !core.IsWordRune(r) }) {
			if tok == term {
				return true
			}
		}
		return false
	}
	return strings.Contains(text, term)
}

// snippetDocs builds a deterministic battery of small documents whose
// full reading sets are enumerable.
func snippetDocs(t *testing.T, n int, seed int64) []*staccato.Doc {
	t.Helper()
	cases, err := testgen.Docs(n, testgen.Config{Length: 20, Seed: seed}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	return docs
}

// TestSnippetPositionsWitnessed is the snippet witness property: every
// reported reading is a real retained reading carrying the DP's exact
// per-reading mass, every span's offsets point at a genuine occurrence of
// its term, and the reported readings are precisely the top matching
// readings of the brute-force enumeration.
func TestSnippetPositionsWitnessed(t *testing.T) {
	docs := snippetDocs(t, 12, 31)
	rng := rand.New(rand.NewSource(53))
	for qi := 0; qi < 40; qi++ {
		src := docs[rng.Intn(len(docs))].MAP()
		ln := 2 + rng.Intn(4)
		if ln > len(src) {
			ln = len(src)
		}
		at := rng.Intn(len(src) - ln + 1)
		term := src[at : at+ln]
		mode := "substring"
		q := mustQ(query.Substring(term))
		if rng.Intn(3) == 0 && !strings.ContainsRune(term, ' ') {
			mode = "keyword"
			q = mustQ(query.Keyword(term))
		}
		oracle := matchOracle{mode: mode}

		for _, d := range docs {
			sn := q.Snippets(d, query.SnippetOptions{MaxReadings: 5})
			if sn.DocID != d.ID {
				t.Fatalf("snippet doc id %q, want %q", sn.DocID, d.ID)
			}
			// Snippets documents Prob as exactly the DP's Eval output
			if sn.Prob != q.Eval(d) {
				t.Fatalf("doc %s term %q: snippet prob %v != Eval %v", d.ID, term, sn.Prob, q.Eval(d))
			}

			// Brute-force oracle: all readings in Readings order, stably
			// sorted by descending probability, filtered by the independent
			// matcher — the top 5 of that list must be reported verbatim.
			var all []oracleReading
			d.Readings(func(text string, prob float64) bool {
				all = append(all, oracleReading{text, prob})
				return true
			})
			sort.SliceStable(all, func(i, j int) bool { return all[i].prob > all[j].prob })
			var want []oracleReading
			for _, r := range all {
				if oracle.leafMatches(r.text, term) {
					want = append(want, r)
					if len(want) == 5 {
						break
					}
				}
			}
			if len(sn.Readings) != len(want) {
				t.Fatalf("doc %s term %q (%s): got %d readings, oracle has %d",
					d.ID, term, mode, len(sn.Readings), len(want))
			}
			for i, r := range sn.Readings {
				// The per-reading mass is documented bit-identical with Doc.Readings (same multiplication order)
				if r.Text != want[i].text || r.Prob != want[i].prob {
					t.Fatalf("doc %s term %q: reading %d = (%q, %v), oracle wants (%q, %v)",
						d.ID, term, i, r.Text, r.Prob, want[i].text, want[i].prob)
				}
				if len(r.Spans) == 0 {
					t.Fatalf("doc %s term %q: matching reading %q reported no spans", d.ID, term, r.Text)
				}
				for _, sp := range r.Spans {
					if sp.Term != term {
						t.Fatalf("doc %s: span term %q, query term %q", d.ID, sp.Term, term)
					}
					if sp.Start < 0 || sp.End > len(r.Text) || r.Text[sp.Start:sp.End] != term {
						t.Fatalf("doc %s term %q: span [%d,%d) does not witness the term in %q",
							d.ID, term, sp.Start, sp.End, r.Text)
					}
					if got := utf8.RuneCountInString(r.Text[:sp.Start]); got != sp.RuneStart {
						t.Fatalf("doc %s: rune start %d, want %d", d.ID, sp.RuneStart, got)
					}
					if got := sp.RuneStart + utf8.RuneCountInString(term); got != sp.RuneEnd {
						t.Fatalf("doc %s: rune end %d, want %d", d.ID, sp.RuneEnd, got)
					}
					if mode == "keyword" {
						if sp.Start > 0 && core.IsWordRune(rune(r.Text[sp.Start-1])) {
							t.Fatalf("doc %s: keyword span lacks a left boundary in %q", d.ID, r.Text)
						}
						if sp.End < len(r.Text) && core.IsWordRune(rune(r.Text[sp.End])) {
							t.Fatalf("doc %s: keyword span lacks a right boundary in %q", d.ID, r.Text)
						}
					}
				}
			}
		}
	}
}

// TestMatchTextAgreesWithEval checks MatchText's matched bit against the
// DP on single-reading documents, across boolean shapes: a concrete
// string matches iff Eval on a document encoding exactly that string
// says probability 1.
func TestMatchTextAgreesWithEval(t *testing.T) {
	docs := snippetDocs(t, 8, 77)
	var texts []string
	for _, d := range docs {
		texts = append(texts, d.MAP())
	}
	rng := rand.New(rand.NewSource(99))
	pick := func() string {
		src := texts[rng.Intn(len(texts))]
		ln := 2 + rng.Intn(4)
		i := rng.Intn(len(src) - ln + 1)
		return src[i : i+ln]
	}
	for i := 0; i < 60; i++ {
		a := mustQ(query.Substring(pick()))
		b := mustQ(query.Substring(pick()))
		var q *query.Query
		switch i % 4 {
		case 0:
			q = a
		case 1:
			q = query.And(a, b)
		case 2:
			q = query.Or(a, query.Not(b))
		default:
			q = query.And(a, query.Not(b))
		}
		for _, text := range texts {
			single := &staccato.Doc{ID: "one", Chunks: []staccato.PathSet{
				{Alts: []staccato.Alt{{Text: text, Prob: 1}}, Retained: 1},
			}}
			matched, _ := q.MatchText(text)
			if want := q.Eval(single) > 0.5; matched != want {
				t.Fatalf("query %s on %q: MatchText=%v, Eval=%v", q.String(), text, matched, want)
			}
		}
	}
}

// TestSnippetsRankUnsortedAlternatives pins the best-reading contract
// for a document whose chunk lists its alternatives least probable first,
// as an ingest request may: the most probable matching reading is
// reported first, and the reported mass is its own.
func TestSnippetsRankUnsortedAlternatives(t *testing.T) {
	d := &staccato.Doc{ID: "u", Chunks: []staccato.PathSet{
		{Alts: []staccato.Alt{{Text: "xab", Prob: 0.2}, {Text: "yab", Prob: 0.8}}, Retained: 1},
	}}
	sn := mustQ(query.Substring("ab")).Snippets(d, query.SnippetOptions{MaxReadings: 1})
	if len(sn.Readings) != 1 || sn.Readings[0].Text != "yab" || math.Float64bits(sn.Readings[0].Prob) != math.Float64bits(0.8) {
		t.Fatalf("best matching reading %+v, want \"yab\" at p=0.8", sn.Readings)
	}
}

// TestMatchTextReadsInvalidUTF8AsEval pins MatchText to the DP on
// readings holding bytes that are not UTF-8: the automaton reads each as
// U+FFFD, so a U+FFFD term — or a term that is itself such a byte —
// matches there, MatchText agrees, and Snippets reports the reading with
// the occurrence.
func TestMatchTextReadsInvalidUTF8AsEval(t *testing.T) {
	for _, c := range []struct{ term, text string }{
		{"�", "x\x80y"},
		{"\xff", "a\xfeb"},
	} {
		q := mustQ(query.Substring(c.term))
		d := &staccato.Doc{ID: "one", Chunks: []staccato.PathSet{
			{Alts: []staccato.Alt{{Text: c.text, Prob: 1}}, Retained: 1},
		}}
		if p := q.Eval(d); p <= 0 {
			t.Fatalf("%s on %q: Eval = %v, want 1", q, c.text, p)
		}
		matched, spans := q.MatchText(c.text)
		if !matched || len(spans) != 1 || spans[0].Start != 1 || spans[0].End != 2 ||
			spans[0].RuneStart != 1 || spans[0].RuneEnd != 2 {
			t.Fatalf("%s on %q: MatchText = %v %+v, want a match at bytes and runes [1,2)", q, c.text, matched, spans)
		}
		sn := q.Snippets(d, query.SnippetOptions{})
		if len(sn.Readings) != 1 || len(sn.Readings[0].Spans) != 1 {
			t.Fatalf("%s on %q: Snippets = %+v, want the one reading with its occurrence", q, c.text, sn)
		}
	}
}

// TestSnippetsFindRareMatchAmongManyReadings pins that a matching
// document always gets its snippets, however many more probable readings
// fail to match. The document has 13 chunks: twelve even choices between
// "a" and "b", then "yy" or, with probability 0.001, "ZZ"; the 4,096 most
// probable of its 8,192 readings all end in "yy". Its "ZZ" readings are
// reported with their three best prefixes, ties in rank-vector order
// ("a" ranks ahead of "b"), each at 0.5¹²·0.001.
func TestSnippetsFindRareMatchAmongManyReadings(t *testing.T) {
	d := &staccato.Doc{ID: "many"}
	for range 12 {
		d.Chunks = append(d.Chunks, staccato.PathSet{Alts: []staccato.Alt{{Text: "a", Prob: 0.5}, {Text: "b", Prob: 0.5}}, Retained: 1})
	}
	d.Chunks = append(d.Chunks, staccato.PathSet{Alts: []staccato.Alt{{Text: "yy", Prob: 0.999}, {Text: "ZZ", Prob: 0.001}}, Retained: 1})
	sn := mustQ(query.Substring("ZZ")).Snippets(d, query.SnippetOptions{})
	if math.Float64bits(sn.Prob) != math.Float64bits(0.001) {
		t.Fatalf("Prob = %v, want 0.001", sn.Prob)
	}
	want := []string{"aaaaaaaaaaaaZZ", "aaaaaaaaaaabZZ", "aaaaaaaaaabaZZ"}
	if len(sn.Readings) != len(want) {
		t.Fatalf("%d readings %+v, want %q", len(sn.Readings), sn.Readings, want)
	}
	p := math.Ldexp(0.001, -12)
	for i, r := range sn.Readings {
		if r.Text != want[i] || math.Float64bits(r.Prob) != math.Float64bits(p) {
			t.Fatalf("reading %d = (%q, %v), want (%q, %v)", i, r.Text, r.Prob, want[i], p)
		}
		if len(r.Spans) != 1 || r.Spans[0].Start != 12 || r.Spans[0].End != 14 {
			t.Fatalf("reading %d spans %+v, want one at [12,14)", i, r.Spans)
		}
	}
}

// TestSnippetsDegenerateDocs pins the edge cases: a document with no
// chunks has exactly the empty reading, at probability 1, and a chunk
// with no alternatives leaves no complete reading to report — even when
// a match in an earlier chunk gives the document a positive Prob.
func TestSnippetsDegenerateDocs(t *testing.T) {
	notA := query.Not(mustQ(query.Substring("a")))
	sn := notA.Snippets(&staccato.Doc{ID: "empty"}, query.SnippetOptions{})
	if math.Float64bits(sn.Prob) != math.Float64bits(1) || len(sn.Readings) != 1 ||
		sn.Readings[0].Text != "" || math.Float64bits(sn.Readings[0].Prob) != math.Float64bits(1) {
		t.Fatalf("empty doc under %s: %+v, want the reading \"\" at 1", notA, sn)
	}

	hollow := &staccato.Doc{ID: "hollow", Chunks: []staccato.PathSet{
		{Alts: []staccato.Alt{{Text: "a", Prob: 1}}, Retained: 1},
		{},
	}}
	for _, q := range []*query.Query{notA, mustQ(query.Substring("a"))} {
		if sn := q.Snippets(hollow, query.SnippetOptions{}); len(sn.Readings) != 0 {
			t.Fatalf("hollow doc under %s: %+v, want no reading", q, sn)
		}
	}
	if p := mustQ(query.Substring("a")).Eval(hollow); p <= 0 {
		t.Fatalf("hollow doc: Eval = %v, want the first chunk's match", p)
	}
}
