package index

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// pat spells a pattern with '?' for the wildcard.
func pat(s string) []rune {
	out := []rune(s)
	for i, r := range out {
		if r == '?' {
			out[i] = -1
		}
	}
	return out
}

func wild(t *testing.T, ix *Index, patterns ...string) ([]string, []float64, int) {
	t.Helper()
	ps := make([][]rune, len(patterns))
	for i, p := range patterns {
		ps[i] = pat(p)
	}
	ids, bounds, grams, live, ok := ix.Candidates(Lookup{Patterns: ps})
	if !ok {
		t.Fatalf("Candidates(Patterns: %v) cannot answer", patterns)
	}
	if live != ix.Len() {
		t.Errorf("Candidates(Patterns: %v) counts %d live documents, Len %d", patterns, live, ix.Len())
	}
	ids, bounds = ByID(ids, bounds)
	return ids, bounds, grams
}

func entry(id string, gramBounds ...any) Entry {
	e := Entry{ID: id}
	for i := 0; i < len(gramBounds); i += 2 {
		e.Grams = append(e.Grams, gramBounds[i].(string))
		e.Bounds = append(e.Bounds, Quantize(gramBounds[i+1].(float64)))
	}
	return e
}

// sumOf is the bound a lookup reports for a document whose stored bounds
// bs were summed: each quantized on its own, added as integers, capped at 1.
func sumOf(bs ...float64) float64 {
	total := uint32(0)
	for _, b := range bs {
		total += uint32(Quantize(b))
	}
	return Dequantize(uint16(min(maxBound, total)))
}

// TestPatternsCandidates walks the Patterns lookup's definition on a
// hand-built index: union over a window's matching grams, intersection
// over a pattern's windows, union over patterns, and the bound
// min(1, Σ_pattern min_window min(1, Σ_gram bound)).
func TestPatternsCandidates(t *testing.T) {
	ix := New(3)
	ix.Apply([]Entry{
		entry("d1", "abc", 0.25, "abd", 0.5, "bcd", 0.125),
		entry("d2", "abd", 0.75, "bdx", 0.5),
		entry("d3", "xbc", 1.0, "bcd", 0.25),
		{ID: "over", Overflow: true},
		{ID: "tiny", Short: true, Grams: []string{"abc"}, Bounds: []uint16{Quantize(0.5)}},
		entry("gone", "abc", 1.0),
	}, nil)
	ix.Delete("gone")

	for _, c := range []struct {
		patterns []string
		ids      []string
		bounds   []float64
		grams    int
	}{
		// One window, two matching grams: d1 sums both, d2 has one.
		{[]string{"ab?"}, []string{"d1", "d2", "over", "tiny"}, []float64{sumOf(0.25, 0.5), sumOf(0.75), 1, 1}, 2},
		// Leading wildcard; d3 reaches it through xbc, d1 through abc.
		{[]string{"?bc"}, []string{"d1", "d3", "over", "tiny"}, []float64{sumOf(0.25), 1, 1, 1}, 2},
		// Two windows intersect at the min: d1 has ab? (0.75) and bcd
		// (0.125); d2 lacks bcd, d3 lacks ab?.
		{[]string{"ab?d"}, []string{"d1", "over", "tiny"}, []float64{sumOf(0.125), 1, 1}, 3},
		// Two patterns sum, capped: d1 0.75 + 0.25, d3 only the second.
		{[]string{"ab?", "?bc"}, []string{"d1", "d2", "d3", "over", "tiny"}, []float64{sumOf(0.25, 0.5, 0.25), sumOf(0.75), 1, 1, 1}, 4},
		// An all-literal pattern is a plain gram lookup, plus the short doc.
		{[]string{"bdx"}, []string{"d2", "over", "tiny"}, []float64{sumOf(0.5), 1, 1}, 1},
		// The middle window, wildcards only, is skipped, not expanded: a??
		// gives d1 and d2 0.75 each, ??d gives d1 0.5+0.125 and d2 0.75.
		{[]string{"a???d"}, []string{"d1", "d2", "over", "tiny"}, []float64{sumOf(0.5, 0.125), sumOf(0.75), 1, 1}, 4},
		// Nothing matches: the always-candidates remain.
		{[]string{"q?q"}, []string{"over", "tiny"}, []float64{1, 1}, 0},
	} {
		ids, bounds, grams := wild(t, ix, c.patterns...)
		if !reflect.DeepEqual(ids, c.ids) || !reflect.DeepEqual(bounds, c.bounds) || grams != c.grams {
			t.Errorf("%v: got %v %v (%d grams), want %v %v (%d grams)", c.patterns, ids, bounds, grams, c.ids, c.bounds, c.grams)
		}
	}

	// The literal lookup does not add short documents: a reading holding
	// a whole gram is at least q runes long.
	ids, _, _ := ix.CandidatesWithBounds([]string{"bdx"})
	if ids, _ = ByID(ids, nil); !reflect.DeepEqual(ids, []string{"d2", "over"}) {
		t.Errorf("CandidatesWithBounds(bdx) = %v, want [d2 over]", ids)
	}

	for _, refused := range [][][]rune{nil, {pat("???")}, {pat("ab")}, {pat("ab?"), pat("??")}} {
		if _, _, _, _, ok := ix.Candidates(Lookup{Patterns: refused}); ok {
			t.Errorf("Candidates(Patterns: %q) answered; a pattern without a literal window constrains nothing", refused)
		}
	}
}

// TestEmptyIndexRefusesLikeOneDocument: an index with no parts refuses
// every lookup Candidates documents as unanswerable, exactly as an index
// of one document does, and answers a Grams lookup and a Patterns lookup
// with no IDs.
func TestEmptyIndexRefusesLikeOneDocument(t *testing.T) {
	empty, one := New(3), New(3)
	one.Apply([]Entry{entry("d", "abc", 0.5)}, nil)
	answerable := Lookup{Grams: []string{"abc"}}
	for _, l := range []Lookup{
		{}, // no field set
		{Patterns: [][]rune{pat("???"), pat("?")}},            // no window holds a literal rune
		{And: []Lookup{{}, {Patterns: [][]rune{pat("???")}}}}, // no child answers
		{Or: []Lookup{answerable, {}}},                        // a child does not answer
	} {
		for _, ix := range []*Index{empty, one} {
			if _, _, _, _, ok := ix.Candidates(l); ok {
				t.Errorf("%d-document index answered %+v; want a refusal", ix.Len(), l)
			}
		}
	}
	for _, l := range []Lookup{answerable, {Patterns: [][]rune{pat("abc")}}, {Patterns: [][]rune{pat("a?c")}}} {
		if ids, bounds, grams, live, ok := empty.Candidates(l); !ok || len(ids) != 0 || len(bounds) != 0 || grams != 0 || live != 0 {
			t.Errorf("empty index: Candidates(%+v) = %v %v, %d grams, %d live, ok %v; want an answer with no IDs", l, ids, bounds, grams, live, ok)
		}
	}
}

// TestWildcardProbeBudget: wildcard positions multiply probes by the
// alphabet size, and a lookup that would overdraw maxWildProbes is
// refused rather than run.
func TestWildcardProbeBudget(t *testing.T) {
	ix := New(4)
	var e Entry
	for r := rune(0x4E00); r < 0x4E00+148; r += 4 { // 148 distinct runes
		e.Grams = append(e.Grams, string([]rune{r, r + 1, r + 2, r + 3}))
	}
	e.ID = "wide"
	ix.Apply([]Entry{e}, nil)
	if n := len(ix.cur.Load().alphabet); n != 148 {
		t.Fatalf("alphabet holds %d runes, want 148", n)
	}
	if ids, _, grams := wild(t, ix, "一??"+string(rune(0x4E03))); !reflect.DeepEqual(ids, []string{"wide"}) || grams != 1 {
		t.Errorf("two wildcards (148² probes): got %v over %d grams, want the one document over 1", ids, grams)
	}
	if _, _, _, _, ok := ix.Candidates(Lookup{Patterns: [][]rune{pat("一???")}}); ok {
		t.Error("three wildcards (148³ probes) answered; want a refusal")
	}
	// The budget is per Patterns node, not per window.
	var many [][]rune
	for i := 0; i < 2; i++ {
		many = append(many, pat("一??"+string(rune(0x4E03))))
	}
	if _, _, _, _, ok := ix.Candidates(Lookup{Patterns: many}); ok {
		t.Error("two 148²-probe windows in one node answered; want a refusal")
	}
}

// TestShortFlagSurvivesPersistence: Short rides the flags byte through
// the append log, a snapshot, and the in-memory compaction path
// (Snapshot → Commit), and a flags byte with an unassigned bit is a
// malformed record, not a guess.
func TestShortFlagSurvivesPersistence(t *testing.T) {
	tiny := &staccato.Doc{ID: "tiny", Chunks: []staccato.PathSet{{
		Alts: []staccato.Alt{{Text: "ab", Prob: 0.5}, {Text: "abcd", Prob: 0.5}}, Retained: 1,
	}}}
	e := EntryFor(tiny, 3)
	if !e.Short || e.Overflow || !reflect.DeepEqual(e.Grams, []string{"abc", "bcd"}) {
		t.Fatalf("EntryFor(tiny) = %+v, want Short with grams abc, bcd", e)
	}
	if long := EntryFor(tiny, 2); long.Short {
		t.Errorf("at q=2 no reading is shorter than a gram: %+v", long)
	}

	path := filepath.Join(t.TempDir(), FileName)
	logged := New(3)
	if err := logged.Persist(framelog.OS, path, diskstore.CommitState{}, false); err != nil {
		t.Fatal(err)
	}
	adds := []Entry{e, entry("plain", "xyz", 0.5)}
	if err := logged.Commit(Invert(adds), nil, diskstore.CommitState{Ops: 1}); err != nil {
		t.Fatal(err)
	}
	if err := logged.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(when string, ix *Index) {
		t.Helper()
		ids, _, _ := wild(t, ix, "xy?")
		if !reflect.DeepEqual(ids, []string{"plain", "tiny"}) {
			t.Errorf("%s: candidates for xy? = %v, want [plain tiny]", when, ids)
		}
		if got := fmt.Sprint(ix.Entries()); got != fmt.Sprint([]Entry{adds[1], adds[0]}) {
			t.Errorf("%s: entries = %v", when, got)
		}
	}
	loaded, _, err := Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("append log", loaded)
	if err := loaded.Persist(framelog.OS, path, diskstore.CommitState{Ops: 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("snapshot", snap)
	compacted := New(3)
	if err := compacted.Commit(snap.Snapshot(), nil, diskstore.CommitState{}); err != nil {
		t.Fatal(err)
	}
	check("compaction", compacted)

	payload := encodeCommit(Invert(adds), nil, diskstore.CommitState{Ops: 1})
	at := bytes.Index(payload, []byte("tiny")) + len("tiny")
	if payload[at] != flagShort {
		t.Fatalf("flags byte = %#x, want %#x", payload[at], flagShort)
	}
	payload[at] |= 1 << 2
	if _, _, _, err := parseCommit(payload); err == nil {
		t.Error("parseCommit accepted a flags byte with an unassigned bit")
	}
}
