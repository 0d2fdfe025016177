package staccato_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fst"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// enumerate brute-forces every accepting path of f, returning total
// probability per emitted string. Only usable on tiny transducers; it is
// the oracle the DP implementations are checked against.
func enumerate(f *fst.SFST) map[string]float64 {
	out := map[string]float64{}
	var walk func(s fst.StateID, prefix []rune, weight float64)
	walk = func(s fst.StateID, prefix []rune, weight float64) {
		if f.IsFinal(s) {
			out[string(prefix)] += core.ProbFromWeight(weight)
		}
		for _, a := range f.Arcs(s) {
			p := prefix
			if a.Label != fst.Epsilon {
				p = append(prefix[:len(prefix):len(prefix)], a.Label)
			}
			walk(a.To, p, weight+a.Weight)
		}
	}
	walk(f.Start(), nil, 0)
	return out
}

// branchFST builds a transducer with a two-arc branch so it has a state
// not every path passes through:
//
//	0 -a(1)-> 1 { -m(0.6)-> 2 | -r(0.4)-> mid -n(1)-> 2 } -z(1)-> 3
func branchFST(t *testing.T) *fst.SFST {
	t.Helper()
	b := fst.NewBuilder()
	s0, s1, s2, s3, mid := b.AddState(), b.AddState(), b.AddState(), b.AddState(), b.AddState()
	b.AddArc(s0, s1, 'a', core.WeightFromProb(1))
	b.AddArc(s1, s2, 'm', core.WeightFromProb(0.6))
	b.AddArc(s1, mid, 'r', core.WeightFromProb(0.4))
	b.AddArc(mid, s2, 'n', core.WeightFromProb(1))
	b.AddArc(s2, s3, 'z', core.WeightFromProb(1))
	b.SetStart(s0)
	b.SetFinal(s3)
	f, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

func TestCutStatesSkipBranchInterior(t *testing.T) {
	f := branchFST(t)
	cuts := staccato.CutStates(f)
	// 5 states, one of which (the branch interior) is not on every path.
	if len(cuts) != 4 {
		t.Errorf("CutStates = %v, want 4 cut states of 5", cuts)
	}
	if cuts[0] != f.Start() {
		t.Errorf("first cut = %d, want start", cuts[0])
	}
}

func TestChunkClampsToAvailableCuts(t *testing.T) {
	f := branchFST(t)
	// Interior boundaries exclude start and finals: 2 candidates, so at
	// most 3 chunks no matter how many are requested.
	segs, err := staccato.Chunk(f, 100)
	if err != nil {
		t.Fatalf("Chunk: %v", err)
	}
	if len(segs) != 3 {
		t.Fatalf("len(segs) = %d, want 3", len(segs))
	}
	if segs[0].From != f.Start() {
		t.Errorf("first segment starts at %d, want start", segs[0].From)
	}
	if !segs[len(segs)-1].ToEnd {
		t.Error("last segment must run to the final states")
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i].To != segs[i+1].From {
			t.Errorf("segments %d/%d not contiguous: %d vs %d", i, i+1, segs[i].To, segs[i+1].From)
		}
	}
	if _, err := staccato.Chunk(f, 0); err == nil {
		t.Error("Chunk(f, 0) should fail")
	}
}

func TestFullSFSTDocMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		_, f := testgen.MustGenerate(testgen.Config{Length: 8, Seed: seed})
		doc, err := staccato.Build(f, "d", 1, staccato.AllPaths)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		if doc.Params.Chunks != 1 {
			t.Fatalf("seed %d: chunks = %d, want 1", seed, doc.Params.Chunks)
		}
		want := enumerate(f)
		got := doc.Chunks[0]
		if len(got.Alts) != len(want) {
			t.Fatalf("seed %d: %d alts, brute force found %d strings", seed, len(got.Alts), len(want))
		}
		if math.Abs(got.Retained-1) > 1e-9 {
			t.Errorf("seed %d: retained = %v, want 1 (kept everything)", seed, got.Retained)
		}
		var totalMass float64
		for _, p := range want {
			totalMass += p
		}
		var sum float64
		for _, alt := range got.Alts {
			sum += alt.Prob
			if w := want[alt.Text] / totalMass; math.Abs(alt.Prob-w) > 1e-9 {
				t.Errorf("seed %d: P(%q) = %v, brute force %v", seed, alt.Text, alt.Prob, w)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("seed %d: alt probs sum to %v, want 1", seed, sum)
		}
	}
}

func TestChunkedFullSupportMatchesBruteForce(t *testing.T) {
	// With k = AllPaths, chunking must not lose any string: the product
	// of chunk path sets spans exactly the full support.
	_, f := testgen.MustGenerate(testgen.Config{Length: 8, Seed: 7})
	doc, err := staccato.Build(f, "d", 3, staccato.AllPaths)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	support := map[string]bool{}
	var cross func(i int, prefix string)
	cross = func(i int, prefix string) {
		if i == len(doc.Chunks) {
			support[prefix] = true
			return
		}
		for _, alt := range doc.Chunks[i].Alts {
			cross(i+1, prefix+alt.Text)
		}
	}
	cross(0, "")
	want := enumerate(f)
	if len(support) != len(want) {
		t.Fatalf("chunked support has %d strings, brute force %d", len(support), len(want))
	}
	for s := range want {
		if !support[s] {
			t.Errorf("string %q missing from chunked support", s)
		}
	}
}

func TestMAPDialEqualsViterbi(t *testing.T) {
	// chunks = MaxChunks, k = 1 is the MAP extreme of the dial: the doc
	// must spell exactly the Viterbi string, for any chunk count.
	for seed := int64(1); seed <= 8; seed++ {
		_, f := testgen.MustGenerate(testgen.Config{Length: 30, Seed: seed})
		want := f.Viterbi().Output
		for _, chunks := range []int{1, 2, 5, staccato.MaxChunks} {
			doc, err := staccato.Build(f, "d", chunks, 1)
			if err != nil {
				t.Fatalf("seed %d chunks %d: %v", seed, chunks, err)
			}
			if got := doc.MAP(); got != want {
				t.Errorf("seed %d chunks %d: MAP doc = %q, Viterbi = %q", seed, chunks, got, want)
			}
			for i, ch := range doc.Chunks {
				if len(ch.Alts) != 1 {
					t.Errorf("seed %d chunks %d: chunk %d has %d alts, want 1", seed, chunks, i, len(ch.Alts))
				}
			}
		}
	}
}

func TestTopKMergesDuplicateStrings(t *testing.T) {
	// Two paths emit "ab" (directly, and via epsilon) and one emits "b";
	// with k = AllPaths the duplicate strings must merge.
	b := fst.NewBuilder()
	s0, s1, s2 := b.AddState(), b.AddState(), b.AddState()
	b.AddArc(s0, s1, 'a', core.WeightFromProb(0.5))
	b.AddArc(s0, s1, fst.Epsilon, core.WeightFromProb(0.5))
	b.AddArc(s1, s2, 'b', core.WeightFromProb(0.7))
	b.AddArc(s1, s2, 'a', core.WeightFromProb(0.3))
	b.SetStart(s0)
	b.SetFinal(s2)
	f, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	doc, err := staccato.Build(f, "d", 1, staccato.AllPaths)
	if err != nil {
		t.Fatalf("Build doc: %v", err)
	}
	// Paths: "ab" 0.35, "b" 0.35, "aa" 0.15, "a" (eps+a) 0.15.
	got := map[string]float64{}
	for _, alt := range doc.Chunks[0].Alts {
		got[alt.Text] = alt.Prob
	}
	want := map[string]float64{"ab": 0.35, "b": 0.35, "aa": 0.15, "a": 0.15}
	if len(got) != len(want) {
		t.Fatalf("alts = %v, want %v", got, want)
	}
	for s, p := range want {
		if math.Abs(got[s]-p) > 1e-9 {
			t.Errorf("P(%q) = %v, want %v", s, got[s], p)
		}
	}
}

func TestRetainedMassGrowsWithK(t *testing.T) {
	_, f := testgen.MustGenerate(testgen.Config{Length: 20, Seed: 3})
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8} {
		doc, err := staccato.Build(f, "d", 2, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		min := 1.0
		for _, ch := range doc.Chunks {
			if ch.Retained < min {
				min = ch.Retained
			}
		}
		if min < prev-1e-12 {
			t.Errorf("retained mass decreased when k grew to %d: %v < %v", k, min, prev)
		}
		prev = min
	}
}

func TestTopKLongChunkNoUnderflow(t *testing.T) {
	// A single 3000-character chunk has path weights far beyond exp
	// underflow (total weight > 745); log-domain normalization must still
	// produce finite, normalized probabilities.
	_, f := testgen.MustGenerate(testgen.Config{Length: 3000, Seed: 2})
	doc, err := staccato.Build(f, "d", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch := doc.Chunks[0]
	var sum float64
	for _, alt := range ch.Alts {
		if math.IsNaN(alt.Prob) || alt.Prob <= 0 {
			t.Fatalf("alt prob = %v for %d-char text, want finite positive", alt.Prob, len(alt.Text))
		}
		sum += alt.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("alt probs sum to %v, want 1", sum)
	}
	if math.IsNaN(ch.Retained) || ch.Retained < 0 || ch.Retained > 1 {
		t.Errorf("Retained = %v, want in [0, 1]", ch.Retained)
	}
	// The MAP extreme must also stay finite and fast at this length.
	mapDoc, err := staccato.Build(f, "d", staccato.MaxChunks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mapDoc.MAP(), f.Viterbi().Output; got != want {
		t.Error("MAP dial diverged from Viterbi on long document")
	}
}

func TestPathExplosionGuard(t *testing.T) {
	_, f := testgen.MustGenerate(testgen.Config{Length: 300, Seed: 1})
	_, err := staccato.Build(f, "d", 1, staccato.AllPaths)
	if err == nil {
		t.Fatal("expected ErrPathExplosion materializing a 300-char SFST exactly")
	}
}

// TestRecallDial is the property test for the paper's central claim:
// recall of ground-truth terms is monotone along the dial,
// MAP ≤ Staccato ≤ FullSFST. The Staccato probabilities come from an
// independent brute-force oracle over the doc's product distribution; the
// FullSFST side uses the exact transducer query, since materializing the
// full path set of a 40-character document is infeasible by design.
func TestRecallDial(t *testing.T) {
	cases, err := testgen.Corpus(10, testgen.Config{Length: 40, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	var nMAP, nStac, nFull, nProbes int
	for ci, c := range cases {
		mapStr := c.FST.Viterbi().Output
		doc, err := staccato.Build(c.FST, "d", 5, 3)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		probes := map[string]bool{}
		for i := 0; i+3 <= len(c.Truth); i += 2 {
			probes[c.Truth[i:i+3]] = true
		}
		for probe := range probes {
			nProbes++
			inMAP := strings.Contains(mapStr, probe)
			pStac := docContainsProb(t, doc, probe)
			fq, err := query.Substring(probe)
			if err != nil {
				t.Fatalf("case %d: compile %q: %v", ci, probe, err)
			}
			pFull, err := fq.EvalFST(c.FST)
			if err != nil {
				t.Fatalf("case %d: EvalFST: %v", ci, err)
			}
			if inMAP {
				nMAP++
				// Monotonicity, pointwise: anything MAP finds, the coarser
				// approximations must also find.
				if pStac == 0 {
					t.Errorf("case %d: %q in MAP but staccato prob 0", ci, probe)
				}
			}
			if pStac > 0 {
				nStac++
				if pFull == 0 {
					t.Errorf("case %d: %q found by staccato but not full SFST", ci, probe)
				}
			}
			if pFull > 0 {
				nFull++
			}
		}
	}
	if !(nMAP <= nStac && nStac <= nFull) {
		t.Errorf("recall not monotone: MAP %d, staccato %d, full %d (of %d probes)", nMAP, nStac, nFull, nProbes)
	}
	if nStac == nMAP {
		t.Errorf("staccato recall (%d) did not improve on MAP (%d) across %d probes — dial has no effect", nStac, nMAP, nProbes)
	}
	t.Logf("recall over %d probes: MAP %d, staccato %d, full %d", nProbes, nMAP, nStac, nFull)
}

// docContainsProb computes P(text contains probe) under the doc's product
// distribution by brute-force expansion — an independent oracle so this
// package's tests do not depend on pkg/query.
func docContainsProb(t *testing.T, doc *staccato.Doc, probe string) float64 {
	t.Helper()
	total := 0.0
	var cross func(i int, prefix string, p float64)
	cross = func(i int, prefix string, p float64) {
		if strings.Contains(prefix, probe) {
			total += p
			return
		}
		if i == len(doc.Chunks) {
			return
		}
		// Only the tail of the prefix can participate in a new match.
		tail := prefix
		if len(tail) > len(probe)-1 {
			tail = tail[len(tail)-(len(probe)-1):]
		}
		for _, alt := range doc.Chunks[i].Alts {
			cross(i+1, tail+alt.Text, p*alt.Prob)
		}
	}
	cross(0, "", 1)
	return total
}

func TestNumReadingsAndReadings(t *testing.T) {
	d := &staccato.Doc{
		ID: "r",
		Chunks: []staccato.PathSet{
			{Alts: []staccato.Alt{{Text: "a", Prob: 0.7}, {Text: "b", Prob: 0.3}}, Retained: 1},
			{Alts: []staccato.Alt{{Text: "x", Prob: 0.6}, {Text: "y", Prob: 0.4}}, Retained: 1},
		},
	}
	if n := d.NumReadings(); n != 4 {
		t.Fatalf("NumReadings = %v, want 4", n)
	}
	got := map[string]float64{}
	var sum float64
	d.Readings(func(text string, prob float64) bool {
		got[text] += prob
		sum += prob
		return true
	})
	want := map[string]float64{"ax": 0.42, "ay": 0.28, "bx": 0.18, "by": 0.12}
	for text, p := range want {
		if math.Abs(got[text]-p) > 1e-12 {
			t.Errorf("P(%q) = %v, want %v", text, got[text], p)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("readings sum to %v, want 1", sum)
	}
}

func TestReadingsEarlyStop(t *testing.T) {
	d := &staccato.Doc{
		ID: "r",
		Chunks: []staccato.PathSet{
			{Alts: []staccato.Alt{{Text: "a", Prob: 0.5}, {Text: "b", Prob: 0.5}}, Retained: 1},
			{Alts: []staccato.Alt{{Text: "x", Prob: 0.5}, {Text: "y", Prob: 0.5}}, Retained: 1},
		},
	}
	var n int
	d.Readings(func(string, float64) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("enumeration visited %d readings after stop, want 2", n)
	}
}

// TestReadingsAgreeWithBuild cross-checks enumeration on a generated doc:
// the reading set must carry the per-chunk product probabilities.
func TestReadingsAgreeWithBuild(t *testing.T) {
	_, f := testgen.MustGenerate(testgen.Config{Length: 10, Seed: 6})
	d, err := staccato.Build(f, "d", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := 0.0
	sum := 0.0
	d.Readings(func(_ string, prob float64) bool {
		count++
		sum += prob
		return true
	})
	if count != d.NumReadings() {
		t.Errorf("enumerated %v readings, NumReadings says %v", count, d.NumReadings())
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("readings sum to %v, want 1 (PathSet alts are normalized)", sum)
	}
}

// TestMAPRanksUnsortedAlternatives feeds documents whose chunks list
// their alternatives in an order other than Build's — as an ingest
// request may — and requires MAP to rank them anyway, by CompareAlts,
// the order Build stores them in.
func TestMAPRanksUnsortedAlternatives(t *testing.T) {
	d := &staccato.Doc{ID: "u", Chunks: []staccato.PathSet{
		{Alts: []staccato.Alt{{Text: "xab", Prob: 0.2}, {Text: "yab", Prob: 0.8}}, Retained: 1},
	}}
	if got := d.MAP(); got != "yab" {
		t.Fatalf("MAP = %q, want the p=0.8 alternative \"yab\"", got)
	}

	for seed := int64(1); seed <= 4; seed++ {
		_, f := testgen.MustGenerate(testgen.Config{Length: 18, Seed: seed})
		sorted, err := staccato.Build(f, "d", 3, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		shuffled := &staccato.Doc{ID: sorted.ID, Chunks: make([]staccato.PathSet, len(sorted.Chunks))}
		for i, c := range sorted.Chunks {
			if !slices.IsSortedFunc(c.Alts, staccato.CompareAlts) {
				t.Fatalf("seed %d chunk %d: Build stored %+v out of CompareAlts order", seed, i, c.Alts)
			}
			alts := slices.Clone(c.Alts)
			slices.Reverse(alts)
			shuffled.Chunks[i] = staccato.PathSet{Alts: alts, Retained: c.Retained}
		}
		if got, want := shuffled.MAP(), sorted.MAP(); got != want {
			t.Fatalf("seed %d: MAP of reversed alternatives %q, want %q", seed, got, want)
		}
	}
}
