package index

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// fuzzLists decodes two ascending, duplicate-free posting lists. a takes
// one ordinal per 3 bytes of as: a little-endian uint16 gap past the
// previous ordinal, then a bound byte. b has n ordinals whose (gap,
// bound) byte pairs are read from bs cyclically; without a pair it is the
// run 0, 1, …, n-1 at bounds 0, 1, …. So n against len(as)/3 sets the
// length skew, from 1:1 to 1:4096 and past, with either list empty.
func fuzzLists(as, bs []byte, n uint16) (a, b postings) {
	next := uint32(0)
	for ; len(as) >= 3; as = as[3:] {
		o := next + uint32(binary.LittleEndian.Uint16(as))
		a.ords, a.bnds = append(a.ords, o), append(a.bnds, uint16(as[2])*257)
		next = o + 1
	}
	next = 0
	for k := range int(n) {
		gap, bnd := uint32(0), uint16(k)
		if len(bs) >= 2 {
			at := 2 * (k % (len(bs) / 2))
			gap, bnd = uint32(bs[at]), uint16(bs[at+1])*257
		}
		b.ords, b.bnds = append(b.ords, next+gap), append(b.bnds, bnd)
		next += gap + 1
	}
	return a, b
}

// referenceIntersect is intersect by a map: the ordinals of b that a
// holds, at the min of the two bounds.
func referenceIntersect(a, b postings) postings {
	inA := make(map[uint32]uint16, len(a.ords))
	for i, o := range a.ords {
		inA[o] = a.bnds[i]
	}
	var out postings
	for j, o := range b.ords {
		if bnd, ok := inA[o]; ok {
			out.ords, out.bnds = append(out.ords, o), append(out.bnds, min(bnd, b.bnds[j]))
		}
	}
	return out
}

// FuzzIntersect checks intersect, in both argument orders, against the
// map reference: the same ordinals at the same min bounds, whichever of
// the merge and the gallop runs, and neither input touched.
func FuzzIntersect(f *testing.F) {
	// A one-ordinal list against the run 0…4095 gallops from 0 and probes
	// indexes 0, 1, 3, 7: 7 is the first probe not below the ordinal, and
	// it is the match, so the binary search after the probes must include
	// the probe that ended them.
	f.Add([]byte{7, 0, 200}, []byte(nil), uint16(4096))
	// The same after a first match: from index 4 the probes land on 4, 5,
	// 7, 11 and 19, and 19 is the second ordinal.
	f.Add([]byte{3, 0, 10, 15, 0, 20}, []byte(nil), uint16(4096))
	f.Add([]byte{0, 0, 9}, []byte(nil), uint16(64))         // b's first element
	f.Add([]byte{0xFF, 0x0F, 9}, []byte(nil), uint16(4096)) // b's last element
	f.Add([]byte{0xFF, 0x0F, 9}, []byte(nil), uint16(4095)) // past b's end
	f.Add([]byte(nil), []byte{1, 2}, uint16(100))           // a empty
	f.Add([]byte{1, 0, 3}, []byte(nil), uint16(0))          // b empty
	f.Add([]byte{0, 0, 1, 1, 0, 2, 0, 0, 3}, []byte{0, 5, 1, 6}, uint16(3))
	f.Add([]byte{2, 0, 1, 5, 0, 2, 9, 0, 3}, []byte{1, 7, 0, 255}, uint16(48)) // 1:16, gallops
	f.Add([]byte{2, 0, 1, 5, 0, 2, 9, 0, 3}, []byte{1, 7, 0, 255}, uint16(47)) // just under, merges
	f.Fuzz(func(t *testing.T, as, bs []byte, n uint16) {
		a, b := fuzzLists(as, bs, n)
		aIn, bIn := clonePostings(a), clonePostings(b)
		want := referenceIntersect(a, b)
		for _, got := range []postings{intersect(a, b), intersect(b, a)} {
			if !slices.Equal(got.ords, want.ords) || !slices.Equal(got.bnds, want.bnds) {
				t.Fatalf("intersect of %d and %d ordinals = %v %v, want %v %v", len(a.ords), len(b.ords), got.ords, got.bnds, want.ords, want.bnds)
			}
		}
		if !equalPostings(a, aIn) || !equalPostings(b, bIn) {
			t.Fatal("intersect modified an input list")
		}
	})
}

func clonePostings(p postings) postings { return postings{slices.Clone(p.ords), slices.Clone(p.bnds)} }

func equalPostings(p, q postings) bool {
	return slices.Equal(p.ords, q.ords) && slices.Equal(p.bnds, q.bnds)
}

var sinkPostings postings

// BenchmarkIntersect times both ways intersect can walk a pair of lists
// at length ratios from 1:1 to 1:1024: a long list of 16,384 ordinals,
// every second one of [0, 32768), against a short one drawn uniformly from
// the same range (about half of it matches). gallopRatio is the first row
// where gallop clearly beats merge; at the row before it merge is as fast
// or faster.
func BenchmarkIntersect(b *testing.B) {
	const longLen = 1 << 14
	rng := rand.New(rand.NewSource(1))
	var long postings
	for o := range uint32(longLen) {
		long.ords, long.bnds = append(long.ords, 2*o), append(long.bnds, uint16(o))
	}
	for _, ratio := range []int{1, 4, 8, 16, 64, 1024} {
		var short postings
		for _, o := range rng.Perm(2 * longLen)[:longLen/ratio] {
			short.ords = append(short.ords, uint32(o))
		}
		slices.Sort(short.ords)
		short.bnds = make([]uint16, len(short.ords))
		for _, way := range []struct {
			name string
			fn   func(a, b postings) postings
		}{{"merge", intersectMerge}, {"gallop", intersectGallop}} {
			b.Run(fmt.Sprintf("ratio=1:%d/%s", ratio, way.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					sinkPostings = way.fn(short, long)
				}
			})
		}
	}
}

// BenchmarkCandidatesAnd times the lookup a three-keyword And plans to —
// the shape of the bench's conj-topk workload — over an index of 2,000
// error-model documents: one rarest-first intersection of the three
// words' gram lists, then the candidates' IDs and bounds.
func BenchmarkCandidatesAnd(b *testing.B) {
	var l Lookup
	for _, w := range testgen.Vocab(2000)[11:14] {
		l.And = append(l.And, Lookup{Grams: wordGrams(w, DefaultGramSize)})
	}
	benchCandidates(b, l)
}

// BenchmarkCandidatesPatterns times the lookup a fuzzy term plans to: one
// Patterns node holding a word with each of its runes in turn a wildcard,
// which expands each window's wildcard against the alphabet.
func BenchmarkCandidatesPatterns(b *testing.B) {
	var l Lookup
	word := []rune(testgen.Vocab(2000)[11])
	for i := range word {
		p := slices.Clone(word)
		p[i] = -1
		l.Patterns = append(l.Patterns, p)
	}
	benchCandidates(b, l)
}

// benchCandidates times l over an index of 2,000 error-model documents,
// built in commits of 1 document, the most commits it can take, and of
// 256, the bench's ingest batch.
func benchCandidates(b *testing.B, l Lookup) {
	cases, err := testgen.ErrDocs(2000, testgen.ErrModelConfig{VocabSize: 2000}, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	for _, commits := range []int{1, 256} {
		b.Run(fmt.Sprintf("commits=%d", commits), func(b *testing.B) {
			ix := New(DefaultGramSize)
			for from := 0; from < len(docs); from += commits {
				if err := ix.Commit(ix.BatchOf(docs[from:min(from+commits, len(docs))], 1), nil, diskstore.CommitState{}); err != nil {
					b.Fatal(err)
				}
			}
			ids, _, _, _, ok := ix.Candidates(l)
			if !ok {
				b.Fatal("the lookup did not answer")
			}
			b.ReportAllocs()
			for b.Loop() {
				ix.Candidates(l)
			}
			b.ReportMetric(float64(len(ids)), "candidates")
		})
	}
}

// wordGrams is every distinct q-rune window of w.
func wordGrams(w string, q int) []string {
	runes := []rune(w)
	var grams []string
	for i := 0; i+q <= len(runes); i++ {
		if g := string(runes[i : i+q]); !slices.Contains(grams, g) {
			grams = append(grams, g)
		}
	}
	return grams
}
