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
// the probe and the gallop runs, neither input touched, and the accum
// left empty after every call. The accum covers every ordinal of the two
// lists, as an index part's covers the part; inputs reaching past 2^20
// ordinals are left out to keep it small. Each call writes into the
// output of the one before, so a reused buffer is covered too.
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
	f.Add([]byte{2, 0, 1, 5, 0, 2, 9, 0, 3}, []byte{1, 7, 0, 255}, uint16(3*gallopRatio))   // gallops
	f.Add([]byte{2, 0, 1, 5, 0, 2, 9, 0, 3}, []byte{1, 7, 0, 255}, uint16(3*gallopRatio-1)) // just under, probes
	f.Fuzz(func(t *testing.T, as, bs []byte, n uint16) {
		a, b := fuzzLists(as, bs, n)
		top := uint32(0)
		for _, l := range []postings{a, b} {
			if len(l.ords) > 0 {
				top = max(top, l.ords[len(l.ords)-1]+1)
			}
		}
		if top > 1<<20 {
			return
		}
		acc := &accum{sum: make([]uint32, top), seen: make([]uint64, (top+63)/64)}
		aIn, bIn := clonePostings(a), clonePostings(b)
		want := referenceIntersect(a, b)
		var into postings
		for _, pair := range [][2]postings{{a, b}, {b, a}} {
			got := acc.intersect(pair[0], pair[1], into)
			if !slices.Equal(got.ords, want.ords) || !slices.Equal(got.bnds, want.bnds) {
				t.Fatalf("intersect of %d and %d ordinals = %v %v, want %v %v", len(pair[0].ords), len(pair[1].ords), got.ords, got.bnds, want.ords, want.bnds)
			}
			if w := slices.IndexFunc(acc.seen, func(w uint64) bool { return w != 0 }); w >= 0 || acc.n != 0 {
				t.Fatalf("intersect left the accum holding ordinals (word %d, n %d)", w, acc.n)
			}
			into = got
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

// TestCandidatesIgnoreOrder checks that an answer does not depend on the
// order a Lookup lists its parts in: over error-model documents committed
// one at a time and 256 at a time — many parts, and lists of very
// different lengths, so both kernels run — every permutation of the And
// children and of each Grams node's grams returns the same (ID, bound)
// set, gram count, live count and ok. Nor may the answer depend on how
// the documents were split into commits.
func TestCandidatesIgnoreOrder(t *testing.T) {
	docs := errModelDocs(t, 600)
	vocab := testgen.Vocab(2000)
	rng := rand.New(rand.NewSource(1))
	word := func(from, to int) Lookup {
		return Lookup{Grams: wordGrams(vocab[from+rng.Intn(to-from)], DefaultGramSize)}
	}
	fuzzy := func() Lookup {
		w := []rune(vocab[rng.Intn(40)])
		w[rng.Intn(len(w))] = -1
		return Lookup{Patterns: [][]rune{w}}
	}
	var lookups []Lookup
	for range 40 {
		lookups = append(lookups,
			word(0, 40),
			Lookup{And: []Lookup{word(11, 35), word(11, 35), word(11, 35)}},
			Lookup{And: []Lookup{word(0, 12), word(0, 200)}},
			Lookup{And: []Lookup{word(0, 12), fuzzy(), {Or: []Lookup{word(0, 40), word(0, 40)}}}},
			Lookup{And: []Lookup{{And: []Lookup{word(0, 20), word(0, 20)}}, word(0, 40), {Grams: []string{"zzz"}}}},
		)
	}
	type answer struct {
		ids    []string
		bounds []float64
	}
	var first []answer
	for _, commits := range []int{1, 256} {
		ix := New(DefaultGramSize)
		for from := 0; from < len(docs); from += commits {
			if err := ix.Commit(ix.BatchOf(docs[from:min(from+commits, len(docs))], 1), nil, diskstore.CommitState{}); err != nil {
				t.Fatal(err)
			}
		}
		found := 0
		for n, l := range lookups {
			ids, bounds, grams, live, ok := ix.Candidates(l)
			ids, bounds = ByID(ids, bounds)
			found += len(ids)
			if commits == 1 {
				first = append(first, answer{ids, bounds})
			} else if !slices.Equal(ids, first[n].ids) || !slices.Equal(bounds, first[n].bounds) {
				t.Fatalf("%+v answers %d IDs over commits of 256, %d over commits of 1", l, len(ids), len(first[n].ids))
			}
			for range 6 {
				p := permuted(rng, l)
				pids, pbounds, pgrams, plive, pok := ix.Candidates(p)
				pids, pbounds = ByID(pids, pbounds)
				if !slices.Equal(pids, ids) || !slices.Equal(pbounds, bounds) || pgrams != grams || plive != live || pok != ok {
					t.Fatalf("commits=%d: %+v answers %d IDs, grams %d, live %d, ok %v; its permutation %+v answers %d IDs, grams %d, live %d, ok %v",
						commits, l, len(ids), grams, live, ok, p, len(pids), pgrams, plive, pok)
				}
			}
		}
		if found == 0 {
			t.Fatalf("commits=%d: no lookup found a candidate", commits)
		}
	}
}

// permuted returns a copy of l with the children of every And node and
// the grams of every Grams node shuffled.
func permuted(rng *rand.Rand, l Lookup) Lookup {
	out := Lookup{Grams: slices.Clone(l.Grams), Patterns: l.Patterns, Or: l.Or}
	rng.Shuffle(len(out.Grams), func(i, j int) { out.Grams[i], out.Grams[j] = out.Grams[j], out.Grams[i] })
	for _, kid := range l.And {
		out.And = append(out.And, permuted(rng, kid))
	}
	rng.Shuffle(len(out.And), func(i, j int) { out.And[i], out.And[j] = out.And[j], out.And[i] })
	return out
}

// errModelDocs is n documents of the error model, over the bench's
// 2,000-word vocabulary.
func errModelDocs(tb testing.TB, n int) []*staccato.Doc {
	cases, err := testgen.ErrDocs(n, testgen.ErrModelConfig{VocabSize: 2000}, 6, 3)
	if err != nil {
		tb.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	return docs
}

var sinkPostings postings

// BenchmarkIntersect times both ways intersect can walk a pair of lists,
// at length ratios from 1:1 to 1:1024, cycling through 64 pairs so that
// the branch predictor cannot learn one: a long list of 4,096 ordinals, a
// random half of [0, 8192), against a short one drawn uniformly from the
// same range (about half of it matches). gallopRatio is the first row
// where gallop clearly beats probe.
func BenchmarkIntersect(b *testing.B) {
	const longLen, pairs = 1 << 12, 64
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) postings {
		var l postings
		for _, o := range rng.Perm(2 * longLen)[:n] {
			l.ords = append(l.ords, uint32(o))
		}
		slices.Sort(l.ords)
		l.bnds = make([]uint16, n)
		for k := range l.bnds {
			l.bnds[k] = uint16(rng.Intn(maxBound + 1))
		}
		return l
	}
	longs := make([]postings, pairs)
	for k := range longs {
		longs[k] = draw(longLen)
	}
	acc := &accum{sum: make([]uint32, 2*longLen), seen: make([]uint64, 2*longLen/64)}
	for _, ratio := range []int{1, 4, 8, 16, 32, 64, 1024} {
		shorts := make([]postings, pairs)
		for k := range shorts {
			shorts[k] = draw(longLen / ratio)
		}
		for _, way := range []struct {
			name string
			fn   func(x, y, into postings) postings
		}{{"probe", acc.probe}, {"gallop", intersectGallop}} {
			b.Run(fmt.Sprintf("ratio=1:%d/%s", ratio, way.name), func(b *testing.B) {
				b.ReportAllocs()
				into, k := postings{}, 0
				for b.Loop() {
					into = way.fn(shorts[k%pairs], longs[k%pairs], into)
					k++
				}
				sinkPostings = into
			})
		}
	}
}

// BenchmarkCandidatesAnd times the lookups a three-keyword And plans to —
// the bench's conj-topk workload — over an index of 2,000 error-model
// documents, cycling through 150 three-word combinations of the words
// of rank 11 to 34, drawn as conj-topk draws them: one rarest-first
// intersection of the three words' gram lists, then the candidates' IDs
// and bounds.
func BenchmarkCandidatesAnd(b *testing.B) {
	common := testgen.Vocab(2000)[11:35]
	rng := rand.New(rand.NewSource(1))
	ls := make([]Lookup, 150)
	for i := range ls {
		for _, k := range rng.Perm(len(common))[:3] {
			ls[i].And = append(ls[i].And, Lookup{Grams: wordGrams(common[k], DefaultGramSize)})
		}
	}
	benchCandidates(b, ls)
}

// BenchmarkCandidatesRare times the lookup of one rare keyword, a single
// Grams node, cycling through the 64 words of rank 1,000 to 1,063.
func BenchmarkCandidatesRare(b *testing.B) {
	var ls []Lookup
	for _, w := range testgen.Vocab(2000)[1000:1064] {
		ls = append(ls, Lookup{Grams: wordGrams(w, DefaultGramSize)})
	}
	benchCandidates(b, ls)
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
	benchCandidates(b, []Lookup{l})
}

// benchCandidates times ls, one lookup per op in turn, over an index of
// 2,000 error-model documents, built in commits of 1 document, the most
// commits it can take, and of 256, the bench's ingest batch.
func benchCandidates(b *testing.B, ls []Lookup) {
	docs := errModelDocs(b, 2000)
	for _, commits := range []int{1, 256} {
		b.Run(fmt.Sprintf("commits=%d", commits), func(b *testing.B) {
			ix := New(DefaultGramSize)
			for from := 0; from < len(docs); from += commits {
				if err := ix.Commit(ix.BatchOf(docs[from:min(from+commits, len(docs))], 1), nil, diskstore.CommitState{}); err != nil {
					b.Fatal(err)
				}
			}
			found := 0
			for _, l := range ls {
				ids, _, _, _, ok := ix.Candidates(l)
				if !ok {
					b.Fatal("a lookup did not answer")
				}
				found += len(ids)
			}
			b.ReportAllocs()
			k := 0
			for b.Loop() {
				ix.Candidates(ls[k%len(ls)])
				k++
			}
			b.ReportMetric(float64(found)/float64(len(ls)), "candidates")
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
