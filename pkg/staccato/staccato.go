// Package staccato implements the paper's tunable approximation of an
// SFST. The transducer is split into sequential chunks at states every
// accepting path must pass through, and only the k most probable paths are
// kept per chunk. The result, a Doc, is a dial between the two extremes of
// OCR data management:
//
//   - chunks = as many as possible, k = 1 → the MAP string (what a
//     conventional pipeline stores): cheap, but recall is lost for every
//     term the OCR engine mis-ranked.
//   - chunks = 1, k = AllPaths → the full SFST distribution: exact, but
//     the path set explodes exponentially.
//
// Everything in between trades space and query cost for recall, exactly
// the Staccato dial of Kumar & Ré (VLDB 2011). Correlations between
// alternatives are kept inside a chunk and broken across chunk boundaries,
// so a Doc is a product distribution over per-chunk path sets — which is
// what pkg/query exploits to answer queries by dynamic programming.
package staccato

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/paper-repo/staccato-go/pkg/fst"
)

// AllPaths requests that TopK keep every path in a chunk; combined with a
// single chunk it materializes the exact SFST distribution. Only feasible
// for small transducers — TopK returns ErrPathExplosion when enumeration
// exceeds its internal budget.
const AllPaths = math.MaxInt32

// MaxChunks requests as many chunks as the transducer allows (one per cut
// state); combined with k=1 the resulting Doc is exactly the MAP string.
const MaxChunks = math.MaxInt32

// Alt is one retained reading of a chunk with its probability, normalized
// over the chunk's retained paths. The JSON tags on Doc and its parts
// define the document wire shape of the server's /v1/ingest endpoint; the
// durable on-disk encoding is pkg/store's binary codec, not JSON.
type Alt struct {
	Text string  `json:"text"`
	Prob float64 `json:"prob"`
}

// PathSet is the retained top-k path set of one chunk. Its Alts'
// probabilities sum to 1. Build sorts Alts in CompareAlts order, but a
// document can arrive from elsewhere — an ingest request, a hand-built
// Doc — in any order, so readers must not rely on that order: MAP and
// query snippets rank the alternatives themselves, with CompareAlts.
// Retained records the fraction of the chunk's total probability
// mass the kept paths cover, a diagnostic for how lossy the approximation
// was at this dial setting.
type PathSet struct {
	Alts     []Alt   `json:"alts"`
	Retained float64 `json:"retained"`
}

// Params records the dial setting a Doc was built with. Chunks is the
// effective chunk count, which may be lower than requested when the
// transducer has fewer cut states.
type Params struct {
	Chunks int `json:"chunks"`
	K      int `json:"k"`
}

// Doc is a Staccato-approximated document: a sequence of independent
// chunks, each a distribution over a small set of strings. It is the unit
// of storage (pkg/store) and of query evaluation (pkg/query).
type Doc struct {
	ID     string    `json:"id"`
	Params Params    `json:"params"`
	Chunks []PathSet `json:"chunks"`
}

// MAP returns the most probable reading under the Doc's product
// distribution: the concatenation of each chunk's top alternative in
// CompareAlts order — the most probable one, ties broken by text.
func (d *Doc) MAP() string {
	var out []byte
	for _, c := range d.Chunks {
		if len(c.Alts) == 0 {
			continue
		}
		out = append(out, slices.MinFunc(c.Alts, CompareAlts).Text...)
	}
	return string(out)
}

// NumReadings returns how many complete readings the document encodes —
// the product of the per-chunk alternative counts — as a float64, because
// the count grows exponentially with the chunk count.
func (d *Doc) NumReadings() float64 {
	n := 1.0
	for _, c := range d.Chunks {
		n *= float64(len(c.Alts))
	}
	return n
}

// Readings enumerates every complete reading of the document with its
// probability under the product distribution, in lexicographic chunk-major
// order (the first chunk's alternatives vary slowest). Enumeration is
// exponential in the chunk count — check NumReadings before calling this
// on anything but small documents. fn returning false stops the
// enumeration early.
func (d *Doc) Readings(fn func(text string, prob float64) bool) {
	var rec func(i int, prefix string, p float64) bool
	rec = func(i int, prefix string, p float64) bool {
		if i == len(d.Chunks) {
			return fn(prefix, p)
		}
		for _, alt := range d.Chunks[i].Alts {
			if !rec(i+1, prefix+alt.Text, p*alt.Prob) {
				return false
			}
		}
		return true
	}
	rec(0, "", 1)
}

// Build runs the full approximation pipeline: split f into at most
// numChunks chunks and keep the top k paths in each, returning the
// assembled Doc. It is the one-call form of Chunk followed by TopK.
func Build(f *fst.SFST, id string, numChunks, k int) (*Doc, error) {
	segs, err := Chunk(f, numChunks)
	if err != nil {
		return nil, err
	}
	doc := &Doc{
		ID:     id,
		Params: Params{Chunks: len(segs), K: k},
		Chunks: make([]PathSet, len(segs)),
	}
	for i, seg := range segs {
		ps, err := TopK(seg, k)
		if err != nil {
			return nil, fmt.Errorf("staccato: chunk %d: %w", i, err)
		}
		doc.Chunks[i] = ps
	}
	return doc, nil
}

// CompareAlts is the rank order of a chunk's alternatives, for
// slices.SortFunc: a negative result when a ranks ahead of b — a higher
// probability, or an equal one and a smaller text — positive when b ranks
// ahead, and zero only for equal alternatives. Build stores Alts in this
// order; every reader that ranks alternatives uses it.
func CompareAlts(a, b Alt) int {
	//lint:allow floateq sort comparators need exact comparison — an epsilon tie-break is not a strict weak order and would make alternative order nondeterministic
	if a.Prob != b.Prob {
		return cmp.Compare(b.Prob, a.Prob)
	}
	return strings.Compare(a.Text, b.Text)
}
