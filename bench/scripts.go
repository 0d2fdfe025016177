package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

const searchTop = 10

// Ops per pass at scale 1, sized so one pass takes about half a second
// at one client on the reference box (see README, "Protocol").
const (
	pointOps = 3000
	conjOps  = 1000
	scanOps  = 8
	mixedOps = 800
)

var workloadNames = []string{"point-topk", "conj-topk", "scan", "mixed-rw"}

// searchSpec is the /v1/search request body. compile turns the same
// spec into the query.Query the server builds for it, which is how the
// check pass and the layer probes reach below the HTTP surface.
type searchSpec struct {
	Terms    []string `json:"terms"`
	Mode     string   `json:"mode,omitempty"`
	Distance int      `json:"distance,omitempty"`
	Top      int      `json:"top,omitempty"`
}

func (s searchSpec) leaf(term string) (*query.Query, error) {
	switch s.Mode {
	case "keyword":
		return query.Keyword(term)
	case "fuzzy":
		return query.Fuzzy(term, s.Distance)
	default:
		return query.Substring(term)
	}
}

func (s searchSpec) compile() (*query.Query, error) {
	leaves := make([]*query.Query, len(s.Terms))
	for i, t := range s.Terms {
		q, err := s.leaf(t)
		if err != nil {
			return nil, fmt.Errorf("compile %v: %w", s, err)
		}
		leaves[i] = q
	}
	return query.And(leaves[0], leaves[1:]...), nil
}

// op is one pre-marshalled request of a script. Searches keep their spec
// so results can be verified and replayed below the server.
type op struct {
	method string
	path   string
	body   []byte
	search *searchSpec // nil for writes
}

func searchOp(s searchSpec) op {
	body, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return op{method: http.MethodPost, path: "/v1/search", body: body, search: &s}
}

// ingestOp is one POST /v1/ingest of docs.
func ingestOp(docs []*staccato.Doc) (op, error) {
	body, err := json.Marshal(map[string]any{"docs": docs})
	return op{method: http.MethodPost, path: "/v1/ingest", body: body}, err
}

// script is a workload's operation sequence, one slice per pass. A
// read-only workload replays one pass; mixed-rw is one continuous
// sequence cut into passes, because its writes change the store.
type script struct {
	passes [][]op
	// truth maps every document live after the last pass to its ground
	// truth text; mixed-rw's writes change it.
	truth map[string]string
}

func (s *script) pass(i int) []op { return s.passes[i%len(s.passes)] }

// firstSearch is the search a set-up waits on after reopening the store.
func (s *script) firstSearch() op {
	for _, o := range s.passes[0] {
		if o.search != nil {
			return o
		}
	}
	panic("script without a search")
}

func (s *script) sha256() string {
	h := sha256.New()
	for _, p := range s.passes {
		for _, o := range p {
			fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
			h.Write(o.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// termPools are the vocabulary slices the scripts draw from. The error
// model's vocabulary and its Zipf ranks do not depend on the seed, so the
// two pools taken by rank hold the same words on every seed and at every
// corpus size; the others are chosen by document frequency.
type termPools struct {
	all    []string // every word occurring in the corpus
	rare   []string // 200 words in 2..docs/400 documents: point lookups
	common []string // ranks 11-34, each in 4-13% of the documents: conjunctions, the ranked tail
	short  []string // 4- and 5-rune words: fuzzy d=1 cannot be planned, so they scan
	long   []string // words of 6+ runes: fuzzy d=1 plans through the pigeonhole
	recall []string // ranks 8-39, each in 3-17% of the documents: the recall queries
}

func newTermPools(truths []string) termPools {
	stats := docFreq(truths)
	n := len(truths)
	vocab := testgen.Vocab(vocabSize)
	p := termPools{
		rare:   pickTerms(stats, 2, max(2, n/400), 4, 8, 200),
		common: vocab[11:35],
		long:   pickTerms(stats, 2, n, 6, 8, 200),
		recall: vocab[8:40],
	}
	// Equal numbers of 4- and 5-rune words keep the Levenshtein DFA sizes
	// of the scan workload's fuzzy half the same on every seed.
	p.short = append(pickTerms(stats, 2, n, 4, 4, 32), pickTerms(stats, 2, n, 5, 5, 32)...)
	for _, s := range stats {
		p.all = append(p.all, s.term)
	}
	slices.Sort(p.all)
	return p
}

func keywordTop(term string) searchSpec {
	return searchSpec{Terms: []string{term}, Mode: "keyword", Top: searchTop}
}

func pointScript(pools termPools, rng *rand.Rand, ops int) [][]op {
	pass := make([]op, ops)
	for i := range pass {
		pass[i] = searchOp(keywordTop(pools.rare[rng.Intn(len(pools.rare))]))
	}
	return [][]op{pass}
}

func conjScript(pools termPools, rng *rand.Rand, ops int) [][]op {
	combos := make([]searchSpec, 150)
	for i := range combos {
		perm := rng.Perm(len(pools.common))[:3]
		terms := []string{pools.common[perm[0]], pools.common[perm[1]], pools.common[perm[2]]}
		combos[i] = searchSpec{Terms: terms, Mode: "keyword", Top: searchTop}
	}
	pass := make([]op, ops)
	for i := range pass {
		pass[i] = searchOp(combos[rng.Intn(len(combos))])
	}
	return [][]op{pass}
}

// scanScript alternates 2-rune substrings (below the gram size) with
// fuzzy d=1 on 4- and 5-rune words (pieces below the gram size): neither
// can be planned, so every op evaluates the whole corpus.
func scanScript(pools termPools, rng *rand.Rand, ops int) [][]op {
	pass := make([]op, ops)
	for i := range pass {
		if i%2 == 0 {
			w := []rune(pools.common[rng.Intn(len(pools.common))])
			at := rng.Intn(len(w) - 1)
			pass[i] = searchOp(searchSpec{Terms: []string{string(w[at : at+2])}, Top: searchTop})
		} else {
			// i/2 alternates the 4-rune half and the 5-rune half of short.
			half := len(pools.short) / 2
			w := pools.short[(i/2%2)*half+rng.Intn(half)]
			pass[i] = searchOp(searchSpec{Terms: []string{w}, Mode: "fuzzy", Distance: 1, Top: searchTop})
		}
	}
	return [][]op{pass}
}

// mixedGen writes mixed-rw's continuous script and tracks the store
// state the script leaves behind.
type mixedGen struct {
	rng   *rand.Rand
	pools termPools
	pool  []*staccato.Doc // held-out documents, approximated
	ptext []string        // their ground truths
	next  int             // next pool document to write
	fresh int             // next never-used document ID
	live  []string
	truth map[string]string
}

// takeLive removes and returns a random live ID. An ID taken in a pass is
// not written again in that pass (deletes drop it for good; overwrites
// are put back by the caller at the pass boundary), so concurrent clients
// cannot reorder two writes to one document and the final store state is
// the same on every run.
func (g *mixedGen) takeLive() string {
	i := g.rng.Intn(len(g.live))
	id := g.live[i]
	g.live[i] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	return id
}

func (g *mixedGen) poolDoc(id string) *staccato.Doc {
	d := *g.pool[g.next%len(g.pool)]
	d.ID = id
	g.truth[id] = g.ptext[g.next%len(g.pool)]
	g.next++
	return &d
}

func (g *mixedGen) pass(ops int) ([]op, error) {
	out := make([]op, ops)
	var back []string // IDs written this pass, live again from the next
	for i := range out {
		switch r := g.rng.Intn(100); {
		case r < 5: // one new document plus three overwrites
			id := poolID(g.fresh)
			g.fresh++
			docs := []*staccato.Doc{g.poolDoc(id)}
			back = append(back, id)
			for range 3 {
				id := g.takeLive()
				docs = append(docs, g.poolDoc(id))
				back = append(back, id)
			}
			o, err := ingestOp(docs)
			if err != nil {
				return nil, err
			}
			out[i] = o
		case r < 10:
			id := g.takeLive()
			delete(g.truth, id)
			out[i] = op{method: http.MethodDelete, path: "/v1/docs/" + id}
		case r < 73: // 70% of the reads: point keyword over the whole vocabulary
			out[i] = searchOp(keywordTop(g.pools.all[g.rng.Intn(len(g.pools.all))]))
		case r < 91: // 20%: one common keyword, hundreds of candidates
			out[i] = searchOp(keywordTop(g.pools.common[g.rng.Intn(len(g.pools.common))]))
		default: // 10%: planned fuzzy
			w := g.pools.long[g.rng.Intn(len(g.pools.long))]
			out[i] = searchOp(searchSpec{Terms: []string{w}, Mode: "fuzzy", Distance: 1, Top: searchTop})
		}
	}
	g.live = append(g.live, back...)
	return out, nil
}
