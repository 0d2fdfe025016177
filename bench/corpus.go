package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fst"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Corpus parameters. The dial and vocabulary are constants: one value is
// in use, and changing either changes every committed number.
const (
	vocabSize  = 2000
	dialChunks = 6
	dialK      = 3
	// poolDocs is the held-out document pool mixed-rw writes draw from.
	poolDocs = 1024
	// seedStride keeps the per-document seeds (base+i) of two benchmark
	// seeds disjoint.
	seedStride = 1_000_000
)

// source is one synthesized document before approximation: its ID, the
// ground truth text, and the raw transducer staccato.Build consumes.
type source struct {
	id    string
	truth string
	fst   *fst.SFST
}

// buildDoc approximates one document at the benchmark's dial.
func buildDoc(s source) (*staccato.Doc, error) {
	d, err := staccato.Build(s.fst, s.id, dialChunks, dialK)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", s.id, err)
	}
	return d, nil
}

func docID(i int) string  { return fmt.Sprintf("doc-%06d", i) }
func poolID(i int) string { return fmt.Sprintf("new-%06d", i) }

// synthesize generates n error-model documents with per-document seeds
// base+i, spread over every CPU: synthesis (~0.5 ms/doc) is the
// benchmark's own cost, never timed, so it only has to be deterministic.
func synthesize(n int, base int64, id func(int) string) ([]source, error) {
	out := make([]source, n)
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				truth, f, err := testgen.GenerateErrModel(testgen.ErrModelConfig{VocabSize: vocabSize, Seed: base + int64(i)})
				if err != nil {
					errs[w] = fmt.Errorf("synthesize doc %d: %w", i, err)
					return
				}
				out[i] = source{id: id(i), truth: truth, fst: f}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// termStat is one vocabulary word with the number of corpus truths that
// contain it as a whole token.
type termStat struct {
	term string
	df   int
}

// docFreq counts, per vocabulary word, the documents whose truth contains
// it, sorted by descending frequency then word.
func docFreq(truths []string) []termStat {
	df := map[string]int{}
	for _, t := range truths {
		seen := map[string]bool{}
		for _, tok := range strings.Fields(t) {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	out := make([]termStat, 0, len(df))
	for term, n := range df {
		out = append(out, termStat{term, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].df != out[j].df {
			return out[i].df > out[j].df
		}
		return out[i].term < out[j].term
	})
	return out
}

// pickTerms returns up to n words whose document frequency lies in
// [lo, hi] and whose rune length lies in [minLen, maxLen], nearest
// frequencies first when the window holds too few — so a small smoke
// corpus still yields a full pool instead of an empty one.
func pickTerms(stats []termStat, lo, hi, minLen, maxLen, n int) []string {
	type cand struct {
		termStat
		dist int
	}
	var cands []cand
	for _, s := range stats {
		if l := len([]rune(s.term)); l < minLen || l > maxLen {
			continue
		}
		d := 0
		if s.df < lo {
			d = lo - s.df
		} else if s.df > hi {
			d = s.df - hi
		}
		cands = append(cands, cand{s, d})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].term < cands[j].term
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.term
	}
	return out
}
