// Error-model corpus generation: a more realistic OCR noise model than
// Generate's uniform confusions, built for recall benchmarking. Documents
// are sequences of tokens drawn Zipf-style from one shared vocabulary (so
// a query term recurs across documents), and noise follows a weighted
// confusion matrix of classic OCR errors — rn↔m merges and splits, l↔1
// and o↔0 letter/digit swaps — with burst regions where the substitution
// rate jumps, modeling a smudged or low-contrast patch of the page. Hard
// positions (the true character beaten by its top confusable) are exactly
// what opens the MAP-vs-Staccato recall gap the benchmark measures.
package testgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fst"
)

// ErrModelConfig controls error-model generation. Zero values take the
// documented defaults; Validate bounds every knob so a hostile config
// (a fuzzer, a benchmark knob) cannot buy unbounded work.
type ErrModelConfig struct {
	// Words is the number of tokens per document (default 12).
	Words int
	// Seed drives the per-document PRNG (default 1). The vocabulary does
	// NOT depend on Seed: documents with different seeds share tokens, so
	// a workload term recurs across the corpus.
	Seed int64
	// VocabSize is the shared vocabulary's size (default 200).
	VocabSize int
	// ZipfS is the Zipf exponent for token frequencies (default 1.1):
	// rank-r words are drawn with weight r^-ZipfS.
	ZipfS float64
	// SubRate is the per-position probability outside bursts that the
	// position is hard — the true character loses to its top confusable
	// (default 0.06).
	SubRate float64
	// BurstRate is the per-position probability that a burst-noise region
	// starts there (default 0.03).
	BurstRate float64
	// BurstLen is how many positions a burst covers (default 6).
	BurstLen int
	// BurstSubRate replaces SubRate inside a burst (default 0.45).
	BurstSubRate float64
	// MaxAlts bounds the single-character confusables per position
	// (default 3).
	MaxAlts int
}

//lint:allow floateq the zero value means "field unset, apply the default" — an exact sentinel, not a computed probability
func (c ErrModelConfig) withDefaults() ErrModelConfig {
	if c.Words == 0 {
		c.Words = 12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.VocabSize == 0 {
		c.VocabSize = 200
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.SubRate == 0 {
		c.SubRate = 0.06
	}
	if c.BurstRate == 0 {
		c.BurstRate = 0.03
	}
	if c.BurstLen == 0 {
		c.BurstLen = 6
	}
	if c.BurstSubRate == 0 {
		c.BurstSubRate = 0.45
	}
	if c.MaxAlts == 0 {
		c.MaxAlts = 3
	}
	return c
}

// Validate bounds every knob. It expects a config that already went
// through withDefaults (zero values are rejected, not defaulted).
func (c ErrModelConfig) Validate() error {
	switch {
	case c.Words < 1 || c.Words > 100000:
		return fmt.Errorf("testgen: words must be in [1, 100000], got %d", c.Words)
	case c.VocabSize < 1 || c.VocabSize > 10000:
		return fmt.Errorf("testgen: vocab must be in [1, 10000], got %d", c.VocabSize)
	case math.IsNaN(c.ZipfS) || c.ZipfS <= 0 || c.ZipfS > 8:
		return fmt.Errorf("testgen: zipf must be in (0, 8], got %v", c.ZipfS)
	case math.IsNaN(c.SubRate) || c.SubRate < 0 || c.SubRate > 1:
		return fmt.Errorf("testgen: subrate must be in [0, 1], got %v", c.SubRate)
	case math.IsNaN(c.BurstRate) || c.BurstRate < 0 || c.BurstRate > 1:
		return fmt.Errorf("testgen: burstrate must be in [0, 1], got %v", c.BurstRate)
	case c.BurstLen < 1 || c.BurstLen > 1024:
		return fmt.Errorf("testgen: burstlen must be in [1, 1024], got %d", c.BurstLen)
	case math.IsNaN(c.BurstSubRate) || c.BurstSubRate < 0 || c.BurstSubRate > 1:
		return fmt.Errorf("testgen: burstsubrate must be in [0, 1], got %v", c.BurstSubRate)
	case c.MaxAlts < 1 || c.MaxAlts > 8:
		return fmt.Errorf("testgen: maxalts must be in [1, 8], got %d", c.MaxAlts)
	}
	return nil
}

// errConfusable is one weighted entry of the confusion matrix.
type errConfusable struct {
	r rune
	w float64
}

// errConfusions is the weighted OCR confusion matrix. Weights are
// relative frequencies, not probabilities; the generator scales them into
// whatever mass a position grants its confusables. The digit swaps (l↔1,
// o↔0, s↔5, b↔8) dominate their rows, matching scanner behaviour on
// degraded print.
var errConfusions = map[rune][]errConfusable{
	'l': {{'1', 5}, {'i', 3}, {'t', 1}},
	'i': {{'l', 4}, {'1', 3}, {'j', 1}},
	'o': {{'0', 5}, {'c', 2}, {'e', 1}},
	'c': {{'o', 3}, {'e', 2}, {'(', 1}},
	'e': {{'c', 3}, {'o', 2}, {'a', 1}},
	's': {{'5', 4}, {'z', 2}, {'x', 1}},
	'z': {{'2', 3}, {'s', 2}},
	'b': {{'8', 3}, {'h', 2}, {'6', 1}},
	'g': {{'9', 3}, {'q', 2}, {'y', 1}},
	'q': {{'g', 3}, {'p', 1}},
	'a': {{'o', 3}, {'e', 2}, {'u', 1}},
	'u': {{'v', 3}, {'w', 1}},
	'v': {{'u', 3}, {'y', 1}},
	'h': {{'b', 3}, {'n', 2}, {'k', 1}},
	'n': {{'m', 3}, {'r', 2}, {'h', 1}},
	'm': {{'n', 3}, {'w', 1}},
	't': {{'f', 3}, {'l', 2}, {'+', 1}},
	'f': {{'t', 3}, {'r', 1}},
	'r': {{'n', 2}, {'t', 1}},
}

// errSplits maps a character to the two-character sequence OCR engines
// read it as (the transducer routes it through an extra mid state), and
// errMerges the inverse: a two-character truth sequence read as one.
var errSplits = map[rune]string{
	'm': "rn",
	'w': "vv",
	'd': "cl",
}

var errMerges = map[string]rune{
	"rn": 'm',
	"vv": 'w',
	"cl": 'd',
}

// errVocabSeed fixes the vocabulary PRNG. The vocabulary is a function of
// VocabSize alone — never of a document's Seed — so every document of a
// corpus, and every corpus at the same VocabSize, shares tokens.
const errVocabSeed = 0x57acca70

// Vocab returns the shared error-model vocabulary of the given size —
// the exact word list GenerateErrModel draws tokens from at the same
// VocabSize. Exposed so consumers (the CLI's built-in fuzzy-rescoring
// lexicon, benchmarks) can hold the dictionary the synthetic corpus was
// written in.
func Vocab(size int) []string { return errVocab(size) }

// errVocab builds the shared vocabulary: size distinct lowercase words of
// length 4..8, rank order fixed by generation order (rank 0 is the most
// frequent under the Zipf draw).
func errVocab(size int) []string {
	rng := rand.New(rand.NewSource(errVocabSeed))
	seen := make(map[string]bool, size)
	out := make([]string, 0, size)
	for len(out) < size {
		n := 4 + rng.Intn(5)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		w := sb.String()
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// zipfCum precomputes the cumulative Zipf weights sum_{i<=r} i^-s.
func zipfCum(n int, s float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	return cum
}

// zipfSample draws a rank from the cumulative weights.
func zipfSample(rng *rand.Rand, cum []float64) int {
	u := rng.Float64() * cum[len(cum)-1]
	idx := sort.SearchFloat64s(cum, u)
	if idx >= len(cum) {
		idx = len(cum) - 1
	}
	return idx
}

// GenerateErrModel fabricates one document under the error model: the
// ground truth (Zipf-drawn tokens from the shared vocabulary) and an SFST
// whose arc probabilities reflect the injected noise — weighted
// confusions, splits, merges, and burst regions. The same config always
// yields the same (truth, SFST) pair.
func GenerateErrModel(cfg ErrModelConfig) (string, *fst.SFST, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return "", nil, err
	}
	vocab := errVocab(cfg.VocabSize)
	cum := zipfCum(cfg.VocabSize, cfg.ZipfS)
	rng := rand.New(rand.NewSource(cfg.Seed))

	toks := make([]string, cfg.Words)
	for i := range toks {
		toks[i] = vocab[zipfSample(rng, cum)]
	}
	truth := strings.Join(toks, " ")
	runes := []rune(truth)

	// Burst mask: each position may start a burst covering the next
	// BurstLen positions; overlaps just extend the smudge.
	burst := make([]bool, len(runes))
	for i := range runes {
		if rng.Float64() < cfg.BurstRate {
			for j := i; j < len(runes) && j < i+cfg.BurstLen; j++ {
				burst[j] = true
			}
		}
	}

	b := fst.NewBuilder()
	states := make([]fst.StateID, len(runes)+1)
	for i := range states {
		states[i] = b.AddState()
	}
	b.SetStart(states[0])
	b.SetFinal(states[len(runes)])
	for i := range runes {
		addErrPosition(b, rng, cfg, states, runes, i, burst[i])
	}
	f, err := b.Build()
	if err != nil {
		return "", nil, fmt.Errorf("testgen: error model: %w", err)
	}
	return truth, f, nil
}

// addErrPosition emits the arcs reading truth position i: the true
// character, weighted confusables (hard positions give the top confusable
// more mass than the truth), an optional split through a mid state, and —
// when positions i,i+1 form a mergeable pair — a jump arc straight to
// state i+2 reading both as one character. Outgoing probability mass at
// states[i] always sums to 1.
func addErrPosition(b *fst.Builder, rng *rand.Rand, cfg ErrModelConfig, states []fst.StateID, runes []rune, i int, inBurst bool) {
	cur, next := states[i], states[i+1]
	t := runes[i]
	if t == ' ' {
		// Token boundaries are read reliably; keeping them certain keeps
		// keyword tokenization aligned between truth and readings.
		b.AddArc(cur, next, t, core.WeightFromProb(1))
		return
	}
	rate := cfg.SubRate
	if inBurst {
		rate = cfg.BurstSubRate
	}
	hard := rng.Float64() < rate
	remaining := 1.0

	// Merge: the pair starting here read as one character, jumping over
	// state i+1. The jumped-over state keeps its own arcs for the paths
	// that do pass through it.
	if i+2 < len(states) {
		if merged, ok := errMerges[string(runes[i:i+2])]; ok && rng.Float64() < rate {
			pMerge := remaining * (0.08 + 0.12*rng.Float64())
			b.AddArc(cur, states[i+2], merged, core.WeightFromProb(pMerge))
			remaining -= pMerge
		}
	}
	// Split: this character read as two, through a fresh mid state.
	if s, ok := errSplits[t]; ok && rng.Float64() < rate {
		pSplit := remaining * (0.08 + 0.12*rng.Float64())
		mid := b.AddState()
		r := []rune(s)
		b.AddArc(cur, mid, r[0], core.WeightFromProb(pSplit))
		b.AddArc(mid, next, r[1], core.WeightFromProb(1))
		remaining -= pSplit
	}

	alts := pickErrConfusables(rng, cfg, t)
	var pTrue float64
	probs := make([]float64, len(alts))
	if hard {
		// The top confusable strictly beats the truth, so Viterbi decodes
		// the wrong character here — the recall gap's raw material.
		pTrue = remaining * (0.12 + 0.10*rng.Float64())
		if len(alts) == 1 {
			// The lone confusable absorbs everything the truth lost.
			probs[0] = remaining - pTrue
		} else {
			top := remaining * (0.50 + 0.10*rng.Float64())
			probs[0] = top
			spreadErrWeights(alts[1:], probs[1:], remaining-pTrue-top)
		}
	} else {
		pTrue = remaining * (0.70 + 0.25*rng.Float64())
		spreadErrWeights(alts, probs, remaining-pTrue)
	}
	b.AddArc(cur, next, t, core.WeightFromProb(pTrue))
	for j, a := range alts {
		if probs[j] > 0 {
			b.AddArc(cur, next, a.r, core.WeightFromProb(probs[j]))
		}
	}
}

// spreadErrWeights distributes mass over alts proportionally to their
// matrix weights.
func spreadErrWeights(alts []errConfusable, probs []float64, mass float64) {
	if len(alts) == 0 || mass <= 0 {
		return
	}
	total := 0.0
	for _, a := range alts {
		total += a.w
	}
	if total <= 0 {
		return
	}
	for j, a := range alts {
		probs[j] = mass * a.w / total
	}
}

// pickErrConfusables returns 1..MaxAlts distinct single-rune confusables
// for t in descending weight order, drawn from the weighted matrix and
// topped up with random letters (weight 1) when the row is short.
func pickErrConfusables(rng *rand.Rand, cfg ErrModelConfig, t rune) []errConfusable {
	n := 1 + rng.Intn(cfg.MaxAlts)
	seen := map[rune]bool{t: true}
	var out []errConfusable
	for _, c := range errConfusions[t] {
		if len(out) == n {
			break
		}
		if !seen[c.r] {
			seen[c.r] = true
			out = append(out, c)
		}
	}
	for len(out) < n {
		c := rune(letters[rng.Intn(len(letters))])
		if !seen[c] {
			seen[c] = true
			out = append(out, errConfusable{c, 1})
		}
	}
	return out
}

// ErrDocs generates n error-model documents as Docs does: the i-th uses
// seed cfg.Seed+i and carries the ID "doc-%04d" (1-based), approximated
// at the (chunks, k) dial.
func ErrDocs(n int, cfg ErrModelConfig, chunks, k int) ([]DocCase, error) {
	return docs(n, cfg.gen(), chunks, k)
}

// ErrCorpusFSTs generates n (truth, SFST) pairs under the error model —
// the raw transducers the FullSFST recall baseline evaluates directly.
func ErrCorpusFSTs(n int, cfg ErrModelConfig) ([]Case, error) { return cases(n, cfg.gen()) }

// gen generates document i from cfg, its defaults applied, with seed
// cfg.Seed+i.
func (cfg ErrModelConfig) gen() generator {
	cfg = cfg.withDefaults()
	return func(i int) (string, *fst.SFST, error) {
		c := cfg
		c.Seed += int64(i)
		return GenerateErrModel(c)
	}
}
