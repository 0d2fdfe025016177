// Package testgen deterministically generates synthetic OCR output for
// tests, benchmarks, and the demo CLI. Given a seed it fabricates a ground
// truth string and an SFST modeling an OCR engine's uncertainty about it:
// each position carries confusable alternatives with pseudo-random
// probabilities, some positions are "hard" (the true character is NOT the
// engine's top guess, so the MAP string diverges from the truth — the
// recall gap Staccato exists to close), and a sprinkling of deletions
// (epsilon arcs) and two-character splits ('m' read as "rn") gives the
// transducer non-trivial topology for the chunker to work around.
package testgen

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fst"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Config controls generation. Zero values take the documented defaults.
type Config struct {
	// Length of the ground truth string (default 100).
	Length int
	// Seed for the deterministic PRNG (default 1).
	Seed int64
	// HardRate is the probability that a position is hard: the true
	// character gets lower probability than its best confusable, so
	// Viterbi decodes the wrong character there (default 0.15).
	HardRate float64
	// DeleteRate is the probability a position also carries an epsilon
	// (deletion) alternative (default 0.05).
	DeleteRate float64
	// SplitRate is the probability a position also carries a
	// two-character alternative routed through an extra state
	// (default 0.05).
	SplitRate float64
	// MaxConfusables bounds the single-character confusables per position
	// (default 3).
	MaxConfusables int
}

//lint:allow floateq the zero value means "field unset, apply the default" — an exact sentinel, not a computed probability
func (c Config) withDefaults() Config {
	if c.Length == 0 {
		c.Length = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HardRate == 0 {
		c.HardRate = 0.15
	}
	if c.DeleteRate == 0 {
		c.DeleteRate = 0.05
	}
	if c.SplitRate == 0 {
		c.SplitRate = 0.05
	}
	if c.MaxConfusables == 0 {
		c.MaxConfusables = 3
	}
	return c
}

// confusions maps characters to their classic OCR confusables. Characters
// not listed draw random lowercase letters instead.
var confusions = map[rune][]rune{
	'o': {'c', 'e', 'a'},
	'c': {'o', 'e'},
	'e': {'c', 'o'},
	'l': {'i', 't', 'f'},
	'i': {'l', 'j', 't'},
	'm': {'n', 'w'},
	'n': {'m', 'r'},
	'u': {'v', 'w'},
	'v': {'u', 'y'},
	'h': {'b', 'k'},
	'b': {'h', 'd'},
	'g': {'q', 'y'},
	'q': {'g', 'p'},
	's': {'z', 'x'},
	'z': {'s', 'x'},
}

// splits maps characters to a two-character sequence OCR engines confuse
// them with.
var splits = map[rune]string{
	'm': "rn",
	'w': "vv",
	'd': "cl",
	'b': "lo",
	'n': "ri",
}

const letters = "abcdefghijklmnopqrstuvwxyz"

// Generate fabricates a ground truth string and its OCR transducer. The
// same Config always yields the same (truth, SFST) pair.
func Generate(cfg Config) (string, *fst.SFST, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	truth := genTruth(rng, cfg.Length)

	b := fst.NewBuilder()
	cur := b.AddState()
	b.SetStart(cur)
	for _, t := range truth {
		next := b.AddState()
		addPosition(b, rng, cfg, cur, next, t)
		cur = next
	}
	b.SetFinal(cur)
	f, err := b.Build()
	if err != nil {
		return "", nil, fmt.Errorf("testgen: %w", err)
	}
	return truth, f, nil
}

// MustGenerate is Generate for tests and benchmarks, panicking on the
// internal errors that a well-formed Config cannot produce.
func MustGenerate(cfg Config) (string, *fst.SFST) {
	truth, f, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return truth, f
}

// Case is one generated document of a corpus.
type Case struct {
	Truth string
	FST   *fst.SFST
}

// Corpus generates n documents by advancing the seed, for property tests
// that want variety while staying deterministic.
func Corpus(n int, cfg Config) ([]Case, error) { return cases(n, cfg.gen()) }

// DocCase pairs one approximated corpus document with its ground truth.
type DocCase struct {
	Truth string
	Doc   *staccato.Doc
}

// EachDoc streams the corpus Docs materializes, one document at a time:
// the i-th document is generated from cfg with seed cfg.Seed+i and
// carries the ID "doc-%04d" (1-based). Only one SFST and document are
// alive at once, so corpus size is bounded by disk (the ingest path),
// not memory. fn errors — including store.ErrStopScan-style sentinels —
// abort generation and are returned as-is.
func EachDoc(n int, cfg Config, chunks, k int, fn func(DocCase) error) error {
	return eachDoc(n, cfg.gen(), chunks, k, fn)
}

// Docs builds a corpus of n Staccato documents at the (chunks, k) dial
// setting by collecting EachDoc's stream, so corpus contents — and any
// scan over them — are fully deterministic and identical to what a
// streamed ingest writes.
func Docs(n int, cfg Config, chunks, k int) ([]DocCase, error) {
	return docs(n, cfg.gen(), chunks, k)
}

// generator returns the truth and transducer of corpus document i.
type generator func(i int) (string, *fst.SFST, error)

// gen generates document i from cfg, its defaults applied, with seed
// cfg.Seed+i.
func (cfg Config) gen() generator {
	cfg = cfg.withDefaults()
	return func(i int) (string, *fst.SFST, error) {
		c := cfg
		c.Seed += int64(i)
		return Generate(c)
	}
}

// eachCase is the one corpus loop under every corpus function of the
// package: it hands documents 0..n-1 of gen to fn in order and returns
// the first error either makes, as is.
func eachCase(n int, gen generator, fn func(i int, c Case) error) error {
	if n < 0 {
		return fmt.Errorf("testgen: corpus size must be >= 0, got %d", n)
	}
	for i := 0; i < n; i++ {
		truth, f, err := gen(i)
		if err != nil {
			return err
		}
		if err := fn(i, Case{Truth: truth, FST: f}); err != nil {
			return err
		}
	}
	return nil
}

// cases collects eachCase's stream.
func cases(n int, gen generator) ([]Case, error) {
	out := make([]Case, 0, max(n, 0))
	if err := eachCase(n, gen, func(_ int, c Case) error {
		out = append(out, c)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// eachDoc approximates each document of gen at the (chunks, k) dial as
// "doc-%04d" (1-based) and hands it to fn.
func eachDoc(n int, gen generator, chunks, k int, fn func(DocCase) error) error {
	return eachCase(n, gen, func(i int, c Case) error {
		d, err := staccato.Build(c.FST, fmt.Sprintf("doc-%04d", i+1), chunks, k)
		if err != nil {
			return fmt.Errorf("testgen: doc %d: %w", i+1, err)
		}
		return fn(DocCase{Truth: c.Truth, Doc: d})
	})
}

// docs collects eachDoc's stream.
func docs(n int, gen generator, chunks, k int) ([]DocCase, error) {
	out := make([]DocCase, 0, max(n, 0))
	if err := eachDoc(n, gen, chunks, k, func(dc DocCase) error {
		out = append(out, dc)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// genTruth builds a random string of lowercase words separated by single
// spaces, with word lengths between 3 and 8.
func genTruth(rng *rand.Rand, length int) string {
	var sb strings.Builder
	wordLeft := 3 + rng.Intn(6)
	for sb.Len() < length {
		if wordLeft == 0 && sb.Len() < length-1 {
			sb.WriteByte(' ')
			wordLeft = 3 + rng.Intn(6)
			continue
		}
		sb.WriteByte(letters[rng.Intn(len(letters))])
		if wordLeft > 0 {
			wordLeft--
		}
	}
	return sb.String()
}

// addPosition emits the arcs for one truth character between states cur
// and next: the true character, its confusables, and optionally a
// deletion and a two-character split, with probabilities summing to 1.
func addPosition(b *fst.Builder, rng *rand.Rand, cfg Config, cur, next fst.StateID, t rune) {
	alts := pickConfusables(rng, cfg, t)
	hard := rng.Float64() < cfg.HardRate

	// Probability of the true character: dominant on easy positions,
	// beaten by the first confusable on hard ones.
	var pTrue float64
	if hard {
		pTrue = 0.10 + 0.15*rng.Float64() // <= 0.25
	} else {
		pTrue = 0.55 + 0.40*rng.Float64()
	}
	remaining := 1 - pTrue

	// Optional deletion and split alternatives take a small slice first.
	var pDel, pSplit float64
	var splitText string
	if t != ' ' && rng.Float64() < cfg.DeleteRate {
		pDel = remaining * (0.05 + 0.10*rng.Float64())
		remaining -= pDel
	}
	if s, ok := splits[t]; ok && rng.Float64() < cfg.SplitRate {
		splitText = s
		pSplit = remaining * (0.10 + 0.15*rng.Float64())
		remaining -= pSplit
	}

	// Split the rest over the confusables. On hard positions the first
	// confusable gets the lion's share so it strictly beats pTrue.
	probs := make([]float64, len(alts))
	if hard {
		probs[0] = remaining
		if len(alts) > 1 {
			probs[0] = remaining * 0.6
			rest := remaining - probs[0]
			for i := 1; i < len(alts); i++ {
				probs[i] = rest / float64(len(alts)-1)
			}
		}
	} else {
		raw := make([]float64, len(alts))
		var sum float64
		for i := range raw {
			raw[i] = 0.1 + rng.Float64()
			sum += raw[i]
		}
		for i := range raw {
			probs[i] = remaining * raw[i] / sum
		}
	}

	b.AddArc(cur, next, t, core.WeightFromProb(pTrue))
	for i, c := range alts {
		b.AddArc(cur, next, c, core.WeightFromProb(probs[i]))
	}
	if pDel > 0 {
		b.AddArc(cur, next, fst.Epsilon, core.WeightFromProb(pDel))
	}
	if pSplit > 0 {
		mid := b.AddState()
		r := []rune(splitText)
		b.AddArc(cur, mid, r[0], core.WeightFromProb(pSplit))
		b.AddArc(mid, next, r[1], core.WeightFromProb(1))
	}
}

// pickConfusables returns 1..MaxConfusables distinct characters != t,
// preferring the curated confusion table and falling back to random
// letters.
func pickConfusables(rng *rand.Rand, cfg Config, t rune) []rune {
	n := 1 + rng.Intn(cfg.MaxConfusables)
	seen := map[rune]bool{t: true}
	var out []rune
	for _, c := range confusions[t] {
		if len(out) == n {
			break
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for len(out) < n {
		c := rune(letters[rng.Intn(len(letters))])
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
