package fuzzy

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// DefaultBoost is the Rescorer's weight multiplier: a reading whose tokens
// are all lexicon words gets its probability scaled by DefaultBoost before
// renormalization, a reading with no dictionary words keeps weight 1, and
// mixed readings land in between.
const DefaultBoost = 4.0

// Lexicon is an immutable dictionary of known-good words — the OCR
// post-correction prior. Lookup is case-insensitive (entries and probes
// are lower-cased), matching how OCR dictionaries are used: the noise
// model corrupts characters, not case conventions.
type Lexicon struct {
	words map[string]struct{}
}

// NewLexicon builds a lexicon from words. Empty strings are ignored.
func NewLexicon(words []string) *Lexicon {
	l := &Lexicon{words: make(map[string]struct{}, len(words))}
	for _, w := range words {
		if w != "" {
			l.words[strings.ToLower(w)] = struct{}{}
		}
	}
	return l
}

// ReadLexicon builds a lexicon from a wordlist: one word per line,
// blank lines and lines starting with '#' ignored — the format of
// /usr/share/dict and of every hand-rolled wordlist.
func ReadLexicon(r io.Reader) (*Lexicon, error) {
	l := &Lexicon{words: make(map[string]struct{})}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		w := strings.TrimSpace(sc.Text())
		if w == "" || strings.HasPrefix(w, "#") {
			continue
		}
		l.words[strings.ToLower(w)] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fuzzy: reading lexicon: %w", err)
	}
	return l, nil
}

// Contains reports whether word (case-insensitively) is in the lexicon.
func (l *Lexicon) Contains(word string) bool {
	_, ok := l.words[strings.ToLower(word)]
	return ok
}

// Len returns the number of distinct words.
func (l *Lexicon) Len() int { return len(l.words) }

// Rescorer returns a deterministic document transform that re-weights
// each chunk's retained alternatives toward in-dictionary text: an
// alternative's probability is multiplied by DefaultBoost^f, where f is
// the fraction of its word tokens found in the lexicon, and the chunk is
// then renormalized to sum to 1 and re-sorted in staccato.CompareAlts
// order, the order Build stores. An empty lexicon returns the identity
// transform.
//
// The transform never creates or destroys support: every alternative
// keeps a strictly positive probability, so a query's match set — and
// with it the planner's no-false-negative contract — is unchanged; only
// the probabilities (and therefore the ranking) move. The input document
// is never mutated; chunks are copied before re-weighting.
func (l *Lexicon) Rescorer() func(*staccato.Doc) *staccato.Doc {
	if l.Len() == 0 {
		return func(d *staccato.Doc) *staccato.Doc { return d }
	}
	return func(d *staccato.Doc) *staccato.Doc {
		if d == nil {
			return nil
		}
		out := &staccato.Doc{ID: d.ID, Params: d.Params, Chunks: make([]staccato.PathSet, len(d.Chunks))}
		for ci, ch := range d.Chunks {
			alts := make([]staccato.Alt, len(ch.Alts))
			var sum float64
			for ai, alt := range ch.Alts {
				w := alt.Prob * l.tokenBoost(alt.Text)
				alts[ai] = staccato.Alt{Text: alt.Text, Prob: w}
				sum += w
			}
			if sum > 0 {
				for ai := range alts {
					alts[ai].Prob /= sum
				}
			}
			slices.SortFunc(alts, staccato.CompareAlts)
			out.Chunks[ci] = staccato.PathSet{Alts: alts, Retained: ch.Retained}
		}
		return out
	}
}

// tokenBoost computes DefaultBoost^f for one alternative's text, where f is
// the in-lexicon fraction of its word tokens. Text with no word tokens
// (pure punctuation, chunk fragments of delimiters) is left at weight 1:
// the lexicon has no opinion about it.
func (l *Lexicon) tokenBoost(text string) float64 {
	total, hits := 0, 0
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		total++
		if l.Contains(text[start:end]) {
			hits++
		}
		start = -1
	}
	for i, r := range text {
		if core.IsWordRune(r) {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(text))
	if total == 0 || hits == 0 {
		return 1
	}
	// hits/total is in (0, 1], so the result is in (1, DefaultBoost].
	return math.Pow(DefaultBoost, float64(hits)/float64(total))
}
