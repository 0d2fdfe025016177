package query

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Defaults for SnippetOptions zero values.
const (
	// DefaultMaxReadings is how many matching readings a snippet reports
	// per document.
	DefaultMaxReadings = 3
	// MaxContextRunes caps SnippetOptions.ContextRunes: larger requests
	// are clamped, not rejected. One cap here keeps every surface — the
	// library, the CLI -context flag, and the server's context_runes
	// knob — agreeing on the widest context window a span may carry.
	MaxContextRunes = 512
)

// Span is one occurrence of a query term inside a reading, in both byte
// and rune offsets ([Start, End) and [RuneStart, RuneEnd)). Byte offsets
// index the reading's UTF-8 bytes — the natural unit for slicing the text
// into retrieval chunks — while rune offsets are stable under any
// re-encoding. For a fuzzy leaf, Term is the matched variant as it
// appears in the reading, not the query term — the caller sees what the
// text actually says. Context, filled only when SnippetOptions.ContextRunes
// is positive, is the matched text plus up to that many runes of
// surrounding reading text on each side. The JSON form is the wire shape
// of the server's /v1/snippets endpoint.
type Span struct {
	Term      string `json:"term"`
	Start     int    `json:"start"`
	End       int    `json:"end"`
	RuneStart int    `json:"rune_start"`
	RuneEnd   int    `json:"rune_end"`
	Context   string `json:"context,omitempty"`
}

// SnippetReading is one retained reading that satisfies the query: its
// full text, its probability under the document's product distribution
// (the same mass Doc.Readings reports for it), and every occurrence of
// the query's terms within it. A reading is the unit a RAG pipeline
// chunks for retrieval: text plus positions plus how much probability the
// document assigns to this being the true text.
type SnippetReading struct {
	Text  string  `json:"text"`
	Prob  float64 `json:"prob"`
	Spans []Span  `json:"spans"`
}

// DocSnippets is one matching document's snippet report: the document's
// overall match probability (identical to the Result.Prob Search ranks
// by) and its most probable readings that satisfy the query, best first.
type DocSnippets struct {
	DocID    string           `json:"doc_id"`
	Prob     float64          `json:"prob"`
	Readings []SnippetReading `json:"readings"`
}

// SnippetOptions shapes snippet extraction. Zero values select the
// defaults above.
type SnippetOptions struct {
	// MaxReadings is how many matching readings to report per document.
	MaxReadings int
	// ContextRunes, when positive, fills each Span.Context with the
	// matched text plus up to ContextRunes runes of surrounding reading
	// text on each side. Zero leaves Context empty; values above
	// MaxContextRunes are clamped to it.
	ContextRunes int
}

func (o SnippetOptions) withDefaults() SnippetOptions {
	if o.MaxReadings <= 0 {
		o.MaxReadings = DefaultMaxReadings
	}
	if o.ContextRunes > MaxContextRunes {
		o.ContextRunes = MaxContextRunes
	}
	return o
}

// Snippets extracts the document's top matching readings for the query —
// the MaxReadings most probable readings that satisfy it, found by the
// k-best form of Eval's DP (bestReadings) — each with the positions of
// every query term occurring in it. Prob is the DP's overall match
// probability, exactly what Search reports for the document. A document
// with a positive Prob reports at least one reading, however many
// readings it encodes, unless one of its chunks has no alternatives and
// so no complete reading exists.
//
// Extraction is deterministic: the same (Doc, Query, SnippetOptions)
// always produces the identical DocSnippets, which is what lets
// staccatodb.DB.Snippets promise byte-identical output across execution
// modes and worker counts.
func (q *Query) Snippets(d *staccato.Doc, opts SnippetOptions) DocSnippets {
	opts = opts.withDefaults()
	out := DocSnippets{DocID: d.ID}
	if q.expr == nil {
		return out
	}
	var c docCopy // one copy of the document serves both passes
	v := c.view(d)
	if out.Prob = q.evalView(&v, nil); out.Prob <= 0 {
		return out
	}
	out.Readings = q.bestReadings(&v, d, opts.MaxReadings)
	for i := range out.Readings {
		r := &out.Readings[i]
		r.Spans = q.spans(r.Text)
		if opts.ContextRunes > 0 {
			addContext(r.Text, r.Spans, opts.ContextRunes)
		}
	}
	return out
}

// latticePath is a partial reading bestReadings keeps: its probability,
// the lattice node it ends on (a table state, or the matched node), its
// last alternative (an index into the document's view, -1 for the empty
// reading) and the index of the partial reading it extends (-1 for none).
type latticePath struct {
	prob      float64
	node      int
	alt, back int
}

// bestReadings returns the k most probable readings that satisfy q of
// document d, whose alternatives v holds, best first and without their
// spans. q must be compiled.
//
// It runs Eval's DP in the (max, ×) semiring instead of (+, ×). The
// lattice's nodes are a chunk boundary and a table state, plus one
// absorbing matched node per boundary. Each alternative of a chunk is an
// edge weighted by its probability: into the matched node when the table
// run over its text hits, and from the matched node back to it. A reading
// matches when its path ends on the matched node or on a state with atEnd
// set. That is Eval's acceptance, so the mass Eval accepts is carried by
// matching paths, and a document with a positive Eval has one. Each node
// keeps its k best partial readings with backpointers — the eager
// per-node k-best that staccato.TopK runs per transducer state, in the
// general form of Huang and Chiang's "Better k-best parsing" — so the
// work is O(chunks × live states × k × alternatives), whatever the number
// of readings.
//
// Readings come in descending probability, ties in ascending rank
// vector: each chunk's alternative rank under staccato.CompareAlts, chunk
// 0 most significant. A probability is the left-to-right product from 1,
// Doc.Readings' multiplication order, so the two agree bit for bit. Each
// layer's candidates are generated in (parent rank vector, alternative
// rank) order, which is ascending rank vector, and a node keeps its k
// best by probability without reordering equal ones, so exact ties keep
// that order. A float product is monotone but not strictly so: one more
// factor can round two strictly ordered partial readings to a tie. The
// readings reported still come in rank-vector order among themselves, but
// which of such a rounding-created tie makes the k-th place is settled
// where the partial readings met: one that had k strictly more probable
// partial readings at a node is dropped there, even if its rank vector is
// lower than theirs.
func (q *Query) bestReadings(v *store.View, d *staccato.Doc, k int) []SnippetReading {
	t := q.tab
	matched := len(t.atEnd) // the absorbing node past every table state
	kept := make([]latticePath, 1, 64)
	kept[0] = latticePath{prob: 1, node: int(t.start), alt: -1, back: -1}
	layer := []int{0} // the partial readings at this boundary, ascending rank vector
	var (
		rank, order, path []int
		cands             []latticePath
	)
	lo := 0
	for c, hi := range v.Ends {
		rank = rankAlts(rank[:0], d.Chunks[c].Alts, lo)
		cands = slices.Grow(cands[:0], len(layer)*len(rank))
		for _, i := range layer {
			p := kept[i]
			for _, a := range rank {
				to := matched
				if p.node != matched {
					if e := t.run(uint16(p.node), v.Data[v.Spans[2*a]:v.Spans[2*a+1]]); e&hitBit == 0 {
						to = int(e)
					}
				}
				cands = append(cands, latticePath{prob: float64(p.prob * v.Probs[a]), node: to, alt: a, back: i})
			}
		}
		// Each node's k best: sorted by node, then by descending
		// probability, then in generation order, a candidate is kept
		// unless the one k places before it ends on the same node.
		order = order[:0]
		for i := range cands {
			order = append(order, i)
		}
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Or(cmp.Compare(cands[a].node, cands[b].node), cmp.Compare(cands[b].prob, cands[a].prob), a-b)
		})
		layer = layer[:0]
		for i, ci := range order {
			if i < k || cands[order[i-k]].node != cands[ci].node {
				layer = append(layer, ci)
			}
		}
		// The survivors go on in generation order.
		slices.Sort(layer)
		kept = slices.Grow(kept, len(layer))
		for i, ci := range layer {
			layer[i] = len(kept)
			kept = append(kept, cands[ci])
		}
		lo = hi
	}

	var accepted []int
	for _, i := range layer {
		if n := kept[i].node; n == matched || t.atEnd[n] {
			accepted = append(accepted, i)
		}
	}
	slices.SortStableFunc(accepted, func(a, b int) int { return cmp.Compare(kept[b].prob, kept[a].prob) })
	var out []SnippetReading
	for _, i := range accepted[:min(k, len(accepted))] {
		path = path[:0] // the reading's alternatives, last first
		n := 0
		for j := i; kept[j].alt >= 0; j = kept[j].back {
			a := kept[j].alt
			path = append(path, a)
			n += v.Spans[2*a+1] - v.Spans[2*a]
		}
		var text strings.Builder
		text.Grow(n)
		for _, a := range slices.Backward(path) {
			text.Write(v.Data[v.Spans[2*a]:v.Spans[2*a+1]])
		}
		out = append(out, SnippetReading{Text: text.String(), Prob: kept[i].prob})
	}
	return out
}

// rankAlts appends to dst the view indices of a chunk's alternatives, the
// first of which is at lo, in staccato.CompareAlts order.
func rankAlts(dst []int, alts []staccato.Alt, lo int) []int {
	for i := range alts {
		dst = append(dst, lo+i)
	}
	slices.SortStableFunc(dst, func(a, b int) int { return staccato.CompareAlts(alts[a-lo], alts[b-lo]) })
	return dst
}

// MatchText evaluates the query against one concrete string — a single
// fully-determined reading — returning whether it satisfies the boolean
// formula and every occurrence of the query's leaf terms within it,
// sorted by (Start, End, Term). The verdict is Eval's for a document
// encoding only this reading: the query's table is run over the string,
// reading each invalid UTF-8 byte as U+FFFD just as the DP does.
// Occurrences are reported for every leaf, including leaves under Not — a
// reading satisfying or(a, not(b)) via the first disjunct may still
// contain b, and the spans say so.
func (q *Query) MatchText(text string) (bool, []Span) {
	if q.expr == nil {
		return false, nil
	}
	e := q.tab.run(q.tab.start, []byte(text))
	return e&hitBit != 0 || q.tab.atEnd[e], q.spans(text)
}

// spans returns every occurrence of q's leaf terms in text, sorted by
// (Start, End, Term).
func (q *Query) spans(text string) []Span {
	var spans []Span
	for _, lf := range q.leaves {
		switch lf.mode {
		case ModeKeyword:
			spans = append(spans, keywordSpans(text, lf.term)...)
		case ModeFuzzy:
			spans = append(spans, fuzzySpans(text, lf.term, lf.dist)...)
		default:
			spans = append(spans, substringSpans(text, lf.term)...)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].End != spans[j].End {
			return spans[i].End < spans[j].End
		}
		return spans[i].Term < spans[j].Term
	})
	return spans
}

// substringSpans finds every occurrence of term in text, overlapping ones
// included, with byte and rune offsets. It compares decoded runes, an
// invalid UTF-8 byte reading as U+FFFD on either side, so it finds
// exactly the occurrences the term's automaton matches; on valid UTF-8
// that is byte-exact.
func substringSpans(text, term string) []Span {
	if term == "" {
		return nil
	}
	var out []Span
	termRunes := utf8.RuneCountInString(term)
	for start, r := 0, 0; start < len(text); r++ {
		if n, ok := runePrefix(text[start:], term); ok {
			out = append(out, Span{
				Term:      term,
				Start:     start,
				End:       start + n,
				RuneStart: r,
				RuneEnd:   r + termRunes,
			})
		}
		_, sz := utf8.DecodeRuneInString(text[start:])
		start += sz
	}
	return out
}

// runePrefix reports whether s begins with the runes of term, decoding
// both the way ranging over a string does, and returns the byte length of
// that prefix of s.
func runePrefix(s, term string) (int, bool) {
	n := 0
	for _, want := range term {
		if n == len(s) {
			return 0, false
		}
		r, sz := utf8.DecodeRuneInString(s[n:])
		if r != want {
			return 0, false
		}
		n += sz
	}
	return n, true
}

// fuzzySpans finds occurrences of term within edit distance dist in
// text, reporting one span per occurrence site. The Sellers end costs
// (fuzzy.EndCosts) over the text's runes mark every end position whose
// best-matching window is within dist; maximal runs of consecutive
// accepting ends — the smear a single occurrence leaves, since extending
// or trimming a match by one rune costs at most one edit — collapse to
// one span each. Within a run the reported window ends where the edit
// distance is smallest (latest such end on ties, so "staccat0" is
// reported over its truncation "staccat") and starts wherever minimizes
// the distance again (latest such start on ties, i.e. the tightest
// window). The span's Term is the matched variant as it appears in the
// text. Runes are decoded by ranging over the text, as the table reads
// it, so an invalid byte is one U+FFFD rune one byte long. Selection is
// deterministic, so snippet output stays byte-identical across execution
// modes.
func fuzzySpans(text, term string, dist int) []Span {
	pat := []rune(term)
	if len(pat) == 0 || len(pat) <= dist {
		return nil // such terms never compile into a query
	}
	var runes []rune
	var byteOff []int // byteOff[i] is where rune i starts, then len(text)
	for b, r := range text {
		runes = append(runes, r)
		byteOff = append(byteOff, b)
	}
	byteOff = append(byteOff, len(text))

	endCost := fuzzy.EndCosts(runes, pat)
	var out []Span
	for e := 1; e <= len(runes); e++ {
		if endCost[e] > dist {
			continue
		}
		// Walk the maximal run of accepting ends starting here and pick
		// the best end within it.
		best := e
		for e+1 <= len(runes) && endCost[e+1] <= dist {
			e++
			if endCost[e] <= endCost[best] {
				best = e
			}
		}
		start := fuzzyStart(runes, pat, best, dist)
		out = append(out, Span{
			Term:      text[byteOff[start]:byteOff[best]],
			Start:     byteOff[start],
			End:       byteOff[best],
			RuneStart: start,
			RuneEnd:   best,
		})
	}
	return out
}

// fuzzyStart picks the start of the window ending at rune end: among the
// feasible lengths (a window within dist edits of an m-rune term has
// between m-dist and m+dist runes) it minimizes the edit distance to the
// term, preferring the latest start — the tightest window — on ties.
func fuzzyStart(runes, pat []rune, end, dist int) int {
	bestS, bestD := -1, -1
	for l := len(pat) - dist; l <= len(pat)+dist; l++ {
		s := end - l
		if s < 0 || s > end {
			continue
		}
		d := fuzzy.EditDistance(runes[s:end], pat)
		if bestS < 0 || d < bestD || (d == bestD && s > bestS) {
			bestS, bestD = s, d
		}
	}
	return bestS
}

// addContext fills each span's Context with the matched text plus up to
// n runes of surrounding reading text on each side.
func addContext(text string, spans []Span, n int) {
	runes := []rune(text)
	for i := range spans {
		lo := spans[i].RuneStart - n
		if lo < 0 {
			lo = 0
		}
		hi := spans[i].RuneEnd + n
		if hi > len(runes) {
			hi = len(runes)
		}
		spans[i].Context = string(runes[lo:hi])
	}
}

// keywordSpans finds every occurrence of term as a whole token: a maximal
// run of word runes equal to term. This is exactly the keyword automaton's
// semantics — the term delimited by non-word runes or the text edges.
func keywordSpans(text, term string) []Span {
	var out []Span
	tokStart, tokRuneStart := -1, 0
	runeIdx := 0
	flush := func(endByte, endRune int) {
		if tokStart >= 0 && text[tokStart:endByte] == term {
			out = append(out, Span{
				Term:      term,
				Start:     tokStart,
				End:       endByte,
				RuneStart: tokRuneStart,
				RuneEnd:   endRune,
			})
		}
		tokStart = -1
	}
	for i, r := range text {
		if core.IsWordRune(r) {
			if tokStart < 0 {
				tokStart, tokRuneStart = i, runeIdx
			}
		} else {
			flush(i, runeIdx)
		}
		runeIdx++
	}
	flush(len(text), runeIdx)
	return out
}
