package query

import (
	"sort"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Defaults for SnippetOptions zero values.
const (
	// DefaultMaxReadings is how many matching readings a snippet reports
	// per document.
	DefaultMaxReadings = 3
	// DefaultMaxEnumerate bounds how many readings (matching or not) the
	// best-first enumeration examines per document before giving up.
	DefaultMaxEnumerate = 4096
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
// Truncated reports that the enumeration budget ran out before
// MaxReadings matching readings were found — the readings present are
// still correct and still the best ones.
type DocSnippets struct {
	DocID     string           `json:"doc_id"`
	Prob      float64          `json:"prob"`
	Readings  []SnippetReading `json:"readings"`
	Truncated bool             `json:"truncated,omitempty"`
}

// SnippetOptions shapes snippet extraction. Zero values select the
// defaults above.
type SnippetOptions struct {
	// MaxReadings is how many matching readings to report per document.
	MaxReadings int
	// MaxEnumerate bounds how many readings the best-first enumeration
	// may examine per document; documents dominated by non-matching
	// readings give up (Truncated) rather than enumerate without bound.
	MaxEnumerate int
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
	if o.MaxEnumerate <= 0 {
		o.MaxEnumerate = DefaultMaxEnumerate
	}
	if o.ContextRunes > MaxContextRunes {
		o.ContextRunes = MaxContextRunes
	}
	return o
}

// Snippets extracts the document's top matching readings for the query:
// readings are enumerated best-probability-first (staccato.Doc.BestReadings)
// and the first MaxReadings that satisfy the query are reported, each with
// the positions of every query term occurring in it. Prob is the DP's
// overall match probability, exactly what Search reports for the document.
//
// Extraction is deterministic: the same (Doc, Query, SnippetOptions)
// always produces the identical DocSnippets, which is what lets
// staccatodb.DB.Snippets promise byte-identical output across execution
// modes and worker counts.
func (q *Query) Snippets(d *staccato.Doc, opts SnippetOptions) DocSnippets {
	opts = opts.withDefaults()
	out := DocSnippets{DocID: d.ID, Prob: q.Eval(d)}
	if q.expr == nil || out.Prob <= 0 {
		return out
	}
	examined := 0
	exhausted := true
	d.BestReadings(func(text string, prob float64) bool {
		if examined >= opts.MaxEnumerate {
			exhausted = false
			return false
		}
		examined++
		if q.matches(text) {
			spans := q.spans(text)
			if opts.ContextRunes > 0 {
				addContext(text, spans, opts.ContextRunes)
			}
			out.Readings = append(out.Readings, SnippetReading{Text: text, Prob: prob, Spans: spans})
		}
		return len(out.Readings) < opts.MaxReadings
	})
	// The DP said the document matches, so matching readings exist; if the
	// budget stopped the enumeration before MaxReadings of them surfaced,
	// say so instead of silently under-reporting.
	if !exhausted && len(out.Readings) < opts.MaxReadings {
		out.Truncated = true
	}
	return out
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
	return q.matches(text), q.spans(text)
}

// matches runs q's table over text from its start state: the DP of
// table.eval for a single alternative of probability 1. q must be
// compiled.
func (q *Query) matches(text string) bool {
	e := q.tab.run(q.tab.start, []byte(text))
	return e&hitBit != 0 || q.tab.atEnd[e]
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
// text, reporting one span per occurrence site. A Sellers DP over the
// text's runes marks every end position whose best-matching window is
// within dist; maximal runs of consecutive accepting ends — the smear a
// single occurrence leaves, since extending or trimming a match by one
// rune costs at most one edit — collapse to one span each. Within a run
// the reported window ends where the edit distance is smallest (latest
// such end on ties, so "staccat0" is reported over its truncation
// "staccat") and starts wherever minimizes the distance again (latest
// such start on ties, i.e. the tightest window). The span's Term
// is the matched variant as it appears in the text. Selection is
// deterministic, so snippet output stays byte-identical across execution
// modes.
func fuzzySpans(text, term string, dist int) []Span {
	pat := []rune(term)
	if len(pat) == 0 || len(pat) <= dist {
		return nil // such terms never compile into a query
	}
	runes := []rune(text)
	byteOff := make([]int, len(runes)+1)
	for i, b := 0, 0; ; i++ {
		byteOff[i] = b
		if i == len(runes) {
			break
		}
		b += utf8.RuneLen(runes[i])
	}

	// endCost[e] = min edits from term to some window ending at rune e.
	endCost := make([]int, len(runes)+1)
	endCost[0] = len(pat) // the empty window: delete the whole term
	col := make([]int, len(pat))
	for j := range col {
		col[j] = j + 1
	}
	for e, r := range runes {
		prevDiag, prevNew := 0, 0
		for j := range col {
			sub := prevDiag
			if pat[j] != r {
				sub++
			}
			v := sub
			if del := col[j] + 1; del < v {
				v = del
			}
			if ins := prevNew + 1; ins < v {
				v = ins
			}
			prevDiag = col[j]
			col[j] = v
			prevNew = v
		}
		endCost[e+1] = col[len(pat)-1]
	}

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
			Term:      string(runes[start:best]),
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
		d := editDistRunes(runes[s:end], pat)
		if bestS < 0 || d < bestD || (d == bestD && s > bestS) {
			bestS, bestD = s, d
		}
	}
	return bestS
}

// editDistRunes is the plain Levenshtein distance between rune slices.
func editDistRunes(a, b []rune) int {
	col := make([]int, len(b)+1)
	for j := range col {
		col[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prevDiag := col[0]
		col[0] = i
		for j := 1; j <= len(b); j++ {
			v := prevDiag
			if a[i-1] != b[j-1] {
				v++
			}
			if del := col[j] + 1; del < v {
				v = del
			}
			if ins := col[j-1] + 1; ins < v {
				v = ins
			}
			prevDiag = col[j]
			col[j] = v
		}
	}
	return col[len(b)]
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
