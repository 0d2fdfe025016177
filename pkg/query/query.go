// Package query answers probabilistic text queries over Staccato
// documents. Instead of matching against one string, a query computes the
// probability that the document's true text satisfies a predicate, summing
// over the readings the Doc retains — including readings whose match spans
// a chunk boundary.
//
// The unit of the API is the compiled Query: an immutable value built from
// Substring and Keyword leaves combined with And, Or, and Not. Each leaf
// term is compiled once to a small deterministic automaton; the Query can
// then be evaluated against any number of documents, from any number of
// goroutines, without recompiling.
//
// Evaluation is dynamic programming across the chunk path sets: a
// probability distribution over automaton states is pushed through the
// chunks in one left-to-right pass, so cost is linear in the document
// regardless of how many full readings (k^chunks) the Doc encodes. Every
// query runs that one DP over one transition table; a boolean's table is
// the product of its leaf automata, built once at compile time, which
// keeps the correlations between terms that flow through shared readings
// — P(a AND b) is in general NOT P(a)·P(b), because the same alternative
// may contain both terms (positive correlation) or terms may live on
// mutually exclusive alternatives (negative correlation). The product
// gets those cases right where naive per-term multiplication does not.
//
// For ground truth, Query.EvalFST evaluates the same predicate exactly on
// the unapproximated SFST by running the query's table over the
// transducer's state graph — the "FullSFST" baseline of the paper, and the
// upper bound the Staccato dial converges to as chunks decrease and k
// grows.
//
// Corpus-scale execution lives in Engine, which runs one compiled Query
// against every document in a store.DocStore through a worker pool and
// streams ranked Results. Query.Plan extracts the conservatively
// required gram sets from the compiled formula; evaluated against an
// inverted q-gram index (any PostingSource), the resulting CandidateSet
// lets the Engine skip documents that provably cannot match, with
// byte-identical results either way.
package query

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Mode selects how a term must occur in the document text.
type Mode int

const (
	// ModeSubstring matches the term anywhere in the text.
	ModeSubstring Mode = iota
	// ModeKeyword matches the term as a whole token: the occurrence must
	// be delimited by non-word characters (or the document edges). Terms
	// must consist of word characters only.
	ModeKeyword
	// ModeFuzzy matches any substring within a bounded edit distance of
	// the term (a Levenshtein automaton leaf); the distance rides on the
	// leaf. Fuzzy(term, 0) is semantically ModeSubstring.
	ModeFuzzy
)

// Query is a compiled boolean predicate over document text. Leaves are
// built with Substring and Keyword; composites with And, Or, and Not. A
// Query is immutable after construction and safe for concurrent use —
// compile once, evaluate everywhere.
type Query struct {
	leaves []leaf
	expr   expr
	// tab is the query's one transition table: a single leaf's own, any
	// other formula's product table.
	tab *table
	// plan is the last plan Plan built, kept for the next call at its gram
	// size: a query is planned against one index, so that is every call.
	plan atomic.Pointer[Plan]
}

// leaf is one compiled term automaton. Duplicate (term, mode, dist)
// triples are shared when queries are combined, so a term appearing in
// several branches is tracked by a single automaton during evaluation.
// dist is meaningful only for ModeFuzzy and zero otherwise.
type leaf struct {
	term string
	mode Mode
	dist int
	tab  *table
}

// render is the one form of a leaf in Query.String and Plan.String:
// kw("term"), substr("term") or fuzzy("term", dist).
func (lf leaf) render() string {
	switch lf.mode {
	case ModeKeyword:
		return fmt.Sprintf("kw(%q)", lf.term)
	case ModeFuzzy:
		return fmt.Sprintf("fuzzy(%q, %d)", lf.term, lf.dist)
	default:
		return fmt.Sprintf("substr(%q)", lf.term)
	}
}

// Substring compiles a query matching documents whose text contains term
// anywhere.
func Substring(term string) (*Query, error) { return newTerm(term, ModeSubstring, 0) }

// Keyword compiles a query matching documents whose text contains term as
// a whole token delimited by non-word characters or the document edges.
// The term must consist of word characters only.
func Keyword(term string) (*Query, error) { return newTerm(term, ModeKeyword, 0) }

// Fuzzy compiles a query matching documents whose text contains any
// substring within edit distance dist (Levenshtein: substitutions,
// insertions, deletions, counted over runes) of term. dist must be in
// [0, fuzzy.MaxDistance] and the term must be longer than dist runes —
// otherwise every text would match. Fuzzy(term, 0) matches exactly what
// Substring(term) matches, evaluated through the Levenshtein automaton.
func Fuzzy(term string, dist int) (*Query, error) { return newTerm(term, ModeFuzzy, dist) }

func newTerm(term string, mode Mode, dist int) (*Query, error) {
	t, err := compile(term, mode, dist)
	if err != nil {
		return nil, err
	}
	return &Query{
		leaves: []leaf{{term: term, mode: mode, dist: dist, tab: t}},
		expr:   leafExpr(0),
		tab:    t,
	}, nil
}

// And returns the conjunction of the given queries: the document must
// satisfy every operand. Correlations between operands through shared
// readings are respected. A nil or zero-value operand is treated as a
// query that matches nothing. Like a Must constructor, And panics if
// the result's product table is over budget; Spec.Compile reports that
// as an error instead.
func And(first *Query, rest ...*Query) *Query { return must(combine(opAnd, first, rest).withTable()) }

// Or returns the disjunction of the given queries: the document must
// satisfy at least one operand. A nil or zero-value operand is treated
// as a query that matches nothing. Or panics as And does.
func Or(first *Query, rest ...*Query) *Query { return must(combine(opOr, first, rest).withTable()) }

// Not returns the negation of q: the probability that the document does
// NOT satisfy q. A nil or zero-value q matches nothing, so its negation
// matches everything. Not panics as And does.
func Not(q *Query) *Query { return must(combine(opNot, q, nil).withTable()) }

// withTable gives q its table — a single leaf's own, any other formula's
// product table — and returns q, or the error refusing the product.
func (q *Query) withTable() (*Query, error) {
	if le, ok := q.expr.(leafExpr); ok {
		q.tab = q.leaves[le].tab
		return q, nil
	}
	var err error
	if q.tab, err = productTable(q.leaves, q.expr); err != nil {
		return nil, err
	}
	return q, nil
}

func must(q *Query, err error) *Query {
	if err != nil {
		panic(err)
	}
	return q
}

// exprOf returns q's formula, mapping nil and zero-value (never
// compiled) queries to the constant-false predicate so the combinators
// honor the documented "matches nothing" semantics instead of carrying
// a nil expr into evaluation.
func exprOf(q *Query) expr {
	if q == nil || q.expr == nil {
		return constExpr(false)
	}
	return q.expr
}

type opKind int

const (
	opAnd opKind = iota
	opOr
	opNot // of first alone
)

// combine joins the operands' formulas under op, without a table.
func combine(op opKind, first *Query, rest []*Query) *Query {
	out := &Query{}
	if first != nil {
		out.leaves = append([]leaf(nil), first.leaves...)
	}
	kids := make([]expr, 0, 1+len(rest))
	kids = append(kids, exprOf(first))
	for _, q := range rest {
		kids = append(kids, out.merge(q))
	}
	switch {
	case op == opNot:
		out.expr = notExpr{kids[0]}
	case len(kids) == 1:
		out.expr = kids[0]
	case op == opAnd:
		out.expr = andExpr(kids)
	default:
		out.expr = orExpr(kids)
	}
	return out
}

// merge folds src's leaves into q, sharing automata for (term, mode,
// dist) triples q already tracks, and returns src's formula rewritten
// against q's leaf numbering.
func (q *Query) merge(src *Query) expr {
	if src == nil || src.expr == nil {
		return constExpr(false)
	}
	to := make([]int, len(src.leaves))
	for i, lf := range src.leaves {
		j := -1
		for k, have := range q.leaves {
			if have.term == lf.term && have.mode == lf.mode && have.dist == lf.dist {
				j = k
				break
			}
		}
		if j < 0 {
			j = len(q.leaves)
			q.leaves = append(q.leaves, lf)
		}
		to[i] = j
	}
	return src.expr.remap(to)
}

// String renders the query in a lisp-ish form, e.g.
// and(substr("foo"), not(kw("bar"))). A zero-value Query renders as
// "false", matching its matches-nothing evaluation semantics.
func (q *Query) String() string {
	var sb strings.Builder
	exprOf(q).render(&sb, q.leaves)
	return sb.String()
}

// NumTerms returns the number of distinct compiled term automata the query
// tracks during evaluation.
func (q *Query) NumTerms() int { return len(q.leaves) }

// expr is a boolean formula over leaf indices. Nodes are immutable and may
// be shared freely between Queries.
type expr interface {
	// eval decides the formula given each leaf's matched bit.
	eval(bits []bool) bool
	// remap returns a copy of the formula with leaf i renumbered to to[i].
	remap(to []int) expr
	// render appends a human-readable form to sb.
	render(sb *strings.Builder, leaves []leaf)
}

// constExpr is a constant predicate; it appears only where a nil or
// zero-value Query was handed to a combinator.
type constExpr bool

func (e constExpr) eval([]bool) bool                     { return bool(e) }
func (e constExpr) remap([]int) expr                     { return e }
func (e constExpr) render(sb *strings.Builder, _ []leaf) { sb.WriteString(strconv.FormatBool(bool(e))) }

type leafExpr int

func (e leafExpr) eval(bits []bool) bool { return bits[e] }
func (e leafExpr) remap(to []int) expr   { return leafExpr(to[e]) }
func (e leafExpr) render(sb *strings.Builder, leaves []leaf) {
	sb.WriteString(leaves[e].render())
}

type andExpr []expr

func (e andExpr) eval(bits []bool) bool {
	for _, kid := range e {
		if !kid.eval(bits) {
			return false
		}
	}
	return true
}

func (e andExpr) remap(to []int) expr { return andExpr(remapAll(e, to)) }
func (e andExpr) render(sb *strings.Builder, leaves []leaf) {
	renderList(sb, "and", e, leaves)
}

type orExpr []expr

func (e orExpr) eval(bits []bool) bool {
	for _, kid := range e {
		if kid.eval(bits) {
			return true
		}
	}
	return false
}

func (e orExpr) remap(to []int) expr { return orExpr(remapAll(e, to)) }
func (e orExpr) render(sb *strings.Builder, leaves []leaf) {
	renderList(sb, "or", e, leaves)
}

type notExpr struct{ sub expr }

func (e notExpr) eval(bits []bool) bool { return !e.sub.eval(bits) }
func (e notExpr) remap(to []int) expr   { return notExpr{e.sub.remap(to)} }
func (e notExpr) render(sb *strings.Builder, leaves []leaf) {
	sb.WriteString("not(")
	e.sub.render(sb, leaves)
	sb.WriteString(")")
}

func remapAll(kids []expr, to []int) []expr {
	out := make([]expr, len(kids))
	for i, kid := range kids {
		out[i] = kid.remap(to)
	}
	return out
}

func renderList(sb *strings.Builder, name string, kids []expr, leaves []leaf) {
	sb.WriteString(name + "(")
	for i, kid := range kids {
		if i > 0 {
			sb.WriteString(", ")
		}
		kid.render(sb, leaves)
	}
	sb.WriteString(")")
}
