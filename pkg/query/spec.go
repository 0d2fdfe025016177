package query

import (
	"errors"
	"fmt"
)

// Spec describes a boolean query in strings, the form the front ends
// (the HTTP API's JSON body, the CLI's flags) receive it in: every term
// becomes a leaf of one mode, the leaves are joined by one combiner, and
// an optional term is required absent.
type Spec struct {
	// Terms are the query terms; at least one is required.
	Terms []string
	// Mode is the leaf type: "substring" (or empty), "keyword", or "fuzzy".
	Mode string
	// Distance is the edit distance of fuzzy leaves; only valid with
	// Mode "fuzzy".
	Distance int
	// Combine joins the terms: "and" (or empty) or "or".
	Combine string
	// Not, when non-empty, additionally requires this term to be absent.
	Not string
}

// Compile builds the Query the spec describes. Unlike And, Or and Not,
// it reports a product table over budget as an error, and builds one
// table for the whole formula.
func (s Spec) Compile() (*Query, error) {
	leafFor := func(term string) (*Query, error) {
		switch s.Mode {
		case "", "substring":
			return Substring(term)
		case "keyword":
			return Keyword(term)
		case "fuzzy":
			return Fuzzy(term, s.Distance)
		default:
			return nil, fmt.Errorf("unknown mode %q (want substring, keyword, or fuzzy)", s.Mode)
		}
	}
	if len(s.Terms) == 0 {
		return nil, errors.New("at least one query term is required")
	}
	if s.Distance != 0 && s.Mode != "fuzzy" {
		return nil, fmt.Errorf("distance %d is only valid with mode fuzzy", s.Distance)
	}
	if n := len(s.Terms) + min(len(s.Not), 1); n > maxLeaves {
		return nil, fmt.Errorf("%d terms: a query takes at most %d", n, maxLeaves)
	}
	leaves := make([]*Query, len(s.Terms))
	for i, term := range s.Terms {
		leaf, err := leafFor(term)
		if err != nil {
			return nil, err
		}
		leaves[i] = leaf
	}
	var out *Query
	switch s.Combine {
	case "", "and":
		out = combine(opAnd, leaves[0], leaves[1:])
	case "or":
		out = combine(opOr, leaves[0], leaves[1:])
	default:
		return nil, fmt.Errorf("unknown combine %q (want and or or)", s.Combine)
	}
	if s.Not != "" {
		neg, err := leafFor(s.Not)
		if err != nil {
			return nil, err
		}
		out = combine(opAnd, out, []*Query{combine(opNot, neg, nil)})
	}
	return out.withTable()
}

// Validate is the range check both front ends run on the result knobs a
// request carries. Search itself does not fail on them — it reads a
// negative TopN as "no limit" and finds nothing at a MinProb above 1 —
// which is exactly why a typo must be caught before it gets there.
func (o SearchOptions) Validate() error {
	if o.TopN < 0 {
		return fmt.Errorf("top %d: the result limit cannot be negative", o.TopN)
	}
	if !(o.MinProb >= 0 && o.MinProb <= 1) { // written so that NaN fails too
		return fmt.Errorf("minimum probability %v: must be within [0, 1]", o.MinProb)
	}
	return nil
}
