// Package core provides the shared numeric primitives used throughout the
// Staccato system. Probabilities are carried in the negative-log domain
// ("weights"): an arc with probability p has weight -ln(p), so path weights
// add and the minimum-weight path is the maximum-a-posteriori (MAP) path.
// Keeping conversions and log-domain sums here gives every layer (fst,
// staccato, query) one consistent, numerically careful implementation.
package core

import (
	"math"
	"slices"
	"unicode"
)

// InfWeight is the weight of an impossible event (probability zero).
var InfWeight = math.Inf(1)

// WeightFromProb converts a probability in [0, 1] to a negative-log weight.
// Probabilities of zero (or below, from rounding) map to InfWeight.
func WeightFromProb(p float64) float64 {
	if p <= 0 {
		return InfWeight
	}
	return -math.Log(p)
}

// ProbFromWeight converts a negative-log weight back to a probability.
func ProbFromWeight(w float64) float64 {
	return math.Exp(-w)
}

// LogAddWeights returns the weight of the union of two disjoint events given
// their weights: -ln(e^-a + e^-b), computed stably even when a and b are
// large.
func LogAddWeights(a, b float64) float64 {
	if math.IsInf(a, 1) {
		return b
	}
	if math.IsInf(b, 1) {
		return a
	}
	if b < a {
		a, b = b, a
	}
	// a <= b, so e^-a dominates: -ln(e^-a (1 + e^{a-b})).
	return a - math.Log1p(math.Exp(a-b))
}

// ProbEps is the tolerance ProbEq compares under. Probabilities in this
// codebase come out of log-domain accumulation (LogAddWeights) and
// exp/log round trips, which cost a few ulps per arc; 1e-12 absorbs that
// noise while staying far below any probability mass the ranking layers
// treat as meaningful.
const ProbEps = 1e-12

// ProbEq reports whether two probabilities are equal to within ProbEps.
// Use it instead of == whenever two independently accumulated
// probabilities are compared; exact float equality is reserved for
// sort-comparator tie-breaks and zero-sentinel checks, which must be
// annotated //lint:allow floateq where they occur.
func ProbEq(a, b float64) bool {
	return math.Abs(a-b) <= ProbEps
}

// StringFromReversed builds a string from runes collected in reverse
// order — the shape every backpointer traceback (Viterbi, top-k paths)
// produces. It reverses rev in place.
func StringFromReversed(rev []rune) string {
	slices.Reverse(rev)
	return string(rev)
}

// IsWordRune reports whether r counts as a word character for keyword
// (token-boundary) matching: letters and digits are word runes, everything
// else — space, punctuation, the chunk padding — is a boundary.
func IsWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}
