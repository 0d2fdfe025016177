// Package fst implements the stochastic finite-state transducer (SFST)
// value type at the heart of Staccato. An SFST represents the full
// distribution an OCR engine emits for one document region: states are
// positions in the scanned image, arcs emit a character (or Epsilon for a
// deletion) with a probability carried as a negative-log weight. Every
// start→final path spells one candidate reading of the region, with
// probability exp(-sum of arc weights).
//
// SFSTs are built through a Builder and are immutable afterwards. Build
// validates the machine (acyclic, at least one accepting path), prunes
// states that are not on any accepting path, and renumbers the survivors
// in topological order with the start state at 0 — every downstream
// algorithm (Viterbi, chunking, query evaluation) relies on that
// normalization to run as a single forward sweep.
package fst

import "github.com/paper-repo/staccato-go/internal/core"

// StateID identifies a state within one SFST.
type StateID int32

// NoState is the null StateID, used for "no predecessor" markers.
const NoState StateID = -1

// Epsilon is the arc label for transitions that emit no character
// (deletions in OCR terms).
const Epsilon rune = -1

// Arc is a weighted, labeled transition. Weight is the negative natural
// log of the arc's probability, so weights are >= 0 and add along paths.
type Arc struct {
	To     StateID
	Label  rune
	Weight float64
}

// Prob returns the arc's probability, exp(-Weight).
func (a Arc) Prob() float64 { return core.ProbFromWeight(a.Weight) }

// SFST is an immutable stochastic finite-state transducer. States are
// numbered in topological order, the start state is always 0, and every
// state lies on at least one start→final path.
type SFST struct {
	arcs   [][]Arc
	finals []bool
	nArcs  int
}

// NumStates returns the number of states.
func (f *SFST) NumStates() int { return len(f.arcs) }

// NumArcs returns the total number of arcs.
func (f *SFST) NumArcs() int { return f.nArcs }

// Start returns the start state, which is always 0 after Build.
func (f *SFST) Start() StateID { return 0 }

// IsFinal reports whether s is an accepting state.
func (f *SFST) IsFinal(s StateID) bool {
	return s >= 0 && int(s) < len(f.finals) && f.finals[s]
}

// Arcs returns the outgoing arcs of s in canonical order. The returned
// slice is owned by the SFST and must not be modified.
func (f *SFST) Arcs(s StateID) []Arc { return f.arcs[s] }

// NumPaths returns the number of distinct start→final paths as a float64
// (the count grows exponentially with document length, so it is reported
// in floating point rather than an exact integer).
func (f *SFST) NumPaths() float64 {
	n := f.NumStates()
	count := make([]float64, n)
	count[0] = 1
	var total float64
	for s := 0; s < n; s++ {
		if f.finals[s] {
			total += count[s]
		}
		for _, a := range f.arcs[s] {
			count[a.To] += count[s]
		}
	}
	return total
}
