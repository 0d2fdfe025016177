package fst

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Builder accumulates states and arcs and then produces a validated,
// normalized SFST. It is deterministic: the same sequence of calls always
// yields a byte-identical machine, which tests and the binary codec rely
// on.
//
// Errors are latched: the first invalid call is remembered and returned by
// Build, so construction code can chain calls without checking each one.
type Builder struct {
	arcs   [][]Arc
	start  StateID
	hasSt  bool
	finals map[StateID]bool
	err    error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{start: NoState, finals: make(map[StateID]bool)}
}

// AddState creates a new state and returns its (pre-normalization) ID.
func (b *Builder) AddState() StateID {
	b.arcs = append(b.arcs, nil)
	return StateID(len(b.arcs) - 1)
}

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *Builder) validState(s StateID) bool {
	return s >= 0 && int(s) < len(b.arcs)
}

// AddArc adds an arc from → to emitting label with the given negative-log
// weight. Use Epsilon as the label for a deletion. Weights must be finite
// and non-negative (probabilities in (0, 1]).
func (b *Builder) AddArc(from, to StateID, label rune, weight float64) {
	switch {
	case !b.validState(from):
		b.setErr(fmt.Errorf("fst: AddArc: invalid source state %d", from))
	case !b.validState(to):
		b.setErr(fmt.Errorf("fst: AddArc: invalid target state %d", to))
	case math.IsNaN(weight) || math.IsInf(weight, 0):
		b.setErr(fmt.Errorf("fst: AddArc(%d→%d): weight must be finite, got %v", from, to, weight))
	case weight < 0:
		b.setErr(fmt.Errorf("fst: AddArc(%d→%d): negative weight %v (probability > 1)", from, to, weight))
	default:
		b.arcs[from] = append(b.arcs[from], Arc{To: to, Label: label, Weight: weight})
	}
}

// SetStart marks s as the start state.
func (b *Builder) SetStart(s StateID) {
	if !b.validState(s) {
		b.setErr(fmt.Errorf("fst: SetStart: invalid state %d", s))
		return
	}
	b.start = s
	b.hasSt = true
}

// SetFinal marks s as an accepting state.
func (b *Builder) SetFinal(s StateID) {
	if !b.validState(s) {
		b.setErr(fmt.Errorf("fst: SetFinal: invalid state %d", s))
		return
	}
	b.finals[s] = true
}

// compareArcs is the canonical order of a state's arcs, for
// slices.SortFunc: by target state, then label, then weight. Arcs it
// calls equal carry equal fields, so the order never depends on the sort.
func compareArcs(a, b Arc) int {
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	return cmp.Compare(a.Weight, b.Weight)
}

// Build validates and normalizes the machine. It fails if no start state
// was set, no accepting path exists, or the graph contains a cycle.
// States not on any start→final path are pruned, and the survivors are
// renumbered in topological order with the start state at 0.
func (b *Builder) Build() (*SFST, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.hasSt {
		return nil, fmt.Errorf("fst: Build: no start state set")
	}
	if len(b.finals) == 0 {
		return nil, fmt.Errorf("fst: Build: no final state set")
	}
	n := len(b.arcs)

	// Forward reachability from the start state.
	reach := make([]bool, n)
	stack := []StateID{b.start}
	reach[b.start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range b.arcs[s] {
			if !reach[a.To] {
				reach[a.To] = true
				stack = append(stack, a.To)
			}
		}
	}

	// Backward co-reachability to any final state.
	rev := make([][]StateID, n)
	for s := range b.arcs {
		for _, a := range b.arcs[s] {
			rev[a.To] = append(rev[a.To], StateID(s))
		}
	}
	// Seed the traversal from the finals in sorted order: b.finals is a
	// map, and a randomized seeding order would make the stack's
	// evolution (though not the resulting coreach set) differ run to
	// run — the kind of latent nondeterminism this Builder promises not
	// to have.
	finals := make([]StateID, 0, len(b.finals))
	for s := range b.finals {
		finals = append(finals, s)
	}
	slices.Sort(finals)
	coreach := make([]bool, n)
	for _, s := range finals {
		if !coreach[s] {
			coreach[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !coreach[p] {
				coreach[p] = true
				stack = append(stack, p)
			}
		}
	}

	useful := make([]bool, n)
	nUseful := 0
	for s := 0; s < n; s++ {
		if reach[s] && coreach[s] {
			useful[s] = true
			nUseful++
		}
	}
	if !useful[b.start] {
		return nil, fmt.Errorf("fst: Build: no accepting path from start state")
	}

	// Kahn topological sort over the useful subgraph. FIFO order keeps the
	// numbering deterministic for a given build sequence.
	indeg := make([]int, n)
	for s := 0; s < n; s++ {
		if !useful[s] {
			continue
		}
		for _, a := range b.arcs[s] {
			if useful[a.To] {
				indeg[a.To]++
			}
		}
	}
	order := make([]StateID, 0, nUseful)
	queue := make([]StateID, 0, nUseful)
	for s := 0; s < n; s++ {
		if useful[s] && indeg[s] == 0 {
			queue = append(queue, StateID(s))
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		order = append(order, s)
		for _, a := range b.arcs[s] {
			if !useful[a.To] {
				continue
			}
			indeg[a.To]--
			if indeg[a.To] == 0 {
				queue = append(queue, a.To)
			}
		}
	}
	if len(order) != nUseful {
		return nil, fmt.Errorf("fst: Build: transducer contains a cycle")
	}
	if order[0] != b.start {
		// Only the start state can have in-degree 0 among useful states
		// (everything useful is reachable from it), so this indicates an
		// internal invariant violation rather than bad input.
		return nil, fmt.Errorf("fst: Build: internal error: start state not first in topological order")
	}

	remap := make([]StateID, n)
	for i := range remap {
		remap[i] = NoState
	}
	for newID, oldID := range order {
		remap[oldID] = StateID(newID)
	}

	out := &SFST{
		arcs:   make([][]Arc, nUseful),
		finals: make([]bool, nUseful),
	}
	for newID, oldID := range order {
		var arcs []Arc
		for _, a := range b.arcs[oldID] {
			if !useful[a.To] {
				continue
			}
			arcs = append(arcs, Arc{To: remap[a.To], Label: a.Label, Weight: a.Weight})
		}
		slices.SortFunc(arcs, compareArcs)
		out.arcs[newID] = arcs
		out.nArcs += len(arcs)
		if b.finals[oldID] {
			out.finals[newID] = true
		}
	}
	return out, nil
}
