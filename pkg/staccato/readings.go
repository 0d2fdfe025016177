package staccato

import (
	"container/heap"
	"slices"
)

// BestReadings enumerates complete readings of the document in descending
// probability order, calling fn with each reading's text and probability
// until fn returns false or the readings are exhausted. Unlike Readings,
// which walks all k^chunks readings in index order, BestReadings is lazy:
// reaching the n-th best reading costs O(n·chunks·log n) regardless of how
// many readings the document encodes, which is what makes top-reading
// snippet extraction affordable on documents whose full reading set is
// astronomically large.
//
// BestReadings ranks each chunk's alternatives itself — by descending
// probability, ties by text, the order Build stores them in — so it does
// not rely on the order of a document's Alts. The order is fully
// deterministic: readings with equal probability are emitted in ascending
// lexicographic order of their per-chunk rank vectors (chunk 0's rank
// most significant). Probabilities are computed as the left-to-right
// product of the chosen alternatives' probabilities — the same
// accumulation order Readings uses — so the two enumerations report
// bit-identical probabilities for the same reading.
func (d *Doc) BestReadings(fn func(text string, prob float64) bool) {
	n := len(d.Chunks)
	if n == 0 {
		fn("", 1)
		return
	}
	ranked := make([][]Alt, n)
	for i, c := range d.Chunks {
		if len(c.Alts) == 0 {
			return // no complete reading exists
		}
		ranked[i] = slices.Clone(c.Alts)
		sortAlts(ranked[i])
	}

	// Classic lazy k-best over a product of sorted lists: each frontier
	// entry is a rank vector. Every vector but the all-zero one has one
	// parent, itself with its last nonzero rank lowered by one; popping a
	// vector pushes its children, the vectors one rank higher at or after
	// its own last nonzero position. A parent ranks ahead of its children
	// (probability no lower, and lexicographically smaller), so each
	// vector enters the heap once, when its parent is popped and before
	// its own turn, and the heap order is the enumeration order.
	h := &readingHeap{}
	push := func(idx []int, last int) {
		p := 1.0
		for i, ci := range idx {
			p *= ranked[i][ci].Prob
		}
		heap.Push(h, readingCand{idx: idx, last: last, prob: p})
	}
	push(make([]int, n), 0)
	for h.Len() > 0 {
		top := heap.Pop(h).(readingCand)
		var text []byte
		for i, ci := range top.idx {
			text = append(text, ranked[i][ci].Text...)
		}
		if !fn(string(text), top.prob) {
			return
		}
		for i := top.last; i < n; i++ {
			if top.idx[i]+1 < len(ranked[i]) {
				next := slices.Clone(top.idx)
				next[i]++
				push(next, i)
			}
		}
	}
}

// readingCand is one frontier entry of the lazy enumeration.
type readingCand struct {
	idx  []int // the rank of each chunk's chosen alternative
	last int   // the last position of idx that is not zero, or 0
	prob float64
}

// readingHeap orders candidates by descending probability, ties broken by
// ascending rank vector — a total, deterministic order.
type readingHeap []readingCand

func (h readingHeap) Len() int { return len(h) }
func (h readingHeap) Less(i, j int) bool {
	if h[i].prob > h[j].prob {
		return true
	}
	if h[i].prob < h[j].prob {
		return false
	}
	return slices.Compare(h[i].idx, h[j].idx) < 0
}
func (h readingHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readingHeap) Push(x any)   { *h = append(*h, x.(readingCand)) }
func (h *readingHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
