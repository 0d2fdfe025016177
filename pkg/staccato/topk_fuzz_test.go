package staccato

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/fst"
)

// fuzzSFST builds a small acyclic SFST from data, or nil if data does not
// describe one with an accepting path. The first byte sets the state
// count (2–12), the second marks extra final states among the first
// eight, and every further three bytes add one arc from a lower to a
// higher state, labeled from {a, b, c, ε} and weighted from {0.25, 0.5,
// 1}. The weights add exactly, so equal path weights — and every
// tie-break after them — are common.
func fuzzSFST(data []byte) *fst.SFST {
	if len(data) < 2 {
		return nil
	}
	n := 2 + int(data[0])%11
	b := fst.NewBuilder()
	for range n {
		b.AddState()
	}
	b.SetStart(0)
	b.SetFinal(fst.StateID(n - 1))
	for s := 0; s < min(n, 8); s++ {
		if data[1]>>s&1 == 1 {
			b.SetFinal(fst.StateID(s))
		}
	}
	labels := []rune{'a', 'b', 'c', fst.Epsilon}
	weights := []float64{0.25, 0.5, 1}
	for p := data[2:]; len(p) >= 3; p = p[3:] {
		from, to := int(p[0])%n, int(p[1])%n
		if from == to {
			continue
		}
		if from > to {
			from, to = to, from
		}
		b.AddArc(fst.StateID(from), fst.StateID(to), labels[p[2]%4], weights[p[2]/4%3])
	}
	f, err := b.Build()
	if err != nil {
		return nil
	}
	return f
}

// pathSetDiff describes the first difference between two PathSets,
// probabilities compared bit for bit, or returns "" if they are equal.
func pathSetDiff(got, want PathSet) string {
	if math.Float64bits(got.Retained) != math.Float64bits(want.Retained) {
		return fmt.Sprintf("Retained %v, want %v", got.Retained, want.Retained)
	}
	if len(got.Alts) != len(want.Alts) {
		return fmt.Sprintf("%d alts %v, want %d %v", len(got.Alts), got.Alts, len(want.Alts), want.Alts)
	}
	for i, g := range got.Alts {
		w := want.Alts[i]
		if g.Text != w.Text || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			return fmt.Sprintf("alt %d = %q %v, want %q %v", i, g.Text, g.Prob, w.Text, w.Prob)
		}
	}
	return ""
}

// FuzzTopKMatchesReference holds TopK to topKReference, the
// sort-everything-then-truncate DP it replaced: on every segment of a
// random small SFST — the interior and ToEnd segments Chunk cuts, and one
// hand-built segment between arbitrary states, which reaches the escape
// and no-accepting-path errors — and k in {1, 2, 3, 7, AllPaths}, both
// must return the same error, ErrPathExplosion included, or PathSets
// equal bit for bit. The path budget is drawn small (1 to 65536) so the
// explosion is reachable and no input holds much memory.
func FuzzTopKMatchesReference(f *testing.F) {
	// A two-label ladder with skip arcs and tied weights.
	ladder := []byte{6, 0}
	for s := byte(0); s < 7; s++ {
		ladder = append(ladder, s, s+1, 0, s, s+1, 1, s, s+2, 4, s, s+1, 5)
	}
	f.Add(ladder, uint8(0), uint8(3), uint16(65535), uint8(0), uint8(255))
	f.Add(ladder, uint8(1), uint8(1), uint16(40), uint8(2), uint8(5))
	f.Add(ladder, uint8(4), uint8(0), uint16(65535), uint8(1), uint8(7))
	f.Add(ladder, uint8(4), uint8(2), uint16(9), uint8(0), uint8(3))
	f.Add([]byte{3, 0x5, 0, 1, 3, 1, 2, 7, 0, 2, 11, 2, 3, 0}, uint8(3), uint8(1), uint16(100), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kSel, chunks uint8, budget uint16, from, to uint8) {
		sf := fuzzSFST(data)
		if sf == nil {
			return
		}
		k := []int{1, 2, 3, 7, AllPaths}[int(kSel)%5]
		segs, err := Chunk(sf, 1+int(chunks)%6)
		if err != nil {
			t.Fatal(err)
		}
		n := sf.NumStates()
		lo, hi := int(from)%n, int(to)%(n+1)
		if hi < lo {
			lo, hi = hi, lo
		}
		hand := Segment{F: sf, From: fst.StateID(lo), To: fst.StateID(hi)}
		if hi == n {
			hand.To, hand.ToEnd = fst.NoState, true
		}
		for _, seg := range append(segs, hand) {
			got, err := topK(seg, k, 1+int(budget))
			want, refErr := topKReference(seg, k, 1+int(budget))
			if fmt.Sprint(err) != fmt.Sprint(refErr) || errors.Is(err, ErrPathExplosion) != errors.Is(refErr, ErrPathExplosion) {
				t.Fatalf("segment %+v, k=%d: TopK error %v, reference error %v", seg, k, err, refErr)
			}
			if err != nil {
				continue
			}
			if diff := pathSetDiff(got, want); diff != "" {
				t.Fatalf("segment %+v, k=%d: TopK and the reference disagree: %s", seg, k, diff)
			}
		}
	})
}
