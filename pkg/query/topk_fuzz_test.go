package query_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// FuzzTopKMatchesExhaustive holds every limited run to the exhaustive
// ranking where ties are dense: up to 64 one-chunk documents, each byte
// picking one's match probability off a grid of 97 values — a quarter of
// bytes give exactly 1 — and whether its admissible bound is the vacuous
// 1 or its probability rounded up to the index's fixed point. The arm
// byte picks the run: bit 0 drops the candidates (the scan over the ID
// listing), bit 1 adds a rescorer that lifts " zz " readings above their
// bounds (so the candidates are walked in ID order too). The posting
// source hands the candidates over in an order drawn from the whole input,
// so no run can lean on ID order. At any TopN in [1, n+2] and 1–3 workers,
// the run must return the unlimited Search under the same rescorer cut to
// TopN, with the stats invariant intact.
func FuzzTopKMatchesExhaustive(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x7f}, 40), 10, 2, byte(0))                        // all certain: the tie clause
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 0x30}, 20), 5, 3, byte(0))             // certain under vacuous bounds, beside uncertain ones
	f.Add([]byte{0x60, 0x30, 0x00, 0x7f, 0x10, 0xe0, 0x30, 0x5f}, 3, 1, byte(0)) // probability-0 and tied-below-1 documents
	f.Add([]byte{0xb0, 0xb0, 0x7f}, 1, 1, byte(0))                               // uncertain under vacuous bounds, ahead of a certain one
	f.Add([]byte{0x30}, 1, 1, byte(0))
	f.Add(bytes.Repeat([]byte{0x30, 0x7f}, 30), 4, 2, byte(1))       // scan: stops at the fourth certain match
	f.Add(bytes.Repeat([]byte{0x7f, 0x60}, 30), 3, 3, byte(2))       // rescored candidates
	f.Add([]byte{0x30, 0x30, 0xb0, 0x84, 0x9d}, 2, 1, byte(2))       // rescored above their index bounds
	f.Add(bytes.Repeat([]byte{0x50, 0x7f, 0x00}, 20), 2, 1, byte(3)) // rescored scan
	f.Fuzz(func(t *testing.T, probs []byte, topN, workers int, arm byte) {
		n := len(probs)
		if n == 0 || n > 64 {
			return
		}
		topN = 1 + int((uint(topN)-1)%uint(n+2)) // in range already: unchanged
		workers = 1 + int((uint(workers)-1)%3)
		ctx := context.Background()
		st := memStore(t)
		seed := int64(arm)
		for _, b := range probs {
			seed = seed*31 + int64(b)
		}
		src := &fakeSource{byGram: map[string][]string{}, bounds: map[string]float64{}, shuffle: rand.New(rand.NewSource(seed))}
		put := func(id string, alts ...staccato.Alt) {
			d := &staccato.Doc{ID: id, Params: staccato.Params{Chunks: 1, K: len(alts)}, Chunks: []staccato.PathSet{{Alts: alts, Retained: 1}}}
			commitPuts(t, st, d)
		}
		for i, b := range probs {
			id := fmt.Sprintf("d%02d", i)
			p := float64(min(b&0x7f, 96)) / 96
			switch {
			case p == 1:
				put(id, staccato.Alt{Text: " zz ", Prob: 1})
			case p == 0:
				put(id, staccato.Alt{Text: "~", Prob: 1})
			case p >= 0.5:
				put(id, staccato.Alt{Text: " zz ", Prob: p}, staccato.Alt{Text: "~", Prob: 1 - p})
			default:
				put(id, staccato.Alt{Text: "~", Prob: 1 - p}, staccato.Alt{Text: " zz ", Prob: p})
			}
			bound := 1.0
			if b&0x80 == 0 {
				bound = index.Dequantize(index.Quantize(p))
			}
			src.byGram["zz"], src.bounds[id] = append(src.byGram["zz"], id), bound
		}
		put("x-filler", staccato.Alt{Text: "nothing", Prob: 1})

		q := mustQ(query.Substring("zz"))
		eng := query.NewEngine(st, query.EngineOptions{Workers: workers})
		opts, mode := query.SearchOptions{}, query.ExecTopK
		if arm&2 != 0 {
			opts.Rescore, mode = fuzzy.NewLexicon([]string{"zz"}).Rescorer(), query.ExecCandidateOnly
		}
		want, err := eng.Search(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want = want[:min(topN, len(want))]
		var stats query.SearchStats
		opts.TopN, opts.Stats = topN, &stats
		if arm&1 == 0 {
			opts.Candidates = q.Plan(2).Candidates(src)
		} else {
			mode = query.ExecScan
		}
		got, err := eng.Search(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("top %d at %d workers, arm %d, over %x: the limited run diverges from the exhaustive ranking\n got  %+v\n want %+v\n stats %+v",
				topN, workers, arm&3, probs, got, want, stats)
		}
		if stats.Mode != mode || stats.DocsTotal != n+1 ||
			stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped ||
			mode != query.ExecScan && stats.CandidatesFetched != stats.DocsScanned+stats.CandidatesDeleted {
			t.Fatalf("top %d at %d workers, arm %d, over %x: stats %+v break the accounting invariants", topN, workers, arm&3, probs, stats)
		}
	})
}
