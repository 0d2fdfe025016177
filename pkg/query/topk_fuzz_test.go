package query_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// FuzzTopKMatchesExhaustive holds top-k execution to the exhaustive
// ranking where ties are dense: up to 64 one-chunk documents, each byte
// picking one's match probability off a grid of 97 values — a quarter of
// bytes give exactly 1 — and whether its admissible bound is the vacuous
// 1 or its probability rounded up to the index's fixed point. At any TopN
// in [1, n+2] and 1–3 workers, Search under those candidates must return
// the unlimited Search cut to TopN, with the stats invariant intact.
func FuzzTopKMatchesExhaustive(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x7f}, 40), 10, 2)                        // all certain: the tie clause
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 0x30}, 20), 5, 3)             // certain under vacuous bounds, beside uncertain ones
	f.Add([]byte{0x60, 0x30, 0x00, 0x7f, 0x10, 0xe0, 0x30, 0x5f}, 3, 1) // probability-0 and tied-below-1 documents
	f.Add([]byte{0xb0, 0xb0, 0x7f}, 1, 1)                               // uncertain under vacuous bounds, ahead of a certain one
	f.Add([]byte{0x30}, 1, 1)
	f.Fuzz(func(t *testing.T, probs []byte, topN, workers int) {
		n := len(probs)
		if n == 0 || n > 64 {
			return
		}
		topN = 1 + int((uint(topN)-1)%uint(n+2)) // in range already: unchanged
		workers = 1 + int((uint(workers)-1)%3)
		ctx := context.Background()
		st := store.NewMemStore()
		src := &fakeSource{byGram: map[string][]string{}, bounds: map[string]float64{}}
		put := func(id string, alts ...staccato.Alt) {
			d := &staccato.Doc{ID: id, Params: staccato.Params{Chunks: 1, K: len(alts)}, Chunks: []staccato.PathSet{{Alts: alts, Retained: 1}}}
			if err := st.Put(ctx, d); err != nil {
				t.Fatal(err)
			}
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
		want, err := eng.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want = want[:min(topN, len(want))]
		var stats query.SearchStats
		got, err := eng.Search(ctx, q, query.SearchOptions{Candidates: q.Plan(2).Candidates(src), TopN: topN, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("top %d at %d workers over %x: top-k diverges from the exhaustive ranking\n got  %+v\n want %+v\n stats %+v",
				topN, workers, probs, got, want, stats)
		}
		if stats.Mode != query.ExecTopK || stats.DocsTotal != n+1 ||
			stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped ||
			stats.CandidatesFetched != stats.DocsScanned+stats.CandidatesDeleted {
			t.Fatalf("top %d at %d workers over %x: stats %+v break the accounting invariants", topN, workers, probs, stats)
		}
	})
}
