package staccatodb_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// topkFuzzPool is the documents and queries FuzzTopKOverIndex draws on:
// error-model documents over a 30-word vocabulary, so that a common word
// is a candidate in most documents, many of them at the bound 1, and a
// keyword, a disjunction (whose bounds add up and cap) and a fuzzy word.
var topkFuzzPool struct {
	once    sync.Once
	docs    []*staccato.Doc
	queries []*query.Query
	err     error
}

func topkFuzzDocs(t *testing.T) ([]*staccato.Doc, []*query.Query) {
	p := &topkFuzzPool
	p.once.Do(func() {
		var cases []testgen.DocCase
		if cases, p.err = testgen.ErrDocs(48, testgen.ErrModelConfig{Seed: 11, Words: 8, VocabSize: 30}, 6, 3); p.err != nil {
			return
		}
		p.docs = docsOf(cases)
		words := testgen.Vocab(30)
		long := slices.MaxFunc(words[:10], func(a, b string) int { return len(a) - len(b) })
		p.queries = []*query.Query{
			mustQ(query.Keyword(words[0])),
			query.Or(mustQ(query.Keyword(words[1])), mustQ(query.Keyword(words[3]))),
			mustQ(query.Fuzzy(long, 1)),
		}
	})
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.docs, p.queries
}

// FuzzTopKOverIndex holds limited runs to the unlimited ranking over a
// real index of many parts. Each byte of ops is one write: a commit of one
// new document or of four, an overwrite of a live one, or a delete, so
// that the lookup's answer spans parts, packs (part, ordinal) pairs from
// every one of them and must drop the dead ordinals overwrites and
// deletes leave. For each query, at TopN from 1 to 40 and a MinProb at,
// just below and just above one candidate's bound or its slack-widened
// value — edge picks which, at, which bound — the run must return the
// unlimited Search at that MinProb cut to TopN, with DocsTotal the live
// document count and DocsScanned + DocsPruned + BoundsSkipped.
func FuzzTopKOverIndex(f *testing.F) {
	f.Add([]byte{0, 1, 1, 4, 2, 0, 7, 1}, uint8(9), uint8(0), uint16(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 6, 10, 3, 0, 0, 0, 0, 0}, uint8(0), uint8(9), uint16(3))
	f.Add([]byte{1, 0, 5, 1, 9, 2, 0, 14, 1, 1, 18, 0}, uint8(39), uint8(12), uint16(1))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(3), uint8(13), uint16(7))
	f.Fuzz(func(t *testing.T, ops []byte, topN, edge uint8, at uint16) {
		pool, queries := topkFuzzDocs(t)
		ctx := context.Background()
		db, err := staccatodb.OpenMem(staccatodb.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var live []string
		for i, op := range ops[:min(len(ops), 64)] {
			pick := int(op >> 2)
			if op%4 == 3 && len(live) > 0 {
				k := pick % len(live)
				if err := db.Delete(ctx, live[k]); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, k, k+1)
				continue
			}
			var batch []*staccato.Doc
			for j := range 1 + 3*int(op%4&1) {
				d := *pool[(i*5+j*3+pick)%len(pool)]
				if d.ID = fmt.Sprintf("d%03d", i*4+j); op%4 == 2 && len(live) > 0 {
					d.ID = live[pick%len(live)]
				} else {
					live = append(live, d.ID)
				}
				batch = append(batch, &d)
			}
			if err := db.Ingest(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}

		n := 1 + int(topN)%40
		ix := db.Index()
		for qi, q := range queries {
			base := index.Dequantize(at)
			if ranked := q.Plan(ix.GramSize()).Candidates(ix).Ranked(); edge&8 != 0 && len(ranked) > 0 {
				base = ranked[int(at)%len(ranked)].Bound
			}
			widened := base * (1 + 1e-9) // the engine's slack on a bound
			minProb := []float64{0, base, math.Nextafter(base, 0), math.Nextafter(base, 2),
				widened, math.Nextafter(widened, 0), math.Nextafter(widened, 2), 1}[edge%8]
			want, _, err := db.Search(ctx, q, query.SearchOptions{MinProb: minProb})
			if err != nil {
				t.Fatal(err)
			}
			want = want[:min(n, len(want))]
			got, stats, err := db.Search(ctx, q, query.SearchOptions{MinProb: minProb, TopN: n})
			if err != nil {
				t.Fatal(err)
			}
			if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d (%v), top %d at MinProb %v over %d live documents: the limited run diverges from the unlimited ranking\n got  %+v\n want %+v\n stats %+v",
					qi, q, n, minProb, len(live), got, want, stats)
			}
			if stats.DocsTotal != len(live) || stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped {
				t.Fatalf("query %d (%v), top %d at MinProb %v over %d live documents: stats %+v break the accounting invariants", qi, q, n, minProb, len(live), stats)
			}
		}
	})
}
