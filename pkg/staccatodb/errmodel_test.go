package staccatodb_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// equalAlts builds a document from per-chunk alternative texts, the
// alternatives of a chunk equally likely.
func equalAlts(id string, chunks ...[]string) *staccato.Doc {
	d := &staccato.Doc{ID: id}
	for _, texts := range chunks {
		ps := staccato.PathSet{Retained: 1}
		for _, text := range texts {
			ps.Alts = append(ps.Alts, staccato.Alt{Text: text, Prob: 1 / float64(len(texts))})
		}
		d.Chunks = append(d.Chunks, ps)
	}
	return d
}

// TestErrorModelCorpusDifferentials runs the two differentials the index
// answers to — index on == WithoutIndex, and top-k == the head of the
// exhaustive ranking — where the uniform random corpora of the other
// property tests do not reach: the error-model corpus (burst noise,
// split/merge arcs, a shared Zipf vocabulary), joined by a document whose
// gram extraction overflows and one with a reading shorter than a gram,
// under conjunctions and disjunctions of literal, pigeonhole-fuzzy and
// wildcard-fuzzy leaves. The overflow document reaches a candidate set
// only through the join at the root of the index's evaluation, the short
// reading only through the wildcard leaves' accumulators, and both have to
// survive every And and Or above them.
func TestErrorModelCorpusDifferentials(t *testing.T) {
	ctx := context.Background()
	cases, err := testgen.ErrDocs(80, testgen.ErrModelConfig{Seed: 3}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Per truth, a word the pigeonhole can split at distance 1 and one it
	// cannot; both of one document, so that their conjunction has a match.
	type pair struct{ long, mid string }
	var pairs []pair
	for _, c := range cases {
		var p pair
		for _, w := range strings.Fields(c.Truth) {
			if len(w) >= 6 && p.long == "" {
				p.long = w
			} else if len(w) >= 4 && len(w) <= 5 && p.mid == "" {
				p.mid = w
			}
		}
		if p.long != "" && p.mid != "" && len(pairs) < 12 {
			pairs = append(pairs, p)
		}
	}
	if len(pairs) < 8 {
		t.Fatalf("only %d truths hold a long and a mid-length word", len(pairs))
	}
	var wideA, wideB []string
	for i := 0; i < 40; i++ {
		wideA = append(wideA, string(rune('a'+i)))
		wideB = append(wideB, string(rune('①'+i)))
	}
	overflow := equalAlts("x-overflow", wideA, wideB, []string{" " + pairs[0].long + " " + pairs[0].mid})
	short := equalAlts("x-short", []string{"te", "the " + pairs[1].long})
	if e := index.EntryFor(overflow, index.DefaultGramSize); !e.Overflow {
		t.Fatalf("x-overflow: entry %+v, want Overflow", e)
	}
	if e := index.EntryFor(short, index.DefaultGramSize); !e.Short || e.Overflow || len(e.Grams) == 0 {
		t.Fatalf("x-short: entry %+v, want Short with grams", e)
	}
	docs := append(docsOf(cases), overflow, short)

	indexed, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer indexed.Close()
	scanned, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer scanned.Close()
	for _, db := range []*staccatodb.DB{indexed, scanned} {
		if err := db.Ingest(ctx, docs); err != nil {
			t.Fatal(err)
		}
	}

	sub := func(term string) *query.Query { return mustQ(query.Substring(term)) }
	fz := func(term string) *query.Query { return mustQ(query.Fuzzy(term, 1)) }
	// The short reading "te" is within one edit of both terms.
	queries := []*query.Query{
		fz("the"),
		query.And(fz("the"), fz("tea")),
		query.Or(fz("the"), sub(pairs[2].long)),
		query.And(query.Or(fz("the"), sub(pairs[2].long)), fz("tea")),
	}
	for i, p := range pairs {
		other := pairs[(i+1)%len(pairs)]
		queries = append(queries,
			query.And(sub(p.long), sub(p.mid)),
			query.Or(sub(p.long), mustQ(query.Keyword(other.mid))),
			fz(p.long),
			fz(p.mid),
			query.And(fz(p.mid), sub(p.long)),
			query.Or(fz(p.mid), fz(other.long)),
			query.And(query.Or(sub(p.long), sub(other.long)), fz(p.mid)),
			query.And(fz(p.long), fz(p.mid), sub(p.long[:3])),
		)
	}

	shapes := map[string]int{} // plan renderings met, by the operators they hold
	found := map[string]int{}  // composite queries the special documents answered
	topK, earlyStops, tieStops := 0, 0, 0
	for _, q := range queries {
		full, stats, err := indexed.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.IndexUsed {
			t.Fatalf("%s: plan %s did not use the index", q, stats.Plan)
		}
		for _, op := range []string{"and(", "or(", "wild(", "grams(fuzzy("} {
			if strings.Contains(stats.Plan, op) {
				shapes[op]++
			}
		}
		want, _, err := scanned.Search(ctx, q, query.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, want) {
			t.Fatalf("%s (plan %s): indexed and WithoutIndex diverge\n indexed: %+v\n scanned: %+v", q, stats.Plan, full, want)
		}
		if strings.HasPrefix(stats.Plan, "and(") || strings.HasPrefix(stats.Plan, "or(") {
			for _, r := range full {
				if strings.HasPrefix(r.DocID, "x-") {
					found[r.DocID]++
				}
			}
		}
		for _, opts := range []query.SearchOptions{{TopN: 1}, {TopN: 5}, {TopN: 5, MinProb: 0.2}} {
			got, stats, err := indexed.Search(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			var head []query.Result
			for _, r := range full {
				if r.Prob >= opts.MinProb && len(head) < opts.TopN {
					head = append(head, r)
				}
			}
			if len(got)+len(head) > 0 && !reflect.DeepEqual(got, head) {
				t.Fatalf("%s top %d min %.1f (plan %s): top-k diverges from the exhaustive ranking\n got  %+v\n want %+v",
					q, opts.TopN, opts.MinProb, stats.Plan, got, head)
			}
			if stats.DocsTotal != stats.DocsScanned+stats.DocsPruned+stats.BoundsSkipped {
				t.Fatalf("%s top %d: DocsTotal %d != scanned %d + pruned %d + skipped %d",
					q, opts.TopN, stats.DocsTotal, stats.DocsScanned, stats.DocsPruned, stats.BoundsSkipped)
			}
			if stats.Mode == query.ExecTopK {
				topK++
			}
			if stats.EarlyStopped {
				earlyStops++
			}
			if stoppedOnTie(stats, full) {
				tieStops++
			}
		}
	}
	for _, op := range []string{"and(", "or(", "wild(", "grams(fuzzy("} {
		if shapes[op] < len(pairs) {
			t.Errorf("only %d plans held %q; the battery missed a shape", shapes[op], op)
		}
	}
	if found["x-overflow"] < 3 || found["x-short"] < 3 || topK == 0 || earlyStops == 0 || tieStops == 0 {
		t.Errorf("vacuous: composite queries found x-overflow %d and x-short %d times, %d top-k runs, %d early stops, %d on the tie clause",
			found["x-overflow"], found["x-short"], topK, earlyStops, tieStops)
	}
	t.Logf("top-k runs: %d, early stops: %d, on the tie clause: %d", topK, earlyStops, tieStops)
}
