package query_test

import (
	"context"
	"fmt"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// A Staccato document is a product distribution over per-chunk path
// sets; queries return the probability that the document's true text
// satisfies the predicate, summed over readings — here the "staccato"
// reading carries 0.6 of the mass.
func ExampleSubstring() {
	doc := &staccato.Doc{
		ID: "doc-1",
		Chunks: []staccato.PathSet{
			{Retained: 1, Alts: []staccato.Alt{
				{Text: "stac", Prob: 0.6},
				{Text: "stoc", Prob: 0.4},
			}},
			{Retained: 1, Alts: []staccato.Alt{
				{Text: "cato", Prob: 1},
			}},
		},
	}
	q, err := query.Substring("staccato")
	if err != nil {
		panic(err)
	}
	// Compile once, evaluate everywhere: a Query is immutable and safe
	// for concurrent use. The match spans both chunks.
	fmt.Printf("%.2f\n", q.Eval(doc))
	// Output: 0.60
}

// Boolean queries are evaluated per reading, not by multiplying
// marginals: "cat" and "dog" each have probability 0.5, but no single
// reading contains both, so their conjunction is 0 — where independence
// would wrongly claim 0.25.
func ExampleAnd() {
	doc := &staccato.Doc{
		ID: "doc-1",
		Chunks: []staccato.PathSet{
			{Retained: 1, Alts: []staccato.Alt{
				{Text: "cat", Prob: 0.5},
				{Text: "dog", Prob: 0.5},
			}},
		},
	}
	cat, _ := query.Substring("cat")
	dog, _ := query.Substring("dog")
	fmt.Printf("and: %.2f\n", query.And(cat, dog).Eval(doc))
	fmt.Printf("or:  %.2f\n", query.Or(cat, dog).Eval(doc))
	// Output:
	// and: 0.00
	// or:  1.00
}

// Engine runs one compiled query over every document in a DocStore and
// returns matches ranked by descending probability. Results are
// deterministic at any worker count.
func ExampleEngine_Search() {
	ctx := context.Background()
	st, err := diskstore.OpenFS(framelog.NewMemFS(), "", diskstore.Options{})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	docs := []*staccato.Doc{
		{ID: "doc-a", Chunks: []staccato.PathSet{
			{Retained: 1, Alts: []staccato.Alt{{Text: "the cat sat", Prob: 1}}},
		}},
		{ID: "doc-b", Chunks: []staccato.PathSet{
			{Retained: 1, Alts: []staccato.Alt{
				{Text: "cat", Prob: 0.25},
				{Text: "cot", Prob: 0.75},
			}},
		}},
		{ID: "doc-c", Chunks: []staccato.PathSet{
			{Retained: 1, Alts: []staccato.Alt{{Text: "dog", Prob: 1}}},
		}},
	}
	b := st.Batch()
	for _, d := range docs {
		if err := b.Put(d); err != nil {
			panic(err)
		}
	}
	if err := b.Commit(ctx); err != nil {
		panic(err)
	}

	q, err := query.Substring("cat")
	if err != nil {
		panic(err)
	}
	eng := query.NewEngine(st, query.EngineOptions{Workers: 2})
	results, err := eng.Search(ctx, q, query.SearchOptions{MinProb: 0.1})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s %.2f\n", r.DocID, r.Prob)
	}
	// Output:
	// doc-a 1.00
	// doc-b 0.25
}
