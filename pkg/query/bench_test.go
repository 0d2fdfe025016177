package query_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

func benchDoc(b *testing.B) *staccato.Doc {
	b.Helper()
	_, f := testgen.MustGenerate(testgen.Config{Length: 200, Seed: 17})
	d, err := staccato.Build(f, "bench", 10, 4)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkTermRecompileEachCall is the regression baseline for the v1
// API shape: the term automaton is recompiled on every term×doc call.
// Compare with BenchmarkTermCompiledReuse — the gap is the compile-once
// win the Query type exists to lock in.
func BenchmarkTermRecompileEachCall(b *testing.B) {
	d := benchDoc(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := query.Substring("probabilistic")
		if err != nil {
			b.Fatal(err)
		}
		q.Eval(d)
	}
}

// BenchmarkTermCompiledReuse evaluates one compiled Query repeatedly —
// the pattern Engine uses across a whole corpus.
func BenchmarkTermCompiledReuse(b *testing.B) {
	d := benchDoc(b)
	q, err := query.Substring("probabilistic")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Eval(d)
	}
}

// BenchmarkBooleanEval times the product-automaton DP on a three-leaf
// boolean query.
func BenchmarkBooleanEval(b *testing.B) {
	d := benchDoc(b)
	mk := func(term string) *query.Query {
		q, err := query.Substring(term)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	q := query.And(mk("the"), query.Or(mk("ing"), mk("ion")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Eval(d)
	}
}

// BenchmarkEngineSearch measures corpus throughput at several worker pool
// sizes over a 200-doc store. The tracked trajectory of the same effect
// is query.scan_ms and query.scan_parallel_speedup from
// `bash bench/run.sh --trace 1`.
func BenchmarkEngineSearch(b *testing.B) {
	cases, err := testgen.Docs(200, testgen.Config{Length: 40, Seed: 3}, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	st := memStore(b)
	ctx := context.Background()
	for _, c := range cases {
		if err := st.Put(ctx, c.Doc); err != nil {
			b.Fatal(err)
		}
	}
	q, err := query.Substring("the")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := query.NewEngine(st, query.EngineOptions{Workers: workers})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Search(ctx, q, query.SearchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var compiled *query.Query

// BenchmarkCompile times compiling one leaf into its transition table:
// keyword and substring tables are built directly from the term, fuzzy
// ones flattened from the Levenshtein DFA, whose construction dominates.
// A query-cache miss pays this once per leaf.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func() (*query.Query, error)
	}{
		{"keyword", func() (*query.Query, error) { return query.Keyword("probable") }},
		{"substring", func() (*query.Query, error) { return query.Substring("probable") }},
		{"fuzzy-d1-5", func() (*query.Query, error) { return query.Fuzzy("proba", 1) }},
		{"fuzzy-d1-8", func() (*query.Query, error) { return query.Fuzzy("probable", 1) }},
		{"fuzzy-d2-8", func() (*query.Query, error) { return query.Fuzzy("probable", 2) }},
		{"fuzzy-d2-16", func() (*query.Query, error) { return query.Fuzzy("probabilistic db", 2) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				q, err := c.mk()
				if err != nil {
					b.Fatal(err)
				}
				compiled = q
			}
		})
	}
}
