package query_test

import (
	"context"
	"fmt"
	"strings"
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

// BenchmarkBooleanEval times Eval of a three-leaf boolean query: the one
// table DP every query runs, here over the boolean's product table.
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
		commitPuts(b, st, c.Doc)
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

// BenchmarkCompile times compiling a query into its transition table:
// keyword and substring tables are built directly from the term, fuzzy
// ones flattened from the Levenshtein DFA, whose construction dominates,
// and a boolean's product table from its leaves' tables. A query-cache
// miss pays this once per query. The refuse rows time a refused product:
// the And of 12 common keywords reaches the state limit, and the Or of
// 15 terms of 510 distinct wide runes each (a 184 KB request) the cell
// limit, the costliest search maxLeaves admits.
func BenchmarkCompile(b *testing.B) {
	vocab := testgen.Vocab(2000)
	common := vocab[11:14] // three of the bench's conjunction keywords
	wide := make([]string, 15)
	for i := range wide {
		var sb strings.Builder
		for j := range 4096 {
			sb.WriteRune(rune(0x4e00 + i*510 + j%510))
		}
		wide[i] = sb.String()
	}
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
		{"and3-keyword", func() (*query.Query, error) { return query.Spec{Terms: common, Mode: "keyword"}.Compile() }},
		{"and2-fuzzy-d1", func() (*query.Query, error) {
			return query.Spec{Terms: []string{"probable", "staccato"}, Mode: "fuzzy", Distance: 1}.Compile()
		}},
		{"refuse-and12-keyword", func() (*query.Query, error) { return refused(query.Spec{Terms: vocab[11:23], Mode: "keyword"}) }},
		{"refuse-or15-wide", func() (*query.Query, error) { return refused(query.Spec{Terms: wide, Combine: "or"}) }},
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

// refused compiles s and fails unless Compile refuses it.
func refused(s query.Spec) (*query.Query, error) {
	if q, err := s.Compile(); err == nil {
		return nil, fmt.Errorf("%s compiled", q)
	}
	return nil, nil
}

var snippets query.DocSnippets

// BenchmarkSnippets times snippet extraction under the default options
// over 64 error-model documents at the (6,3) dial, per query: a
// substring, a fuzzy d=1 and an And of two substrings, over the corpus's
// most frequent words. One op extracts the snippets of every document;
// those that do not match stop at Eval.
func BenchmarkSnippets(b *testing.B) {
	cases, err := testgen.ErrDocs(64, testgen.ErrModelConfig{Seed: 11}, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	vocab := testgen.Vocab(200)
	sub := func(term string) *query.Query {
		q, err := query.Substring(term)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	fz, err := query.Fuzzy(vocab[1], 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    *query.Query
	}{
		{"substring", sub(vocab[0])},
		{"fuzzy-d1", fz},
		{"and2-substring", query.And(sub(vocab[0]), sub(vocab[2]))},
	} {
		b.Run(c.name, func(b *testing.B) {
			matched := 0
			for _, dc := range cases {
				if len(c.q.Snippets(dc.Doc, query.SnippetOptions{}).Readings) > 0 {
					matched++
				}
			}
			if matched == 0 {
				b.Fatalf("%s matches none of the %d documents", c.q, len(cases))
			}
			b.ReportAllocs()
			for b.Loop() {
				for _, dc := range cases {
					snippets = c.q.Snippets(dc.Doc, query.SnippetOptions{})
				}
			}
			b.ReportMetric(float64(matched), "matching-docs")
		})
	}
}
