package staccato_test

import (
	"fmt"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// BenchmarkTopK measures top-k path extraction across the dial: the cost
// of approximating a 1000-character transducer at several (chunks, k)
// settings. These are the numbers a future BENCH_*.json trajectory will
// track as the chunker and DP get optimized.
func BenchmarkTopK(b *testing.B) {
	_, f := testgen.MustGenerate(testgen.Config{Length: 1000, Seed: 1})
	for _, tc := range []struct{ chunks, k int }{
		{50, 1},
		{50, 4},
		{50, 16},
		{10, 4},
		{200, 4},
	} {
		b.Run(fmt.Sprintf("chunks=%d/k=%d", tc.chunks, tc.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := staccato.Build(f, "d", tc.chunks, tc.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildErrModel measures Build on the end-to-end benchmark's
// corpus shape: error-model documents over a 2000-word vocabulary,
// approximated at (6,3). One op builds one document, cycling through 64
// pre-generated transducers so no single document's shape dominates.
func BenchmarkBuildErrModel(b *testing.B) {
	cases, err := testgen.ErrCorpusFSTs(64, testgen.ErrModelConfig{VocabSize: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := staccato.Build(cases[i%len(cases)].FST, "d", 6, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunk isolates boundary selection (cut-state sweep) from path
// extraction.
func BenchmarkChunk(b *testing.B) {
	_, f := testgen.MustGenerate(testgen.Config{Length: 1000, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := staccato.Chunk(f, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySubstring measures the chunk-DP query over an
// approximated 1000-character document.
func BenchmarkQuerySubstring(b *testing.B) {
	truth, f := testgen.MustGenerate(testgen.Config{Length: 1000, Seed: 1})
	doc, err := staccato.Build(f, "d", 50, 8)
	if err != nil {
		b.Fatal(err)
	}
	term := truth[500:505]
	q, err := query.Substring(term)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Eval(doc)
	}
}
