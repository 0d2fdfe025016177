package diskstore_test

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

const benchDocs = 200

var (
	benchCorpusOnce sync.Once
	benchCorpus     []*staccato.Doc
)

// corpus returns a shared pre-generated document set so the benchmarks
// measure the store, not testgen.
func corpus(b *testing.B) []*staccato.Doc {
	b.Helper()
	benchCorpusOnce.Do(func() {
		cases, err := testgen.Docs(benchDocs, testgen.Config{Length: 40, Seed: 2}, 5, 3)
		if err != nil {
			panic(err)
		}
		for _, c := range cases {
			benchCorpus = append(benchCorpus, c.Doc)
		}
	})
	return benchCorpus
}

func reportDocsPerSec(b *testing.B, docs int) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(docs*b.N)/s, "docs/s")
	}
}

// BenchmarkIngestUnbatched is the naive ingest path: one commit — one
// record, one fsync — per document.
func BenchmarkIngestUnbatched(b *testing.B) {
	docs := corpus(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := diskstore.Open(b.TempDir(), diskstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, d := range docs {
			if err := commitPuts(ctx, st, d); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
	reportDocsPerSec(b, len(docs))
}

// BenchmarkIngestBatched is the batched path the ingest CLI uses: the
// same documents grouped into commits of 100, each one fsync. The ratio
// to BenchmarkIngestUnbatched is the point of batching; the tracked
// per-document commit cost is diskstore.commit_us_per_doc from
// `bash bench/run.sh --trace 1`.
func BenchmarkIngestBatched(b *testing.B) {
	docs := corpus(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := diskstore.Open(b.TempDir(), diskstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		batch := st.Batch()
		for j, d := range docs {
			if err := batch.Put(d); err != nil {
				b.Fatal(err)
			}
			if (j+1)%100 == 0 {
				if err := batch.Commit(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := batch.Commit(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
	reportDocsPerSec(b, len(docs))
}

// BenchmarkOpenReindex measures the cold-open cost: replaying every
// segment record to rebuild the in-memory index.
func BenchmarkOpenReindex(b *testing.B) {
	dir := b.TempDir()
	st, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	batch := st.Batch()
	for _, d := range corpus(b) {
		if err := batch.Put(d); err != nil {
			b.Fatal(err)
		}
	}
	if err := batch.Commit(context.Background()); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := diskstore.Open(dir, diskstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != benchDocs {
			b.Fatalf("reindexed %d docs, want %d", st.Len(), benchDocs)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
	reportDocsPerSec(b, benchDocs)
}

// scanAll drains a full Scan, decoding every document.
func scanAll(b *testing.B, st *diskstore.Store) {
	b.Helper()
	n := 0
	if err := st.Scan(context.Background(), func(*staccato.Doc) error {
		n++
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if n != benchDocs {
		b.Fatalf("scanned %d docs, want %d", n, benchDocs)
	}
}

// BenchmarkScanDisk measures full-corpus scan throughput off disk — the
// engine's read path over a persisted store.
func BenchmarkScanDisk(b *testing.B) {
	benchScan(b, openT(b, b.TempDir(), diskstore.Options{}))
}

// BenchmarkScanMem is the same scan over OpenMem's in-memory file system
// — the baseline the disk path is compared against.
func BenchmarkScanMem(b *testing.B) {
	benchScan(b, openMemT(b, diskstore.Options{}))
}

// benchScan loads the corpus into st in one batch and times full scans.
func benchScan(b *testing.B, st *diskstore.Store) {
	batch := st.Batch()
	for _, d := range corpus(b) {
		if err := batch.Put(d); err != nil {
			b.Fatal(err)
		}
	}
	if err := batch.Commit(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll(b, st)
	}
	reportDocsPerSec(b, benchDocs)
}

const compactDocs = 3000

var (
	compactCorpusOnce sync.Once
	compactCorpus     []*staccato.Doc
)

// BenchmarkCompact times Compact over compactDocs error-model documents
// at dial (6,3), a third of them overwritten once: it reads every live
// record through the store's one reader, checks its frame, and copies it
// into fresh segments, skipping the dead quarter of the records. Each
// iteration compacts a freshly written store.
func BenchmarkCompact(b *testing.B) {
	compactCorpusOnce.Do(func() {
		cases, err := testgen.ErrDocs(compactDocs, testgen.ErrModelConfig{VocabSize: 2000, Seed: 1}, 6, 3)
		if err != nil {
			panic(err)
		}
		for _, c := range cases {
			compactCorpus = append(compactCorpus, c.Doc)
		}
	})
	ctx := context.Background()
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, strconv.Itoa(i))
		st, err := diskstore.Open(dir, diskstore.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		batch := st.Batch() // Commit returns any error a Put latched
		for _, d := range compactCorpus {
			batch.Put(d)
		}
		for j := 0; j < compactDocs; j += 3 {
			batch.Put(compactCorpus[j])
		}
		if err := batch.Commit(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := st.Compact(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	reportDocsPerSec(b, compactDocs)
}

// TestBatchedIngestFasterThanUnbatched is a coarse, generously-margined
// check that the batched write path actually avoids per-document fsyncs;
// the precise ratio is tracked by the benchmarks above.
func TestBatchedIngestFasterThanUnbatched(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	docs := make([]*staccato.Doc, 0, 50)
	cases, err := testgen.Docs(50, testgen.Config{Length: 30, Seed: 8}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		docs = append(docs, c.Doc)
	}
	ctx := context.Background()

	time1 := timeIngest(t, docs, func(st *diskstore.Store) error {
		for _, d := range docs {
			if err := commitPuts(ctx, st, d); err != nil {
				return err
			}
		}
		return nil
	})
	time2 := timeIngest(t, docs, func(st *diskstore.Store) error {
		b := st.Batch()
		for _, d := range docs {
			if err := b.Put(d); err != nil {
				return err
			}
		}
		return b.Commit(ctx)
	})
	if time2 >= time1 {
		t.Errorf("batched ingest (%v) not faster than unbatched (%v)", time2, time1)
	} else {
		t.Logf("unbatched %v, batched %v (%.1fx)", time1, time2, float64(time1)/float64(time2))
	}
}

func timeIngest(t *testing.T, docs []*staccato.Doc, run func(*diskstore.Store) error) time.Duration {
	t.Helper()
	best := time.Duration(1 << 62)
	for trial := 0; trial < 3; trial++ {
		st, err := diskstore.Open(t.TempDir(), diskstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := run(st); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		st.Close()
		if elapsed < best {
			best = elapsed
		}
	}
	return best
}
