package index

import (
	"runtime"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// benchLogs holds the index logs BenchmarkIndexLoad and
// BenchmarkIndexRewrite read: 8,000 error-model documents at the bench's
// dial (6,3), once ingested in 256-document commits as the bench does and
// once as a snapshot; and, as single Puts and Deletes leave it, 4,000
// one-document commits, the first 2,000 adding a document each, the next
// overwriting or deleting one of them in turn. They are built once per
// test binary.
var benchLogs = sync.OnceValues(func() (framelog.FS, error) {
	cases, err := testgen.ErrDocs(8000, testgen.ErrModelConfig{Seed: 1}, 6, 3)
	if err != nil {
		return nil, err
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	fsys := framelog.NewMemFS()
	ix := New(DefaultGramSize)
	if err := ix.Persist(fsys, "log", diskstore.CommitState{}, false); err != nil {
		return nil, err
	}
	defer ix.Close()
	saved := rewriteFloor
	rewriteFloor = 1 << 40 // the log as the bench's bulk load left it before rewrites
	defer func() { rewriteFloor = saved }()
	for from := 0; from < len(docs); from += 256 {
		b := ix.BatchOf(docs[from:min(from+256, len(docs))], 1)
		if err := ix.Commit(b, nil, diskstore.CommitState{Ops: uint64(from + 1)}); err != nil {
			return nil, err
		}
	}
	if err := ix.Persist(fsys, "snapshot", diskstore.CommitState{Ops: 8000}, false); err != nil {
		return nil, err
	}
	small := New(DefaultGramSize)
	if err := small.Persist(fsys, "commits", diskstore.CommitState{}, false); err != nil {
		return nil, err
	}
	defer small.Close()
	for i := range 4000 {
		adds, dels := small.BatchOf(docs[i%2000:i%2000+1], 1), []string(nil)
		if i >= 2000 && i%2 == 1 {
			adds, dels = Invert(nil), []string{docs[i%2000].ID}
		}
		if err := small.Commit(adds, dels, diskstore.CommitState{Ops: uint64(i + 1)}); err != nil {
			return nil, err
		}
	}
	return fsys, nil
})

// BenchmarkIndexLoad times load over the 32-commit log of 8,000
// documents, over their snapshot, and over the log of 4,000 one-document
// commits.
func BenchmarkIndexLoad(b *testing.B) {
	fsys, err := benchLogs()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"log", "snapshot", "commits"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, err := load(fsys, name, DefaultGramSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexRewrite times the rewrite of the index the 32-commit log
// loads to into one base and the log that holds it: one merge and one
// encoding.
func BenchmarkIndexRewrite(b *testing.B) {
	fsys, err := benchLogs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	// A b.N loop, not b.Loop: b.Loop stops once the time since the timer
	// last started reaches -benchtime, and the StartTimer of every
	// iteration resets that, so at the default -benchtime it never stops.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, _, _, err := load(fsys, "log", DefaultGramSize)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC() // the load's garbage is not the rewrite's
		b.StartTimer()
		size = len(ix.rewrite(diskstore.CommitState{Ops: 8000}))
	}
	b.ReportMetric(float64(size), "bytes")
}
