package staccatodb

import (
	"fmt"

	"github.com/paper-repo/staccato-go/pkg/index"
)

// config collects everything the Option functions can set. Validation is
// deferred to Open/OpenMem so a bad option surfaces as an error, not a
// panic inside an option constructor.
type config struct {
	workers         int
	gramSize        int
	noIndex         bool
	noSync          bool
	maxSegmentBytes int64
	err             error
}

func defaultConfig() config {
	return config{gramSize: index.DefaultGramSize}
}

func (c config) validated() (config, error) {
	if c.err != nil {
		return c, c.err
	}
	return c, nil
}

// Option configures Open and OpenMem.
type Option func(*config)

// WithWorkers sets the engine's worker pool size; zero or negative
// selects GOMAXPROCS. It also bounds the write fan-out: a write or an index
// rebuild extracts its documents' grams on up to this many goroutines
// (index.BatchOf), and small writes on none but the caller's.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithGramSize sets the inverted index's gram size q. Larger grams prune
// harder but only serve longer terms; the default is
// index.DefaultGramSize. An existing on-disk index built at a different q
// is rebuilt on Open.
func WithGramSize(q int) Option {
	return func(c *config) {
		if q < 1 {
			c.err = fmt.Errorf("staccatodb: gram size must be >= 1, got %d", q)
			return
		}
		c.gramSize = q
	}
}

// WithoutIndex disables the inverted index entirely: no index is loaded,
// built, or maintained, and every query scans the full corpus. Search
// results are byte-identical either way — the index is purely a pruning
// structure.
func WithoutIndex() Option {
	return func(c *config) { c.noIndex = true }
}

// WithNoSync skips the fsync that normally ends every commit, for both
// the store and the index log. Throughput rises sharply; an OS crash may
// lose the most recent commits (the framing keeps both files openable,
// and a lost index tail just forces a rebuild).
func WithNoSync() Option {
	return func(c *config) { c.noSync = true }
}

// WithMaxSegmentBytes sets the store's segment roll size, on disk and in
// memory alike; see diskstore.Options.MaxSegmentBytes.
func WithMaxSegmentBytes(n int64) Option {
	return func(c *config) { c.maxSegmentBytes = n }
}
