package staccatodb

// config collects everything the Option functions can set.
type config struct {
	workers         int
	noIndex         bool
	noSync          bool
	maxSegmentBytes int64 // diskstore.Options.MaxSegmentBytes; set only by tests
}

// Option configures Open and OpenMem.
type Option func(*config)

// WithWorkers sets the engine's worker pool size; zero or negative
// selects GOMAXPROCS. It also bounds the write fan-out: a write or an index
// rebuild extracts its documents' grams on up to this many goroutines
// (index.Index.BatchOf), and small writes on none but the caller's.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
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
