package main

import (
	"fmt"
	"io"
	"time"

	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// indexConfig carries everything the index subcommand needs, so tests can
// drive runIndex without a command line.
type indexConfig struct {
	store   string
	verbose bool
}

// indexReport captures the deterministic part of an index run.
type indexReport struct {
	stats staccatodb.Stats
}

func indexMain(w io.Writer, args []string) error {
	fs := newFlagSet("index", "index -store DIR",
		"(re)build the inverted q-gram index for an existing database directory")
	cfg := indexConfig{}
	fs.StringVar(&cfg.store, "store", "", "directory of the database to index (required)")
	fs.BoolVar(&cfg.verbose, "v", false, "also print the database stats as one JSON line (the /v1/stats \"db\" shape)")
	if stop, err := parseFlags(fs, args, false); stop {
		return err
	}
	_, err := runIndex(w, cfg)
	return err
}

// runIndex opens the database with the index enabled, which is itself
// the rebuild: Open loads a fresh index log, and rebuilds from a full
// scan whenever the log is missing, torn, stale, or at a different gram
// size — exactly the states this subcommand exists to recover from
// (stores ingested with -noindex, damaged index files). No forced
// second rebuild: a fresh index is already the desired end state.
func runIndex(w io.Writer, cfg indexConfig) (indexReport, error) {
	var rep indexReport
	start := time.Now()
	db, err := openStore("index", cfg.store, false)
	if err != nil {
		return rep, err
	}
	defer db.Close()
	rep.stats = db.Stats()
	if !rep.stats.IndexPersisted {
		return rep, fmt.Errorf("index: built for %d docs but could not be persisted to %s (read-only directory or full disk?)",
			rep.stats.IndexDocs, cfg.store)
	}
	fmt.Fprintf(w, "indexed %d docs (%d distinct grams, %d overflow) in %s in %v\n",
		rep.stats.IndexDocs, rep.stats.IndexGrams, rep.stats.IndexOverflowDocs,
		cfg.store, time.Since(start).Round(time.Millisecond))
	if cfg.verbose {
		if err := printStatsJSON(w, rep.stats); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
