package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// ingestConfig carries everything the ingest subcommand needs, so tests
// can drive runIngest without a command line.
type ingestConfig struct {
	store   string
	docs    int
	length  int
	seed    int64
	chunks  int
	k       int
	batch   int
	compact bool
	noSync  bool
	noIndex bool
	verbose bool
}

// ingestReport captures the deterministic part of an ingest run.
type ingestReport struct {
	ingested int
	stats    staccatodb.Stats
}

func ingestMain(w io.Writer, args []string) error {
	fs := newFlagSet("ingest", "ingest -store DIR [flags]",
		"generate a synthetic OCR corpus and persist it into a staccato database")
	cfg := ingestConfig{}
	fs.StringVar(&cfg.store, "store", "", "directory of the database to ingest into (required)")
	fs.IntVar(&cfg.docs, "docs", 1000, "number of synthetic documents to ingest")
	fs.IntVar(&cfg.length, "len", 60, "ground truth length of each document")
	fs.Int64Var(&cfg.seed, "seed", 1, "PRNG seed for the corpus")
	fs.IntVar(&cfg.chunks, "chunks", 6, "chunks per document (the dial's first knob)")
	fs.IntVar(&cfg.k, "k", 3, "paths kept per chunk (the dial's second knob)")
	fs.IntVar(&cfg.batch, "batch", 256, "documents committed (and fsynced) per write batch")
	fs.BoolVar(&cfg.compact, "compact", false, "compact the store after ingesting")
	fs.BoolVar(&cfg.noSync, "nosync", false, "skip fsync on commit (faster; an OS crash may lose recent batches)")
	fs.BoolVar(&cfg.noIndex, "noindex", false, "do not build or maintain the inverted index (searches will scan; build later with staccato index)")
	fs.BoolVar(&cfg.verbose, "v", false, "also print the database stats as one JSON line (the /v1/stats \"db\" shape)")
	if stop, err := parseFlags(fs, args, false); stop {
		return err
	}
	_, err := runIngest(w, cfg)
	return err
}

// runIngest streams the synthetic corpus into the database, committing
// one batch — one fsync, one index log record — per cfg.batch documents.
func runIngest(w io.Writer, cfg ingestConfig) (ingestReport, error) {
	var rep ingestReport
	if cfg.docs < 1 {
		return rep, fmt.Errorf("ingest: -docs must be >= 1, got %d", cfg.docs)
	}
	if cfg.batch < 1 {
		return rep, fmt.Errorf("ingest: -batch must be >= 1, got %d", cfg.batch)
	}
	ctx := context.Background()

	db, err := openStore("ingest", cfg.store, true, dbOptions(0, cfg.noSync, cfg.noIndex)...)
	if err != nil {
		return rep, err
	}
	defer db.Close()

	start := time.Now()
	rep.ingested, err = ingestStream(ctx, db, cfg.docs,
		testgen.Config{Length: cfg.length, Seed: cfg.seed}, cfg.chunks, cfg.k, cfg.batch)
	if err != nil {
		return rep, err
	}
	elapsed := time.Since(start)

	if cfg.compact {
		compactStart := time.Now()
		if err := db.Compact(ctx); err != nil {
			return rep, err
		}
		fmt.Fprintf(w, "compacted in %v\n", time.Since(compactStart).Round(time.Millisecond))
	}
	rep.stats = db.Stats()
	fmt.Fprintf(w, "ingested %d docs (len=%d chunks=%d k=%d batch=%d) into %s in %v",
		rep.ingested, cfg.length, cfg.chunks, cfg.k, cfg.batch, cfg.store, elapsed.Round(time.Millisecond))
	if elapsed > 0 {
		fmt.Fprintf(w, " (%.0f docs/s)", float64(rep.ingested)/elapsed.Seconds())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "store: %d live docs, %d segments, %.1f KiB on disk\n",
		rep.stats.Docs, rep.stats.Segments, float64(rep.stats.DiskBytes)/1024)
	if rep.stats.IndexEnabled {
		fmt.Fprintf(w, "index: %d docs, %d distinct grams\n", rep.stats.IndexDocs, rep.stats.IndexGrams)
	} else {
		fmt.Fprintln(w, "index: disabled (-noindex); build one with: staccato index -store", cfg.store)
	}
	if cfg.verbose {
		if err := printStatsJSON(w, rep.stats); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
