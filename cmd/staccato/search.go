package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// searchConfig carries everything the search subcommand needs, so tests
// can drive runSearch without a command line. Exactly one of docs
// (synthetic in-memory corpus) and store (persisted database directory)
// selects where the documents come from.
type searchConfig struct {
	docs     int
	store    string
	length   int
	seed     int64
	chunks   int
	k        int
	workers  int
	top      int
	minProb  float64
	mode     string
	fuzzy    int
	lexicon  string
	combine  string
	not      string
	noIndex  bool
	verbose  bool
	snippets int
	context  int
	terms    []string
}

// searchReport captures the deterministic part of a search run.
type searchReport struct {
	query        string
	scanned      int
	pruned       int
	mode         query.ExecMode
	fetched      int
	skipped      int
	earlyStopped bool
	results      []query.Result
	snips        []query.DocSnippets
}

func searchMain(w io.Writer, args []string) error {
	fs := newFlagSet("search", "search [flags] TERM...",
		"run one probabilistic boolean query over a corpus (synthetic via -docs, or persisted via -store)")
	cfg := searchConfig{}
	fs.IntVar(&cfg.docs, "docs", 0, "query a synthetic in-memory corpus of this many documents")
	fs.StringVar(&cfg.store, "store", "", "query the database previously built by staccato ingest")
	fs.IntVar(&cfg.length, "len", 60, "ground truth length of each document")
	fs.Int64Var(&cfg.seed, "seed", 1, "PRNG seed for the corpus")
	fs.IntVar(&cfg.chunks, "chunks", 6, "chunks per document (the dial's first knob)")
	fs.IntVar(&cfg.k, "k", 3, "paths kept per chunk (the dial's second knob)")
	fs.IntVar(&cfg.workers, "workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.top, "top", 10, "keep only the N best-ranked documents (0 = all)")
	fs.Float64Var(&cfg.minProb, "minprob", 0, "drop documents below this probability")
	fs.StringVar(&cfg.mode, "mode", "substring", "term mode: substring or keyword")
	fs.IntVar(&cfg.fuzzy, "fuzzy", 0, "match terms within this edit distance (1 or 2; 0 = exact)")
	fs.StringVar(&cfg.lexicon, "lexicon", "", "re-weight readings toward dictionary words: a wordlist file, or vocab:N for the built-in synthetic vocabulary")
	fs.StringVar(&cfg.combine, "combine", "and", "combine multiple terms with: and or or")
	fs.StringVar(&cfg.not, "not", "", "additionally require this term to be absent")
	fs.BoolVar(&cfg.noIndex, "noindex", false, "skip the inverted index and scan every document")
	fs.IntVar(&cfg.snippets, "snippets", 0, "print up to N top matching readings per result, with term positions")
	fs.IntVar(&cfg.context, "context", 0, "with -snippets, include N runes of surrounding text around each match")
	fs.BoolVar(&cfg.verbose, "v", false, "print the pruning plan and per-run planner stats")
	if stop, err := parseFlags(fs, args, true); stop {
		return err
	}
	cfg.terms = fs.Args()
	// flag.Parse stops at the first positional, so a flag placed after a
	// term would silently become a query term; reject the obvious case.
	for _, term := range cfg.terms {
		if strings.HasPrefix(term, "-") {
			return fmt.Errorf("search: term %q looks like a flag; place flags before the first term", term)
		}
	}
	// The corpus-shape flags only parameterize the synthetic -docs corpus;
	// with -store they would be silently ignored, so reject them loudly.
	if cfg.store != "" {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "len", "seed", "chunks", "k":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("search: %s: this flag shapes only the synthetic -docs corpus; a -store corpus is already built (re-run ingest to change it)",
				strings.Join(stray, " "))
		}
	}
	_, err := runSearch(w, cfg)
	return err
}

// buildQuery compiles the CLI's term list into one boolean Query: the
// flag-level checks here, the rest through the query.Spec the server
// compiles too.
func buildQuery(cfg searchConfig) (*query.Query, error) {
	if cfg.fuzzy < 0 {
		return nil, fmt.Errorf("search: -fuzzy %d: edit distance cannot be negative", cfg.fuzzy)
	}
	if cfg.fuzzy > 0 && cfg.mode != "substring" {
		return nil, fmt.Errorf("search: -fuzzy replaces the term mode; drop -mode %s", cfg.mode)
	}
	spec := query.Spec{Terms: cfg.terms, Mode: cfg.mode, Combine: cfg.combine, Not: cfg.not}
	if cfg.fuzzy > 0 {
		spec.Mode, spec.Distance = "fuzzy", cfg.fuzzy
	}
	q, err := spec.Compile()
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	return q, nil
}

// loadLexicon resolves the -lexicon flag of search and serve into a
// rescoring dictionary: either a newline-separated wordlist file, or
// "vocab:N" for the first N words of the built-in synthetic error-model
// vocabulary — the exact dictionary a -docs corpus was generated from.
func loadLexicon(spec string) (*fuzzy.Lexicon, error) {
	if n, ok := strings.CutPrefix(spec, "vocab:"); ok {
		size, err := strconv.Atoi(n)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("-lexicon vocab:N needs a positive word count, got %q", n)
		}
		return fuzzy.NewLexicon(testgen.Vocab(size)), nil
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, fmt.Errorf("-lexicon: %w", err)
	}
	defer f.Close()
	lex, err := fuzzy.ReadLexicon(f)
	if err != nil {
		return nil, fmt.Errorf("-lexicon %s: %w", spec, err)
	}
	return lex, nil
}

// openCorpus resolves cfg's corpus source into a staccatodb.DB: a
// synthetic in-memory database built on the fly (-docs) or a persisted
// one (-store). It returns the database and its document count.
func openCorpus(w io.Writer, ctx context.Context, cfg searchConfig) (*staccatodb.DB, int, error) {
	opts := dbOptions(cfg.workers, false, cfg.noIndex)
	switch {
	case cfg.docs > 0 && cfg.store != "":
		return nil, 0, fmt.Errorf("search: -docs and -store are mutually exclusive; pick one corpus source")
	case cfg.docs <= 0 && cfg.store == "":
		return nil, 0, fmt.Errorf("search: no corpus given; use -docs N for a synthetic corpus or -store DIR for an ingested one")
	case cfg.store != "":
		openStart := time.Now()
		db, err := openStore("search", cfg.store, false, opts...)
		if err != nil {
			return nil, 0, err
		}
		stats := db.Stats()
		fmt.Fprintf(w, "corpus: %d docs from %s (%d segments, %.1f KiB) opened in %v\n",
			stats.Docs, cfg.store, stats.Segments, float64(stats.DiskBytes)/1024,
			time.Since(openStart).Round(time.Millisecond))
		return db, stats.Docs, nil
	default:
		ingestStart := time.Now()
		db, err := staccatodb.OpenMem(opts...)
		if err != nil {
			return nil, 0, err
		}
		// Ingest in bounded batches so a huge -docs corpus never holds
		// every document live at once on top of the store's copies.
		const memBatch = 256
		_, err = ingestStream(ctx, db, cfg.docs,
			testgen.Config{Length: cfg.length, Seed: cfg.seed}, cfg.chunks, cfg.k, memBatch)
		if err != nil {
			db.Close()
			return nil, 0, err
		}
		n := db.Stats().Docs
		fmt.Fprintf(w, "corpus: %d docs (len=%d chunks=%d k=%d) ingested in %v\n",
			n, cfg.length, cfg.chunks, cfg.k, time.Since(ingestStart).Round(time.Millisecond))
		return db, n, nil
	}
}

// runSearch opens the corpus, runs one compiled query through the planner
// and the parallel engine, and prints the ranked matches.
func runSearch(w io.Writer, cfg searchConfig) (searchReport, error) {
	var rep searchReport
	q, err := buildQuery(cfg)
	if err != nil {
		return rep, err
	}
	rep.query = q.String()
	sopts := query.SearchOptions{MinProb: cfg.minProb, TopN: cfg.top}
	if err := sopts.Validate(); err != nil {
		return rep, fmt.Errorf("search: %w", err)
	}
	if cfg.snippets < 0 {
		return rep, fmt.Errorf("search: -snippets %d: the reading count cannot be negative", cfg.snippets)
	}
	ctx := context.Background()

	db, docCount, err := openCorpus(w, ctx, cfg)
	if err != nil {
		return rep, err
	}
	defer db.Close()
	rep.scanned = docCount
	fmt.Fprintf(w, "query: %s\n", rep.query)
	if cfg.verbose {
		if err := printStatsJSON(w, db.Stats()); err != nil {
			return rep, err
		}
		fmt.Fprintln(w, db.Explain(q))
	}

	searchStart := time.Now()
	if cfg.lexicon != "" {
		lex, err := loadLexicon(cfg.lexicon)
		if err != nil {
			return rep, fmt.Errorf("search: %w", err)
		}
		sopts.Rescore = lex.Rescorer()
		if cfg.verbose {
			fmt.Fprintf(w, "lexicon: %d words, boost=%g\n", lex.Len(), fuzzy.DefaultBoost)
		}
	}
	var results []query.Result
	var stats query.SearchStats
	if cfg.snippets > 0 {
		// Snippets ride on the same Search; each DocSnippets carries the
		// Result's DocID and probability, so the ranked list is recovered
		// without a second pass.
		rep.snips, stats, err = db.Snippets(ctx, q, sopts,
			query.SnippetOptions{MaxReadings: cfg.snippets, ContextRunes: cfg.context})
		if err != nil {
			return rep, err
		}
		results = make([]query.Result, len(rep.snips))
		for i, sn := range rep.snips {
			results[i] = query.Result{DocID: sn.DocID, Prob: sn.Prob}
		}
	} else {
		results, stats, err = db.Search(ctx, q, sopts)
		if err != nil {
			return rep, err
		}
	}
	rep.results = results
	rep.pruned = stats.DocsPruned
	rep.mode = stats.Mode
	rep.fetched = stats.CandidatesFetched
	rep.skipped = stats.BoundsSkipped
	rep.earlyStopped = stats.EarlyStopped
	elapsed := time.Since(searchStart)
	fmt.Fprintf(w, "engine: elapsed=%v", elapsed.Round(time.Microsecond))
	if elapsed > 0 {
		fmt.Fprintf(w, " (%.0f docs/s)", float64(rep.scanned)/elapsed.Seconds())
	}
	fmt.Fprintln(w)
	if cfg.verbose {
		fmt.Fprintf(w, "planner: mode=%s, %d evaluated, %d pruned of %d docs (candidates fetched: %d, index used: %v, %d grams)\n",
			stats.Mode, stats.DocsScanned, stats.DocsPruned, stats.DocsTotal,
			stats.CandidatesFetched, stats.IndexUsed, stats.PlanGrams)
		if cfg.top > 0 {
			fmt.Fprintf(w, "top-k: early_stopped=%v, bounds_skipped=%d, candidates_deleted=%d\n",
				stats.EarlyStopped, stats.BoundsSkipped, stats.CandidatesDeleted)
		}
	}

	if len(rep.results) == 0 {
		fmt.Fprintln(w, "no documents matched")
		return rep, nil
	}
	fmt.Fprintf(w, "%4s  %-8s  %s\n", "rank", "prob", "doc")
	for i, r := range rep.results {
		fmt.Fprintf(w, "%4d  %-8.4f  %s\n", i+1, r.Prob, r.DocID)
		if cfg.snippets > 0 {
			printSnippets(w, rep.snips[i])
		}
	}
	return rep, nil
}

// printSnippets renders one document's matching readings under its
// result row: per-reading probability, the reading text, and every term
// occurrence as term@byteStart-byteEnd.
func printSnippets(w io.Writer, sn query.DocSnippets) {
	for _, rd := range sn.Readings {
		fmt.Fprintf(w, "      p=%-8.4f %q", rd.Prob, rd.Text)
		for _, sp := range rd.Spans {
			fmt.Fprintf(w, "  %s@%d-%d", sp.Term, sp.Start, sp.End)
			if sp.Context != "" {
				fmt.Fprintf(w, " (…%s…)", sp.Context)
			}
		}
		fmt.Fprintln(w)
	}
}
