// Command staccato is the command-line front end of the Staccato
// pipeline and its database. It has five subcommands:
//
//	staccato demo [flags]            single-document walkthrough (default)
//	staccato ingest -store DIR       persist a synthetic corpus into a database
//	staccato search [flags] TERM...  planner-pruned corpus search
//	staccato index -store DIR        (re)build a database's inverted index
//	staccato serve -store DIR        serve a database over HTTP/JSON
//
// demo generates one synthetic OCR transducer, builds approximated
// documents at a chosen dial setting, persists them through an in-memory
// database, and runs probabilistic queries — showing recall beyond the MAP
// string, the paper's headline result:
//
//	staccato demo [-seed N] [-len N] [-chunks N] [-k N] [-term STRING] [-v]
//
// With no -term, the demo searches for a ground-truth substring that the
// MAP string lost and reports the probability Staccato recovers for it.
//
// ingest streams a synthetic corpus into a durable staccatodb database,
// batching many documents per fsync and maintaining the inverted index
// alongside every commit (unless -noindex):
//
//	staccato ingest -store DIR [-docs N] [-len N] [-seed N] [-chunks N]
//	                [-k N] [-batch N] [-compact] [-nosync] [-noindex]
//
// search runs one compiled boolean query against a corpus through the
// pruning planner and the worker-pool engine, printing the ranked
// matches; -fuzzy D matches terms up to edit distance D (1 or 2) via
// Levenshtein-automaton leaves; -lexicon re-weights each document's
// readings toward dictionary words before ranking; -snippets N
// additionally prints each match's top N readings that contain the
// query terms, with per-reading probabilities and term positions
// (-context R adds R runes of surrounding text per match); -v also
// prints the pruning plan and how many documents the index let the
// engine skip. The corpus is either synthetic and in-memory (-docs) or
// a directory previously written by ingest (-store); exactly one must
// be given:
//
//	staccato search {-docs N | -store DIR} [-workers N] [-top N]
//	                [-minprob P] [-mode substring|keyword] [-fuzzy D]
//	                [-lexicon FILE|vocab:N] [-snippets N] [-context R]
//	                [-combine and|or] [-not TERM] [-noindex] [-v] TERM...
//
// index brings the inverted index of an existing database directory up
// to date, rebuilding from a full scan when it is missing, damaged, or
// stale — the recovery tool for stores ingested with -noindex:
//
//	staccato index -store DIR
//
// serve is the long-running network service over the same database
// directory, built for sustained concurrent traffic where the other
// subcommands are one-shot runs; the directory stays usable by search
// and index between runs:
//
//	staccato serve -store DIR [-addr :8417] [-create] [-workers N]
//	               [-maxinflight N] [-timeout D] [-drain D] [-nosync]
//	               [-noindex] [-lexicon FILE|vocab:N]
//
// Its endpoints (all JSON; see pkg/server for the request shapes):
//
//	POST   /v1/ingest     batched document writes
//	POST   /v1/search     ranked probabilistic search (terms, mode,
//	                      distance, lexicon, combine, not, min_prob,
//	                      top, timeout_ms)
//	POST   /v1/snippets   search plus each match's top readings
//	POST   /v1/explain    plan + executed SearchStats for a query
//	GET    /v1/docs/{id}  point read
//	DELETE /v1/docs/{id}  delete
//	GET    /v1/stats      database + service counters
//	GET    /healthz       liveness (503 while draining)
//	GET    /debug/vars    expvar metrics
//
// The server bounds in-flight requests (-maxinflight; excess load is
// rejected with 429 + Retry-After), runs every request under a deadline
// (-timeout), caches compiled queries, and on SIGINT or SIGTERM drains
// in-flight requests (up to -drain) before closing the database.
//
// A command line the flags reject exits with status 2, any other error
// with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

type config struct {
	seed    int64
	length  int
	chunks  int
	k       int
	term    string
	termLen int
	verbose bool
}

// report captures the demo's outcome for both printing and testing.
type report struct {
	truth     string
	mapString string
	term      string
	probMAP   float64
	probStac  float64
	probExact float64
}

// errFlagParse marks a command line the FlagSet already reported (with
// usage) on stderr; main must not print it a second time.
var errFlagParse = errors.New("invalid command line")

// newFlagSet builds a subcommand FlagSet whose -h/usage output follows
// one shape for every subcommand: a usage line, a one-sentence synopsis,
// then the flag table.
func newFlagSet(name, usage, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: staccato %s\n  %s\n", usage, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parseFlags parses a subcommand's command line. stop reports that the
// subcommand must return err without running: after -h (err is nil),
// after an error the FlagSet has already reported (errFlagParse), or on a
// positional argument when takesArgs is false — which also catches a
// mistyped subcommand before it silently runs the default demo.
func parseFlags(fs *flag.FlagSet, args []string, takesArgs bool) (stop bool, err error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return true, nil
		}
		return true, errFlagParse
	}
	if !takesArgs && fs.NArg() > 0 {
		return true, fmt.Errorf("%s: unexpected argument %q (%s takes only flags; the subcommands are demo, ingest, search, index, and serve)",
			fs.Name(), fs.Arg(0), fs.Name())
	}
	return false, nil
}

func main() {
	args := os.Args[1:]
	sub := ""
	if len(args) > 0 {
		sub = args[0]
	}
	var err error
	switch sub {
	case "search":
		err = searchMain(os.Stdout, args[1:])
	case "ingest":
		err = ingestMain(os.Stdout, args[1:])
	case "index":
		err = indexMain(os.Stdout, args[1:])
	case "serve":
		// Only serve runs until told to stop: SIGINT or SIGTERM starts
		// its drain. The one-shot subcommands keep the default handling.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = serveMain(ctx, os.Stdout, args[1:])
		stop()
	case "demo":
		err = demoMain(os.Stdout, args[1:])
	default:
		// No subcommand: keep the historical behavior of running the demo.
		err = demoMain(os.Stdout, args)
	}
	if errors.Is(err, errFlagParse) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "staccato:", err)
		os.Exit(1)
	}
}

func demoMain(w io.Writer, args []string) error {
	fs := newFlagSet("demo", "[demo] [flags]",
		"single-document walkthrough: build, approximate, store, and query one synthetic OCR document\n"+
			"  (other subcommands: ingest, search, index, and serve, which serves a database over HTTP)")
	cfg := config{}
	fs.Int64Var(&cfg.seed, "seed", 42, "PRNG seed for the synthetic document")
	fs.IntVar(&cfg.length, "len", 200, "ground truth length in characters")
	fs.IntVar(&cfg.chunks, "chunks", 10, "number of chunks (the Staccato dial's first knob)")
	fs.IntVar(&cfg.k, "k", 4, "paths kept per chunk (the dial's second knob)")
	fs.StringVar(&cfg.term, "term", "", "query term (default: search for a term MAP lost)")
	fs.IntVar(&cfg.termLen, "termlen", 4, "length of auto-searched terms")
	fs.BoolVar(&cfg.verbose, "v", false, "print the full truth and MAP strings")
	if stop, err := parseFlags(fs, args, false); stop {
		return err
	}
	_, err := run(w, cfg)
	return err
}

func run(w io.Writer, cfg config) (report, error) {
	var rep report
	ctx := context.Background()

	// Ingest: synthesize the OCR transducer.
	truth, f, err := testgen.Generate(testgen.Config{Length: cfg.length, Seed: cfg.seed})
	if err != nil {
		return rep, err
	}
	rep.truth = truth
	vit := f.Viterbi()
	rep.mapString = vit.Output

	fmt.Fprintf(w, "ingested SFST: %d states, %d arcs, ~%.3g distinct readings\n",
		f.NumStates(), f.NumArcs(), f.NumPaths())
	// Edit distance, not a positional comparison, which would overstate
	// the divergence whenever a deletion or split shifts the rest.
	fmt.Fprintf(w, "MAP string prob: %.3g, edit distance to truth: %d of %d chars\n",
		vit.Prob, fuzzy.EditDistance([]rune(truth), []rune(vit.Output)), len(truth))

	// Approximate: one doc at the requested dial, one at the MAP extreme.
	doc, err := staccato.Build(f, "doc-0001", cfg.chunks, cfg.k)
	if err != nil {
		return rep, err
	}
	mapDoc, err := staccato.Build(f, "doc-0001.map", staccato.MaxChunks, 1)
	if err != nil {
		return rep, err
	}

	// Persist and read back through the database — over an in-memory file
	// system, so the demo exercises the store's framing and commit a disk
	// corpus uses without touching disk. One document needs no index.
	db, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		return rep, err
	}
	defer db.Close()
	if err := db.Ingest(ctx, []*staccato.Doc{doc, mapDoc}); err != nil {
		return rep, err
	}
	if doc, err = db.Get(ctx, "doc-0001"); err != nil {
		return rep, err
	}
	if mapDoc, err = db.Get(ctx, "doc-0001.map"); err != nil {
		return rep, err
	}
	fmt.Fprintf(w, "staccato doc: chunks=%d k=%d, retained mass per chunk min=%.3f\n",
		doc.Params.Chunks, doc.Params.K, minRetained(doc))

	// Query: either the user's term, or hunt for ground truth that the
	// MAP string lost but Staccato still finds.
	term := cfg.term
	if term == "" {
		for n := cfg.termLen; n >= 2 && term == ""; n-- {
			term = findLostTerm(truth, rep.mapString, doc, n)
		}
		if term == "" {
			return rep, fmt.Errorf("no ground-truth n-gram was lost by MAP yet recovered by Staccato; try another seed or a higher -k")
		}
	}
	rep.term = term

	// One compiled query serves every evaluation of the term. probMAP
	// comes from the stored MAP-extreme doc: a degenerate distribution,
	// so the probability is exactly 0 or 1.
	tq, err := query.Substring(term)
	if err != nil {
		return rep, err
	}
	rep.probMAP = tq.Eval(mapDoc)
	rep.probStac = tq.Eval(doc)
	if rep.probExact, err = tq.EvalFST(f); err != nil {
		return rep, err
	}

	if cfg.verbose {
		fmt.Fprintf(w, "truth: %s\n", truth)
		fmt.Fprintf(w, "MAP:   %s\n", rep.mapString)
	}
	fmt.Fprintf(w, "query %q (in truth: %v)\n", term, strings.Contains(truth, term))
	fmt.Fprintf(w, "  P[match | MAP string]   = %.4f\n", rep.probMAP)
	fmt.Fprintf(w, "  P[match | staccato doc] = %.4f\n", rep.probStac)
	fmt.Fprintf(w, "  P[match | full SFST]    = %.4f\n", rep.probExact)
	//lint:allow floateq exact zero is the "MAP string has no match at all" display condition for the demo; near-zero MAP probability is a different (and interesting) outcome
	if rep.probMAP == 0 && rep.probStac > 0 {
		fmt.Fprintf(w, "staccato recovered a reading the MAP string lost\n")
	}
	return rep, nil
}

// findLostTerm scans the ground-truth n-grams absent from the MAP string
// and returns the one Staccato assigns the highest probability, or "" if
// none has positive probability.
func findLostTerm(truth, mapStr string, doc *staccato.Doc, n int) string {
	seen := map[string]bool{}
	best, bestProb := "", 0.0
	for i := 0; i+n <= len(truth); i++ {
		t := truth[i : i+n]
		if seen[t] || strings.Contains(mapStr, t) {
			continue
		}
		seen[t] = true
		q, err := query.Substring(t)
		if err != nil {
			continue
		}
		if p := q.Eval(doc); p > bestProb {
			best, bestProb = t, p
		}
	}
	return best
}

func minRetained(d *staccato.Doc) float64 {
	m := 1.0
	for _, c := range d.Chunks {
		m = min(m, c.Retained)
	}
	return m
}
