// Command staccatod is the staccato network service: a long-running
// HTTP/JSON server over a staccatodb database directory, built for
// sustained concurrent traffic where the staccato CLI is built for
// one-shot runs. The two binaries share the database format and the
// stats JSON shape: build a corpus with `staccato ingest -store DIR`,
// serve it with `staccatod -store DIR`, and keep using `staccato
// search -store DIR` against the same directory between runs.
//
//	staccatod -store DIR [-addr :8417] [-create] [-workers N]
//	          [-maxinflight N] [-timeout D] [-drain D] [-nosync]
//	          [-noindex] [-lexicon FILE]
//
// Endpoints (all JSON; see pkg/server for the request shapes):
//
//	POST   /v1/ingest     batched document writes
//	POST   /v1/search     ranked probabilistic search (terms, mode,
//	                      distance, lexicon, combine, not, min_prob,
//	                      top, timeout_ms)
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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/server"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// serveConfig carries everything the server needs, so tests can drive
// runServe without a command line or signals.
type serveConfig struct {
	addr         string
	store        string
	create       bool
	workers      int
	maxInFlight  int
	timeout      time.Duration
	drainTimeout time.Duration
	noSync       bool
	noIndex      bool
	lexicon      string

	// ready, when non-nil, receives the bound listen address once the
	// server is accepting connections — the test seam for -addr :0.
	ready func(addr string)
}

// errFlagParse marks a command line the FlagSet already reported on
// stderr; main must not print it a second time.
var errFlagParse = errors.New("invalid command line")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := serveMain(ctx, os.Stdout, os.Args[1:])
	if errors.Is(err, errFlagParse) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "staccatod:", err)
		os.Exit(1)
	}
}

func serveMain(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("staccatod", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: staccatod -store DIR [flags]\n  serve a staccato database over HTTP/JSON (build one with: staccato ingest -store DIR)\n")
		fs.PrintDefaults()
	}
	cfg := serveConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8417", "listen address")
	fs.StringVar(&cfg.store, "store", "", "directory of the database to serve (required)")
	fs.BoolVar(&cfg.create, "create", false, "initialize an empty database if none exists at -store")
	fs.IntVar(&cfg.workers, "workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.maxInFlight, "maxinflight", server.DefaultMaxInFlight, "max concurrent requests before 429 rejection")
	fs.DurationVar(&cfg.timeout, "timeout", server.DefaultRequestTimeout, "per-request deadline")
	fs.DurationVar(&cfg.drainTimeout, "drain", 30*time.Second, "shutdown drain limit for in-flight requests")
	fs.BoolVar(&cfg.noSync, "nosync", false, "skip fsync on commit (faster writes; an OS crash may lose recent batches)")
	fs.BoolVar(&cfg.noIndex, "noindex", false, "serve without the inverted index (every query scans)")
	fs.StringVar(&cfg.lexicon, "lexicon", "", "wordlist file enabling lexicon rescoring for requests with \"lexicon\": true")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (staccatod takes only flags)", fs.Arg(0))
	}
	return runServe(ctx, w, cfg)
}

// openServeDB validates cfg's store selection — with the same message
// shape as the staccato CLI's ingest/search validation — and opens it.
func openServeDB(cfg serveConfig) (*staccatodb.DB, error) {
	if cfg.store == "" {
		return nil, fmt.Errorf("-store DIR is required")
	}
	if !cfg.create {
		// Open would initialize a fresh store on any path; a typo'd -store
		// must be an error, not an empty corpus plus junk files on disk.
		if _, err := os.Stat(filepath.Join(cfg.store, "MANIFEST")); err != nil {
			return nil, fmt.Errorf("no store at %s (%w); run staccato ingest -store first, or pass -create to initialize an empty database", cfg.store, err)
		}
	}
	var opts []staccatodb.Option
	if cfg.workers != 0 {
		opts = append(opts, staccatodb.WithWorkers(cfg.workers))
	}
	if cfg.noSync {
		opts = append(opts, staccatodb.WithNoSync())
	}
	if cfg.noIndex {
		opts = append(opts, staccatodb.WithoutIndex())
	}
	return staccatodb.Open(cfg.store, opts...)
}

// runServe opens the database, serves it until ctx is canceled, then
// drains in-flight requests and closes the database. The request
// lifecycle invariant lives in pkg/server; this function only wires the
// listener and the signal-driven shutdown around it.
func runServe(ctx context.Context, w io.Writer, cfg serveConfig) error {
	if cfg.drainTimeout <= 0 {
		cfg.drainTimeout = 30 * time.Second
	}
	var lex *fuzzy.Lexicon
	if cfg.lexicon != "" {
		f, err := os.Open(cfg.lexicon)
		if err != nil {
			return fmt.Errorf("-lexicon: %w", err)
		}
		lex, err = fuzzy.ReadLexicon(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-lexicon %s: %w", cfg.lexicon, err)
		}
	}
	db, err := openServeDB(cfg)
	if err != nil {
		return err
	}
	// server.New resolves its own zero options, so the startup banner
	// reads them back from one place rather than re-deriving defaults.
	srv := server.New(db, server.Options{
		MaxInFlight:    cfg.maxInFlight,
		RequestTimeout: cfg.timeout,
		Lexicon:        lex,
	})
	shutdown := func() error {
		sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		return srv.Shutdown(sctx)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		shutdown()
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	st := db.Stats()
	resolved := srv.Options()
	fmt.Fprintf(w, "staccatod: serving %s (%d docs, index enabled=%v persisted=%v) on http://%s\n",
		cfg.store, st.Docs, st.IndexEnabled, st.IndexPersisted, ln.Addr())
	fmt.Fprintf(w, "staccatod: max in-flight %d, request timeout %v\n",
		resolved.MaxInFlight, resolved.RequestTimeout)
	if lex != nil {
		fmt.Fprintf(w, "staccatod: lexicon rescoring available (%d words, boost %g)\n",
			lex.Len(), fuzzy.DefaultBoost)
	}
	if cfg.ready != nil {
		cfg.ready(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		// Serve only returns on listener failure; still drain and close.
		shutdown()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(w, "staccatod: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintf(w, "staccatod: connection drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(w, "staccatod: stopped cleanly")
	return nil
}
