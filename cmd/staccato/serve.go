package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/server"
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

// serveFlags returns serve's FlagSet, writing into cfg.
func serveFlags(cfg *serveConfig) *flag.FlagSet {
	fs := newFlagSet("serve", "serve -store DIR [flags]",
		"serve a staccato database over HTTP/JSON (build one with: staccato ingest -store DIR)")
	fs.StringVar(&cfg.addr, "addr", ":8417", "listen address")
	fs.StringVar(&cfg.store, "store", "", "directory of the database to serve (required)")
	fs.BoolVar(&cfg.create, "create", false, "initialize an empty database if none exists at -store")
	fs.IntVar(&cfg.workers, "workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.maxInFlight, "maxinflight", server.DefaultMaxInFlight, "max concurrent requests before 429 rejection")
	fs.DurationVar(&cfg.timeout, "timeout", server.DefaultRequestTimeout, "per-request deadline")
	fs.DurationVar(&cfg.drainTimeout, "drain", 30*time.Second, "shutdown drain limit for in-flight requests")
	fs.BoolVar(&cfg.noSync, "nosync", false, "skip fsync on commit (faster writes; an OS crash may lose recent batches)")
	fs.BoolVar(&cfg.noIndex, "noindex", false, "serve without the inverted index (every query scans)")
	fs.StringVar(&cfg.lexicon, "lexicon", "", "enable lexicon rescoring for requests with \"lexicon\": true: a wordlist file, or vocab:N for the built-in synthetic vocabulary")
	return fs
}

func serveMain(ctx context.Context, w io.Writer, args []string) error {
	cfg := serveConfig{}
	if stop, err := parseFlags(serveFlags(&cfg), args, false); stop {
		return err
	}
	return runServe(ctx, w, cfg)
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
		var err error
		if lex, err = loadLexicon(cfg.lexicon); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	db, err := openStore("serve", cfg.store, cfg.create, dbOptions(cfg.workers, cfg.noSync, cfg.noIndex)...)
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
		IdleTimeout:       2 * time.Minute,
	}
	st := db.Stats()
	resolved := srv.Options()
	fmt.Fprintf(w, "serve: serving %s (%d docs, index enabled=%v persisted=%v) on http://%s\n",
		cfg.store, st.Docs, st.IndexEnabled, st.IndexPersisted, ln.Addr())
	fmt.Fprintf(w, "serve: max in-flight %d, request timeout %v\n",
		resolved.MaxInFlight, resolved.RequestTimeout)
	if lex != nil {
		fmt.Fprintf(w, "serve: lexicon rescoring available (%d words, boost %g)\n",
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

	fmt.Fprintln(w, "serve: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintf(w, "serve: connection drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	fmt.Fprintln(w, "serve: stopped cleanly")
	return nil
}
