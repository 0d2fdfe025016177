// Package server turns a staccatodb.DB into a long-running HTTP/JSON
// service — the network face of the system. One Server owns one DB and
// exposes ingest (batched), search and explain (per-result
// probabilities plus full execution stats — probability semantics stay
// first-class on the wire, never flattened to matched/not-matched),
// point get/delete, stats, and health.
//
// Between the socket and the engine sit the three mechanisms a serving
// path needs that a CLI does not:
//
//   - A compiled-query LRU cache. Queries arrive as strings; compiling
//     one is pure CPU that repeat traffic should not re-pay. The cache
//     is keyed by the canonical query spec and its hit rate is part of
//     the exported metrics.
//   - Admission control. In-flight requests are bounded by a semaphore;
//     a request that cannot be admitted is rejected immediately with
//     429 and a Retry-After hint, and every rejection is counted —
//     under overload the server sheds load loudly instead of queueing
//     without bound, and no rejection is ever silent.
//   - Per-request deadlines. Every DB call runs under a context
//     deadline (the server default, tightened per request via
//     timeout_ms); a request that exceeds it returns 504 with the
//     deadline error rather than occupying a worker forever. An
//     admitted request's body read and response write are bounded by
//     the same timeout, so a client that withholds its body or stops
//     reading the response gives its slot back.
//
// Request bodies are size-capped (413 past the cap) and strictly
// decoded: an unknown field or anything after the JSON value is a 400.
//
// Shutdown is graceful by construction: Shutdown marks the server
// draining (new requests get 503, health reports draining so load
// balancers stop routing), waits for every in-flight request to finish,
// and only then closes the DB — an admitted request never observes a
// closed database.
//
// Metrics are one snapshot, rendered at /debug/vars in expvar's JSON
// shape and inside /v1/stats next to the database's own stats. The server
// counts only what it alone sees — rejections, and per endpoint the
// requests, errors and a fixed-bucket latency histogram; the in-flight
// gauge is the admission semaphore's length, and the limit, the engine
// worker ceiling and the cache numbers are read from their owners.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Defaults for Options zero values.
const (
	DefaultMaxInFlight    = 256
	DefaultRequestTimeout = 10 * time.Second
)

const (
	// queryCacheSize is the compiled-query LRU capacity.
	queryCacheSize = 256
	// retryAfter is the hint every 429 carries in its Retry-After header.
	retryAfter = 1 * time.Second
)

// Request bodies are capped: generously for document batches, tightly
// for queries — a malformed client must not buffer the server into the
// ground. A body past its cap is answered 413.
const (
	maxIngestBodyBytes = 64 << 20 // 64 MiB of documents per batch
	maxQueryBodyBytes  = 1 << 20  // 1 MiB of query spec
)

// Options configures a Server. Zero values select the defaults above.
type Options struct {
	// MaxInFlight bounds how many requests may be in the DB-touching
	// handlers at once; requests beyond it are rejected with 429.
	MaxInFlight int
	// RequestTimeout is the per-request deadline applied to every DB
	// call. A request's timeout_ms can tighten it but never extend it.
	RequestTimeout time.Duration
	// Lexicon, when non-nil, enables lexicon rescoring: a request setting
	// "lexicon": true is ranked under Lexicon.Rescorer().
	// When nil, such requests are rejected with 400 — the knob must fail
	// loudly, not silently rank without the dictionary.
	Lexicon *fuzzy.Lexicon
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	return o
}

// Server serves one staccatodb.DB over HTTP. Create with New, mount
// Handler on an http.Server, and stop with Shutdown. The Server owns
// the DB from New onward: Shutdown closes it.
type Server struct {
	db      *staccatodb.DB
	opts    Options
	cache   *queryCache
	met     *metrics
	sem     chan struct{}
	mux     *http.ServeMux
	rescore func(*staccato.Doc) *staccato.Doc // nil unless Options.Lexicon is set

	mu       sync.Mutex
	draining bool
	closed   bool
	inflight sync.WaitGroup

	// testHookSearch, when non-nil, runs inside the search handler after
	// the request context is derived and before the engine is invoked —
	// the deterministic seam the deadline, overload, and drain tests
	// block on. Set it before the server starts serving.
	testHookSearch func(ctx context.Context)
}

// New returns a Server over db. db must be non-nil and open; the Server
// takes ownership and closes it during Shutdown.
func New(db *staccatodb.DB, opts Options) *Server {
	if db == nil {
		panic("server: New requires a non-nil DB")
	}
	opts = opts.withDefaults()
	s := &Server{
		db:    db,
		opts:  opts,
		cache: newQueryCache(queryCacheSize),
		sem:   make(chan struct{}, opts.MaxInFlight),
	}
	if opts.Lexicon != nil {
		s.rescore = opts.Lexicon.Rescorer()
	}
	s.met = newMetrics([]string{"ingest", "search", "snippets", "explain", "get_doc", "delete_doc", "stats", "health"})

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.endpoint("ingest", true, s.handleIngest))
	s.mux.HandleFunc("POST /v1/search", s.endpoint("search", true, s.handleSearch))
	s.mux.HandleFunc("POST /v1/snippets", s.endpoint("snippets", true, s.handleSnippets))
	s.mux.HandleFunc("POST /v1/explain", s.endpoint("explain", true, s.handleExplain))
	s.mux.HandleFunc("GET /v1/docs/{id}", s.endpoint("get_doc", true, s.handleGetDoc))
	s.mux.HandleFunc("DELETE /v1/docs/{id}", s.endpoint("delete_doc", true, s.handleDeleteDoc))
	// Stats and health skip admission: observability must keep answering
	// precisely when the server is saturated enough to reject work.
	s.mux.HandleFunc("GET /v1/stats", s.endpoint("stats", false, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.endpoint("health", false, s.handleHealth))
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Options returns the server's resolved configuration — the caller's
// Options with every zero value replaced by its default.
func (s *Server) Options() Options { return s.opts }

// Shutdown gracefully stops the server: it marks the server draining
// (new requests are refused with 503, health reports draining), waits
// for every in-flight request to complete, and then closes the DB. If
// ctx expires first, Shutdown returns ctx's error WITHOUT closing the
// DB — in-flight requests are still running against it; call Shutdown
// again (or close the DB directly) to force the issue.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.draining = true
	s.mu.Unlock()
	if alreadyClosed {
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w (in-flight requests still draining; db left open)", ctx.Err())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.db.Close()
}

// beginRequest registers a request with the drain accounting. It returns
// false when the server is draining, in which case the request must be
// refused and end may not be called.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// endpoint wraps a handler with the request lifecycle every endpoint
// shares, in order: drain gate (503 once Shutdown begins), admission
// control when admit is set (429 + Retry-After when MaxInFlight requests
// are already in the handlers), then metrics (count, error count,
// latency histogram). The deadline is applied inside the handlers, where
// the request's own timeout_ms is known.
func (s *Server) endpoint(name string, admit bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if !s.beginRequest() {
			writeError(sw, http.StatusServiceUnavailable, "server is shutting down")
			s.met.record(name, sw.status, time.Since(start))
			return
		}
		defer s.inflight.Done()
		if admit {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
				s.boundWrite(w)
				defer s.boundWrite(w)
			default:
				s.met.rejected.Add(1)
				secs := int(retryAfter / time.Second)
				sw.Header().Set("Retry-After", fmt.Sprint(secs))
				writeError(sw, http.StatusTooManyRequests,
					"server at capacity (%d requests in flight); retry after %ds", s.opts.MaxInFlight, secs)
				s.met.record(name, sw.status, time.Since(start))
				return
			}
		}
		h(sw, r)
		s.met.record(name, sw.status, time.Since(start))
	}
}

// requestCtx derives the request's working context: the server's default
// deadline, tightened to timeoutMS when the request asked for less. The
// two are compared in milliseconds before timeoutMS becomes a Duration,
// which a timeoutMS past 2⁶³ ns would wrap negative — a deadline already
// past — so any larger request clamps to the server's maximum. It is the
// one check of timeout_ms for every endpoint: a negative one is answered
// with 400, and ok is false; a timeoutMS of 0 takes the server's
// default and is never refused.
func (s *Server) requestCtx(w http.ResponseWriter, r *http.Request, timeoutMS int) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	if timeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "timeout_ms must not be negative, got %d", timeoutMS)
		return nil, nil, false
	}
	d := s.opts.RequestTimeout
	if timeoutMS > 0 && int64(timeoutMS) <= d.Milliseconds() {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel = context.WithTimeout(r.Context(), d)
	return ctx, cancel, true
}

// writeJSON writes v as the JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) // the status line is already out; a failed body write has no better channel
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeDBError maps a DB call's failure onto the right status: a
// rejected document is the client's error (400), exceeded deadlines are
// the gateway-timeout contract (504), a closed DB means the server is
// going away (503), anything else is a plain 500.
func writeDBError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrInvalidDoc):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		// The client went away; the status is a formality it will not read.
		writeError(w, http.StatusServiceUnavailable, "request canceled: %v", err)
	case errors.Is(err, staccatodb.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "database is closed")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// decodeJSON strictly decodes the one JSON value rd holds into v: an
// unknown field, or anything but whitespace after the value, is an
// error, and so is a read past a body's size cap (see writeBodyError).
func decodeJSON(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	// More would report false before a stray '}' or ']'; only EOF proves
	// that nothing follows the value.
	switch _, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return fmt.Errorf("invalid JSON body: %w", err)
	default:
		return errors.New("invalid JSON body: trailing data after the request object")
	}
}

// maxBodyPresize bounds how much of a body's claimed Content-Length
// readBody allocates before the bytes arrive. The claim is the
// client's: sized from it alone, a request that sends headers and no
// body would hold the whole cap. A longer body grows the buffer as it
// is read.
const maxBodyPresize = 1 << 20

// readBody reads r's whole body through its size cap.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(min(n, maxBodyPresize)) + bytes.MinRead) // room for the read that finds EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, fmt.Errorf("invalid JSON body: %w", err)
	}
	return buf.Bytes(), nil
}

// boundBodyRead bounds the read of an admitted request's body by
// RequestTimeout: a client that sends the headers and withholds the body
// would otherwise hold its in-flight slot until it hung up. Call the
// returned func once the body is in: net/http's background read starts
// there, and a deadline left set would cancel r's context before
// requestCtx's own deadline. After a failed read the deadline stays, so
// net/http's discard of the unread body fails fast and closes the
// connection.
func (s *Server) boundBodyRead(w http.ResponseWriter) (bodyIn func()) {
	if sw, ok := w.(*statusWriter); ok {
		w = sw.ResponseWriter
	}
	rc := http.NewResponseController(w)
	if rc.SetReadDeadline(time.Now().Add(s.opts.RequestTimeout)) != nil {
		return func() {} // http.ErrNotSupported (no connection under w), or a closed connection
	}
	return func() { rc.SetReadDeadline(time.Time{}) } // fails only on a closed connection
}

// boundWrite bounds the writing of an admitted request's response by
// RequestTimeout from now: a client that stops reading would otherwise
// hold its in-flight slot until it hung up. A write that cannot finish in
// time fails, and the handler returns. endpoint arms it at admission and
// again when the handler returns, for the flush of the response's
// buffered tail — a 408 for a body that timed out is written only then.
// net/http clears the deadline after that flush, so the next request on a
// kept-alive connection does not inherit it.
func (s *Server) boundWrite(w http.ResponseWriter) {
	// http.ErrNotSupported (no connection under w) leaves the write unbounded.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.opts.RequestTimeout))
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 when the body ran past its size cap, 408 when it did not
// arrive within RequestTimeout, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooLarge.Limit)
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "request body not received in time: %v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// queryRequest is the wire form of a query: a term list plus the same
// shaping knobs the CLI exposes. It compiles to exactly the boolean
// Query `staccato search` would build for the same inputs.
type queryRequest struct {
	// Terms are the query terms; at least one is required.
	Terms []string `json:"terms"`
	// Mode is the leaf type: "substring" (default), "keyword", or "fuzzy".
	Mode string `json:"mode,omitempty"`
	// Distance is the edit distance of fuzzy leaves, in
	// [0, fuzzy.MaxDistance]. Only valid with mode "fuzzy".
	Distance int `json:"distance,omitempty"`
	// Lexicon, when true, ranks under the server's lexicon rescorer;
	// rejected with 400 when the server was started without a lexicon.
	Lexicon bool `json:"lexicon,omitempty"`
	// Combine joins multiple terms: "and" (default) or "or".
	Combine string `json:"combine,omitempty"`
	// Not, when set, additionally requires this term to be absent.
	Not string `json:"not,omitempty"`
	// MinProb drops results below this probability.
	MinProb float64 `json:"min_prob,omitempty"`
	// Top keeps only the N best-ranked results; zero keeps all.
	Top int `json:"top,omitempty"`
	// TimeoutMS tightens the server's request deadline for this call;
	// it can never extend past the server's configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// cacheKey canonicalizes the query-defining part of the request — every
// field that changes what a hit would evaluate, so two specs differing
// only in, say, distance can never share an entry. Lexicon is included
// even though it shapes SearchOptions rather than the compiled Query:
// keying it keeps the cache key aligned with "same spec, same results"
// rather than an implementation detail of what the cache stores. Each
// part is quoted, so a part ends at its first unescaped quote and no byte
// a term may hold (JSON admits \u0000) can shift a boundary.
func (q *queryRequest) cacheKey() string {
	var key []byte
	for _, part := range append([]string{q.Mode, strconv.Itoa(q.Distance), strconv.FormatBool(q.Lexicon), q.Combine, q.Not}, q.Terms...) {
		key = strconv.AppendQuote(key, part)
	}
	return string(key)
}

// compile builds the boolean Query the request describes, through the
// same query.Spec the CLI compiles.
func (q *queryRequest) compile() (*query.Query, error) {
	return query.Spec{Terms: q.Terms, Mode: q.Mode, Distance: q.Distance, Combine: q.Combine, Not: q.Not}.Compile()
}

// compiledQuery resolves the request through the cache.
func (s *Server) compiledQuery(req *queryRequest) (*query.Query, bool, error) {
	return s.cache.get(req.cacheKey(), req.compile)
}

// searchOptions builds the engine options a query request asks for,
// failing when top or min_prob is out of range or the request wants
// lexicon rescoring the server cannot provide.
func (s *Server) searchOptions(req *queryRequest) (query.SearchOptions, error) {
	opts := query.SearchOptions{MinProb: req.MinProb, TopN: req.Top}
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	if req.Lexicon {
		if s.rescore == nil {
			return opts, errors.New("lexicon rescoring requested but no lexicon is loaded; start the server with -lexicon (staccato serve -lexicon)")
		}
		opts.Rescore = s.rescore
	}
	return opts, nil
}

// ingestRequest is the wire form of a batched write; see readIngest.
type ingestRequest struct {
	Docs      []*staccato.Doc `json:"docs"`
	TimeoutMS int             `json:"timeout_ms,omitempty"`
}

type ingestResponse struct {
	// Ingested is how many documents this batch committed.
	Ingested int `json:"ingested"`
	// Docs is the store's live document count after the commit.
	Docs int `json:"docs"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	bodyIn := s.boundBodyRead(w)
	body, err := readBody(w, r, maxIngestBodyBytes)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	bodyIn()
	req, ok := readIngest(body)
	if !ok {
		if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
			writeBodyError(w, err)
			return
		}
	}
	if len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, "ingest requires at least one document in docs")
		return
	}
	ctx, cancel, ok := s.requestCtx(w, r, req.TimeoutMS)
	if !ok {
		return
	}
	defer cancel()
	if err := s.db.Ingest(ctx, req.Docs); err != nil {
		writeDBError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Ingested: len(req.Docs), Docs: s.db.Stats().Docs})
}

type searchResponse struct {
	// Query is the compiled query's canonical rendering.
	Query string `json:"query"`
	// Results are the ranked matches, each with its match probability.
	Results []query.Result `json:"results"`
	// Stats is the run's execution report: mode, plan, pruned/evaluated
	// counts, candidates fetched.
	Stats query.SearchStats `json:"stats"`
	// CacheHit reports whether the compiled query came from the cache.
	CacheHit bool `json:"cache_hit"`
	// ElapsedMS is the server-side execution time of the DB call.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// queryRun is what runQuery hands back for the response: the compiled
// query, whether it came from the cache, and the DB call's duration.
type queryRun struct {
	q         *query.Query
	cacheHit  bool
	elapsedMS float64
}

// runQuery is the lifecycle the three query endpoints share: strictly
// decode the body into body (decodeJSON), whose query spec is req; run check (the
// endpoint's own knob validation, may be nil); derive the request
// deadline, which compilation counts against too; resolve the query
// through the cache; build the engine options; then time call, the
// endpoint's DB work. Every failure is answered here —
// ok false means the response is already written.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, body any, req *queryRequest, check func() error,
	call func(ctx context.Context, q *query.Query, opts query.SearchOptions) error) (run queryRun, ok bool) {
	bodyIn := s.boundBodyRead(w)
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxQueryBodyBytes), body); err != nil {
		writeBodyError(w, err)
		return run, false
	}
	bodyIn()
	if check != nil {
		if err := check(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return run, false
		}
	}
	ctx, cancel, ok := s.requestCtx(w, r, req.TimeoutMS)
	if !ok {
		return run, false
	}
	defer cancel()
	q, hit, err := s.compiledQuery(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid query: %v", err)
		return run, false
	}
	opts, err := s.searchOptions(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return run, false
	}
	if s.testHookSearch != nil {
		s.testHookSearch(ctx)
	}
	start := time.Now()
	if err := call(ctx, q, opts); err != nil {
		writeDBError(w, err)
		return run, false
	}
	return queryRun{q: q, cacheHit: hit, elapsedMS: float64(time.Since(start).Microseconds()) / 1000}, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var (
		req     queryRequest
		results []query.Result
		stats   query.SearchStats
	)
	run, ok := s.runQuery(w, r, &req, &req, nil, func(ctx context.Context, q *query.Query, opts query.SearchOptions) (err error) {
		results, stats, err = s.db.Search(ctx, q, opts)
		return err
	})
	if !ok {
		return
	}
	if results == nil {
		results = []query.Result{} // "results": [] beats "results": null on the wire
	}
	writeJSON(w, http.StatusOK, searchResponse{
		Query:     run.q.String(),
		Results:   results,
		Stats:     stats,
		CacheHit:  run.cacheHit,
		ElapsedMS: run.elapsedMS,
	})
}

// snippetsRequest is the wire form of a snippet extraction: the same
// query spec as search (so the two endpoints share compiled-query cache
// entries) plus the per-document snippet knobs.
type snippetsRequest struct {
	queryRequest
	// MaxReadings is how many matching readings to report per document
	// (default query.DefaultMaxReadings).
	MaxReadings int `json:"max_readings,omitempty"`
	// ContextRunes, when positive, adds surrounding reading text to each
	// span: the match plus up to this many runes on each side.
	ContextRunes int `json:"context_runes,omitempty"`
}

// Server-side ceilings on the snippet knobs: snippet extraction is
// per-document CPU the admission semaphore cannot see inside, so the
// per-request dials are clamped to sane maxima rather than trusted.
const (
	maxSnippetReadings = 64
	// maxSnippetContext mirrors the library-wide cap so the server's
	// reject threshold and the library's clamp threshold never drift.
	maxSnippetContext = query.MaxContextRunes
)

type snippetsResponse struct {
	// Query is the compiled query's canonical rendering.
	Query string `json:"query"`
	// Snippets are the matching documents in Search's ranking order, each
	// with its top readings containing the match: text, per-reading
	// probability, and byte/rune spans of every query term.
	Snippets []query.DocSnippets `json:"snippets"`
	// Stats is the underlying search's execution report.
	Stats     query.SearchStats `json:"stats"`
	CacheHit  bool              `json:"cache_hit"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

// check validates the snippet knobs against the server-side ceilings.
func (req *snippetsRequest) check() error {
	if req.MaxReadings < 0 || req.MaxReadings > maxSnippetReadings {
		return fmt.Errorf("max_readings must be in [0, %d], got %d", maxSnippetReadings, req.MaxReadings)
	}
	if req.ContextRunes < 0 || req.ContextRunes > maxSnippetContext {
		return fmt.Errorf("context_runes must be in [0, %d], got %d", maxSnippetContext, req.ContextRunes)
	}
	return nil
}

func (s *Server) handleSnippets(w http.ResponseWriter, r *http.Request) {
	var (
		req      snippetsRequest
		snippets []query.DocSnippets
		stats    query.SearchStats
	)
	run, ok := s.runQuery(w, r, &req, &req.queryRequest, req.check, func(ctx context.Context, q *query.Query, opts query.SearchOptions) (err error) {
		snippets, stats, err = s.db.Snippets(ctx, q, opts,
			query.SnippetOptions{MaxReadings: req.MaxReadings, ContextRunes: req.ContextRunes})
		return err
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, snippetsResponse{
		Query:     run.q.String(),
		Snippets:  snippets,
		Stats:     stats,
		CacheHit:  run.cacheHit,
		ElapsedMS: run.elapsedMS,
	})
}

type explainResponse struct {
	Query string `json:"query"`
	// Explain is the DB's plan rendering: the pruning plan, index shape,
	// candidate count, and the mode Search would take.
	Explain string `json:"explain"`
	// Stats comes from actually executing the query (explain-analyze
	// semantics), so Mode and CandidatesFetched report what really
	// happened, not a prediction.
	Stats query.SearchStats `json:"stats"`
	// Matches is how many documents matched with probability > 0.
	Matches   int     `json:"matches"`
	CacheHit  bool    `json:"cache_hit"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var (
		req     queryRequest
		results []query.Result
		stats   query.SearchStats
		explain string
	)
	run, ok := s.runQuery(w, r, &req, &req, nil, func(ctx context.Context, q *query.Query, opts query.SearchOptions) (err error) {
		results, stats, err = s.db.Search(ctx, q, opts)
		explain = s.db.Explain(q) // rendered inside the clock, as elapsed_ms has always counted it
		return err
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, explainResponse{
		Query:     run.q.String(),
		Explain:   explain,
		Stats:     stats,
		Matches:   len(results),
		CacheHit:  run.cacheHit,
		ElapsedMS: run.elapsedMS,
	})
}

func (s *Server) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ctx, cancel, _ := s.requestCtx(w, r, 0)
	defer cancel()
	doc, err := s.db.Get(ctx, id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, doc)
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, "no document with id %q", id)
	default:
		writeDBError(w, err)
	}
}

type deleteResponse struct {
	Deleted string `json:"deleted"`
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ctx, cancel, _ := s.requestCtx(w, r, 0)
	defer cancel()
	if err := s.db.Delete(ctx, id); err != nil {
		writeDBError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: id})
}

// serverStats is the server's one metrics snapshot: the service-level
// branch of /v1/stats, and what /debug/vars renders.
type serverStats struct {
	InFlight      int64                       `json:"in_flight"`
	MaxInFlight   int                         `json:"max_in_flight"`
	Rejected      int64                       `json:"rejected"`
	EngineWorkers int                         `json:"engine_workers"`
	Draining      bool                        `json:"draining"`
	QueryCache    cacheStats                  `json:"query_cache"`
	Requests      map[string]endpointSnapshot `json:"requests"`
}

// stats takes the metrics snapshot, each number from its owner.
func (s *Server) stats() serverStats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return serverStats{
		InFlight:      int64(len(s.sem)),
		MaxInFlight:   s.opts.MaxInFlight,
		Rejected:      s.met.rejected.Load(),
		EngineWorkers: s.db.Workers(),
		Draining:      draining,
		QueryCache:    s.cache.stats(),
		Requests:      s.met.requestsSnapshot(),
	}
}

type statsResponse struct {
	// DB is staccatodb.Stats in its canonical JSON shape — the same
	// bytes the CLI's verbose stats line prints.
	DB     staccatodb.Stats `json:"db"`
	Server serverStats      `json:"server"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{DB: s.db.Stats(), Server: s.stats()})
}

type healthResponse struct {
	Status string `json:"status"`
	Docs   int    `json:"docs"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Docs: s.db.Stats().Docs})
}

// handleVars serves the metrics snapshot as /debug/vars-style JSON, in
// the shape expvar gives it: flat cache counters, and each endpoint's
// latency histogram with its buckets beside its count and sum. Its
// top-level key, "staccatod", names the service; the key set is wire
// format.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	st := s.stats()
	requests := make(map[string]any, len(st.Requests))
	for name, e := range st.Requests {
		latency := map[string]any{"count": e.Latency.Count, "sum_ms": e.Latency.SumMS}
		for label, n := range e.Latency.Buckets {
			latency[label] = n
		}
		requests[name] = map[string]any{"count": e.Count, "errors": e.Errors, "latency_ms": latency}
	}
	writeJSON(w, http.StatusOK, map[string]any{"staccatod": map[string]any{
		"in_flight":      st.InFlight,
		"max_in_flight":  st.MaxInFlight,
		"rejected":       st.Rejected,
		"engine_workers": st.EngineWorkers,
		"cache_hits":     st.QueryCache.Hits,
		"cache_misses":   st.QueryCache.Misses,
		"cache_size":     st.QueryCache.Size,
		"requests":       requests,
	}})
}
