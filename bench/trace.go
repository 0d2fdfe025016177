package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/server"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// The traced run measures every layer from outside, by timing calls into
// its public functions: no product code is touched. Stage A runs with
// the server up and replays one pass three times, once per level — over
// HTTP, into Handler().ServeHTTP, into DB.Search — so the compiled-query
// cache sees the same sequence each time. Stage B runs after shutdown
// (the store's flock is exclusive) on the raw diskstore, index and
// engine. Spans stay in memory and are written out at exit.

const (
	sampleDocs = 2000 // documents in the fixed per-document sample
	sampleStep = 100  // documents per span of a per-document probe
	probeOps   = 256  // distinct searches of the pass probed in stage B
	repeats    = 3    // repeats of a whole-store probe (open, load)
	gramSize   = index.DefaultGramSize
)

// span is one timed call. Op ties the spans of one script operation
// together across levels; N is how many items (documents) it covered.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) span(name, parent string, op, n int, fn func()) {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{name, op, parent, start.Nanoseconds(), end.Nanoseconds(), n})
}

// byOp returns each named span's duration in nanoseconds per item, keyed
// by op.
func (t *tracer) byOp(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] = float64(s.End-s.Start) / float64(max(s.N, 1))
		}
	}
	return out
}

// med is the median duration of the named spans, per item, in unit
// (time.Microsecond or time.Millisecond); 0 when the run recorded none,
// which means the workload never reaches that layer.
func (t *tracer) med(name string, unit time.Duration) float64 {
	var v []float64
	for _, d := range t.byOp(name) {
		v = append(v, d/float64(unit))
	}
	return median(v)
}

// self is the median, over the ops that have both a named span and a
// span of the first child, of the named span's duration minus the
// durations of every child span of the same op.
func (t *tracer) self(name string, unit time.Duration, children ...string) float64 {
	kids := make([]map[int]float64, len(children))
	for i, c := range children {
		kids[i] = t.byOp(c)
	}
	var v []float64
	for op, d := range t.byOp(name) {
		if _, ok := kids[0][op]; !ok {
			continue
		}
		for _, k := range kids {
			d -= k[op]
		}
		v = append(v, d/float64(unit))
	}
	return median(v)
}

// discard is the ResponseWriter of an in-process handler call.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(code int)        { d.status = code }

// inProcess prepares a call of o straight into h and returns the
// function that makes it and reports the response status.
func inProcess(h http.Handler, o op) (func() int, error) {
	req, err := http.NewRequest(o.method, o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	rw := &discard{h: http.Header{}, status: http.StatusOK}
	return func() int {
		h.ServeHTTP(rw, req)
		return rw.status
	}, nil
}

// traced carries one traced run.
type traced struct {
	c   config
	w   io.Writer
	in  *inputs
	t   *tracer
	rep *report
	ctx context.Context
}

func (r *traced) set(name string, v float64, unit string) { r.rep.Metrics[name] = metric{v, unit} }

func (r *traced) fail(err error) {
	r.rep.Failed++
	fmt.Fprintln(r.w, "failed operation:", err)
}

func runTraced(w io.Writer, c config) (*report, error) {
	in, err := prepare(c, 3)
	if err != nil {
		return nil, err
	}
	fingerprint(w, c, in)
	r := &traced{c: c, w: w, in: in, t: &tracer{t0: time.Now()}, rep: &report{Metrics: map[string]metric{}}, ctx: context.Background()}
	sc := in.script

	dir, err := storeDir(c, "trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	svc, st, err := setUp(dir, in.corpus, sc.firstSearch())
	if err != nil {
		return nil, err
	}
	r.set("server.ingest_docs_per_s", float64(len(in.corpus))/st.ingest.Seconds(), "1/s")
	// Keep only the per-document sample; see runTimed on why.
	sample := in.corpus[:min(sampleDocs, len(in.corpus))]
	in.corpus = nil
	runtime.GC()

	if err := r.stageA(svc); err != nil {
		svc.close()
		return nil, err
	}
	if err := svc.close(); err != nil {
		return nil, err
	}
	if err := r.stageB(dir, sample); err != nil {
		return nil, err
	}
	if err := r.dials(sample); err != nil {
		return nil, err
	}

	r.rep.Correct = r.rep.Failed == 0
	printMetrics(w, r.rep, perLayerNames)
	path := filepath.Join(c.out, "trace-"+c.workload+".json")
	data, err := json.Marshal(r.t.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "wrote %d spans to %s\n", len(r.t.spans), path)
	return r.rep, nil
}

// stageA replays the traced pass at each level above the store.
func (r *traced) stageA(svc *service) error {
	sc, t := r.in.script, r.t
	client := newClient(1)
	defer client.CloseIdleConnections()
	r.rep.add(r.w, replay(client, svc.url, sc.pass(0), 1))
	plain := replay(client, svc.url, sc.pass(1), 1)
	r.rep.add(r.w, plain)
	untraced := median(plain.searchMS)

	pass := sc.pass(2)
	before, err := fetchStats(client, svc.url)
	if err != nil {
		return err
	}
	var cands, scanned, skipped, stopped, searches float64
	var tracedMS, writeMS []float64
	for i, o := range pass {
		var body []byte
		var err error
		t.span("client.roundtrip", "", i, 1, func() { body, err = do(client, svc.url, o, true) })
		r.rep.Attempted++
		if err != nil {
			r.fail(err)
			continue
		}
		last := t.spans[len(t.spans)-1]
		ms := float64(last.End-last.Start) / 1e6
		if o.search == nil {
			writeMS = append(writeMS, ms)
			continue
		}
		tracedMS = append(tracedMS, ms)
		var resp struct {
			Stats query.SearchStats `json:"stats"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("search response: %w", err)
		}
		searches++
		cands += float64(resp.Stats.DocsTotal - resp.Stats.DocsPruned)
		scanned += float64(resp.Stats.DocsScanned)
		skipped += float64(resp.Stats.BoundsSkipped)
		if resp.Stats.EarlyStopped {
			stopped++
		}
	}
	after, err := fetchStats(client, svc.url)
	if err != nil {
		return err
	}

	handler := svc.srv.Handler()
	for i, o := range pass {
		call, err := inProcess(handler, o)
		if err != nil {
			return err
		}
		var status int
		t.span("server.handler", "client.roundtrip", i, 1, func() { status = call() })
		r.rep.Attempted++
		if status/100 != 2 {
			r.fail(fmt.Errorf("in-process %s %s: status %d", o.method, o.path, status))
		}
	}

	compiled := map[string]*query.Query{}
	for i, o := range pass {
		if o.search == nil {
			continue
		}
		q := compiled[string(o.body)]
		if q == nil {
			if q, err = o.search.compile(); err != nil {
				return err
			}
			compiled[string(o.body)] = q
		}
		var err error
		t.span("staccatodb.search", "server.handler", i, 1, func() {
			_, _, err = svc.db.Search(r.ctx, q, query.SearchOptions{TopN: o.search.Top})
		})
		r.rep.Attempted++
		if err != nil {
			r.fail(err)
		}
	}

	hits := float64(after.Server.QueryCache.Hits - before.Server.QueryCache.Hits)
	misses := float64(after.Server.QueryCache.Misses - before.Server.QueryCache.Misses)
	r.set("server.transport_us", t.self("client.roundtrip", time.Microsecond, "server.handler"), "us")
	r.set("server.handler_us", t.med("server.handler", time.Microsecond), "us")
	r.set("server.cache_hit_rate", hits/max(hits+misses, 1), "ratio")
	r.set("server.rejected", float64(after.Server.Rejected), "count")
	r.set("server.write_p50_ms", median(writeMS), "ms")
	r.set("staccatodb.search_us", t.med("staccatodb.search", time.Microsecond), "us")
	r.set("query.candidates_per_op", cands/searches, "count")
	r.set("query.docs_scanned_per_op", scanned/searches, "count")
	r.set("query.bounds_skipped_per_op", skipped/searches, "count")
	r.set("query.early_stop_share", stopped/searches, "ratio")
	r.set("index.grams", float64(after.DB.IndexGrams), "count")
	r.set("index.overflow_docs", float64(after.DB.IndexOverflow), "count")
	r.set("trace.overhead_pct", 100*(median(tracedMS)-untraced)/untraced, "%")
	r.set("server.self_us", t.self("server.handler", time.Microsecond, "staccatodb.search"), "us")
	return nil
}

// termGrams returns the q-grams of a planned term.
func termGrams(term string, q int) []string {
	runes := []rune(term)
	var out []string
	for i := 0; i+q <= len(runes); i++ {
		out = append(out, string(runes[i:i+q]))
	}
	return out
}

// stageB probes the layers below staccatodb on the store the pass ran on.
func (r *traced) stageB(dir string, sample []source) error {
	t := r.t
	indexPath := filepath.Join(dir, index.FileName)

	// Whole-store probes first, while the INDEX still matches the store.
	var err error
	for i := range repeats {
		var db *staccatodb.DB
		t.span("staccatodb.open", "", i, 1, func() { db, err = staccatodb.Open(dir, staccatodb.WithNoSync()) })
		if err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
	}
	var st *diskstore.Store
	var ix *index.Index
	for i := range repeats {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		t.span("diskstore.open", "staccatodb.open", i, 1, func() { st, err = diskstore.Open(dir, diskstore.Options{NoSync: true}) })
		if err != nil {
			return err
		}
		t.span("index.load", "staccatodb.open", i, 1, func() { ix, _, err = index.Load(indexPath, gramSize) })
		if err != nil {
			st.Close()
			return err
		}
	}
	r.set("staccatodb.open_ms", t.med("staccatodb.open", time.Millisecond), "ms")
	r.set("diskstore.open_ms", t.med("diskstore.open", time.Millisecond), "ms")
	r.set("index.load_ms", t.med("index.load", time.Millisecond), "ms")

	err = r.probeStore(st, ix, sample)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// With the INDEX gone, Open has to rebuild it from a scan.
	if err := os.Remove(indexPath); err != nil {
		return err
	}
	var db *staccatodb.DB
	t.span("staccatodb.open_rebuild", "", 0, 1, func() { db, err = staccatodb.Open(dir, staccatodb.WithNoSync()) })
	if err != nil {
		return err
	}
	r.set("staccatodb.open_rebuild_ms", t.med("staccatodb.open_rebuild", time.Millisecond), "ms")
	return db.Close()
}

// probeStore runs every probe that needs the open store: the per-op
// probes of the traced pass, the store reads, the per-document and
// write-path samples, and — last, because it changes the commit state
// the INDEX was stamped with — compaction.
func (r *traced) probeStore(st *diskstore.Store, ix *index.Index, sample []source) error {
	t, ctx := r.t, r.ctx
	eng := query.NewEngine(st, query.EngineOptions{})
	eng1 := query.NewEngine(st, query.EngineOptions{Workers: 1})

	// The first distinct searches of the pass, under stage A's op numbers.
	seen := map[string]bool{}
	for i, o := range r.in.script.pass(2) {
		if o.search == nil || seen[string(o.body)] {
			continue
		}
		if len(seen) == probeOps {
			break
		}
		seen[string(o.body)] = true
		var q *query.Query
		var err error
		t.span("query.compile", "server.handler", i, 1, func() { q, err = o.search.compile() })
		if err != nil {
			return err
		}
		var plan *query.Plan
		var cand *query.CandidateSet
		t.span("query.plan", "staccatodb.search", i, 1, func() { plan = q.Plan(gramSize) })
		t.span("query.candidates", "staccatodb.search", i, 1, func() { cand = plan.Candidates(ix) })
		opts := query.SearchOptions{TopN: o.search.Top}
		if cand != nil {
			t.span("query.ranked", "query.topk", i, 1, func() { cand.Ranked() })
			t.span("query.topk", "staccatodb.search", i, 1, func() { _, err = eng.SearchTopK(ctx, q, cand, opts) })
		} else {
			t.span("query.scan", "staccatodb.search", i, 1, func() { _, err = eng.Search(ctx, q, opts) })
			if err == nil {
				t.span("query.scan1", "", i, 1, func() { _, err = eng1.Search(ctx, q, opts) })
			}
		}
		if err != nil {
			return err
		}
		var grams [][]string
		if o.search.Mode != "fuzzy" {
			for _, term := range o.search.Terms {
				if g := termGrams(term, gramSize); len(g) > 0 {
					grams = append(grams, g)
				}
			}
		}
		if len(grams) > 0 {
			t.span("index.postings", "query.candidates", i, 1, func() {
				for _, g := range grams {
					ix.CandidatesWithBounds(g)
				}
			})
		}
	}
	r.set("query.compile_us", t.med("query.compile", time.Microsecond), "us")
	r.set("query.plan_us", t.med("query.plan", time.Microsecond), "us")
	r.set("query.candidates_us", t.med("query.candidates", time.Microsecond), "us")
	r.set("query.ranked_us", t.med("query.ranked", time.Microsecond), "us")
	r.set("query.topk_us", t.med("query.topk", time.Microsecond), "us")
	r.set("query.scan_ms", t.med("query.scan", time.Millisecond), "ms")
	speedup := 0.0
	if par := t.med("query.scan", time.Millisecond); par > 0 {
		speedup = t.med("query.scan1", time.Millisecond) / par
	}
	r.set("query.scan_parallel_speedup", speedup, "ratio")
	r.set("index.postings_us", t.med("index.postings", time.Microsecond), "us")
	// DB.Search's own time: what the planner, candidate construction and
	// engine calls do not account for, over the probed ops.
	r.set("staccatodb.self_us", t.self("staccatodb.search", time.Microsecond, "query.plan", "query.candidates", "query.topk", "query.scan"), "us")

	ids, err := st.ListDocIDs(ctx)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.c.seed))
	for i := range 32 {
		batch := make([]string, 64)
		for j := range batch {
			batch[j] = ids[rng.Intn(len(ids))]
		}
		slices.Sort(batch)
		t.span("diskstore.getbatch", "query.topk", i, len(batch), func() { _, err = st.GetBatch(ctx, batch) })
		if err != nil {
			return err
		}
	}
	for i := range repeats {
		t.span("diskstore.scan", "query.scan", i, len(ids), func() {
			err = st.Scan(ctx, func(*staccato.Doc) error { return nil })
		})
		if err != nil {
			return err
		}
	}
	r.set("diskstore.getbatch_us_per_doc", t.med("diskstore.getbatch", time.Microsecond), "us")
	r.set("diskstore.scan_us_per_doc", t.med("diskstore.scan", time.Microsecond), "us")

	if err := r.perDoc(sample); err != nil {
		return err
	}
	if err := r.writePath(sample); err != nil {
		return err
	}

	before := st.Stats().DiskBytes
	t.span("diskstore.compact", "", 0, 1, func() { err = st.Compact(ctx) })
	if err != nil {
		return err
	}
	r.set("diskstore.compact_ms", t.med("diskstore.compact", time.Millisecond), "ms")
	r.set("diskstore.dead_bytes_share", 1-float64(st.Stats().DiskBytes)/float64(before), "ratio")
	return nil
}

// perDoc times the per-document functions over the fixed sample, one
// span per sampleStep documents.
func (r *traced) perDoc(sample []source) error {
	t := r.t
	pools := r.in.pools
	leaf, err := query.Keyword(pools.common[0])
	if err != nil {
		return err
	}
	second, err := query.Keyword(pools.common[1])
	if err != nil {
		return err
	}
	both := query.And(leaf, second)
	fuzz, err := query.Fuzzy(pools.long[0], 1)
	if err != nil {
		return err
	}
	// Snippets are extracted from matching documents only, so that probe
	// uses the substring every document's truth is likeliest to hold.
	snip, err := query.Substring(pools.common[0][:2])
	if err != nil {
		return err
	}
	for lo := 0; lo < len(sample); lo += sampleStep {
		part := sample[lo:min(lo+sampleStep, len(sample))]
		n, op := len(part), lo/sampleStep
		docs := make([]*staccato.Doc, n)
		blobs := make([][]byte, n)
		entries := make([]index.Entry, n)
		var err error
		each := func(name, parent string, fn func(i int)) {
			t.span(name, parent, op, n, func() {
				for i := range part {
					fn(i)
				}
			})
		}
		each("fst.viterbi", "", func(i int) { part[i].fst.Viterbi() })
		each("staccato.build", "", func(i int) {
			if d, e := buildDoc(part[i]); e != nil {
				err = e
			} else {
				docs[i] = d
			}
		})
		if err != nil {
			return err
		}
		each("store.encode", "diskstore.commit", func(i int) {
			if b, e := store.Encode(docs[i]); e != nil {
				err = e
			} else {
				blobs[i] = b
			}
		})
		each("store.decode", "diskstore.getbatch", func(i int) {
			if _, e := store.Decode(blobs[i]); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		each("index.entry", "staccatodb.ingest", func(i int) { entries[i] = index.EntryFor(docs[i], gramSize) })
		ix := index.New(gramSize)
		t.span("index.apply", "staccatodb.ingest", op, n, func() { ix.Apply(entries, nil) })
		each("query.eval_leaf", "query.scan", func(i int) { leaf.Eval(docs[i]) })
		each("query.eval_bool", "query.scan", func(i int) { both.Eval(docs[i]) })
		each("query.eval_fuzzy", "query.scan", func(i int) { fuzz.Eval(docs[i]) })
		var matching []*staccato.Doc
		for _, d := range docs {
			if snip.Eval(d) > 0 {
				matching = append(matching, d)
			}
		}
		if len(matching) > 0 {
			t.span("query.snippets", "", op, len(matching), func() {
				for _, d := range matching {
					snip.Snippets(d, query.SnippetOptions{})
				}
			})
		}
	}
	states := 0.0
	for i, w := range pools.long {
		var dfa *fuzzy.DFA
		var err error
		t.span("fuzzy.compile", "query.compile", i, 1, func() { dfa, err = fuzzy.Compile(w, 1) })
		if err != nil {
			return err
		}
		states += float64(dfa.NumStates())
	}
	for _, m := range []struct{ metric, span string }{
		{"fst.viterbi_us_per_doc", "fst.viterbi"},
		{"staccato.build_us_per_doc", "staccato.build"},
		{"store.encode_us_per_doc", "store.encode"},
		{"store.decode_us_per_doc", "store.decode"},
		{"index.entry_us_per_doc", "index.entry"},
		{"index.apply_us_per_doc", "index.apply"},
		{"query.eval_leaf_us_per_doc", "query.eval_leaf"},
		{"query.eval_bool_us_per_doc", "query.eval_bool"},
		{"query.eval_fuzzy_us_per_doc", "query.eval_fuzzy"},
		{"query.snippets_us_per_doc", "query.snippets"},
		{"fuzzy.compile_us", "fuzzy.compile"},
	} {
		r.set(m.metric, t.med(m.span, time.Microsecond), "us")
	}
	r.set("fuzzy.dfa_states", states/float64(len(pools.long)), "count")
	return nil
}

// writePath times one ingestBatch-document commit at each level of the
// write path, each level into its own scratch store so none overwrites.
func (r *traced) writePath(sample []source) error {
	t, ctx := r.t, r.ctx
	docs := make([]*staccato.Doc, min(len(sample), 4*ingestBatch))
	for i := range docs {
		d, err := buildDoc(sample[i])
		if err != nil {
			return err
		}
		docs[i] = d
	}
	scratch := func(tag string) (string, error) { return storeDir(r.c, "write-"+tag) }

	dir, err := scratch("diskstore")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := diskstore.Open(dir, diskstore.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer st.Close()
	for lo := 0; lo < len(docs); lo += ingestBatch {
		part := docs[lo:min(lo+ingestBatch, len(docs))]
		t.span("diskstore.commit", "staccatodb.ingest", lo/ingestBatch, len(part), func() {
			b := st.Batch()
			for _, d := range part {
				if err == nil {
					err = b.Put(d)
				}
			}
			if err == nil {
				err = b.Commit(ctx)
			}
		})
		if err != nil {
			return err
		}
	}

	dir, err = scratch("db")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := staccatodb.Open(dir, staccatodb.WithNoSync())
	if err != nil {
		return err
	}
	defer db.Close()
	for lo := 0; lo < len(docs); lo += ingestBatch {
		part := docs[lo:min(lo+ingestBatch, len(docs))]
		t.span("staccatodb.ingest", "server.ingest", lo/ingestBatch, len(part), func() { err = db.Ingest(ctx, part) })
		if err != nil {
			return err
		}
	}

	dir, err = scratch("server")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db2, err := staccatodb.Open(dir, staccatodb.WithNoSync())
	if err != nil {
		return err
	}
	srv := server.New(db2, server.Options{})
	defer srv.Shutdown(ctx)
	for lo := 0; lo < len(docs); lo += ingestBatch {
		part := docs[lo:min(lo+ingestBatch, len(docs))]
		o, err := ingestOp(part)
		if err != nil {
			return err
		}
		call, err := inProcess(srv.Handler(), o)
		if err != nil {
			return err
		}
		var status int
		t.span("server.ingest", "", lo/ingestBatch, len(part), func() { status = call() })
		if status/100 != 2 {
			return fmt.Errorf("in-process ingest: status %d", status)
		}
	}
	r.set("diskstore.commit_us_per_doc", t.med("diskstore.commit", time.Microsecond), "us")
	r.set("staccatodb.ingest_us_per_doc", t.med("staccatodb.ingest", time.Microsecond), "us")
	r.set("server.ingest_self_us_per_doc", t.self("server.ingest", time.Microsecond, "staccatodb.ingest"), "us")
	return nil
}

// dials emits the paper's cost/recall curve on the fixed sample: for the
// MAP string (one chunk, its single best path) and three dial settings, recall of the recall keywords at
// P>0, encoded bytes per document and keyword evaluation time.
func (r *traced) dials(sample []source) error {
	type dial struct {
		name      string
		chunks, k int
	}
	queries := make([]*query.Query, len(r.in.pools.recall))
	for i, w := range r.in.pools.recall {
		q, err := query.Keyword(w)
		if err != nil {
			return err
		}
		queries[i] = q
	}
	for _, d := range []dial{{"map", 1, 1}, {"4-2", 4, 2}, {"6-3", 6, 3}, {"8-4", 8, 4}} {
		docs := make([]*staccato.Doc, len(sample))
		bytes := 0
		for i, s := range sample {
			doc, err := staccato.Build(s.fst, s.id, d.chunks, d.k)
			if err != nil {
				return fmt.Errorf("dial %s: %w", d.name, err)
			}
			blob, err := store.Encode(doc)
			if err != nil {
				return err
			}
			docs[i] = doc
			bytes += len(blob)
		}
		span := "staccato.dial-" + d.name + ".eval"
		var sum float64
		n := 0
		for qi, q := range queries {
			probs := make([]float64, len(docs))
			r.t.span(span, "", qi, len(docs), func() {
				for i, doc := range docs {
					probs[i] = q.Eval(doc)
				}
			})
			relevant, hit := 0, 0
			for i, s := range sample {
				if slices.Contains(strings.Fields(s.truth), r.in.pools.recall[qi]) {
					relevant++
					if probs[i] > 0 {
						hit++
					}
				}
			}
			if relevant > 0 {
				sum += float64(hit) / float64(relevant)
				n++
			}
		}
		prefix := "staccato.dial-" + d.name
		r.set(prefix+".recall", sum/float64(max(n, 1)), "ratio")
		r.set(prefix+".bytes_per_doc", float64(bytes)/float64(len(sample)), "B")
		r.set(prefix+".eval_us_per_doc", r.t.med(span, time.Microsecond), "us")
	}
	return nil
}

var perLayerNames = []string{
	"server.transport_us", "server.handler_us", "server.self_us", "server.cache_hit_rate", "server.rejected",
	"server.write_p50_ms", "server.ingest_docs_per_s", "server.ingest_self_us_per_doc",
	"staccatodb.search_us", "staccatodb.self_us", "staccatodb.ingest_us_per_doc", "staccatodb.open_ms", "staccatodb.open_rebuild_ms",
	"query.compile_us", "query.plan_us", "query.candidates_us", "query.ranked_us", "query.topk_us",
	"query.scan_ms", "query.scan_parallel_speedup",
	"query.eval_leaf_us_per_doc", "query.eval_bool_us_per_doc", "query.eval_fuzzy_us_per_doc",
	"query.candidates_per_op", "query.docs_scanned_per_op", "query.bounds_skipped_per_op", "query.early_stop_share",
	"query.snippets_us_per_doc",
	"index.postings_us", "index.entry_us_per_doc", "index.apply_us_per_doc", "index.load_ms", "index.grams", "index.overflow_docs",
	"fuzzy.compile_us", "fuzzy.dfa_states",
	"store.encode_us_per_doc", "store.decode_us_per_doc",
	"diskstore.getbatch_us_per_doc", "diskstore.scan_us_per_doc", "diskstore.commit_us_per_doc", "diskstore.open_ms",
	"diskstore.compact_ms", "diskstore.dead_bytes_share",
	"staccato.build_us_per_doc", "fst.viterbi_us_per_doc",
	"staccato.dial-map.recall", "staccato.dial-map.bytes_per_doc", "staccato.dial-map.eval_us_per_doc",
	"staccato.dial-4-2.recall", "staccato.dial-4-2.bytes_per_doc", "staccato.dial-4-2.eval_us_per_doc",
	"staccato.dial-6-3.recall", "staccato.dial-6-3.bytes_per_doc", "staccato.dial-6-3.eval_us_per_doc",
	"staccato.dial-8-4.recall", "staccato.dial-8-4.bytes_per_doc", "staccato.dial-8-4.eval_us_per_doc",
	"trace.overhead_pct",
}
