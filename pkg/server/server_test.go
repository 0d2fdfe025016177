package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// newTestServer builds a Server over a fresh in-memory DB and mounts it
// on an httptest server. Callers own neither: cleanup closes both, and
// tests that shut the Server down themselves rely on Shutdown being
// idempotent.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// testDocs generates a small deterministic corpus.
func testDocs(t *testing.T, n int) []*staccato.Doc {
	t.Helper()
	cases, err := testgen.Docs(n, testgen.Config{Length: 40, Seed: 7}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	return docs
}

// postJSON posts v to url and returns the response status and decoded
// body bytes.
func postJSON(t *testing.T, client *http.Client, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestIngestSearchExplainRoundTrip drives the full request lifecycle a
// client sees: batch-ingest a corpus over the wire, search for a term a
// document is known to contain, confirm per-result probabilities and
// execution stats come back, explain the same query, then point-get and
// delete a document.
func TestIngestSearchExplainRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	docs := testDocs(t, 20)

	status, body := postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: docs})
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d, body %s", status, body)
	}
	var ing ingestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Ingested != len(docs) || ing.Docs != len(docs) {
		t.Fatalf("ingest response = %+v, want %d ingested over %d docs", ing, len(docs), len(docs))
	}

	// A substring of a stored document's MAP reading must match that
	// document with positive probability.
	term := docs[0].MAP()[:4]
	status, body = postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{term}, Top: 10})
	if status != http.StatusOK {
		t.Fatalf("search: status %d, body %s", status, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatalf("search for %q of doc %s returned no results; body %s", term, docs[0].ID, body)
	}
	found := false
	for _, r := range sr.Results {
		if r.DocID == docs[0].ID && r.Prob > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("search for %q did not surface %s with positive probability: %s", term, docs[0].ID, body)
	}
	if sr.Stats.Mode == "" {
		t.Errorf("search stats missing execution mode: %s", body)
	}
	if sr.Stats.DocsTotal != len(docs) {
		t.Errorf("search stats docs_total = %d, want %d", sr.Stats.DocsTotal, len(docs))
	}

	status, body = postJSON(t, client, ts.URL+"/v1/explain", queryRequest{Terms: []string{term}})
	if status != http.StatusOK {
		t.Fatalf("explain: status %d, body %s", status, body)
	}
	var ex explainResponse
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Mode == "" || !strings.Contains(ex.Explain, "plan:") {
		t.Errorf("explain response incomplete: %s", body)
	}
	if ex.Matches == 0 {
		t.Errorf("explain reported zero matches for a matching query: %s", body)
	}

	// Point get, delete, then confirm the document is gone.
	status, body = getJSON(t, client, ts.URL+"/v1/docs/"+docs[0].ID)
	if status != http.StatusOK {
		t.Fatalf("get: status %d, body %s", status, body)
	}
	var got staccato.Doc
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != docs[0].ID || len(got.Chunks) != len(docs[0].Chunks) {
		t.Errorf("get returned a different document: %s", body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/docs/"+docs[0].ID, nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if status, _ = getJSON(t, client, ts.URL+"/v1/docs/"+docs[0].ID); status != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", status)
	}
}

// TestQueryCacheObservable confirms compile reuse is visible on the
// wire: the first search for a spec is a miss, the second a hit, and
// /v1/stats reports both.
func TestQueryCacheObservable(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: testDocs(t, 5)})

	spec := queryRequest{Terms: []string{"abcd"}, Mode: "substring"}
	var sr searchResponse
	_, body := postJSON(t, client, ts.URL+"/v1/search", spec)
	json.Unmarshal(body, &sr)
	if sr.CacheHit {
		t.Error("first search reported a cache hit")
	}
	_, body = postJSON(t, client, ts.URL+"/v1/search", spec)
	json.Unmarshal(body, &sr)
	if !sr.CacheHit {
		t.Error("second identical search reported a cache miss")
	}

	_, body = getJSON(t, client, ts.URL+"/v1/stats")
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.QueryCache.Hits != 1 || st.Server.QueryCache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st.Server.QueryCache)
	}
	if st.DB.Docs != 5 {
		t.Errorf("stats db.docs = %d, want 5", st.DB.Docs)
	}
	// The index's weight rides the same object: postings held, and the
	// bytes of the index log, which this in-memory database keeps in memory.
	if st.DB.IndexPostings == 0 || st.DB.IndexBytes <= 0 || !bytes.Contains(body, []byte(`"index_bytes": `)) {
		t.Errorf("stats db = %s, want index_postings > 0 and index_bytes present and positive", body)
	}
}

// TestMalformedRequests pins the 400 surface: syntactically broken JSON,
// unknown fields, empty term lists, and invalid enum values are all
// client errors with a JSON error body — never 500s.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	// A 4096-rune term of 600 distinct runes: its transition table would
	// pass the 2²¹-cell budget query compilation enforces.
	var overBudget strings.Builder
	for i := range 4096 {
		overBudget.WriteRune(rune(0x4e00 + i%600))
	}

	// 5000 distinct one-rune terms: each leaf table is tiny, but the
	// product of all of them would be 5000 leaves over 5002 classes.
	manyTerms := make([]string, 5000)
	for i := range manyTerms {
		manyTerms[i] = fmt.Sprintf("%q", string(rune(0x4e00+i)))
	}

	cases := []struct {
		name string
		url  string
		body string
	}{
		{"truncated json", "/v1/search", `{"terms": ["ab"`},
		{"term over the table budget", "/v1/search", `{"terms": ["` + overBudget.String() + `"]}`},
		{"fuzzy term over the DFA state cap", "/v1/search", `{"terms": ["` + strings.Repeat("a", 64) + `"], "mode": "fuzzy", "distance": 2}`},
		{"boolean over the product-state limit", "/v1/search", `{"terms": ["abcdef", "ghijkl", "mnopqr", "stuvwx", "yzABCD", "EFGHIJ"], "mode": "fuzzy", "distance": 2}`},
		{"boolean over the term limit", "/v1/search", `{"terms": [` + strings.Join(manyTerms, ",") + `], "combine": "or"}`},
		{"unknown field", "/v1/search", `{"terms": ["ab"], "nope": 1}`},
		{"trailing garbage", "/v1/search", `{"terms": ["ab"]} junk`},
		{"no terms", "/v1/search", `{}`},
		{"bad mode", "/v1/search", `{"terms": ["ab"], "mode": "regex"}`},
		{"bad combine", "/v1/search", `{"terms": ["ab"], "combine": "xor"}`},
		{"distance without fuzzy mode", "/v1/search", `{"terms": ["abcd"], "distance": 1}`},
		{"keyword term with a space", "/v1/search", `{"terms": ["two words"], "mode": "keyword"}`},
		{"not term invalid for the mode", "/v1/search", `{"terms": ["ab"], "mode": "keyword", "not": "two words"}`},
		{"negative top", "/v1/search", `{"terms": ["ab"], "top": -5}`},
		{"min_prob above one", "/v1/search", `{"terms": ["ab"], "min_prob": 7}`},
		{"negative min_prob", "/v1/snippets", `{"terms": ["ab"], "min_prob": -0.1}`},
		{"negative timeout", "/v1/search", `{"terms": ["ab"], "timeout_ms": -3}`},
		{"explain bad mode", "/v1/explain", `{"terms": ["ab"], "mode": "regex"}`},
		{"ingest no docs", "/v1/ingest", `{"docs": []}`},
		{"ingest empty id", "/v1/ingest", `{"docs": [{"id": ""}]}`},
		{"ingest non-distribution chunk", "/v1/ingest", `{"docs": [{"id": "a", "chunks": [{"alts": [{"text": "hello", "prob": 0.4}, {"text": "hellp", "prob": 0.4}], "retained": 1}]}]}`},
		{"explain bad body", "/v1/explain", `[1,2,3]`},
		{"snippets truncated json", "/v1/snippets", `{"terms": ["ab"`},
		{"snippets unknown field", "/v1/snippets", `{"terms": ["ab"], "nope": 1}`},
		{"snippets no terms", "/v1/snippets", `{}`},
		{"snippets bad mode", "/v1/snippets", `{"terms": ["ab"], "mode": "regex"}`},
		{"snippets negative readings", "/v1/snippets", `{"terms": ["ab"], "max_readings": -1}`},
		{"snippets oversized readings", "/v1/snippets", `{"terms": ["ab"], "max_readings": 65}`},
		{"snippets oversized enumerate", "/v1/snippets", `{"terms": ["ab"], "max_enumerate": 65537}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, data)
			}
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
				t.Errorf("error body is not the JSON error shape: %s", data)
			}
		})
	}
}

// TestDeadlineExceededReturns504 pins the deadline contract: a request
// whose context expires mid-execution returns 504, not 500 and not a
// hang. The test hook parks the handler until the request deadline has
// actually fired, making the timeout deterministic.
func TestDeadlineExceededReturns504(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.testHookSearch = func(ctx context.Context) { <-ctx.Done() }
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: testDocs(t, 3)})

	status, body := postJSON(t, client, ts.URL+"/v1/search",
		queryRequest{Terms: []string{"abcd"}, TimeoutMS: 10})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "deadline") {
		t.Errorf("504 body should name the deadline: %s", body)
	}
}

// TestHugeTimeoutClampsToServerMaximum: a timeout_ms too large to be a
// time.Duration in nanoseconds — from 9,223,372,036,855 up — still means
// "no tighter than the server's maximum", on search and on ingest, and
// never a deadline already past. Just below the wrap, and at the largest
// JSON integer an int holds, the search's deadline is RequestTimeout away.
func TestHugeTimeoutClampsToServerMaximum(t *testing.T) {
	const limit = time.Hour
	s, ts := newTestServer(t, Options{RequestTimeout: limit})
	left := make(chan time.Duration, 1)
	s.testHookSearch = func(ctx context.Context) {
		deadline, _ := ctx.Deadline()
		left <- time.Until(deadline)
	}
	client := ts.Client()
	for _, ms := range []int{9223372036854, 9223372036855, math.MaxInt} {
		if status, body := postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: testDocs(t, 2), TimeoutMS: ms}); status != http.StatusOK {
			t.Errorf("ingest at timeout_ms %d: status %d, want 200; body %s", ms, status, body)
		}
		status, body := postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{"abcd"}, TimeoutMS: ms})
		if status != http.StatusOK {
			t.Errorf("search at timeout_ms %d: status %d, want 200; body %s", ms, status, body)
		}
		if d := <-left; d <= limit-time.Minute || d > limit {
			t.Errorf("search at timeout_ms %d: deadline %v away, want about %v", ms, d, limit)
		}
	}
}

// TestOverloadReturns429 pins admission control: with MaxInFlight=1 and
// one request parked in the handler, the next request is rejected
// immediately with 429 + Retry-After, and the rejection is counted in
// /v1/stats — no silent drops.
func TestOverloadReturns429(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{MaxInFlight: 1})
	s.testHookSearch = func(ctx context.Context) {
		started <- struct{}{}
		<-release
	}
	client := ts.Client()

	firstDone := make(chan int)
	go func() {
		status, _ := postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{"abcd"}})
		firstDone <- status
	}()
	<-started // the semaphore's one slot is now held

	body, _ := json.Marshal(queryRequest{Terms: []string{"wxyz"}})
	resp, err := client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("parked request finished with %d, want 200", status)
	}

	_, sb := getJSON(t, client, ts.URL+"/v1/stats")
	var st statsResponse
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.Rejected != 1 {
		t.Errorf("stats rejected = %d, want 1", st.Server.Rejected)
	}
	if st.Server.Requests["search"].Errors < 1 {
		t.Errorf("the 429 was not counted as a search-endpoint error: %+v", st.Server.Requests["search"])
	}
}

// TestGracefulShutdownDrains pins the drain invariant: Shutdown refuses
// new requests immediately, but does not return — and does not close
// the DB — until the in-flight request has completed successfully.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{})
	s.testHookSearch = func(ctx context.Context) {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: testDocs(t, 3)})

	searchDone := make(chan int)
	go func() {
		status, _ := postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{"abcd"}})
		searchDone <- status
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// New requests must be refused once draining begins; poll because
	// Shutdown's drain flag races this goroutine by a few microseconds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ := getJSON(t, client, ts.URL+"/healthz")
		if status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started refusing requests after Shutdown")
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight search is still parked, so Shutdown must not have
	// completed — and the DB must still be open underneath it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if status := <-searchDone; status != http.StatusOK {
		t.Fatalf("in-flight search finished with %d, want 200 (drain must not break it)", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Only now is the DB closed.
	if _, err := db.Get(context.Background(), "doc-0001"); !errors.Is(err, staccatodb.ErrClosed) {
		t.Errorf("db.Get after Shutdown = %v, want ErrClosed", err)
	}
}

// TestShutdownTimeoutLeavesDBOpen: if the drain deadline fires first,
// Shutdown reports it and leaves the DB open for the still-running
// request rather than yanking it away.
func TestShutdownTimeoutLeavesDBOpen(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{})
	s.testHookSearch = func(ctx context.Context) {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: testDocs(t, 3)})

	searchDone := make(chan int)
	go func() {
		status, _ := postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{"abcd"}})
		searchDone <- status
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with expired drain deadline = %v, want DeadlineExceeded", err)
	}
	if _, err := db.Get(context.Background(), "doc-0001"); errors.Is(err, staccatodb.ErrClosed) {
		t.Fatal("DB was closed under an in-flight request")
	}
	close(release)
	if status := <-searchDone; status != http.StatusOK {
		t.Fatalf("in-flight search finished with %d, want 200", status)
	}
	// A second Shutdown with room to drain completes and closes the DB.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Shutdown(ctx2); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestConcurrentMixedClients hammers the server with concurrent mixed
// ingest/search/get/delete clients — the -race pass over the serving
// path — and proves the accounting invariant: every response is an
// expected status, and every admission rejection the clients saw is
// counted by the server. Nothing is dropped unreported.
//
// Searches park in the handler until the server has rejected a request,
// so the check is never vacuous: parked searches hold all four admission
// slots, and the next of the sixteen clients to ask for one gets a 429.
// The deadline only keeps a broken admission path from hanging the test.
func TestConcurrentMixedClients(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInFlight: 4})
	deadline := time.Now().Add(10 * time.Second)
	s.testHookSearch = func(ctx context.Context) {
		for s.met.rejected.Value() == 0 && ctx.Err() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	client := ts.Client()
	docs := testDocs(t, 10)
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: docs})
	terms := []string{docs[0].MAP()[:3], docs[1].MAP()[:3], "zq"}

	const clients = 16
	const opsPerClient = 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	statusCounts := map[int]int{}
	unexpected := map[int]int{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				var status int
				switch i % 5 {
				case 0: // write
					doc := *docs[c%len(docs)]
					doc.ID = fmt.Sprintf("mixed-%d-%d", c, i)
					status, _ = postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: []*staccato.Doc{&doc}})
				case 1: // point read, sometimes of a deleted/unknown doc
					status, _ = getJSON(t, client, ts.URL+"/v1/docs/"+fmt.Sprintf("mixed-%d-%d", c, i-1))
				case 2: // delete (often a no-op)
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/docs/"+fmt.Sprintf("mixed-%d-0", c), nil)
					resp, err := client.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					status = resp.StatusCode
				default: // search
					status, _ = postJSON(t, client, ts.URL+"/v1/search",
						queryRequest{Terms: []string{terms[i%len(terms)]}, Top: 5})
				}
				mu.Lock()
				statusCounts[status]++
				switch status {
				case http.StatusOK, http.StatusNotFound, http.StatusTooManyRequests:
				default:
					unexpected[status]++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if len(unexpected) > 0 {
		t.Fatalf("unexpected statuses under load: %v (all: %v)", unexpected, statusCounts)
	}
	_, body := getJSON(t, client, ts.URL+"/v1/stats")
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if statusCounts[http.StatusTooManyRequests] == 0 {
		t.Errorf("clients observed no 429 (statuses %v); the accounting check is vacuous", statusCounts)
	}
	if got, want := st.Server.Rejected, int64(statusCounts[http.StatusTooManyRequests]); got != want {
		t.Errorf("server counted %d rejections, clients observed %d — a rejection went unreported", got, want)
	}
	total := int64(0)
	for _, name := range []string{"ingest", "search", "get_doc", "delete_doc"} {
		total += st.Server.Requests[name].Count
	}
	// +1 for the setup ingest; the stats fetch itself books under "stats".
	if want := int64(clients*opsPerClient + 1); total != want {
		t.Errorf("endpoint counters sum to %d requests, want %d", total, want)
	}
}

// TestExpvarEndpoint sanity-checks /debug/vars: valid JSON carrying the
// service counters.
func TestExpvarEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{"ab"}})
	status, body := getJSON(t, client, ts.URL+"/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, body)
	}
	var inner map[string]json.RawMessage
	if err := json.Unmarshal(vars["staccatod"], &inner); err != nil {
		t.Fatalf("staccatod var map is not valid JSON: %v", err)
	}
	for _, key := range []string{"requests", "cache_hits", "cache_misses", "rejected", "in_flight", "engine_workers", "max_in_flight"} {
		if _, ok := inner[key]; !ok {
			t.Errorf("/debug/vars missing %q: %s", key, body)
		}
	}
}

// TestHealth covers the trivial endpoint and its draining flip side is
// covered by TestGracefulShutdownDrains.
func TestHealth(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := getJSON(t, ts.Client(), ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Errorf("health body: %s", body)
	}
}

// TestStatsSharesDBShape pins the satellite contract: the "db" object in
// /v1/stats is staccatodb.Stats's canonical JSON — unmarshalling it
// yields exactly DB.Stats(), so the CLI's verbose stats line and the
// endpoint can never disagree about doc counts or index persistence.
func TestStatsSharesDBShape(t *testing.T) {
	db, err := staccatodb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: testDocs(t, 4)})

	_, body := getJSON(t, client, ts.URL+"/v1/stats")
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.DB != db.Stats() {
		t.Errorf("/v1/stats db = %+v, want DB.Stats() = %+v", st.DB, db.Stats())
	}
	if !st.DB.IndexPersisted || st.DB.Docs != 4 {
		t.Errorf("disk-backed stats should report a persisted index over 4 docs: %+v", st.DB)
	}
}

// TestSnippetsEndpoint exercises /v1/snippets end to end: the round
// trip (snippets align with search's ranking, every span witnesses its
// term), the shared compiled-query cache (a prior identical search makes
// the snippets call a cache hit), and the stats counters (the endpoint's
// request and error counts reconcile with the calls made).
func TestSnippetsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	docs := testDocs(t, 20)
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: docs})

	term := docs[0].MAP()[:4]
	spec := queryRequest{Terms: []string{term}, Top: 10}

	// Prime the compiled-query cache through /v1/search; the snippets
	// endpoint shares the same cache keyed on the query-defining fields.
	status, body := postJSON(t, client, ts.URL+"/v1/search", spec)
	if status != http.StatusOK {
		t.Fatalf("search: status %d, body %s", status, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatalf("search for %q returned no results; body %s", term, body)
	}

	status, body = postJSON(t, client, ts.URL+"/v1/snippets",
		snippetsRequest{queryRequest: spec, MaxReadings: 2})
	if status != http.StatusOK {
		t.Fatalf("snippets: status %d, body %s", status, body)
	}
	var snr snippetsResponse
	if err := json.Unmarshal(body, &snr); err != nil {
		t.Fatal(err)
	}
	if !snr.CacheHit {
		t.Error("snippets after an identical search reported a compile-cache miss")
	}
	if snr.Stats.Mode == "" {
		t.Errorf("snippets stats missing execution mode: %s", body)
	}
	if len(snr.Snippets) != len(sr.Results) {
		t.Fatalf("%d snippets for %d search results", len(snr.Snippets), len(sr.Results))
	}
	for i, sn := range snr.Snippets {
		if sn.DocID != sr.Results[i].DocID {
			t.Fatalf("snippet %d is doc %q, search ranked %q there", i, sn.DocID, sr.Results[i].DocID)
		}
		//lint:allow floateq the snippet prob is documented as exactly the Result.Prob Search ranks by
		if sn.Prob != sr.Results[i].Prob {
			t.Errorf("doc %s: snippet prob %v != search prob %v", sn.DocID, sn.Prob, sr.Results[i].Prob)
		}
		if len(sn.Readings) == 0 && !sn.Truncated {
			t.Errorf("doc %s matched but reported no readings and no truncation", sn.DocID)
		}
		if len(sn.Readings) > 2 {
			t.Errorf("doc %s: %d readings exceed max_readings=2", sn.DocID, len(sn.Readings))
		}
		for _, rd := range sn.Readings {
			if len(rd.Spans) == 0 {
				t.Errorf("doc %s: matching reading %q carries no spans", sn.DocID, rd.Text)
			}
			for _, sp := range rd.Spans {
				if sp.Term != term || sp.Start < 0 || sp.End > len(rd.Text) || rd.Text[sp.Start:sp.End] != term {
					t.Errorf("doc %s: span %+v does not witness %q in %q", sn.DocID, sp, term, rd.Text)
				}
			}
		}
	}

	// One client error, booked against the endpoint's error counter.
	status, _ = postJSON(t, client, ts.URL+"/v1/snippets",
		snippetsRequest{queryRequest: spec, MaxReadings: -1})
	if status != http.StatusBadRequest {
		t.Fatalf("negative max_readings: status %d, want 400", status)
	}

	_, body = getJSON(t, client, ts.URL+"/v1/stats")
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	ep, ok := st.Server.Requests["snippets"]
	if !ok {
		t.Fatalf("stats carry no 'snippets' endpoint counters: %s", body)
	}
	if ep.Count != 2 || ep.Errors != 1 {
		t.Errorf("snippets counters = %+v, want 2 requests / 1 error", ep)
	}
	if st.Server.QueryCache.Hits != 1 {
		t.Errorf("query cache hits = %d, want exactly the snippets reuse", st.Server.QueryCache.Hits)
	}
}

// TestCacheKeyCoversQueryDefiningFields is the regression guard for the
// compiled-query cache: every field that changes what a query evaluates
// must change the key, so two different specs can never share an entry.
func TestCacheKeyCoversQueryDefiningFields(t *testing.T) {
	base := queryRequest{Terms: []string{"abcd"}, Mode: "fuzzy", Distance: 1, Combine: "and"}
	same := base
	if base.cacheKey() != same.cacheKey() {
		t.Fatal("identical specs produced different cache keys")
	}
	variants := map[string]queryRequest{
		"term":     {Terms: []string{"abce"}, Mode: "fuzzy", Distance: 1, Combine: "and"},
		"terms":    {Terms: []string{"abcd", "abce"}, Mode: "fuzzy", Distance: 1, Combine: "and"},
		"mode":     {Terms: []string{"abcd"}, Mode: "substring", Distance: 1, Combine: "and"},
		"distance": {Terms: []string{"abcd"}, Mode: "fuzzy", Distance: 2, Combine: "and"},
		"lexicon":  {Terms: []string{"abcd"}, Mode: "fuzzy", Distance: 1, Combine: "and", Lexicon: true},
		"combine":  {Terms: []string{"abcd"}, Mode: "fuzzy", Distance: 1, Combine: "or"},
		"not":      {Terms: []string{"abcd"}, Mode: "fuzzy", Distance: 1, Combine: "and", Not: "zz"},
	}
	for field, v := range variants {
		if v.cacheKey() == base.cacheKey() {
			t.Errorf("specs differing only in %s share a cache key %q", field, base.cacheKey())
		}
	}
	// Field values must not bleed into each other through the separator:
	// a term containing what another field contributes stays distinct.
	a := queryRequest{Terms: []string{"x"}, Not: "y"}
	b := queryRequest{Terms: []string{"y"}, Not: "x"}
	if a.cacheKey() == b.cacheKey() {
		t.Error("swapped term/not values share a cache key")
	}
}

// TestFuzzyDistanceNeverSharesCacheEntry drives the regression over the
// wire: two searches identical except for distance must both be cache
// misses — a shared entry would silently answer the second query with
// the first one's automaton.
func TestFuzzyDistanceNeverSharesCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: testDocs(t, 5)})

	var sr searchResponse
	for i, d := range []int{1, 2, 1} {
		status, body := postJSON(t, client, ts.URL+"/v1/search",
			queryRequest{Terms: []string{"abcd"}, Mode: "fuzzy", Distance: d})
		if status != http.StatusOK {
			t.Fatalf("fuzzy search distance %d: status %d, body %s", d, status, body)
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		wantHit := i == 2 // only the repeat of distance 1 may reuse a compile
		if sr.CacheHit != wantHit {
			t.Errorf("fuzzy search %d (distance %d): cache_hit = %v, want %v", i, d, sr.CacheHit, wantHit)
		}
	}
}

// TestFuzzySearchEndpoint checks the fuzzy leaf over the wire: a term
// with one corrupted rune misses as an exact substring but finds its
// document at distance 1, and the invalid spec corners are 400s.
func TestFuzzySearchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	docs := testDocs(t, 20)
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: docs})

	term := []rune(docs[0].MAP()[:6])
	term[2] = '0' // never in the synthetic alphabet
	corrupted := string(term)

	var sr searchResponse
	_, body := postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{corrupted}, Top: 0})
	json.Unmarshal(body, &sr)
	for _, r := range sr.Results {
		if r.DocID == docs[0].ID {
			t.Fatalf("exact search already finds corrupted term %q", corrupted)
		}
	}

	status, body := postJSON(t, client, ts.URL+"/v1/search",
		queryRequest{Terms: []string{corrupted}, Mode: "fuzzy", Distance: 1})
	if status != http.StatusOK {
		t.Fatalf("fuzzy search: status %d, body %s", status, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range sr.Results {
		found = found || r.DocID == docs[0].ID && r.Prob > 0
	}
	if !found {
		t.Errorf("fuzzy search for %q did not surface %s: %s", corrupted, docs[0].ID, body)
	}

	for name, bad := range map[string]queryRequest{
		"distance without fuzzy mode": {Terms: []string{"abcd"}, Distance: 1},
		"distance beyond maximum":     {Terms: []string{"abcd"}, Mode: "fuzzy", Distance: 3},
		"negative distance":           {Terms: []string{"abcd"}, Mode: "fuzzy", Distance: -1},
		"lexicon without a lexicon":   {Terms: []string{"abcd"}, Lexicon: true},
	} {
		if status, body := postJSON(t, client, ts.URL+"/v1/search", bad); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %s", name, status, body)
		}
	}
}

// TestLexiconRescoringAndSnippetContext starts the server with a
// lexicon and checks a lexicon-ranked fuzzy search succeeds, matches the
// plain search's document set, and the snippets endpoint attaches
// context windows (with its range guard enforced).
func TestLexiconRescoringAndSnippetContext(t *testing.T) {
	docs := testDocs(t, 20)
	var words []string
	for _, d := range docs {
		words = append(words, strings.Fields(d.MAP())...)
	}
	_, ts := newTestServer(t, Options{Lexicon: fuzzy.NewLexicon(words)})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/ingest", ingestRequest{Docs: docs})

	term := docs[0].MAP()[:4]
	var plain, scored searchResponse
	_, body := postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{term}})
	json.Unmarshal(body, &plain)
	status, body := postJSON(t, client, ts.URL+"/v1/search", queryRequest{Terms: []string{term}, Lexicon: true})
	if status != http.StatusOK {
		t.Fatalf("lexicon search: status %d, body %s", status, body)
	}
	if err := json.Unmarshal(body, &scored); err != nil {
		t.Fatal(err)
	}
	if len(plain.Results) == 0 {
		t.Fatal("plain search matched nothing; probe term is bad")
	}
	ids := func(sr searchResponse) map[string]bool {
		out := map[string]bool{}
		for _, r := range sr.Results {
			out[r.DocID] = true
		}
		return out
	}
	if got, want := ids(scored), ids(plain); len(got) != len(want) {
		t.Errorf("lexicon rescoring changed the matched set: %v vs %v", got, want)
	}

	sreq := snippetsRequest{MaxReadings: 2, ContextRunes: 5}
	sreq.Terms = []string{term}
	sreq.Lexicon = true
	status, body = postJSON(t, client, ts.URL+"/v1/snippets", sreq)
	if status != http.StatusOK {
		t.Fatalf("snippets with context: status %d, body %s", status, body)
	}
	var snr snippetsResponse
	if err := json.Unmarshal(body, &snr); err != nil {
		t.Fatal(err)
	}
	sawContext := false
	for _, sn := range snr.Snippets {
		for _, rd := range sn.Readings {
			for _, sp := range rd.Spans {
				if sp.Context == "" {
					t.Errorf("doc %s: span %s@%d-%d missing context", sn.DocID, sp.Term, sp.Start, sp.End)
					continue
				}
				sawContext = true
				if !strings.Contains(sp.Context, rd.Text[sp.Start:sp.End]) {
					t.Errorf("doc %s: context %q does not contain the match", sn.DocID, sp.Context)
				}
			}
		}
	}
	if !sawContext {
		t.Fatal("no span carried a context window")
	}

	over := snippetsRequest{ContextRunes: maxSnippetContext + 1}
	over.Terms = []string{term}
	if status, body := postJSON(t, client, ts.URL+"/v1/snippets", over); status != http.StatusBadRequest {
		t.Errorf("oversized context_runes: status %d, want 400; body %s", status, body)
	}
}
