package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// errModelDocs generates n error-model documents at dial (6,3), over
// the 2,000-word vocabulary the benchmark's corpus uses.
func errModelDocs(tb testing.TB, n int) []*staccato.Doc {
	tb.Helper()
	cases, err := testgen.ErrDocs(n, testgen.ErrModelConfig{VocabSize: 2000, Seed: 1}, 6, 3)
	if err != nil {
		tb.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	return docs
}

// errModelBody marshals n error-model documents as an ingest body.
func errModelBody(tb testing.TB, n int) []byte {
	tb.Helper()
	body, err := json.Marshal(ingestRequest{Docs: errModelDocs(tb, n)})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// seedTexts are reading texts that exercise every way a JSON string can
// be written: quotes and backslashes, the characters json.Marshal
// escapes for HTML (<, >, &), U+2028, control characters, multi-byte
// UTF-8, a rune outside the BMP, and invalid UTF-8.
var seedTexts = []string{
	"plain", "", `say "hi"`, `back\slash`, "<a&b>", "tab\tnew\nline\x01", "line\u2028sep",
	"façade", "日本語", "😀", "\xff\xfe", "ok\xc3(",
}

// readerBodies are ingest bodies the one-pass reader must take itself:
// marshalled error-model documents, each seed text as a marshalled
// reading and ID, and hand-written bodies with what json.Marshal never
// writes — escaped surrogates, raw invalid UTF-8, whitespace everywhere,
// members in any order, every number form.
func readerBodies(tb testing.TB) [][]byte {
	tb.Helper()
	bodies := [][]byte{errModelBody(tb, 2)}
	for _, text := range seedTexts {
		body, err := json.Marshal(ingestRequest{Docs: []*staccato.Doc{{
			ID:     text,
			Params: staccato.Params{Chunks: 1, K: 2},
			Chunks: []staccato.PathSet{{Alts: []staccato.Alt{{Text: text, Prob: 0.75}, {Text: "x", Prob: 0.25}}, Retained: 1}},
		}}})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, s := range []string{
		`{"docs":[{"id":"a\"b\\c\/d\b\f\n\r\t","chunks":[{"alts":[{"text":"<>&\u0000","prob":1}],"retained":1}]}]}`,
		`{"docs":[{"id":"😀","chunks":[{"alts":[{"text":"\ud83d\ude00x\ud800","prob":0.5},{"text":"\udc00\ud800y\ud800A","prob":0.5}]}]}]}`,
		"{\"docs\":[{\"id\":\"raw\xff\xc3(\xed\xa0\x80\",\"chunks\":[{\"alts\":[{\"text\":\"é日本\x7f\xef\xbf\xbd\",\"prob\":1}]}]}]}",
		" \t\r\n{ \"docs\" : [ { \"id\" : \"x\" , \"params\" : { \"chunks\" : 1 , \"k\" : 1 } } ] , \"timeout_ms\" : 5 } \n",
		`{"timeout_ms":-3,"docs":[{"chunks":[{"retained":0.5,"alts":[{"prob":0.25,"text":"ab"}]}],"params":{"k":3,"chunks":6},"id":"z"}]}`,
		`{"docs":[{"id":"x","chunks":[{"alts":[]},{},{"retained":-0}]},{"id":"y","chunks":[]},{"id":"z"},{}]}`,
		`{"docs":[{"id":"n","params":{"chunks":-0,"k":9223372036854775807},"chunks":[{"alts":[{"text":"a","prob":1e-7},{"text":"b","prob":1E+2},{"text":"c","prob":0.5e-3},{"text":"d","prob":-12.50E3},{"text":"e","prob":4.9e-324},{"text":"f","prob":1e-400}]}]}]}`,
		`{"docs":[]}`,
		`{}`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// fallbackBodies are bodies the reader must leave to encoding/json:
// those it would decode to some value — a key matched only
// case-insensitively, an escaped key, a repeated key, null, a number
// strconv rejects for its field — and those it must reject: malformed
// JSON, unknown fields, trailing data.
var fallbackBodies = []string{
	`null`, `{"docs":null}`, `{"docs":[null]}`, `{"docs":[{"id":null}]}`, `{"docs":[{"chunks":[{"alts":null}]}]}`,
	`{"DOCS":[]}`, `{"docs":[{"ID":"x"}]}`, `{"docs":[{"\u0069d":"x"}]}`, `{"docs":[{"id":"x","chunks":[{"Alts":[]}]}]}`,
	`{"docs":[],"docs":[]}`, `{"docs":[{"id":"a","id":"b"}]}`, `{"docs":[{"chunks":[{"alts":[{"text":"a","text":"b"}]}]}]}`,
	`{"timeout_ms":1.5}`, `{"timeout_ms":1e2}`, `{"timeout_ms":99999999999999999999}`,
	`{"docs":[{"chunks":[{"retained":1e400}]}]}`,
	`{"timeout_ms":01}`, `{"timeout_ms":+1}`, `{"timeout_ms":.5}`, `{"timeout_ms":1.}`, `{"timeout_ms":-}`, `{"timeout_ms":1e}`,
	`{"docs":[{"chunks":[{"retained":Infinity}]}]}`, `{"docs":[{"chunks":[{"retained":NaN}]}]}`, `{"timeout_ms":0x10}`,
	`{"docs":[],"nope":1}`, `{"docs":[{"id":"x","extra":true}]}`,
	`{"docs":[]}}`, `{"docs":[]}]garbage`, `{"docs":[]} {}`, `{"docs":[]} 5`, `{"docs":[]`, `{"docs":[{"id":"x"}`, `{"docs":[{"id":"x`,
	`[]`, `{"docs":"x"}`, `{"docs":[{"chunks":[{"alts":[{"text":5}]}]}]}`, "\xef\xbb\xbf{\"docs\":[]}",
	"{\"docs\":[{\"id\":\"a\nb\"}]}", `{"docs":[{"id":"\x"}]}`, `{"docs":[{"id":"\u12G4"}]}`, `{"docs":[{"id":"\`,
	`{"docs":[,]}`, `{"docs":[{}, ]}`, `{"docs":[{"id":"x",}]}`, `{,}`, `{"docs" []}`, ``,
}

// checkReaderMatchesJSON fails t when readIngest takes body but
// decodeJSON, the reference, rejects it or decodes another value. It
// reports whether the reader took body.
func checkReaderMatchesJSON(t *testing.T, body []byte) bool {
	t.Helper()
	got, ok := readIngest(body)
	if !ok {
		return false
	}
	var want ingestRequest
	if err := decodeJSON(bytes.NewReader(body), &want); err != nil {
		t.Fatalf("reader took a body encoding/json rejects (%v): %q", err, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reader decoded %q to\n%#v\nencoding/json to\n%#v", body, got, want)
	}
	return true
}

// TestIngestReaderTakesSeedBodies: every seed body decodes on the fast
// path, to encoding/json's value, so the fuzz target's agreement is not
// vacuous and the fast path is the one taken.
func TestIngestReaderTakesSeedBodies(t *testing.T) {
	for _, body := range readerBodies(t) {
		if !checkReaderMatchesJSON(t, body) {
			t.Errorf("reader fell back on a seed body: %q", body)
		}
	}
}

// TestIngestReaderFallsBack: the reader declines every body it cannot
// decode to exactly encoding/json's value or error.
func TestIngestReaderFallsBack(t *testing.T) {
	for _, body := range fallbackBodies {
		if _, ok := readIngest([]byte(body)); ok {
			t.Errorf("reader took %q, which encoding/json must decide", body)
		}
	}
}

// TestIngestReaderAllocs gates the reader at 8 allocations per document
// of a 256-document body: five per document, and the growth of the
// document list and the reader's scratch. encoding/json makes 42.
func TestIngestReaderAllocs(t *testing.T) {
	body := errModelBody(t, 256)
	perDoc := testing.AllocsPerRun(5, func() { readIngest(body) }) / 256
	if perDoc > 8 {
		t.Errorf("reader makes %.1f allocations per document, want at most 8", perDoc)
	}
	t.Logf("reader: %.1f allocations per document", perDoc)
}

// TestIngestIDsPinNothing: decoded documents' IDs must not keep their
// readings or the body alive. The store and the index keep IDs for as
// long as the documents live; an ID sliced from a larger string would
// pin all of it. A reading shared with an ID never has its cleanup run,
// and a body-wide string the IDs share shows as live heap.
func TestIngestIDsPinNothing(t *testing.T) {
	const docs = 256
	errModelBody(t, docs) // the generator's own caches fill before the baseline
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and whatever a sync.Pool's victim cache held
	runtime.ReadMemStats(&before)
	freed := make(chan struct{}, docs+1)
	ids, size := decodeIDs(t, docs, freed)
	for want, waits := docs+1, 0; want > 0; {
		runtime.GC()
		select {
		case <-freed:
			want--
		case <-time.After(10 * time.Millisecond):
			if waits++; waits == 200 {
				t.Fatalf("%d of the readings and the body stay reachable from the IDs alone", want)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > int64(size/4) {
		t.Errorf("the IDs of a %d-byte body hold %d bytes of heap", size, grown)
	}
	runtime.KeepAlive(ids)
}

// decodeIDs decodes a body of n documents and returns only their IDs
// and the body's size. It signals freed once the body becomes
// unreachable, and once for each document whose readings do.
func decodeIDs(t *testing.T, n int, freed chan struct{}) ([]string, int) {
	body := errModelBody(t, n)
	req, ok := readIngest(body)
	if !ok {
		t.Fatal("reader fell back on an error-model body")
	}
	signal := func(struct{}) { freed <- struct{}{} }
	runtime.AddCleanup(unsafe.SliceData(body), signal, struct{}{})
	ids := make([]string, len(req.Docs))
	for i, d := range req.Docs {
		ids[i] = d.ID
		runtime.AddCleanup(unsafe.StringData(d.Chunks[0].Alts[0].Text), signal, struct{}{})
	}
	return ids, len(body)
}

var (
	fuzzDocOnce sync.Once
	fuzzDoc     *staccato.Doc
)

// FuzzIngestDecodeMatchesJSON holds the one-pass reader to encoding/json
// with DisallowUnknownFields and the EOF rule, which decodeJSON is:
// whenever the reader takes a body, the reference takes it too and
// decodes it to a deeply equal request. Each input is checked twice: the
// raw bytes, and the marshalled body of an error-model document whose ID
// and first reading are text and whose first probability is prob, which
// the reader must always take.
func FuzzIngestDecodeMatchesJSON(f *testing.F) {
	for i, body := range readerBodies(f) {
		f.Add(body, seedTexts[i%len(seedTexts)], 0.5)
	}
	for i, body := range fallbackBodies {
		f.Add([]byte(body), seedTexts[i%len(seedTexts)], math.SmallestNonzeroFloat64)
	}
	f.Fuzz(func(t *testing.T, body []byte, text string, prob float64) {
		checkReaderMatchesJSON(t, body)

		fuzzDocOnce.Do(func() { fuzzDoc = errModelDocs(t, 1)[0] })
		if math.IsInf(prob, 0) || math.IsNaN(prob) {
			prob = 1 // json.Marshal refuses them
		}
		d := *fuzzDoc
		d.ID = text
		d.Chunks = append([]staccato.PathSet(nil), d.Chunks...)
		d.Chunks[0].Alts = append([]staccato.Alt(nil), d.Chunks[0].Alts...)
		d.Chunks[0].Alts[0] = staccato.Alt{Text: text, Prob: prob}
		marshalled, err := json.Marshal(ingestRequest{Docs: []*staccato.Doc{&d}})
		if err != nil {
			t.Fatal(err)
		}
		if !checkReaderMatchesJSON(t, marshalled) {
			t.Fatalf("reader fell back on a marshalled body: %q", marshalled)
		}
	})
}

// BenchmarkIngestDecode decodes one 256-document error-model body at
// dial (6,3), the size of the benchmark's ingest requests, with the
// one-pass reader and with encoding/json, and reports each one's
// allocations per document.
func BenchmarkIngestDecode(b *testing.B) {
	body := errModelBody(b, 256)
	for _, bc := range []struct {
		name   string
		decode func() bool
	}{
		{"reader", func() bool { _, ok := readIngest(body); return ok }},
		{"encoding-json", func() bool {
			var req ingestRequest
			return decodeJSON(bytes.NewReader(body), &req) == nil
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for b.Loop() {
				if !bc.decode() {
					b.Fatal("decode failed")
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/256, "allocs/doc")
		})
	}
}
