package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/server"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// TestServeStoreFlagValidation pins the clean-error contract the other
// subcommands established: a missing flag and a typo'd directory fail
// with the same message shapes as staccato ingest/search, before
// anything touches the disk.
func TestServeStoreFlagValidation(t *testing.T) {
	ctx := context.Background()

	err := runServe(ctx, io.Discard, serveConfig{})
	if err == nil || !strings.Contains(err.Error(), "-store DIR is required") {
		t.Errorf("no -store: err = %v, want \"-store DIR is required\"", err)
	}

	missing := t.TempDir() + "/nope"
	err = runServe(ctx, io.Discard, serveConfig{store: missing})
	if err == nil || !strings.Contains(err.Error(), "no store at "+missing) ||
		!strings.Contains(err.Error(), "staccato ingest -store") {
		t.Errorf("typo'd -store: err = %v, want the no-store-at message pointing at staccato ingest", err)
	}
}

func TestServeRejectsUnexpectedArgument(t *testing.T) {
	err := serveMain(context.Background(), io.Discard, []string{"serve"})
	if err == nil || !strings.Contains(err.Error(), "unexpected argument") {
		t.Errorf("err = %v, want unexpected-argument error", err)
	}
}

// TestServeEndToEnd boots the real subcommand path — open store, listen,
// serve, drain on cancel — against a pre-ingested directory, issues a
// search over the wire, and confirms a clean signal-driven exit.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := testgen.Docs(8, testgen.Config{Length: 40, Seed: 3}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	if err := db.Ingest(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- runServe(ctx, &out, serveConfig{
			store: dir,
			addr:  "127.0.0.1:0",
			ready: func(addr string) { addrCh <- addr },
		})
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	base := "http://" + addr
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	term := docs[0].MAP()[:4]
	body, _ := json.Marshal(map[string]any{"terms": []string{term}, "top": 5})
	resp, err = http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d, body %s", resp.StatusCode, data)
	}
	var sr struct {
		Results []struct {
			DocID string  `json:"doc_id"`
			Prob  float64 `json:"prob"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatalf("served search for %q returned no results: %s", term, data)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after cancel")
	}
	if !strings.Contains(out.String(), "stopped cleanly") {
		t.Errorf("missing clean-shutdown line in output:\n%s", out.String())
	}
}

// TestServeFlags pins serve's command line: exactly the ten flags the
// server has always taken, each with its default, each accepting a value.
func TestServeFlags(t *testing.T) {
	for _, c := range []struct{ name, def, set string }{
		{"addr", ":8417", "127.0.0.1:0"},
		{"store", "", "/some/dir"},
		{"create", "false", "true"},
		{"workers", "0", "3"},
		{"maxinflight", strconv.Itoa(server.DefaultMaxInFlight), "17"},
		{"timeout", server.DefaultRequestTimeout.String(), "2s"},
		{"drain", "30s", "1m0s"},
		{"nosync", "false", "true"},
		{"noindex", "false", "true"},
		{"lexicon", "", "vocab:50"},
	} {
		fs := serveFlags(&serveConfig{})
		f := fs.Lookup(c.name)
		if f == nil {
			t.Errorf("serve has no -%s flag", c.name)
			continue
		}
		if f.DefValue != c.def {
			t.Errorf("-%s default %q, want %q", c.name, f.DefValue, c.def)
		}
		if err := fs.Parse([]string{"-" + c.name + "=" + c.set}); err != nil || f.Value.String() != c.set {
			t.Errorf("-%s=%s: err %v, value %q", c.name, c.set, err, f.Value.String())
		}
	}
	n := 0
	serveFlags(&serveConfig{}).VisitAll(func(*flag.Flag) { n++ })
	if n != 10 {
		t.Errorf("serve has %d flags, want 10", n)
	}
	if err := serveMain(context.Background(), io.Discard, []string{"-nosuchflag"}); !errors.Is(err, errFlagParse) {
		t.Errorf("unknown flag: err = %v, want errFlagParse (exit status 2)", err)
	}
	if err := serveMain(context.Background(), io.Discard, []string{"-h"}); err != nil {
		t.Errorf("-h: err = %v, want nil", err)
	}
}

// TestServeLexiconFlag checks that serve -lexicon takes the forms search
// -lexicon takes — a wordlist file or vocab:N — and refuses broken ones
// before opening the store.
func TestServeLexiconFlag(t *testing.T) {
	words := filepath.Join(t.TempDir(), "words.txt")
	if err := os.WriteFile(words, []byte(strings.Join(testgen.Vocab(40), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"vocab:40", words} {
		ctx, cancel := context.WithCancel(context.Background())
		var out bytes.Buffer
		err := runServe(ctx, &out, serveConfig{
			store: t.TempDir(), create: true, addr: "127.0.0.1:0", lexicon: spec,
			ready: func(string) { cancel() },
		})
		cancel()
		if err != nil {
			t.Fatalf("-lexicon %s: %v", spec, err)
		}
		if !strings.Contains(out.String(), "serve: lexicon rescoring available (40 words") {
			t.Errorf("-lexicon %s: no 40-word lexicon line in\n%s", spec, out.String())
		}
	}
	for _, bad := range []string{"vocab:", "vocab:0", "vocab:x", filepath.Join(t.TempDir(), "missing.txt")} {
		err := runServe(context.Background(), io.Discard, serveConfig{store: t.TempDir() + "/nope", lexicon: bad})
		if err == nil || !strings.Contains(err.Error(), "-lexicon") {
			t.Errorf("-lexicon %q: err = %v, want a -lexicon error", bad, err)
		}
	}
}
