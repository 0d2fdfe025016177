package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/server"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

// TestServerAndCLIRenderTheSameQuery feeds the same inputs to the HTTP
// API and to the search subcommand, across every mode, combiner, and
// with and without a negated term, and requires both front ends to
// report the same compiled query.
func TestServerAndCLIRenderTheSameQuery(t *testing.T) {
	db, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(server.New(db, server.Options{}).Handler())
	defer ts.Close()

	for _, mode := range []string{"substring", "keyword", "fuzzy"} {
		for _, combine := range []string{"and", "or"} {
			for _, not := range []string{"", "omit"} {
				t.Run(fmt.Sprintf("%s/%s/not=%q", mode, combine, not), func(t *testing.T) {
					terms := []string{"alpha", "bravo"}
					wire := map[string]any{"terms": terms, "mode": mode, "combine": combine, "not": not}
					cfg := searchConfig{docs: 1, length: 20, seed: 1, chunks: 2, k: 2, mode: mode, combine: combine, not: not, terms: terms}
					if mode == "fuzzy" {
						// The CLI spells fuzzy mode as -fuzzy D over the default -mode.
						wire["distance"] = 1
						cfg.mode, cfg.fuzzy = "substring", 1
					}
					body, err := json.Marshal(wire)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					var got struct {
						Query string `json:"query"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("server: status %d, decode err %v", resp.StatusCode, err)
					}
					rep, err := runSearch(&strings.Builder{}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got.Query == "" || got.Query != rep.query {
						t.Errorf("server compiled %q, CLI compiled %q", got.Query, rep.query)
					}
				})
			}
		}
	}
}
