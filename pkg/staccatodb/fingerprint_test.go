package staccatodb_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
)

var update = flag.Bool("update", false, "rewrite the golden answer fingerprint in testdata")

// fingerprintFile holds the committed answer digest.
var fingerprintFile = filepath.Join("testdata", "answers.sha256")

// TestAnswerFingerprint pins every answer bit across builds: a fixed
// query set over a 64-document error-model corpus at (6,3) — keyword,
// substring, fuzzy d=1 and d=2 leaves, alone and under And, Or and Not,
// each with no limit, top 10, a MinProb floor and both — runs indexed
// (candidate-only and top-k where the query plans) and WithoutIndex (the
// scan), and the SHA-256 of (database, query, options, doc ID, the
// probability's bits) in result order must equal the committed digest. A
// refactor must leave it as it is; only an intended change of answers
// regenerates it, with go test ./pkg/staccatodb -run TestAnswerFingerprint
// -update.
func TestAnswerFingerprint(t *testing.T) {
	ctx := context.Background()
	cases, err := testgen.ErrDocs(64, testgen.ErrModelConfig{Seed: 11}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := staccatodb.OpenMem()
	if err != nil {
		t.Fatal(err)
	}
	defer indexed.Close()
	scanned, err := staccatodb.OpenMem(staccatodb.WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer scanned.Close()
	for _, db := range []*staccatodb.DB{indexed, scanned} {
		if err := db.Ingest(ctx, docsOf(cases)); err != nil {
			t.Fatal(err)
		}
	}

	v := testgen.Vocab(200) // the error model's default vocabulary, which the corpus draws from
	kw := func(i int) *query.Query { return mustQ(query.Keyword(v[i])) }
	sub := func(term string) *query.Query { return mustQ(query.Substring(term)) }
	fz := func(i, d int) *query.Query { return mustQ(query.Fuzzy(v[i], d)) }
	queries := []*query.Query{
		kw(0),
		sub(v[1][:3]),
		sub(v[2][:2]),
		fz(3, 1),
		fz(5, 1),
		fz(7, 2),
		query.And(kw(0), kw(1)),
		query.And(kw(10), kw(11), kw(12)),
		query.Or(kw(4), sub(v[8][:3]), fz(3, 1)),
		query.And(kw(0), query.Not(kw(1))),
		query.Not(sub(v[6][:3])),
		query.Or(query.And(kw(0), kw(2)), query.Not(fz(9, 1))),
	}
	optSets := []query.SearchOptions{{}, {TopN: 10}, {MinProb: 0.25}, {TopN: 10, MinProb: 0.25}}

	h := sha256.New()
	modes := map[query.ExecMode]bool{}
	results := 0
	for _, q := range queries {
		for _, opts := range optSets {
			var first []query.Result
			for i, db := range []struct {
				name string
				db   *staccatodb.DB
			}{{"indexed", indexed}, {"scanned", scanned}} {
				res, stats, err := db.db.Search(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				modes[stats.Mode] = true
				results += len(res)
				if i == 0 {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Fatalf("%s %+v: indexed and WithoutIndex diverge\n indexed: %+v\n scanned: %+v", q, opts, first, res)
				}
				for _, r := range res {
					fmt.Fprintf(h, "%s %s top=%d min=%v %s %016x\n", db.name, q, opts.TopN, opts.MinProb, r.DocID, math.Float64bits(r.Prob))
				}
			}
		}
	}
	for _, m := range []query.ExecMode{query.ExecScan, query.ExecCandidateOnly, query.ExecTopK} {
		if !modes[m] {
			t.Errorf("no run executed in mode %q; the fingerprint no longer covers it", m)
		}
	}
	if results == 0 {
		t.Fatal("the query set matched nothing")
	}
	got := hex.EncodeToString(h.Sum(nil))

	if *update {
		if err := os.MkdirAll(filepath.Dir(fingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s (%d results)", fingerprintFile, got, results)
		return
	}
	want, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("answer fingerprint %s, committed %s: some query's results or probability bits changed (%d results)",
			got, strings.TrimSpace(string(want)), results)
	}
}
