package query_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// snippetFingerprintFile holds the committed snippet digest.
var snippetFingerprintFile = filepath.Join("testdata", "snippets.sha256")

// snippetFingerprintQueries builds the fingerprint's query set over terms
// cut from the documents' MAP strings — keyword terms are whole words of
// them: substring, keyword and fuzzy d=1/d=2 leaves, and And, Or and Not
// over pairs of them.
func snippetFingerprintQueries(rng *rand.Rand, docs []*staccato.Doc) []*query.Query {
	pick := func() string {
		src := []rune(docs[rng.Intn(len(docs))].MAP())
		ln := min(2+rng.Intn(5), len(src))
		at := rng.Intn(len(src) - ln + 1)
		return string(src[at : at+ln])
	}
	word := func() string {
		words := strings.Fields(docs[rng.Intn(len(docs))].MAP())
		return words[rng.Intn(len(words))]
	}
	leaf := func() *query.Query {
		for {
			var q *query.Query
			var err error
			switch rng.Intn(4) {
			case 0:
				q, err = query.Substring(pick())
			case 1:
				q, err = query.Keyword(word())
			default:
				q, err = query.Fuzzy(pick(), 1+rng.Intn(2))
			}
			if err == nil {
				return q
			}
		}
	}
	var qs []*query.Query
	for i := 0; i < 24; i++ {
		a, b := leaf(), leaf()
		switch i % 6 {
		case 0, 1:
			qs = append(qs, a)
		case 2:
			qs = append(qs, query.And(a, b))
		case 3:
			qs = append(qs, query.Or(a, b))
		case 4:
			qs = append(qs, query.Not(a))
		default:
			qs = append(qs, query.And(a, query.Not(b)))
		}
	}
	return qs
}

// TestSnippetFingerprint pins every snippet report across builds: for
// error-model documents and a fixed query set, the SHA-256 of each
// DocSnippets' JSON under several reading counts and context widths must
// equal the committed digest. A refactor of snippet extraction must leave
// it as it is; only an intended change of snippets regenerates it, with
// go test ./pkg/query -run TestSnippetFingerprint -update.
func TestSnippetFingerprint(t *testing.T) {
	cases, err := testgen.ErrDocs(16, testgen.ErrModelConfig{Seed: 5, Words: 8}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*staccato.Doc, len(cases))
	for i, c := range cases {
		docs[i] = c.Doc
	}
	opts := []query.SnippetOptions{
		{},
		{MaxReadings: 5, ContextRunes: 3},
		{MaxReadings: 2, ContextRunes: 12},
		{MaxReadings: 4, ContextRunes: 1},
	}
	h := sha256.New()
	reports := 0
	for _, q := range snippetFingerprintQueries(rand.New(rand.NewSource(17)), docs) {
		for _, d := range docs {
			for _, o := range opts {
				sn := q.Snippets(d, o)
				data, err := json.Marshal(sn)
				if err != nil {
					t.Fatal(err)
				}
				h.Write([]byte(q.String() + "\n"))
				h.Write(append(data, '\n'))
				reports++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))

	if *update {
		if err := os.MkdirAll(filepath.Dir(snippetFingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snippetFingerprintFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s (%d reports)", snippetFingerprintFile, got, reports)
		return
	}
	want, err := os.ReadFile(snippetFingerprintFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("snippet fingerprint %s, committed %s: some reading, probability, span or context changed (%d reports)",
			got, strings.TrimSpace(string(want)), reports)
	}
}
