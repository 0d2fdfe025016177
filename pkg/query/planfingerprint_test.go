package query_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/query"
)

var update = flag.Bool("update", false, "rewrite the golden plan fingerprint in testdata")

// planFingerprintFile holds the committed plan digest.
var planFingerprintFile = filepath.Join("testdata", "plans.sha256")

// randPlanQuery builds a random And/Or/Not formula over keyword,
// substring and fuzzy d=1/d=2 leaves whose terms run from one rune (under
// every gram size but 1) to ten (long enough for the pigeonhole at
// distance 1). It returns nil when a combinator refuses the product: And,
// Or and Not panic over the term limit.
func randPlanQuery(rng *rand.Rand, depth int) (q *query.Query) {
	defer func() {
		if recover() != nil {
			q = nil
		}
	}()
	if depth <= 0 || rng.Intn(3) == 0 {
		const alphabet = "abcdeé"
		runes := []rune(alphabet)
		term := make([]rune, 1+rng.Intn(10))
		for i := range term {
			term[i] = runes[rng.Intn(len(runes))]
		}
		switch d := rng.Intn(4); {
		case d == 0:
			return mustQ(query.Keyword(string(term)))
		case d == 1 || len(term) <= d-1:
			return mustQ(query.Substring(string(term)))
		default:
			return mustQ(query.Fuzzy(string(term), d-1))
		}
	}
	kid := func() *query.Query { return randPlanQuery(rng, depth-1) }
	switch rng.Intn(3) {
	case 0:
		return query.And(kid(), kid())
	case 1:
		return query.Or(kid(), kid())
	default:
		return query.Not(kid())
	}
}

// TestPlanFingerprint pins everything a plan shows its callers across
// builds: for random boolean queries from fixed seeds at gram sizes 0–5,
// the SHA-256 of the query, Plan.String, Prunable, NumGrams, whether
// Lookup pruned, the gram count it returned and every index.Lookup it
// handed a recording PostingSource must equal the committed digest. A
// refactor of the planner must leave it as it is; only an intended change
// of plans regenerates it, with go test ./pkg/query -run
// TestPlanFingerprint -update.
func TestPlanFingerprint(t *testing.T) {
	h := sha256.New()
	plans, refused := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			q := randPlanQuery(rng, 3)
			if q == nil {
				refused++
				continue
			}
			for gramSize := 0; gramSize <= 5; gramSize++ {
				plan := q.Plan(gramSize)
				src := &fakeSource{}
				cand, grams := plan.Lookup(src)
				fmt.Fprintf(h, "%s q=%d %s prunable=%v names=%d nil=%v grams=%d\n",
					q, gramSize, plan, plan.Prunable(), plan.NumGrams(), cand == nil, grams)
				for _, l := range src.calls {
					fmt.Fprintf(h, "  %+v\n", l)
				}
				plans++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))

	if *update {
		if err := os.MkdirAll(filepath.Dir(planFingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planFingerprintFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s (%d plans, %d queries refused)", planFingerprintFile, got, plans, refused)
		return
	}
	want, err := os.ReadFile(planFingerprintFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("plan fingerprint %s, committed %s: some plan, its rendering or its lookup changed (%d plans)",
			got, strings.TrimSpace(string(want)), plans)
	}
}
