package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// checkQueries is how many script queries, and how many top:0 keyword
// queries, the check pass verifies.
const checkQueries = 32

// answer is one checked query with what the server returned for it.
type answer struct {
	spec searchSpec
	got  []query.Result
}

// checkSpecs picks the queries to verify: the first distinct searches of
// the script as sent (top 10), then the recall keywords with top:0, whose
// full result lists also yield the recall metric.
func checkSpecs(sc *script, pools termPools) []searchSpec {
	var specs []searchSpec
	seen := map[string]bool{}
	for _, o := range sc.passes[len(sc.passes)-1] {
		if o.search == nil || seen[string(o.body)] {
			continue
		}
		seen[string(o.body)] = true
		specs = append(specs, *o.search)
		if len(specs) == checkQueries {
			break
		}
	}
	for _, w := range pools.recall {
		specs = append(specs, searchSpec{Terms: []string{w}, Mode: "keyword"})
	}
	return specs
}

// ask runs the check queries against the live server.
func ask(c *http.Client, base string, specs []searchSpec) ([]answer, error) {
	out := make([]answer, len(specs))
	for i, s := range specs {
		body, err := do(c, base, searchOp(s), true)
		if err != nil {
			return nil, err
		}
		var resp struct {
			Results []query.Result `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("search %v: %w", s, err)
		}
		out[i] = answer{spec: s, got: resp.Results}
	}
	return out, nil
}

// loadDocs reads every live document straight from the segment files,
// with no index, planner, engine or server in the way.
func loadDocs(dir string) ([]*staccato.Doc, error) {
	st, err := diskstore.Open(dir, diskstore.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var docs []*staccato.Doc
	err = st.Scan(context.Background(), func(d *staccato.Doc) error {
		docs = append(docs, d)
		return nil
	})
	return docs, err
}

// reference computes a query's expected result: Query.Eval on every
// document, ranked by descending probability then ascending ID. A
// conjunction is skipped on a document where one of its leaves alone
// evaluates to zero — no reading satisfies the leaf, so none satisfies
// the conjunction — which keeps the reference independent of the index
// and affordable on the whole corpus.
func reference(s searchSpec, docs []*staccato.Doc) ([]query.Result, error) {
	q, err := s.compile()
	if err != nil {
		return nil, err
	}
	var leaves []*query.Query
	if len(s.Terms) > 1 {
		for _, t := range s.Terms {
			l, err := s.leaf(t)
			if err != nil {
				return nil, err
			}
			leaves = append(leaves, l)
		}
	}
	var out []query.Result
docs:
	for _, d := range docs {
		for _, l := range leaves {
			//lint:allow floateq exactly zero means no reading satisfies the leaf; the DP never adds mass to a matched state then
			if l.Eval(d) == 0 {
				continue docs
			}
		}
		if p := q.Eval(d); p > 0 {
			out = append(out, query.Result{DocID: d.ID, Prob: p})
		}
	}
	slices.SortFunc(out, func(a, b query.Result) int {
		//lint:allow floateq a sort comparator needs exact comparison to be a strict weak order
		if a.Prob != b.Prob {
			if a.Prob > b.Prob {
				return -1
			}
			return 1
		}
		return strings.Compare(a.DocID, b.DocID)
	})
	if s.Top > 0 && len(out) > s.Top {
		out = out[:s.Top]
	}
	return out, nil
}

// verify compares every answer with its reference, exactly: same IDs,
// same order, bit-identical probabilities. It returns the number of
// mismatching queries and a description of the first.
func verify(answers []answer, docs []*staccato.Doc, corrupt bool) (int, error) {
	refs := make([][]query.Result, len(answers))
	errs := make([]error, len(answers))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(answers); i += workers {
				refs[i], errs[i] = reference(answers[i].spec, docs)
			}
		}()
	}
	wg.Wait()
	if corrupt {
		for _, r := range refs {
			if len(r) > 0 {
				r[0].Prob /= 2
				break
			}
		}
	}
	bad := 0
	var first error
	for i, a := range answers {
		err := errs[i]
		if err == nil && !slices.Equal(a.got, refs[i]) {
			err = fmt.Errorf("query %v: server returned %d results %v, reference has %d %v",
				a.spec, len(a.got), head(a.got), len(refs[i]), head(refs[i]))
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

func head(r []query.Result) []query.Result { return r[:min(len(r), 3)] }

// recallOf is the macro recall at P>0 of the top:0 keyword answers
// against whole-word containment in the live documents' ground truth.
func recallOf(answers []answer, truth map[string]string) float64 {
	relevant := map[string]map[string]bool{} // term -> IDs of the documents containing it
	for _, a := range answers {
		if a.spec.Top == 0 {
			relevant[a.spec.Terms[0]] = map[string]bool{}
		}
	}
	for id, text := range truth {
		for _, tok := range strings.Fields(text) {
			if ids, ok := relevant[tok]; ok {
				ids[id] = true
			}
		}
	}
	var sum float64
	n := 0
	for _, a := range answers {
		ids := relevant[a.spec.Terms[0]]
		if a.spec.Top != 0 || len(ids) == 0 {
			continue
		}
		hit := 0
		for _, r := range a.got {
			if ids[r.DocID] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(ids))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
