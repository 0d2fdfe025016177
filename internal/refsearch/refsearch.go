// Package refsearch is the reference the engine's property tests compare
// against: the paper's filescan, written the obvious way. It reads
// through the store's one reader, as the engine does, but shares no
// evaluation, batching or ranking code with query.Engine — no worker
// pool, no candidate set, no bounds, no table DP: each document is
// decoded whole and scored by Query.Eval — so agreement with it is
// evidence about the engine rather than about a second run of the
// engine. Test-only: nothing in the product imports it.
package refsearch

import (
	"context"
	"sort"

	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// Search evaluates q against every document of st, one at a time on the
// calling goroutine, and returns what query.Engine.Search documents:
// matches with nonzero probability at or above opts.MinProb, by
// descending probability with ties toward ascending DocID, cut to
// opts.TopN when it is positive. opts.Rescore is applied before
// evaluation; opts.Candidates and opts.Stats are ignored.
func Search(ctx context.Context, st store.DocStore, q *query.Query, opts query.SearchOptions) ([]query.Result, error) {
	ids, err := st.ListDocIDs(ctx)
	if err != nil {
		return nil, err
	}
	var out []query.Result
	err = st.ViewBatch(ctx, ids, func(_ int, v *store.View) error {
		d, err := store.Decode(v.Data)
		if err != nil {
			return err
		}
		if opts.Rescore != nil {
			d = opts.Rescore(d)
		}
		if p := q.Eval(d); p > 0 && p >= opts.MinProb {
			out = append(out, query.Result{DocID: d.ID, Prob: p})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob > out[j].Prob || out[i].Prob < out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].DocID < out[j].DocID
	})
	if opts.TopN > 0 && len(out) > opts.TopN {
		out = out[:opts.TopN]
	}
	return out, nil
}
