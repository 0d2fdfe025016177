package query_test

import (
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
)

// FuzzWildcardPlan holds the planner to its contract on arbitrary short
// inputs, against an oracle that shares nothing with it: a document — '|'
// separates chunks, ',' a chunk's alternatives — with a retained reading
// that fuzzy.Within accepts for (term, dist) must be in the candidate set
// of Fuzzy(term, dist) planned at gram size q, beside a decoy document
// that keeps the dictionary from being the target's own grams. The same
// must hold for any document Eval gives nonzero probability.
func FuzzWildcardPlan(f *testing.F) {
	f.Add("ab", 1, "xaby|zz", 2)
	f.Add("ab", 1, "a,ab|b", 2)       // a reading that is a 1-rune match itself
	f.Add("abcd", 1, "zzab|-cdzz", 3) // insertion across a chunk boundary
	f.Add("abcd", 1, "zza-,zzab|cd", 3)
	f.Add("abcd", 1, "acd", 4)
	f.Add("abc", 1, "ab,x", 3) // a deletion leaves a match shorter than q
	f.Add("abcd", 2, "ad", 3)
	f.Add("日本語", 1, "日木語の|テキスト", 2)
	f.Add("rèm", 1, "crème,creme", 3)
	f.Fuzz(func(t *testing.T, term string, dist int, text string, q int) {
		if q < 1 || q > 5 || len(text) > 64 || !utf8.ValidString(term) || !utf8.ValidString(text) {
			return
		}
		lf, err := query.Fuzzy(term, dist)
		if err != nil {
			return
		}
		var chunks [][]string
		readings := 1
		for _, ch := range strings.Split(text, "|") {
			alts := strings.Split(ch, ",")
			chunks = append(chunks, alts)
			readings *= len(alts)
		}
		if readings > 256 {
			return
		}
		target := handDoc("target", chunks...)
		ix := index.New(q)
		ix.Apply([]index.Entry{index.EntryFor(target, ix.GramSize())}, nil)
		ix.Apply([]index.Entry{index.EntryFor(handDoc("decoy", []string{"the quick brown fox", "abcdefgh"}, []string{" jumps", "日本語"}), ix.GramSize())}, nil)
		plan := lf.Plan(q)
		cand := plan.Candidates(ix)
		if cand == nil {
			return // scans: nothing is pruned
		}
		matches := false
		target.Readings(func(reading string, _ float64) bool {
			matches = fuzzy.Within(reading, term, dist)
			return !matches
		})
		if p := lf.Eval(target); (matches || p > 0) && !isCandidate(cand, "target") {
			t.Fatalf("fuzzy(%q, %d) at q=%d over %q: oracle match %v, P=%v, but plan %s pruned the document",
				term, dist, q, text, matches, p, plan)
		}
	})
}
