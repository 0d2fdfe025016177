package staccatolint_test

import (
	"sort"
	"testing"

	"github.com/paper-repo/staccato-go/internal/analysis/staccatolint"
)

func TestAnalyzers(t *testing.T) {
	as := staccatolint.Analyzers()
	want := []string{"ctxflow", "floateq", "lockio", "mapiter"}
	if len(as) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(as), len(want))
	}
	var names []string
	for _, a := range as {
		if a.Run == nil || a.Doc == "" {
			t.Errorf("analyzer %s is missing Run or Doc", a.Name)
		}
		names = append(names, a.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("suite order %v is not stable-sorted", names)
	}
	for i, n := range names {
		if n != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, n, want[i])
		}
	}
}
