package driver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a synthetic module whose files map from
// module-relative path to source.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunReportsAndCounts(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/scratch\n\ngo 1.21\n",
		// One mapiter violation (pkg/query is inside the default gate),
		// one floateq violation, one directive naming a nonexistent
		// analyzer, and one reasonless allow.
		"pkg/query/q.go": `package query

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func same(a, b float64) bool {
	//lint:allow nosuch not a real analyzer
	//lint:allow floateq
	return a == b
}
`,
	})
	var buf strings.Builder
	findings, err := Run(dir, []string{"./..."}, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	// mapiter + floateq + unknown analyzer + malformed allow = 4.
	if findings != 4 {
		t.Fatalf("Run returned %d findings, want 4; output:\n%s", findings, out)
	}
	for _, wantSub := range []string{
		"map iteration order is randomized",
		"exact == on floating-point values",
		"unknown analyzer nosuch",
		"malformed //lint:allow",
	} {
		if !strings.Contains(out, wantSub) {
			t.Errorf("output does not mention %q; output:\n%s", wantSub, out)
		}
	}
}

func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/scratch\n\ngo 1.21\n",
		"pkg/query/q.go": `package query

import "sort"

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`,
	})
	var buf strings.Builder
	findings, err := Run(dir, nil, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if findings != 0 {
		t.Fatalf("Run on a clean module returned %d findings; output:\n%s", findings, buf.String())
	}
}

func TestRunAllowWithReasonSuppresses(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/scratch\n\ngo 1.21\n",
		"pkg/query/q.go": `package query

func same(a, b float64) bool {
	//lint:allow floateq exactness is the point here
	return a == b
}
`,
	})
	var buf strings.Builder
	findings, err := Run(dir, []string{"./pkg/query"}, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if findings != 0 {
		t.Fatalf("a well-formed allow did not suppress: %d findings; output:\n%s", findings, buf.String())
	}
}

func TestRunReportsStaleAllow(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/scratch\n\ngo 1.21\n",
		"pkg/query/q.go": `package query

func same(a, b float64) bool {
	//lint:allow floateq exactness is the point here
	return a == b
}

func sameInt(a, b int) bool {
	//lint:allow floateq nothing here compares floats
	return a == b
}
`,
	})
	var buf strings.Builder
	findings, err := Run(dir, nil, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	if findings != 1 || !strings.Contains(out, "q.go:9:") || !strings.Contains(out, "suppresses no floateq finding") {
		t.Fatalf("want one stale-allow finding at q.go:9, got %d; output:\n%s", findings, out)
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	var buf strings.Builder
	List(&buf)
	out := buf.String()
	for _, name := range []string{"ctxflow", "floateq", "lockio", "mapiter"} {
		if !strings.Contains(out, name) {
			t.Errorf("List output is missing %s:\n%s", name, out)
		}
	}
}
