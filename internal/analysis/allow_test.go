package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses one synthetic file and returns the pieces tests need.
func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	return fset, []*ast.File{f}
}

// diagAt fabricates a diagnostic at the start of the given 1-based line.
func diagAt(t *testing.T, fset *token.FileSet, line int) Diagnostic {
	t.Helper()
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return Diagnostic{Pos: pos, Message: "synthetic finding"}
}

func TestApplyAllowsLineScope(t *testing.T) {
	src := `package p

func f() {
	//lint:allow demo the next line is fine
	_ = 1
	_ = 2
}
`
	fset, files := parseSrc(t, src)
	onDirective := diagAt(t, fset, 4) // same line as the directive
	lineBelow := diagAt(t, fset, 5)   // directly below: suppressed
	twoBelow := diagAt(t, fset, 6)    // out of range: kept
	kept, stale := applyAllows("demo", fset, files, []Diagnostic{onDirective, lineBelow, twoBelow})
	if len(kept) != 1 || kept[0].Pos != twoBelow.Pos {
		t.Fatalf("applyAllows kept %d diagnostics, want only the line-6 one: %+v", len(kept), kept)
	}
	if len(stale) != 0 {
		t.Fatalf("a directive that suppressed two diagnostics was reported stale: %+v", stale)
	}
}

func TestApplyAllowsAnalyzerMismatch(t *testing.T) {
	src := `package p

//lint:allow other this names a different analyzer
var x = 1
`
	fset, files := parseSrc(t, src)
	d := diagAt(t, fset, 4)
	if kept, _ := applyAllows("demo", fset, files, []Diagnostic{d}); len(kept) != 1 {
		t.Fatalf("a directive for another analyzer suppressed a demo diagnostic")
	}
}

func TestApplyAllowsFuncScope(t *testing.T) {
	src := `package p

// f is built around the flagged pattern.
//
//lint:allow demo the whole body is intentional
func f() {
	_ = 1
	_ = 2
}

func g() {
	_ = 3
}
`
	fset, files := parseSrc(t, src)
	inF := diagAt(t, fset, 8)  // deep inside f: suppressed
	inG := diagAt(t, fset, 12) // in g: kept
	kept, _ := applyAllows("demo", fset, files, []Diagnostic{inF, inG})
	if len(kept) != 1 || kept[0].Pos != inG.Pos {
		t.Fatalf("function-scope allow: kept %d diagnostics, want only g's: %+v", len(kept), kept)
	}
}

func TestCheckDirectives(t *testing.T) {
	src := `package p

//lint:allow demo a well-formed directive
var a = 1

//lint:allow demo
var b = 2

//lint:allow
var c = 3

//lint:allow nosuch the analyzer name is a typo
var d = 4
`
	fset, files := parseSrc(t, src)
	bad := CheckDirectives(fset, files, map[string]bool{"demo": true})
	if len(bad) != 3 {
		t.Fatalf("CheckDirectives returned %d diagnostics, want 3: %+v", len(bad), bad)
	}
	for i, wantSub := range []string{"malformed", "malformed", "unknown analyzer nosuch"} {
		if !strings.Contains(bad[i].Message, wantSub) {
			t.Errorf("diagnostic %d = %q, want it to mention %q", i, bad[i].Message, wantSub)
		}
	}
}
