// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against want comments, mirroring (a useful
// subset of) golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<pkg>/ and import the standard
// library — or, when an analyzer names one of this module's packages
// (lockio and internal/framelog), that real package by its full import
// path; loader.LoadDir resolves either through the export data go list
// reports for the fixture's imports. A line that should be flagged
// carries a comment
//
//	code() // want "regexp"
//
// whose quoted Go regexp must match the diagnostic's message. Every
// diagnostic must be matched by a want on its line and every want must
// be matched by a diagnostic; //lint:allow suppression is applied first,
// so fixtures exercise the escape hatch the same way real code does.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/analysis"
	"github.com/paper-repo/staccato-go/internal/analysis/loader"
)

var wantRe = regexp.MustCompile(`want +"((?:[^"\\]|\\.)*)"`)

// Run analyzes each fixture package under testdata/src and reports any
// mismatch between diagnostics and want comments through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkgPath := range pkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
		pkg, err := loader.LoadDir(dir, pkgPath)
		if err != nil {
			t.Errorf("%s: loading fixture: %v", pkgPath, err)
			continue
		}
		runPackage(t, a, pkg)
	}
}

func runPackage(t *testing.T, a *analysis.Analyzer, pkg *loader.Package) {
	t.Helper()
	diags, _, err := analysis.Run(a, pkg)
	if err != nil {
		t.Errorf("%v", err)
		return
	}

	wants := collectWants(t, pkg.Fset, pkg.Files)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants extracts every `want "re"` expectation, keyed to the
// line its comment starts on.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						continue
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}
