// Package driver loads packages and runs the staccatolint suite over
// them — the engine behind cmd/staccatovet. It is a separate package so
// the whole flow (loading, analysis, //lint:allow filtering, diagnostic
// formatting, exit status) is testable without executing a child
// process of its own.
package driver

import (
	"fmt"
	"io"

	"github.com/paper-repo/staccato-go/internal/analysis"
	"github.com/paper-repo/staccato-go/internal/analysis/loader"
	"github.com/paper-repo/staccato-go/internal/analysis/staccatolint"
)

// Run analyzes the packages matched by patterns (default "./...") in
// the module containing dir ("" for the current directory), writing
// findings to out. It returns the number of findings; an error means the
// analysis itself could not run (bad pattern, code that does not
// compile).
func Run(dir string, patterns []string, out io.Writer) (int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return 0, err
	}
	analyzers := staccatolint.Analyzers()
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	findings := 0
	report := func(pkg *loader.Package, name string, diags []analysis.Diagnostic) {
		for _, d := range diags {
			findings++
			fmt.Fprintf(out, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), name, d.Message)
		}
	}
	for _, pkg := range pkgs {
		// A malformed, misaddressed or stale //lint:allow is itself a
		// finding: the escape hatch must never silently suppress nothing.
		report(pkg, "lint", analysis.CheckDirectives(pkg.Fset, pkg.Files, known))
		for _, a := range analyzers {
			diags, stale, err := analysis.Run(a, pkg)
			if err != nil {
				return findings, err
			}
			report(pkg, a.Name, diags)
			report(pkg, "lint", stale)
		}
	}
	return findings, nil
}

// List writes each analyzer's name and doc to out, for -list.
func List(out io.Writer) {
	for _, a := range staccatolint.Analyzers() {
		fmt.Fprintf(out, "%-13s %s\n", a.Name, a.Doc)
	}
}
