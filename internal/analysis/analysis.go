// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that the staccatolint suite is
// written against. The build environment bakes in only the standard
// library, so instead of gating the linters on an unavailable module the
// suite carries its own framework: an Analyzer is a named check over one
// type-checked package, a Pass hands it the syntax trees and type
// information, and diagnostics flow back through Report.
//
// The deliberate differences from x/tools are small: there are no Facts
// (no analyzer here needs cross-package state), drivers load packages
// through internal/analysis/loader (go list export data) rather than
// go/packages, and suppression via //lint:allow directives (see
// allow.go) is part of the framework, applied by Run, so every analyzer
// shares one escape-hatch contract.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/paper-repo/staccato-go/internal/analysis/loader"
)

// Analyzer describes one invariant check. Run is invoked once per
// analyzed package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> <reason> directives. It must be a valid
	// identifier.
	Name string
	// Doc states the invariant the analyzer enforces, shown by
	// `staccatovet -list`.
	Doc string
	// Run performs the check. It must not retain the Pass.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked form to an
// analyzer, mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test compilation units.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the package's import path as the driver resolved it.
	PkgPath string
	// RelPath is PkgPath relative to the enclosing module ("pkg/query",
	// "cmd/staccatovet"), the form the analyzers' path gates match
	// against. Outside a module (fixture loads) it equals PkgPath.
	RelPath string
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned within the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Run runs a over pkg: it builds the Pass, collects what a reports and
// applies pkg's //lint:allow directives. It returns the findings no
// directive covers, sorted by position, and one stale finding for each
// directive naming a that covered none. Drivers and analysistest share
// it, so fixtures exercise the escape hatch the way real code does.
func Run(a *Analyzer, pkg *loader.Package) (diags, stale []Diagnostic, err error) {
	var all []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		PkgPath:   pkg.PkgPath,
		RelPath:   pkg.RelPath,
		TypesInfo: pkg.Info,
		Report:    func(d Diagnostic) { all = append(all, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
	}
	diags, stale = applyAllows(a.Name, pkg.Fset, pkg.Files, all)
	return diags, stale, nil
}

// Callee resolves a call's static callee, unwrapping parens; nil for
// dynamic calls (function values, closures) and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// PathMatches reports whether rel (a module-relative package path)
// matches any of the given gate patterns. A pattern matches its exact
// package and every package beneath it: "pkg/query" matches "pkg/query"
// and "pkg/query/sub", and "pkg" matches the whole public tree. The
// analyzers use it to scope themselves to the packages whose invariants
// they guard.
func PathMatches(rel string, patterns []string) bool {
	for _, pat := range patterns {
		if rel == pat {
			return true
		}
		if len(rel) > len(pat) && rel[:len(pat)] == pat && rel[len(pat)] == '/' {
			return true
		}
	}
	return false
}
