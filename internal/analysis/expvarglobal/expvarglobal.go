// Package expvarglobal forbids process-global expvar registration in
// library code. expvar.Publish (and the NewMap/NewInt/NewFloat/NewString
// helpers that call it) register into a process-wide table and panic on
// duplicate names — which is exactly what happens when two servers
// coexist in one process, as every pkg/server test and bench/'s traced
// runs do. The allowed shape is per-instance state served from the
// server's own handler, as pkg/server does: it keeps its counters in
// plain atomics and renders /debug/vars from its own snapshot; an
// expvar.Map built with new(expvar.Map).Init() would do as well.
package expvarglobal

import (
	"go/ast"

	"github.com/paper-repo/staccato-go/internal/analysis"
)

// Paths gates the analyzer to library packages. Default: the public
// tree.
var Paths = []string{"pkg"}

// globalRegistrars are the expvar functions that mutate the
// process-global registry.
var globalRegistrars = map[string]bool{
	"Publish":   true,
	"NewMap":    true,
	"NewInt":    true,
	"NewFloat":  true,
	"NewString": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "expvarglobal",
	Doc: "flags process-global expvar registration (Publish, New*) under pkg/; " +
		"build per-server maps with new(expvar.Map).Init() instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.RelPath, Paths) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "expvar" || !globalRegistrars[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"expvar.%s registers a process-global var and panics when two servers coexist; build it with new(expvar.Map).Init() and serve it per-server",
				fn.Name())
			return true
		})
	}
	return nil
}
