// Package mapiter flags `for range` over maps in determinism-critical
// packages when the loop body has an order-dependent effect: appending
// to a slice, accumulating a float, or writing output. Go randomizes
// map iteration order, so any such loop makes results differ run to
// run — which breaks the repo's core promise that every query
// probability is bit-deterministic (same Doc, same Query, same bits,
// at any worker count).
//
// The blessed pattern is extract-and-sort: range the map only to
// collect keys into a slice, sort it, then iterate the slice (or take
// slices.Sorted(maps.Keys(m)), as query.EvalFST does). A loop whose
// only appends feed slices that are sorted later in the same function
// is therefore not flagged.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/paper-repo/staccato-go/internal/analysis"
)

// Paths gates the analyzer to the packages whose outputs must be
// bit-deterministic. Tests may override it to point at fixtures.
var Paths = []string{"pkg/query", "pkg/index", "pkg/fst", "pkg/fuzzy", "pkg/staccatodb", "internal/core"}

var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc: "flags map iteration with order-dependent effects (slice append, float accumulation, output) " +
		"in determinism-critical packages; extract and sort the keys first",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.RelPath, Paths) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, fd, rs)
		return true
	})
}

// checkMapRange reports the first order-dependent effect in one
// map-range body, unless every such effect is a sorted-later append.
func checkMapRange(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	var effect string // description of the first non-exempt effect
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if isBuiltinAppend(pass, s) {
				if !sortedLater(pass, fd, rs, s) {
					effect = "appends to a slice that is not sorted afterwards"
				}
				return true
			}
			if name, ok := outputCall(pass, s); ok {
				effect = "writes output via " + name
			}
		case *ast.AssignStmt:
			if isFloatAccumulation(pass, s) {
				effect = "accumulates a float"
			}
		case *ast.IncDecStmt:
			if isFloat(pass.TypesInfo.TypeOf(s.X)) {
				effect = "accumulates a float"
			}
		}
		return true
	})
	if effect == "" {
		return
	}
	pass.Reportf(rs.For,
		"map iteration order is randomized, but this loop %s; iterate extracted-and-sorted keys instead, or annotate //lint:allow mapiter <reason>",
		effect)
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedLater reports whether the append target is a plain variable
// that some statement after the range loop, in the same function,
// passes to a sort call — the extract-and-sort exemption.
func sortedLater(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		sc, ok := n.(*ast.CallExpr)
		if !ok || sc.Pos() < rs.End() || !isSortCall(pass, sc) {
			return true
		}
		for _, arg := range sc.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if mid, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[mid] == obj {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}

var sortFuncs = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := typeutilCallee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	names := sortFuncs[fn.Pkg().Path()]
	return names != nil && names[fn.Name()]
}

// outputCall reports calls that emit bytes somewhere: the fmt print
// family and Write-shaped methods.
func outputCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := typeutilCallee(pass, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + name, true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return name, true
		}
	}
	return "", false
}

// isFloatAccumulation reports compound assignments onto float lvalues
// (x += p, m[k] *= w) and x = x <op> y rewrites of the same shape.
func isFloatAccumulation(pass *analysis.Pass, as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 {
		return false
	}
	if !isFloat(pass.TypesInfo.TypeOf(as.Lhs[0])) {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if obj == nil {
			return false
		}
		uses := false
		ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
			if rid, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[rid] == obj {
				uses = true
			}
			return !uses
		})
		return uses
	}
	return false
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func typeutilCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	return analysis.Callee(pass.TypesInfo, call)
}
