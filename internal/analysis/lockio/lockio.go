// Package lockio enforces the diskstore locking discipline: no codec
// decoding and no avoidable file I/O while a sync.Mutex/RWMutex is
// held. The store's locks exist to pin index and segment state, not to
// serialize CPU work — GetBatch reads raw payloads under one RLock and
// decodes after releasing it precisely so concurrent readers never wait
// on each other's decoding (PRs 5–6).
//
// The analysis is intra-procedural with package-local call summaries: a
// region is "locked" from a statement-level x.Lock()/x.RLock() until
// the matching Unlock in the same statement sequence (a deferred Unlock
// holds to function end), and within locked regions every call that —
// directly or through same-package callees — decodes (a function named
// Decode or Unmarshal) or touches the filesystem (os.File read/write/
// sync/truncate methods, os file-management functions, io.ReadFull and
// friends, and everything internal/framelog exports — its FS and File
// methods included — except the pure encoder Append and File.Close; the
// summaries are package-local, so the file layer the store delegates to
// has to be named here) is flagged. Calls into
// function literals are not traced;
// branch bodies are analyzed with a copy of the lock state, so an
// early-unlock-and-return inside an if does not leak past it.
//
// Deliberate holds — the serialized write path, compaction's exclusive
// rewrite, the RLock pinning segments open across a ReadAt — are
// annotated //lint:allow lockio <reason> rather than special-cased
// here.
package lockio

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/paper-repo/staccato-go/internal/analysis"
)

// Paths gates the analyzer to the packages that own the discipline.
var Paths = []string{"pkg/store/diskstore"}

var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "flags file I/O, fsync, and codec decode performed while a sync mutex is provably held " +
		"in pkg/store/diskstore; read bytes under the lock, decode outside it",
	Run: run,
}

// decodeNames are function/method names treated as codec decodes.
var decodeNames = map[string]bool{"Decode": true, "Unmarshal": true}

// osFileMethods are the (*os.File) methods that hit the filesystem in a
// way worth keeping out of critical sections. Close is deliberately
// absent: closing handles at shutdown or during compaction swaps is
// part of the state the locks protect.
var osFileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"WriteString": true, "Sync": true, "Truncate": true, "Seek": true,
}

// osFuncs are package-level os functions that touch the filesystem.
var osFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Mkdir": true, "MkdirAll": true, "Truncate": true,
}

// ioFuncs are io helpers that drive reads on whatever they are given.
var ioFuncs = map[string]bool{"ReadFull": true, "ReadAll": true, "Copy": true, "CopyN": true}

// framelogPath ends the import path of the store's file layer: every
// function and method it exports reads, writes, renames or fsyncs,
// except Append, which only encodes into a caller's buffer, and Close,
// exempt for the reason osFileMethods gives.
const framelogPath = "/internal/framelog"

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.RelPath, Paths) {
		return nil
	}
	sums := buildSummaries(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanStmts(pass, sums, fd.Body.List, map[string]bool{})
		}
	}
	return nil
}

// summary records what a package-local function reaches.
type summary struct {
	io     bool
	decode bool
}

// buildSummaries computes, by fixpoint over the package's call graph,
// which functions perform or transitively reach file I/O or decoding.
func buildSummaries(pass *analysis.Pass) map[*types.Func]summary {
	type funcInfo struct {
		decl *ast.FuncDecl
		sum  summary
	}
	funcs := make(map[*types.Func]*funcInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				funcs[obj] = &funcInfo{decl: fd}
			}
		}
	}
	// Seed with direct effects, then propagate through same-package
	// static calls until stable.
	for _, fi := range funcs {
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			d := directEffect(pass, call)
			fi.sum.io = fi.sum.io || d.io
			fi.sum.decode = fi.sum.decode || d.decode
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := analysis.Callee(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				if ci, ok := funcs[callee]; ok {
					if ci.sum.io && !fi.sum.io {
						fi.sum.io = true
						changed = true
					}
					if ci.sum.decode && !fi.sum.decode {
						fi.sum.decode = true
						changed = true
					}
				}
				return true
			})
		}
	}
	out := make(map[*types.Func]summary, len(funcs))
	for obj, fi := range funcs {
		out[obj] = fi.sum
	}
	return out
}

// directEffect classifies one call's own behavior, ignoring callees.
func directEffect(pass *analysis.Pass, call *ast.CallExpr) summary {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return summary{}
	}
	name := fn.Name()
	if pkg := fn.Pkg(); pkg != nil && strings.HasSuffix(pkg.Path(), framelogPath) {
		return summary{io: name != "Append" && name != "Close"}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if osFileMethods[name] && isOSFileRecv(sig.Recv().Type()) {
			return summary{io: true}
		}
		if decodeNames[name] {
			return summary{decode: true}
		}
		return summary{}
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "os":
			if osFuncs[name] {
				return summary{io: true}
			}
		case "io":
			if ioFuncs[name] {
				return summary{io: true}
			}
		}
	}
	if decodeNames[name] {
		return summary{decode: true}
	}
	return summary{}
}

func isOSFileRecv(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}

// scanStmts walks one statement sequence tracking which mutexes are
// held. Nested control-flow bodies get a copy of the state: changes
// inside a branch do not affect the fall-through path, which is exactly
// right for the early-unlock-and-return idiom.
func scanStmts(pass *analysis.Pass, sums map[*types.Func]summary, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, locks, ok := lockCall(pass, s.X); ok {
				if locks {
					held[key] = true
				} else {
					delete(held, key)
				}
				continue
			}
			checkTree(pass, sums, s, held)
		case *ast.DeferStmt:
			// A deferred Unlock keeps the region held to function end;
			// other deferred work runs at an unknowable lock state, so
			// it is not checked.
			continue
		case *ast.BlockStmt:
			scanStmts(pass, sums, s.List, held)
		case *ast.IfStmt:
			checkNode(pass, sums, s.Init, held)
			checkNode(pass, sums, s.Cond, held)
			scanStmts(pass, sums, s.Body.List, copyHeld(held))
			if s.Else != nil {
				scanStmts(pass, sums, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			checkNode(pass, sums, s.Init, held)
			checkNode(pass, sums, s.Cond, held)
			checkNode(pass, sums, s.Post, held)
			scanStmts(pass, sums, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			checkNode(pass, sums, s.X, held)
			scanStmts(pass, sums, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			checkNode(pass, sums, s.Init, held)
			checkNode(pass, sums, s.Tag, held)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanStmts(pass, sums, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanStmts(pass, sums, cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanStmts(pass, sums, cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			scanStmts(pass, sums, []ast.Stmt{s.Stmt}, held)
		default:
			checkTree(pass, sums, stmt, held)
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func checkNode(pass *analysis.Pass, sums map[*types.Func]summary, n ast.Node, held map[string]bool) {
	if n == nil || len(held) == 0 {
		return
	}
	checkTree(pass, sums, n, held)
}

// checkTree flags I/O- or decode-reaching calls anywhere in n while a
// lock is held. Function literal bodies are skipped: when they run is
// not knowable here.
func checkTree(pass *analysis.Pass, sums map[*types.Func]summary, n ast.Node, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	lock := anyKey(held)
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		eff := directEffect(pass, call)
		if callee := analysis.Callee(pass.TypesInfo, call); callee != nil {
			if s, ok := sums[callee]; ok {
				eff.io = eff.io || s.io
				eff.decode = eff.decode || s.decode
			}
		}
		switch {
		case eff.decode:
			pass.Reportf(call.Pos(),
				"%s decodes while %s is held; read the raw bytes under the lock and decode after releasing it (or //lint:allow lockio <reason>)",
				describeCall(call), lock)
		case eff.io:
			pass.Reportf(call.Pos(),
				"%s performs file I/O while %s is held; move the I/O outside the critical section (or //lint:allow lockio <reason>)",
				describeCall(call), lock)
		}
		return true
	})
}

func anyKey(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// lockCall classifies expr as a statement-level mutex transition,
// returning the lock's receiver rendering and whether it acquires.
func lockCall(pass *analysis.Pass, expr ast.Expr) (key string, locks, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
		locks = false
	default:
		return "", false, false
	}
	return types.ExprString(sel.X), locks, true
}

// describeCall renders a call target for diagnostics.
func describeCall(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return types.ExprString(f)
	}
	return "call"
}
