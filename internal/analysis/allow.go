package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file implements the suite-wide escape hatch:
//
//	//lint:allow <analyzer> <reason>
//
// A directive suppresses <analyzer>'s diagnostics on its own line and on
// the line directly below it (so it can sit above the flagged statement),
// and a directive inside a function's doc comment suppresses the whole
// function body — the shape used when a function is intentionally built
// around the flagged pattern (diskstore.Compact holds the write lock
// across file I/O by design, for example).
//
// The reason is mandatory. An allow with no reason is itself a
// diagnostic: the point of the hatch is that every suppressed finding
// documents why the invariant does not apply, not that it disappears.
// For the same reason Run returns, as stale, each allow that covers no
// finding of its analyzer, and drivers report those too.

const allowPrefix = "lint:allow"

// directive is one parsed //lint:allow comment.
type directive struct {
	pos      token.Pos
	line     int
	analyzer string
	reason   string
	// funcEnd is set when the directive lives in a function's doc
	// comment: the directive then covers [pos, funcEnd].
	funcEnd token.Pos
}

// parseDirectives extracts every //lint:allow directive from files.
// Malformed directives — a missing analyzer name or an empty reason —
// are returned as diagnostics in bad.
func parseDirectives(fset *token.FileSet, files []*ast.File) (dirs []directive, bad []Diagnostic) {
	for _, f := range files {
		// Map each function's doc comment to the function it documents,
		// so doc-level directives can cover the whole body.
		docEnd := make(map[*ast.CommentGroup]token.Pos)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docEnd[fd.Doc] = fd.End()
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if name == "" || reason == "" {
					bad = append(bad, Diagnostic{
						Pos:     c.Pos(),
						Message: "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\" with a non-empty reason",
					})
					continue
				}
				d := directive{
					pos:      c.Pos(),
					line:     fset.Position(c.Pos()).Line,
					analyzer: name,
					reason:   reason,
				}
				if end, ok := docEnd[cg]; ok {
					d.funcEnd = end
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs, bad
}

// applyAllows filters diags through files' //lint:allow directives for
// name: kept holds, sorted by position, the diagnostics no directive
// covers, and stale one diagnostic for each directive for name that
// covers none.
func applyAllows(name string, fset *token.FileSet, files []*ast.File, diags []Diagnostic) (kept, stale []Diagnostic) {
	dirs, _ := parseDirectives(fset, files)
	used := make([]bool, len(dirs))
	for _, d := range diags {
		covered := false
		for i, dir := range dirs {
			if dir.analyzer == name && covers(fset, dir, d) {
				used[i], covered = true, true
			}
		}
		if !covered {
			kept = append(kept, d)
		}
	}
	for i, dir := range dirs {
		if dir.analyzer == name && !used[i] {
			stale = append(stale, Diagnostic{
				Pos:     dir.pos,
				Message: "//lint:allow " + name + " suppresses no " + name + " finding; delete it",
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, stale
}

// covers reports whether dir's scope holds d: dir's function body for a
// doc-comment directive, else dir's own line and the line below it.
func covers(fset *token.FileSet, dir directive, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	if fset.Position(dir.pos).Filename != pos.Filename {
		return false
	}
	if dir.funcEnd.IsValid() {
		return d.Pos >= dir.pos && d.Pos <= dir.funcEnd
	}
	return pos.Line == dir.line || pos.Line == dir.line+1
}

// CheckDirectives returns a diagnostic for every malformed //lint:allow
// in files, plus one for every directive naming an analyzer not in
// known. Drivers run it once per package so a typo'd analyzer name
// cannot silently suppress nothing.
func CheckDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) []Diagnostic {
	dirs, bad := parseDirectives(fset, files)
	for _, d := range dirs {
		if !known[d.analyzer] {
			bad = append(bad, Diagnostic{
				Pos:     d.pos,
				Message: "//lint:allow names unknown analyzer " + d.analyzer,
			})
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].Pos < bad[j].Pos })
	return bad
}
