// Package loader parses and type-checks packages for the staccatolint
// analyzers. It is the stand-in for golang.org/x/tools/go/packages,
// which the build environment does not provide, and leaves the module
// work to the go command: one `go list -deps -export -json` call
// resolves the patterns, selects each package's build files and
// compiles every dependency to export data. The matched packages are
// then type-checked from source, their imports read from that export
// data through go/importer's "gc" compiler.
//
// go list runs with CGO_ENABLED=0, so the pure-Go variants of
// cgo-optional packages (net, os/user) are selected and a run's
// findings do not depend on the host's CGO_ENABLED.
package loader

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path ("github.com/.../pkg/query", or the
	// bare fixture path for LoadDir).
	PkgPath string
	// RelPath is PkgPath relative to its module's root, or PkgPath
	// itself outside a module.
	RelPath string
	// Dir is the directory holding the package's sources.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listed is the part of `go list -json` output the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Module     *struct{ Path string }
}

const listFields = "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module"

// goList runs `go list -deps -export` on args in dir ("" for the
// current directory). Any error the go command reports, a compile error
// in a listed package included, fails the call.
func goList(dir string, args ...string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", listFields, "--"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
}

// exportImporter resolves imports from the export data go list
// reported for pkgs.
func exportImporter(fset *token.FileSet, pkgs []listed) types.Importer {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("loader: no export data for %s", path)
		}
		return os.Open(exports[path])
	})
}

// Load type-checks the packages that patterns — anything `go list`
// accepts, "./..." most often — match in the module containing dir
// ("" for the current directory). A package with no non-test Go files
// is skipped; patterns that match no package at all are an error.
// Results are sorted by import path.
func Load(dir string, patterns ...string) ([]*Package, error) {
	list, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, list)
	var pkgs []*Package
	matched := false
	for _, p := range list {
		matched = matched || !p.DepOnly
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		rel := p.ImportPath
		if p.Module != nil {
			rel = strings.TrimPrefix(strings.TrimPrefix(rel, p.Module.Path), "/")
		}
		pkg, err := check(fset, imp, p.ImportPath, rel, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if !matched {
		return nil, fmt.Errorf("loader: %s match no packages", strings.Join(patterns, " "))
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadDir type-checks the single package in dir under the given import
// path — the analysistest entry point for fixture packages. Only the
// fixture's imports go through go list, run in dir, so a fixture inside
// this module may import the module's packages by their full path, and
// the fixture itself may hold code the compiler would reject but
// go/types only warns about.
func LoadDir(dir, importPath string) (*Package, error) {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	bp, err := ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", dir, err)
	}
	var list []listed
	if len(bp.Imports) > 0 {
		if list, err = goList(dir, bp.Imports...); err != nil {
			return nil, err
		}
	}
	fset := token.NewFileSet()
	return check(fset, exportImporter(fset, list), importPath, importPath, dir, bp.GoFiles)
}

// check parses names in dir, with comments retained for the
// //lint:allow machinery, and type-checks them as package importPath.
func check(fset *token.FileSet, imp types.Importer, importPath, rel, dir string, names []string) (*Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	// Soft errors (unused variables and the like, common in lint
	// fixtures that exist only to exhibit a shape) do not stop
	// analysis; any hard type error does.
	var hard error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			var terr types.Error
			if errors.As(err, &terr) && terr.Soft {
				return
			}
			if hard == nil {
				hard = err
			}
		},
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	if hard != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", importPath, hard)
	}
	return &Package{PkgPath: importPath, RelPath: rel, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
