package loader

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot is the enclosing module's root, relative to this package.
const moduleRoot = "../../.."

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

// TestLoadModulePackage loads one real package of the enclosing module
// and checks the fields analyzers rely on.
func TestLoadModulePackage(t *testing.T) {
	pkgs, err := Load(moduleRoot, "./internal/core")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.RelPath != "internal/core" {
		t.Errorf("RelPath = %q, want internal/core", p.RelPath)
	}
	if !strings.HasSuffix(p.PkgPath, "/internal/core") {
		t.Errorf("PkgPath = %q, want a /internal/core import path", p.PkgPath)
	}
	if p.Types == nil || p.Types.Scope().Lookup("ProbEq") == nil {
		t.Errorf("package was not typechecked: ProbEq not found in scope")
	}
	if len(p.Files) == 0 || p.Info == nil {
		t.Errorf("package is missing files or type info")
	}
}

// TestLoadSkipsFixtureDirs expands ./... under a subtree that contains
// testdata fixtures and checks none of them leak into the result.
func TestLoadSkipsFixtureDirs(t *testing.T) {
	pkgs, err := Load(moduleRoot, "./internal/analysis/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("Load matched no packages under internal/analysis")
	}
	for _, p := range pkgs {
		if strings.Contains(p.RelPath, "testdata") {
			t.Errorf("Load leaked fixture package %q", p.RelPath)
		}
	}
}

// TestLoadSkipsTestOnlyPackage checks that a directory holding only
// _test.go files is skipped, not an error, beside a package that loads,
// while a pattern that matches no package is an error.
func TestLoadSkipsTestOnlyPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":           "module example.com/scratch\n\ngo 1.21\n",
		"pkg/good/good.go": "package good\n\nimport \"sort\"\n\nfunc Sorted(xs []int) { sort.Ints(xs) }\n",
		"pkg/only/only_test.go": `package only

import "testing"

func TestNothing(t *testing.T) {}
`,
	})
	if _, err := Load(dir, "./nosuch/..."); err == nil {
		t.Errorf("Load of a pattern matching nothing returned no error")
	}
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].RelPath != "pkg/good" {
		var rels []string
		for _, p := range pkgs {
			rels = append(rels, p.RelPath)
		}
		t.Fatalf("Load returned %q, want only pkg/good", rels)
	}
}

// TestLoadModuleHardTypeErrorFails ensures a module package that does
// not type-check is an error naming the package.
func TestLoadModuleHardTypeErrorFails(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":         "module example.com/scratch\n\ngo 1.21\n",
		"pkg/bad/bad.go": "package bad\n\nfunc Broken() int {\n\treturn \"not an int\"\n}\n",
	})
	_, err := Load(dir, "./...")
	if err == nil {
		t.Fatalf("Load typechecked a package with a hard type error")
	}
	if !strings.Contains(err.Error(), "example.com/scratch/pkg/bad") {
		t.Errorf("Load error does not name the package: %v", err)
	}
}

// TestLoadDirStdlibOnly checks the fixture loader used by analysistest
// outside any module: stdlib imports resolve through export data.
func TestLoadDirStdlibOnly(t *testing.T) {
	dir := t.TempDir()
	src := `package fix

import "sort"

func Sorted(xs []string) []string {
	sort.Strings(xs)
	return xs
}
`
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadDir(dir, "pkg/fix")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if p.RelPath != "pkg/fix" {
		t.Errorf("RelPath = %q, want the import path verbatim", p.RelPath)
	}
	if p.Types.Scope().Lookup("Sorted") == nil {
		t.Errorf("fixture was not typechecked: Sorted not found")
	}
}

// TestLoadHardTypeErrorFails ensures broken source is an error, not a
// silently half-analyzed package.
func TestLoadHardTypeErrorFails(t *testing.T) {
	dir := t.TempDir()
	src := `package fix

func Broken() int {
	return "not an int"
}
`
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir, "fix"); err == nil {
		t.Fatalf("LoadDir typechecked a package with a hard type error")
	}
}
