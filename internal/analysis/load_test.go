package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadMultiFileGenericPackage exercises the loader on a package
// split across files that declare and instantiate generics, alongside a
// _test.go file (skipped — it references an undefined symbol, so
// inclusion would surface as a type error), a file whose build
// constraint no platform meets (skipped — it declares Sum a second time)
// and a stray file of another package (dropped by the dominant-clause
// rule).
func TestLoadMultiFileGenericPackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(mustAbs(t, "."), "testdata", "genpkg")
	pkgs, err := l.Load([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages", len(pkgs))
	}
	pkg := pkgs[0]

	if len(pkg.Files) != 2 {
		t.Fatalf("got %d files, want 2 (a.go and b.go; _test.go, constrained and stray dropped)", len(pkg.Files))
	}
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") || name == "c_constrained.go" || name == "z_stray.go" {
			t.Fatalf("loader kept excluded file %s", name)
		}
		if f.Name.Name != "genpkg" {
			t.Fatalf("file %s has package %s", name, f.Name.Name)
		}
	}

	scope := pkg.Types.Scope()
	if scope.Lookup("Stack") == nil || scope.Lookup("Sum") == nil {
		t.Fatalf("generic declarations missing from package scope")
	}
	if scope.Lookup("Orphan") != nil {
		t.Fatalf("stray-package symbol leaked into genpkg")
	}
	ints := scope.Lookup("Ints")
	if ints == nil {
		t.Fatalf("cross-file instantiation missing")
	}
	if got := ints.Type().String(); !strings.Contains(got, "Stack[int]") {
		t.Fatalf("Ints type = %s, want a Stack[int] instantiation", got)
	}
	if len(pkg.Info.Defs) == 0 || len(pkg.Info.Uses) == 0 {
		t.Fatalf("empty type info for generic package")
	}
}
