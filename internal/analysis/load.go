package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// PkgPath is the import path derived from the module root.
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader loads and type-checks packages of one module using only the
// standard library: module-local imports are resolved from source under
// the module root, everything else (the standard library) goes through
// go/importer's offline source importer. Loaded packages are cached, so
// a Loader amortizes type-checking across many Load calls.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	goVersion  string

	std     types.ImporterFrom
	cache   map[string]*Package // keyed by absolute dir
	loading map[string]bool     // cycle guard, keyed by absolute dir
}

// NewLoader creates a loader for the module containing startDir (the
// nearest enclosing go.mod).
func NewLoader(startDir string) (*Loader, error) {
	abs, err := filepath.Abs(startDir)
	if err != nil {
		return nil, err
	}
	root, modPath, goVer, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		goVersion:  goVer,
		cache:      map[string]*Package{},
		loading:    map[string]bool{},
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	l.std = std
	return l, nil
}

// ModuleRoot returns the absolute module root directory.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// findModule walks upward from dir to the nearest go.mod and parses its
// module path and go version.
func findModule(dir string) (root, modPath, goVer string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if p, ok := strings.CutPrefix(line, "module "); ok {
					modPath = strings.TrimSpace(p)
				}
				if v, ok := strings.CutPrefix(line, "go "); ok {
					goVer = "go" + strings.TrimSpace(v)
				}
			}
			if modPath == "" {
				return "", "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
			}
			return d, modPath, goVer, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Expand resolves package patterns — "./...", "dir/...", "./dir", "dir"
// — into the absolute directories (relative to base) that contain at
// least one non-test Go file. testdata, vendor, hidden and "_"-prefixed
// directories are skipped by "..." walks, matching go tooling.
func (l *Loader) Expand(base string, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(base, rest)
			if rest == "" || rest == "./" {
				root = base
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		add(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// Load loads and type-checks the package in each directory.
func (l *Loader) Load(dirs []string) ([]*Package, error) {
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// loadDir parses and type-checks the package in dir (cached).
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.cache[abs]; ok {
		return pkg, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("analysis: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	files, err := l.parseDir(abs)
	if err != nil {
		return nil, err
	}
	pkgPath := l.importPathFor(abs)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	cfg := types.Config{
		Importer:  (*loaderImporter)(l),
		GoVersion: l.goVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := cfg.Check(pkgPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		var b strings.Builder
		for i, e := range typeErrs {
			if i == 8 {
				fmt.Fprintf(&b, "\n\t... and %d more", len(typeErrs)-i)
				break
			}
			fmt.Fprintf(&b, "\n\t%v", e)
		}
		return nil, fmt.Errorf("analysis: type errors in %s:%s", pkgPath, b.String())
	}
	pkg := &Package{
		Dir:     abs,
		PkgPath: pkgPath,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.cache[abs] = pkg
	return pkg, nil
}

// parseDir parses every non-test Go file of the package in dir that this
// platform builds (go:build lines and GOOS/GOARCH file suffixes, as the go
// tool reads them), keeping only the files of the dominant package clause
// (a dir with stray files of another package would not build anyway).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkgName := files[0].Name.Name
	kept := files[:0]
	for _, f := range files {
		if f.Name.Name == pkgName {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// importPathFor maps an absolute directory under the module root to its
// import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return dir // outside the module; use the dir as a unique key
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// loaderImporter adapts Loader to types.ImporterFrom: module-local
// import paths load from source under the module root, the rest falls
// through to the offline stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.moduleRoot, 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
