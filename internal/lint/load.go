package lint

import (
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
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis. Test files (_test.go) are not loaded: rpolvet guards the
// protocol's production paths, and tests are free to use wall clocks and
// ad-hoc randomness.
type Package struct {
	// PkgPath is the package's import path (e.g. "rpol/internal/wire").
	PkgPath string
	// Name is the package clause name.
	Name string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the parsed sources, sorted by file name.
	Files []*ast.File
	// Types and TypesInfo carry the go/types results for the package.
	Types     *types.Package
	TypesInfo *types.Info
}

// Module is a fully loaded module: every non-test package, type-checked in
// dependency order.
type Module struct {
	// Path is the module path from go.mod (e.g. "rpol").
	Path string
	// Root is the absolute directory containing go.mod.
	Root string
	// Packages is sorted by import path.
	Packages []*Package
}

// loader type-checks module packages from source, resolving stdlib (and any
// other out-of-module) imports through compiler export data obtained from
// `go list -export`. This keeps the analyzer stack on the standard library
// alone: no golang.org/x/tools dependency.
type loader struct {
	fset      *token.FileSet
	root      string            // module root: where `go list` runs
	modPath   string            // "" when loading a stray directory (fixtures)
	goVersion string            // e.g. "go1.22"
	exports   map[string]string // import path -> export data file
	std       types.Importer    // gc export-data importer for non-local paths
	locals    map[string]*types.Package
}

func newLoader(root, modPath, goVersion string) *loader {
	l := &loader{
		fset:      token.NewFileSet(),
		root:      root,
		modPath:   modPath,
		goVersion: goVersion,
		exports:   make(map[string]string),
		locals:    make(map[string]*types.Package),
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(importPath string) (io.ReadCloser, error) {
		file, err := l.lookupExport(importPath)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	return l
}

// Import implements types.Importer: module-local paths resolve to packages
// this loader has already checked (dependency order guarantees they exist);
// everything else goes through export data.
func (l *loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isLocal(importPath) {
		if p, ok := l.locals[importPath]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("module package %q not loaded before its importer (cycle?)", importPath)
	}
	return l.std.Import(importPath)
}

func (l *loader) isLocal(importPath string) bool {
	if l.modPath == "" {
		return false
	}
	return importPath == l.modPath || strings.HasPrefix(importPath, l.modPath+"/")
}

// lookupExport maps an import path to its compiled export data file, asking
// `go list -export` on a cache miss (the -deps flag pulls in the transitive
// closure so one subprocess usually serves many subsequent lookups).
func (l *loader) lookupExport(importPath string) (string, error) {
	if f, ok := l.exports[importPath]; ok {
		return f, nil
	}
	if err := l.fetchExports(importPath); err != nil {
		return "", err
	}
	if f, ok := l.exports[importPath]; ok {
		return f, nil
	}
	return "", fmt.Errorf("no export data for %q", importPath)
}

func (l *loader) fetchExports(patterns ...string) error {
	args := append([]string{"list", "-export", "-e", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.root
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) && len(exitErr.Stderr) > 0 {
			msg = strings.TrimSpace(string(exitErr.Stderr))
		}
		return fmt.Errorf("go list -export %s: %s", strings.Join(patterns, " "), msg)
	}
	for _, line := range strings.Split(string(out), "\n") {
		ip, file, ok := strings.Cut(strings.TrimSpace(line), "\t")
		if ok && ip != "" && file != "" {
			l.exports[ip] = file
		}
	}
	return nil
}

// check type-checks one package's parsed files.
func (l *loader) check(pkgPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer:  l,
		GoVersion: l.goVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	l.locals[pkgPath] = tpkg
	return &Package{
		PkgPath:   pkgPath,
		Name:      tpkg.Name(),
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// hostBuild matches files against the host GOOS/GOARCH, exactly like the go
// tool: platform-variant sources (//go:build constraints, _amd64.go name
// suffixes) would otherwise collide as duplicate declarations in one package.
var hostBuild = func() build.Context {
	ctx := build.Default
	ctx.CgoEnabled = false
	return ctx
}()

// parseDir parses the non-test Go files of one directory as a single
// package. It returns nil files when the directory holds no buildable
// sources.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if ok, err := hostBuild.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		full := filepath.Join(dir, n)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("%s: mixed package names %q and %q", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, nil
}

// readModFile extracts the module path and language version from go.mod.
func readModFile(root string) (modPath, goVersion string, err error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(v)
		}
		if v, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(v)
		}
	}
	if modPath == "" {
		return "", "", fmt.Errorf("%s/go.mod: no module directive", root)
	}
	return modPath, goVersion, nil
}

// FindModuleRoot walks up from dir to the nearest directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses and type-checks every non-test package under the module
// rooted at root (skipping testdata, vendor, and hidden directories),
// resolving out-of-module imports through `go list -export` data.
func LoadModule(root string) (*Module, error) {
	mod, _, err := loadModule(root)
	return mod, err
}

// loadModule is LoadModule, also returning the loader that checked the
// module, whose importer resolves the module's own packages to the ones
// returned.
func loadModule(root string) (*Module, *loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	modPath, goVersion, err := readModFile(root)
	if err != nil {
		return nil, nil, err
	}
	l := newLoader(root, modPath, goVersion)
	// Prefetch export data for the module's whole dependency closure in one
	// subprocess; stragglers fall back to per-path lookups.
	if err := l.fetchExports("./..."); err != nil {
		return nil, nil, err
	}

	// Discover package directories.
	dirFiles := make(map[string][]*ast.File) // import path -> files
	dirOf := make(map[string]string)         // import path -> directory
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := l.parseDir(p)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = path.Join(modPath, filepath.ToSlash(rel))
		}
		dirFiles[pkgPath] = files
		dirOf[pkgPath] = p
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Topologically order by module-local imports, then type-check.
	deps := make(map[string][]string, len(dirFiles))
	for pkgPath, files := range dirFiles {
		seen := map[string]bool{}
		for _, f := range files {
			for _, spec := range f.Imports {
				ip, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if l.isLocal(ip) && !seen[ip] {
					seen[ip] = true
					deps[pkgPath] = append(deps[pkgPath], ip)
				}
			}
		}
		sort.Strings(deps[pkgPath])
	}
	var order []string
	state := make(map[string]int) // 0 new, 1 visiting, 2 done
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		for _, d := range deps[p] {
			if _, ok := dirFiles[d]; !ok {
				return fmt.Errorf("%s imports %s, which has no sources in the module", p, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	roots := make([]string, 0, len(dirFiles))
	for p := range dirFiles {
		roots = append(roots, p)
	}
	sort.Strings(roots)
	for _, p := range roots {
		if err := visit(p); err != nil {
			return nil, nil, err
		}
	}

	mod := &Module{Path: modPath, Root: root}
	for _, pkgPath := range order {
		pkg, err := l.check(pkgPath, dirOf[pkgPath], dirFiles[pkgPath])
		if err != nil {
			return nil, nil, err
		}
		mod.Packages = append(mod.Packages, pkg)
	}
	sort.Slice(mod.Packages, func(i, j int) bool { return mod.Packages[i].PkgPath < mod.Packages[j].PkgPath })
	return mod, l, nil
}

// loadDir parses and type-checks a single directory as the package with the
// given import path. It exists for fixture tests: the path controls which
// package-scoped analyzers consider themselves applicable. The directory
// may import the standard library but not module-local packages.
func loadDir(dir, pkgPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	_, goVersion, err := readModFile(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, "", goVersion)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no buildable Go files", dir)
	}
	return l.check(pkgPath, dir, files)
}
