package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceReason is why an exported name stays exported although no non-test
// code outside its declaration references it.
type surfaceReason string

const (
	// frozenBenchmark: only benchmark/, which changes in its own PRs, reaches
	// the name. These rows are the list to delete once the benchmark stops
	// naming them.
	frozenBenchmark surfaceReason = "frozen benchmark"
	// specOracle: a paper formula or reference implementation that tests
	// compare the production path against.
	specOracle surfaceReason = "spec oracle"
	// testSeam: another package's tests use it to reach inside.
	testSeam surfaceReason = "test seam"
	// publicAPI: a method or field of a type the root facade aliases, which
	// the library means to offer.
	publicAPI surfaceReason = "public API"
)

// TestExportedSurface holds the exported surface of internal/ and cmd/ to a
// closed world: every exported function, method, type, package-level var or
// const, and field of an exported type is referenced by non-test code outside
// its own declaration, or it is a row of surfaceTable with its reason. A name
// nothing references is unexported or deleted, not kept "in case".
func TestExportedSurface(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, l, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	unreferenced := scanSurface(mod)
	tests, err := testReferences(mod, l)
	if err != nil {
		t.Fatal(err)
	}
	aliased := facadeAliases(mod)

	var missing []string
	for _, name := range sortedKeys(unreferenced) {
		u := unreferenced[name]
		reason, ok := surfaceTable[name]
		if !ok {
			what := "no non-test code outside its declaration references it"
			if u.benchmark {
				what = "only the benchmark references it"
			}
			missing = append(missing, name+" ("+u.pos+"): "+what)
			continue
		}
		switch reason {
		case frozenBenchmark:
			if !u.benchmark {
				t.Errorf("%s: the row says %q, but the benchmark does not reference it", name, reason)
			}
		case specOracle:
			if len(tests[u.obj.Pos()]) == 0 {
				t.Errorf("%s: the row says %q, but no test references it", name, reason)
			}
		case testSeam:
			if !slices.ContainsFunc(tests[u.obj.Pos()], func(dir string) bool { return dir != u.dir }) {
				t.Errorf("%s: the row says %q, but no other package's tests reference it", name, reason)
			}
		case publicAPI:
			if u.owner == nil || !aliased[u.owner] {
				t.Errorf("%s: the row says %q, but the root facade aliases no type that has it", name, reason)
			}
		default:
			t.Errorf("%s: %q is not a reason; use one of %q, %q, %q, %q", name, reason, frozenBenchmark, specOracle, testSeam, publicAPI)
		}
		if u.benchmark && reason != frozenBenchmark {
			t.Errorf("%s: only the benchmark references it, so its reason is %q, not %q", name, frozenBenchmark, reason)
		}
	}
	for _, m := range missing {
		t.Errorf("exported without a reason: %s; unexport or delete it, or give it a row in surfaceTable", m)
	}
	for _, name := range sortedKeys(surfaceTable) {
		if _, ok := unreferenced[name]; !ok {
			t.Errorf("surfaceTable row %s matches no exported name without a non-test caller; delete the row", name)
		}
	}
}

// surfaceTable lists, with its reason, every exported name of internal/ and
// cmd/ that no non-test code outside its declaration references. A name is
// written as its package path inside the module, then the name, then for a
// method or field the member: "internal/netsim.Meter.Total".
var surfaceTable = map[string]surfaceReason{
	// The benchmark's own reach into the module. Each row goes once the
	// benchmark stops naming it.
	"internal/checkpoint.MemoryStore.Len": frozenBenchmark,
	"internal/checkpoint.NewMemoryStore":  frozenBenchmark,
	"internal/checkpoint.Store.Len":       frozenBenchmark,
	"internal/lsh.Digest.Encode":          frozenBenchmark,
	"internal/netsim.TCPEndpoint.Send":    frozenBenchmark,
	"internal/nn.Network.TrainBatch":      frozenBenchmark,
	"internal/pool.Pool.Manager":          frozenBenchmark,
	"internal/prf.PRF.BatchIndices":       frozenBenchmark,
	"internal/rpol.HonestWorker.SetStore": frozenBenchmark,
	"internal/tensor.RNG.Int63":           frozenBenchmark,
	"internal/wire.DecodeResult":          frozenBenchmark,
	"internal/wire.DecodeTask":            frozenBenchmark,
	"internal/wire.EncodeResult":          frozenBenchmark,
	"internal/wire.EncodeTask":            frozenBenchmark,

	// Paper formulas and reference chains the production paths are tested
	// against: the FNR/FPR integrals, the data-selection rule
	// PRF(N·m + n) mod |D_w|, and the one-chain dot product the lane
	// kernels and LSH projections must equal.
	"internal/lsh.FNRIntegral":   specOracle,
	"internal/lsh.FPRIntegral":   specOracle,
	"internal/prf.PRF.DataIndex": specOracle,
	"internal/tensor.Vector.Dot": specOracle,

	// Reached only from other packages' tests.
	"internal/adversary.NewWrongInit":     testSeam,
	"internal/amlayer.NewDense":           testSeam,
	"internal/amlayer.Prepend":            testSeam,
	"internal/fsio.CrashAtWrite":          testSeam,
	"internal/fsio.FaultFS.Writes":        testSeam,
	"internal/fsio.NewFaultFS":            testSeam,
	"internal/netsim.TCPHub.InjectFaults": testSeam,
	"internal/obs.BuildSpanTree":          testSeam,
	"internal/obs.ReadEvents":             testSeam,
	"internal/obs.SpanTree.Ancestry":      testSeam,
	"internal/obs.SpanTree.SpansNamed":    testSeam,
	"internal/parallel.Arena.Size":        testSeam,
	"internal/stats.NormalPDF":            testSeam,
	"internal/tensor.RNG.Intn":            testSeam,
	"internal/tensor.SetPortable":         testSeam,
	"internal/tensor.Vector.Sum":          testSeam,

	// Methods of the types the root facade aliases that a library user
	// calls: predicting with a trained network, and giving a manager's port
	// the RetryPolicy the facade exports and the observer its
	// net_retries_total and net_timeouts_total counters go to.
	"internal/nn.Network.Predict":              publicAPI,
	"internal/wire.ManagerPort.SetObserver":    publicAPI,
	"internal/wire.ManagerPort.SetRetryPolicy": publicAPI,
}

// unreferencedName is one exported name that no non-test code outside its
// declaration references.
type unreferencedName struct {
	obj       types.Object
	owner     *types.TypeName // the type a method or field belongs to
	dir       string          // the declaring package's directory
	pos       string          // file:line, relative to the module root
	benchmark bool            // the benchmark references it
}

// scanSurface returns the exported names of internal/ and cmd/ that no
// non-test code outside their declaration references, keyed as surfaceTable
// keys them.
func scanSurface(mod *Module) map[string]*unreferencedName {
	type candidate struct {
		key   string
		owner *types.TypeName
		pkg   *Package
		decl  ast.Node
	}
	cands := map[types.Object]*candidate{}
	var named []*types.TypeName // every package-level type, for interface satisfaction
	for _, pkg := range mod.Packages {
		rel := strings.TrimPrefix(pkg.PkgPath, mod.Path+"/")
		scoped := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
		add := func(ident *ast.Ident, decl ast.Node, owner *types.TypeName) {
			obj := pkg.TypesInfo.Defs[ident]
			if !scoped || obj == nil || !ident.IsExported() {
				return
			}
			key := rel + "." + ident.Name
			if owner != nil {
				key = rel + "." + owner.Name() + "." + ident.Name
			}
			cands[obj] = &candidate{key: key, owner: owner, pkg: pkg, decl: decl}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d, nil)
						continue
					}
					if owner := receiverType(pkg, d); owner != nil {
						add(d.Name, d, owner) // an unexported type's method is promoted through embedding
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								add(n, spec, nil)
							}
						case *ast.TypeSpec:
							tn, _ := pkg.TypesInfo.Defs[spec.Name].(*types.TypeName)
							if tn == nil {
								continue
							}
							named = append(named, tn)
							add(spec.Name, spec, nil)
							if !tn.Exported() {
								continue
							}
							var fields *ast.FieldList
							switch typ := spec.Type.(type) {
							case *ast.StructType:
								fields = typ.Fields
							case *ast.InterfaceType:
								fields = typ.Methods
							}
							if fields == nil {
								continue
							}
							for _, field := range fields.List {
								if tag := field.Tag; tag != nil && strings.Contains(tag.Value, `json:"`) {
									continue // encoding/json reads it
								}
								for _, n := range field.Names {
									add(n, field, tn)
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	benchUsed := map[types.Object]bool{}
	mark := func(benchmark bool, obj types.Object) {
		if benchmark {
			benchUsed[obj] = true
		} else {
			used[obj] = true
		}
	}
	// ifaceCalls records each interface method code calls, and whether only
	// the benchmark calls it.
	ifaceCalls := map[*types.Func]bool{}
	for _, pkg := range mod.Packages {
		bench := isBenchmark(mod, pkg)
		for _, f := range pkg.Files {
			var recvs []ast.Node
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recvs = append(recvs, fd.Recv)
				}
			}
			within := func(pos token.Pos, n ast.Node) bool { return n.Pos() <= pos && pos < n.End() }
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					obj := pkg.TypesInfo.Uses[n]
					if obj == nil {
						return true
					}
					if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
						benchOnly, seen := ifaceCalls[fn]
						ifaceCalls[fn] = (benchOnly || !seen) && bench
					}
					c := cands[obj]
					if c == nil || within(n.Pos(), c.decl) {
						return true
					}
					if _, ok := obj.(*types.TypeName); ok && slices.ContainsFunc(recvs, func(r ast.Node) bool { return within(n.Pos(), r) }) {
						return true // a method's receiver does not reference its own type
					}
					mark(bench, obj)
				case *ast.CompositeLit:
					// An unkeyed struct literal sets every field without naming it.
					if len(n.Elts) == 0 {
						return true
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
						return true
					}
					if st, ok := pkg.TypesInfo.TypeOf(n).Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							mark(bench, st.Field(i))
						}
					}
				}
				return true
			})
		}
	}

	// A method counts as referenced when it satisfies an interface method
	// that code calls, the standard library's implicit calls included; the
	// method found is the one the type's method set holds, so a method
	// promoted through an embedded type is credited, and nothing else.
	for fn, benchOnly := range ifaceCalls {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		satisfy(named, iface, fn.Pkg(), []string{fn.Name()}, func(obj types.Object) { mark(benchOnly, obj) })
	}
	for _, iface := range implicitInterfaces(mod) {
		var names []string
		for i := 0; i < iface.NumMethods(); i++ {
			names = append(names, iface.Method(i).Name())
		}
		satisfy(named, iface, nil, names, func(obj types.Object) { used[obj] = true })
	}

	out := map[string]*unreferencedName{}
	for obj, c := range cands {
		if used[obj] {
			continue
		}
		pos := c.pkg.Fset.Position(obj.Pos())
		file, err := filepath.Rel(mod.Root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		out[c.key] = &unreferencedName{
			obj:       obj,
			owner:     c.owner,
			dir:       c.pkg.Dir,
			pos:       file + ":" + strconv.Itoa(pos.Line),
			benchmark: benchUsed[obj],
		}
	}
	return out
}

// satisfy calls credit with each named method of iface that a package-level
// type, or a pointer to it, holds in its method set when it implements iface.
func satisfy(named []*types.TypeName, iface *types.Interface, pkg *types.Package, names []string, credit func(types.Object)) {
	for _, tn := range named {
		if types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		if !types.Implements(ptr, iface) {
			continue
		}
		for _, name := range names {
			if obj, _, _ := types.LookupFieldOrMethod(ptr, false, pkg, name); obj != nil {
				credit(obj)
			}
		}
	}
}

// implicitInterfaces returns the interfaces whose methods the standard
// library calls on values the module hands it: error and Stringer printing,
// errors.Is/As unwrapping, encoding/json, net/http, io and sort.
func implicitInterfaces(mod *Module) []*types.Interface {
	stdlib := map[string]*types.Package{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if _, seen := stdlib[imp.Path()]; !seen {
				stdlib[imp.Path()] = imp
				walk(imp)
			}
		}
	}
	for _, pkg := range mod.Packages {
		walk(pkg.Types)
	}
	var out []*types.Interface
	for _, name := range [][2]string{
		{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
		{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
		{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
		{"net/http", "Handler"}, {"flag", "Value"},
		{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"}, {"io", "ReaderAt"}, {"io", "WriterTo"}, {"io", "ReaderFrom"},
		{"sort", "Interface"}, {"container/heap", "Interface"},
	} {
		if p := stdlib[name[0]]; p != nil {
			if obj := p.Scope().Lookup(name[1]); obj != nil {
				out = append(out, obj.Type().Underlying().(*types.Interface))
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	boolType := types.Typ[types.Bool]
	method := func(name string, params, results []types.Type) *types.Interface {
		tuple := func(ts []types.Type) *types.Tuple {
			vars := make([]*types.Var, len(ts))
			for i, t := range ts {
				vars[i] = types.NewVar(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vars...)
		}
		sig := types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	return append(out,
		errType.Underlying().(*types.Interface),
		method("Unwrap", nil, []types.Type{errType}),
		method("Unwrap", nil, []types.Type{types.NewSlice(errType)}),
		method("Is", []types.Type{errType}, []types.Type{boolType}),
		method("As", []types.Type{anyType}, []types.Type{boolType}),
	)
}

// receiverType returns the package-level type a method is declared on.
func receiverType(pkg *Package, fd *ast.FuncDecl) *types.TypeName {
	fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

func isBenchmark(mod *Module, pkg *Package) bool {
	return pkg.PkgPath == mod.Path+"/benchmark" || strings.HasPrefix(pkg.PkgPath, mod.Path+"/benchmark/")
}

// facadeAliases returns the types the root package aliases.
func facadeAliases(mod *Module) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, pkg := range mod.Packages {
		if pkg.PkgPath != mod.Path {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					out[n.Obj()] = true
				}
			}
		}
	}
	return out
}

// testRefs maps the declaration of each module object the module's test
// files reference to the directories of those test files. A declaration is
// keyed by its position, which is the same in the module's packages and in
// the test builds that re-check a package's own files with its tests.
type testRefs map[token.Pos][]string

// testReferences type-checks every test file of the module against the
// packages mod holds, as the go tool builds them: a package's in-package
// tests with its own files, and its external (_test) tests as a package of
// their own. l is the loader that checked mod.
func testReferences(mod *Module, l *loader) (testRefs, error) {
	byDir := map[string]*Package{}
	for _, pkg := range mod.Packages {
		byDir[pkg.Dir] = pkg
	}
	type testBuild struct {
		pkgPath string
		dir     string
		files   []*ast.File // the package's own files, then its tests
		tests   []*ast.File
	}
	var builds []*testBuild
	imports := map[string]bool{}
	err := filepath.WalkDir(mod.Root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != mod.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		own := byDir[p]
		var in, ext *testBuild
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				continue
			}
			if ok, err := hostBuild.MatchFile(p, n); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(p, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, spec := range f.Imports {
				if ip, err := strconv.Unquote(spec.Path.Value); err == nil && !l.isLocal(ip) {
					imports[ip] = true
				}
			}
			b := &in
			if strings.HasSuffix(f.Name.Name, "_test") && (own == nil || f.Name.Name != own.Name) {
				b = &ext
			}
			if *b == nil {
				*b = &testBuild{dir: p}
				if b == &ext {
					(*b).pkgPath = f.Name.Name
				} else if own != nil {
					(*b).pkgPath = own.PkgPath
					(*b).files = slices.Clone(own.Files)
				} else {
					(*b).pkgPath = f.Name.Name
				}
			}
			(*b).files = append((*b).files, f)
			(*b).tests = append((*b).tests, f)
		}
		for _, b := range []*testBuild{in, ext} {
			if b != nil {
				builds = append(builds, b)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var missing []string
	for ip := range imports {
		if _, ok := l.exports[ip]; !ok && ip != "unsafe" {
			missing = append(missing, ip)
		}
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		if err := l.fetchExports(missing...); err != nil {
			return nil, err
		}
	}

	refs := testRefs{}
	for _, b := range builds {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		var typeErrs []error
		conf := types.Config{
			Importer:  l,
			GoVersion: l.goVersion,
			Error:     func(err error) { typeErrs = append(typeErrs, err) },
		}
		_, _ = conf.Check(b.pkgPath, l.fset, b.files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("type-checking the tests in %s: %w", b.dir, errors.Join(typeErrs...))
		}
		for _, f := range b.tests {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if obj == nil || obj.Pkg() == nil || !l.isLocal(obj.Pkg().Path()) {
					return true
				}
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
				case *types.Var:
					obj = o.Origin()
				}
				if !slices.Contains(refs[obj.Pos()], b.dir) {
					refs[obj.Pos()] = append(refs[obj.Pos()], b.dir)
				}
				return true
			})
		}
	}
	return refs, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
