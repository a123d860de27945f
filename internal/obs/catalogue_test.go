package obs_test

import (
	"go/ast"
	"go/constant"
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

	"rpol/internal/lint"
	"rpol/internal/obs"
	"rpol/internal/pool"
	"rpol/internal/rpol"
)

// catalogueDoc is the README whose "Metrics and events" table names every
// metric and event kind the module emits.
const catalogueDoc = "../../README.md"

// catalogueRow is one row of the table: a metric or an event kind.
type catalogueRow struct {
	kind      string // counter, gauge, histogram or event
	pkg       string // the emitting package, relative to internal/
	checkedBy string // the test that asserts the value
	constName string // an event kind's obs constant
}

// docCatalogue returns the rows of the table under "### Metrics and events"
// in the README, keyed by name.
func docCatalogue(t *testing.T) map[string]catalogueRow {
	t.Helper()
	data, err := os.ReadFile(catalogueDoc)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n### Metrics and events\n")
	if !ok {
		t.Fatalf("%s has no Metrics and events section", catalogueDoc)
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := map[string]catalogueRow{}
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break // the first table ends here
			}
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) != 8 {
			t.Fatalf("table row %q does not have six cells", line)
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if !inTable { // the heading row, then its separator
			inTable = true
			continue
		}
		if strings.HasPrefix(cells[1], "---") {
			continue
		}
		name, err := strconv.Unquote(strings.ReplaceAll(cells[1], "`", `"`))
		if err != nil {
			t.Fatalf("name cell %q is not one backquoted name", cells[1])
		}
		if _, dup := rows[name]; dup {
			t.Fatalf("%q has two rows", name)
		}
		rows[name] = catalogueRow{kind: cells[2], pkg: strings.Trim(cells[5], "`"), checkedBy: strings.Trim(cells[6], "`")}
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no table under Metrics and events", catalogueDoc)
	}
	return rows
}

// sourceCatalogue loads the non-test code of the module at root and returns
// every metric it registers and every event kind obs declares, with the
// packages that emit each. A metric is the name argument of a Counter, Gauge
// or Histogram call on an obs.Observer or obs.Registry, outside obs's own
// forwarding methods; an event kind is an obs.Event* constant, emitted where
// a StreamEvent literal sets it as its Kind. A name that is not a string
// literal fails the test, since no table can hold it.
func sourceCatalogue(t *testing.T, root string) map[string]catalogueRow {
	t.Helper()
	mod, err := lint.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	obsPath := mod.Path + "/internal/obs"
	isObs := func(tt types.Type, name string) bool {
		if p, ok := tt.(*types.Pointer); ok {
			tt = p.Elem()
		}
		n, ok := tt.(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == obsPath && n.Obj().Name() == name
	}
	kinds := map[string]string{"Counter": "counter", "Gauge": "gauge", "Histogram": "histogram"}
	out := map[string]catalogueRow{}
	emitted := map[string][]string{} // name → emitting packages
	emit := func(name, kind, pkg string) {
		row, seen := out[name]
		if seen && row.kind != kind {
			t.Errorf("%q is both a %s and a %s", name, row.kind, kind)
		}
		row.kind = kind
		out[name] = row
		if !slices.Contains(emitted[name], pkg) {
			emitted[name] = append(emitted[name], pkg)
		}
	}
	for _, pkg := range mod.Packages {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.PkgPath, mod.Path+"/"), "internal/")
		info := pkg.TypesInfo
		if pkg.PkgPath == obsPath {
			for _, name := range pkg.Types.Scope().Names() {
				c, ok := pkg.Types.Scope().Lookup(name).(*types.Const)
				if ok && strings.HasPrefix(name, "Event") && c.Val().Kind() == constant.String {
					out[constant.StringVal(c.Val())] = catalogueRow{kind: "event", constName: name}
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// Observer's Counter, Gauge and Histogram forward their
					// caller's name to the Registry.
					_, forwards := kinds[n.Name.Name]
					return !(pkg.PkgPath == obsPath && n.Recv != nil && forwards)
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					kind, ok := kinds[sel.Sel.Name]
					recv, isSel := info.Selections[sel]
					if !ok || !isSel || !(isObs(recv.Recv(), "Observer") || isObs(recv.Recv(), "Registry")) || len(n.Args) == 0 {
						return true
					}
					lit, ok := n.Args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Errorf("%s: %s name is not a string literal", pkg.Fset.Position(n.Pos()), sel.Sel.Name)
						return true
					}
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					emit(name, kind, rel)
				case *ast.CompositeLit:
					if tv, ok := info.Types[n]; !ok || !isObs(tv.Type, "StreamEvent") {
						return true
					}
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if key, isIdent := kv.Key.(*ast.Ident); !ok || !isIdent || key.Name != "Kind" {
							continue
						}
						if tv := info.Types[kv.Value]; tv.Value != nil && tv.Value.Kind() == constant.String {
							emit(constant.StringVal(tv.Value), "event", rel)
						}
					}
				}
				return true
			})
		}
	}
	for name, row := range out {
		pkgs := emitted[name]
		slices.Sort(pkgs)
		row.pkg = strings.Join(pkgs, ", ")
		out[name] = row
	}
	return out
}

// testBodies parses every test file of the module at root and returns each
// test function by name (a name several packages use maps to all of them).
func testBodies(t *testing.T, root string) map[string][]*ast.FuncDecl {
	t.Helper()
	out := map[string][]*ast.FuncDecl{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
				out[fd.Name.Name] = append(out[fd.Name.Name], fd)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// names reports whether body holds name as a string literal or, for an
// event kind, names the obs constant that holds it.
func names(body ast.Node, name, constName string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && s == name {
				found = true
			}
		case *ast.Ident:
			if constName != "" && n.Name == constName {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestMetricCatalogue closes the set of metric and event names against the
// README's table: the names the code emits and the table's rows are the same
// set, each row gives its kind and emitting package, and each row's
// checked-by test exists and names it.
func TestMetricCatalogue(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	doc, src := docCatalogue(t), sourceCatalogue(t, root)
	var missing, extra []string
	for name := range src {
		if _, ok := doc[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range doc {
		if _, ok := src[name]; !ok {
			extra = append(extra, name)
		}
	}
	slices.Sort(missing)
	slices.Sort(extra)
	if len(missing) > 0 {
		t.Errorf("the code emits %q, which the README's table lacks", missing)
	}
	if len(extra) > 0 {
		t.Errorf("the README's table lists %q, which no code emits", extra)
	}

	tests := testBodies(t, root)
	for name, row := range doc {
		want, ok := src[name]
		if !ok {
			continue
		}
		if row.kind != want.kind || row.pkg != want.pkg {
			t.Errorf("%s: the table says %s from %s, the code emits a %s from %q", name, row.kind, row.pkg, want.kind, want.pkg)
		}
		fns, ok := tests[row.checkedBy]
		if !ok {
			t.Errorf("%s: checked by %q, which is no test in the module", name, row.checkedBy)
			continue
		}
		if !slices.ContainsFunc(fns, func(fd *ast.FuncDecl) bool { return names(fd.Body, name, want.constName) }) {
			t.Errorf("%s: %s does not name it", name, row.checkedBy)
		}
	}
}

// TestPhaseBreakdownMirrorTo: a pool epoch reports its per-phase totals in
// EpochStats.Phases and nowhere else; it registers no rpol_phase_ metric.
func TestPhaseBreakdownMirrorTo(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := pool.New(pool.Config{
		TaskName: "resnet18-cifar10", Scheme: rpol.SchemeV2, NumWorkers: 2,
		StepsPerEpoch: 6, CheckpointEvery: 2, Samples: 2, Seed: 99,
		Obs: obs.NewObserver(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Phases[obs.PhaseTraining].Count != 2 || stats.Phases[obs.PhaseSettlement].Count != int64(stats.Accepted) {
		t.Errorf("epoch phases = %+v", stats.Phases)
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
		t.Fatal("the epoch registered no metric")
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "rpol_phase_") {
			t.Errorf("the epoch registered %s", name)
		}
	}
}
