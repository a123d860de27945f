package lint

import (
	"fmt"
	"strings"
	"testing"
)

// selfScanSuppressions is the audited budget of deliberate exceptions in
// the repository. Adding a //rpolvet:ignore is a reviewed decision: bump
// this count in the same change, with the justification in the directive.
const selfScanSuppressions = 3

// TestRepositoryIsRPolvetClean loads the whole module and runs the full
// analyzer suite over it: the repo must stay free of unsuppressed findings,
// so any regression of the determinism invariants fails `go test` as well
// as the dedicated CI step.
func TestRepositoryIsRPolvetClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "rpol" {
		t.Fatalf("module path = %q, want rpol", mod.Path)
	}
	if len(mod.Packages) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing most of the module", len(mod.Packages))
	}
	findings, suppressed := Run(mod.Packages, All())
	for _, d := range findings {
		t.Errorf("rpolvet finding: %s", d)
	}
	// The deliberate exceptions stay visible: every suppression must carry
	// its reason, and the total is pinned so a new waiver cannot slip in
	// without a reviewed bump of selfScanSuppressions.
	for _, d := range suppressed {
		if strings.TrimSpace(d.SuppressReason) == "" {
			t.Errorf("suppressed finding without reason: %s", d)
		}
	}
	if len(suppressed) != selfScanSuppressions {
		t.Errorf("repository carries %d suppressions, want exactly %d:", len(suppressed), selfScanSuppressions)
		for _, d := range suppressed {
			t.Errorf("  %s", d)
		}
	}
}

// TestSelfScanDeterministic runs the full suite twice over freshly loaded
// module snapshots and requires byte-identical output. Analyzer determinism
// is itself a protocol invariant: a finding that flickers with map
// iteration order would make the CI gate flaky and the baseline unstable.
func TestSelfScanDeterministic(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		mod, err := LoadModule(root)
		if err != nil {
			t.Fatal(err)
		}
		findings, suppressed := Run(mod.Packages, All())
		var b strings.Builder
		for _, d := range findings {
			fmt.Fprintf(&b, "F %s\n", d)
		}
		for _, d := range suppressed {
			fmt.Fprintf(&b, "S %s [%s]\n", d, d.SuppressReason)
		}
		return b.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Errorf("two self-scans differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestCheckedInBaselineIsEmptyAndFresh pins the debt ledger's steady state:
// the repository carries no baselined findings, so the checked-in file must
// be an empty budget that applies without waiving or going stale.
func TestCheckedInBaselineIsEmptyAndFresh(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(root + "/.rpolvet-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Budget) != 0 {
		t.Errorf("checked-in baseline carries %d entries, want an empty budget (burn debt down, then -writebaseline)", len(b.Budget))
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run(mod.Packages, All())
	fresh, waived, stale := b.Apply(findings, root)
	if len(fresh) != len(findings) || len(waived) != 0 || len(stale) != 0 {
		t.Errorf("empty baseline misapplied: fresh=%d waived=%d stale=%d over %d findings",
			len(fresh), len(waived), len(stale), len(findings))
	}
}

// TestLoadModuleTypeInfo spot-checks that the loader produces real type
// information, not best-effort partial data: rpol/internal/obs must resolve
// with its exported instruments typed.
func TestLoadModuleTypeInfo(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var obsPkg *Package
	for _, p := range mod.Packages {
		if p.PkgPath == "rpol/internal/obs" {
			obsPkg = p
		}
	}
	if obsPkg == nil {
		t.Fatal("rpol/internal/obs not loaded")
	}
	for _, name := range []string{"Counter", "Gauge", "Histogram", "Registry", "Tracer", "Span", "Observer", "Clock"} {
		if obsPkg.Types.Scope().Lookup(name) == nil {
			t.Errorf("obs.%s not in package scope", name)
		}
	}
	if obsPkg.TypesInfo == nil || len(obsPkg.TypesInfo.Uses) == 0 {
		t.Error("no Uses info recorded")
	}
}
