package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixturePkgPath maps each analyzer fixture to an import path inside the
// analyzer's scope, so package-scoped checks consider themselves
// applicable.
var fixtureCases = []struct {
	analyzer *Analyzer
	pkgPath  string
}{
	{NoWallClock, "rpol/internal/rpol"},
	{NoRandGlobal, "rpol/internal/adversary"},
	{MapOrder, "rpol/internal/commitment"},
	{FloatEq, "rpol/internal/stats"},
	{NilSafeObs, "rpol/internal/obs"},
	{LockSend, "rpol/internal/netsim"},
	{DurableWrite, "rpol/internal/journal"},
	{GoroutineLeak, "rpol/internal/obshttp"},
	{SeedPurity, "rpol/internal/faults"},
}

func loadFixture(t *testing.T, a *Analyzer, kind, pkgPath string) (findings, suppressed []Diagnostic) {
	t.Helper()
	dir := filepath.Join("testdata", a.Name, kind)
	pkg, err := loadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return Run([]*Package{pkg}, []*Analyzer{a})
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantComments scans a fixture directory for `// want "substring"`
// expectations, keyed file:line.
func wantComments(t *testing.T, dir string) map[string]string {
	t.Helper()
	wants := make(map[string]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				abs, err := filepath.Abs(path)
				if err != nil {
					t.Fatal(err)
				}
				wants[posKey(abs, line)] = m[1]
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	return wants
}

func posKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// TestAnalyzerDetections checks each analyzer's "bad" fixture: every
// // want comment must produce a matching finding, and every finding must
// be expected.
func TestAnalyzerDetections(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			findings, suppressed := loadFixture(t, tc.analyzer, "bad", tc.pkgPath)
			if len(suppressed) != 0 {
				t.Errorf("bad fixture produced suppressed findings: %v", suppressed)
			}
			wants := wantComments(t, filepath.Join("testdata", tc.analyzer.Name, "bad"))
			if len(wants) == 0 {
				t.Fatal("bad fixture has no // want expectations")
			}
			matched := make(map[string]bool)
			for _, d := range findings {
				key := posKey(d.File, d.Line)
				want, ok := wants[key]
				if !ok {
					t.Errorf("unexpected finding %s", d)
					continue
				}
				if !strings.Contains(d.Message, want) {
					t.Errorf("finding %s does not contain %q", d, want)
				}
				matched[key] = true
			}
			for key, want := range wants {
				if !matched[key] {
					t.Errorf("no finding at %s matching %q", key, want)
				}
			}
		})
	}
}

// TestAnalyzerCleanFixtures checks that idiomatic code produces no
// findings at all.
func TestAnalyzerCleanFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			findings, suppressed := loadFixture(t, tc.analyzer, "clean", tc.pkgPath)
			for _, d := range findings {
				t.Errorf("clean fixture flagged: %s", d)
			}
			for _, d := range suppressed {
				t.Errorf("clean fixture should not need suppressions: %s", d)
			}
		})
	}
}

// TestAnalyzerSuppressions checks that rpolvet:ignore waives findings and
// preserves the reason for auditing.
func TestAnalyzerSuppressions(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			findings, suppressed := loadFixture(t, tc.analyzer, "suppressed", tc.pkgPath)
			for _, d := range findings {
				t.Errorf("suppressed fixture still fails: %s", d)
			}
			if len(suppressed) == 0 {
				t.Fatal("suppressed fixture produced no suppressed findings; the fixture no longer triggers the analyzer")
			}
			for _, d := range suppressed {
				if d.SuppressReason == "" {
					t.Errorf("suppressed finding lost its reason: %s", d)
				}
				if d.Analyzer != tc.analyzer.Name {
					t.Errorf("suppressed finding has analyzer %q, want %q", d.Analyzer, tc.analyzer.Name)
				}
			}
		})
	}
}

// TestMalformedDirectives checks that bad rpolvet:ignore comments are
// reported instead of silently tolerated.
func TestMalformedDirectives(t *testing.T) {
	pkg, err := loadDir(filepath.Join("testdata", "directives", "bad"), "rpol/internal/rpol")
	if err != nil {
		t.Fatal(err)
	}
	findings, suppressed := Run([]*Package{pkg}, All())
	if len(suppressed) != 0 {
		t.Errorf("unexpected suppressions: %v", suppressed)
	}
	var msgs []string
	for _, d := range findings {
		if d.Analyzer != "rpolvet" {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"needs an analyzer name and a reason",
		"unknown analyzer nosuchanalyzer",
		"nowallclock needs a reason",
		"put a space between rpolvet:ignore and the analyzer name",
		"must be a // line comment",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing directive diagnostic %q in:\n%s", want, joined)
		}
	}
	if len(findings) != 5 {
		t.Errorf("got %d directive findings, want 5: %v", len(findings), findings)
	}
}

// TestSuiteSize pins the acceptance requirement of at least five distinct
// analyzers.
func TestSuiteSize(t *testing.T) {
	all := All()
	if len(all) < 5 {
		t.Fatalf("suite has %d analyzers, want >= 5", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
