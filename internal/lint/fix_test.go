package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixRoundTrip pins the acceptance criterion for the fix engine:
// applying the suggested fixes to the fixable fixture must produce, byte
// for byte, the fixed fixture — and the fixed fixture itself must scan
// clean, so the engine never rewrites code into a state the analyzer still
// rejects.
func TestFixRoundTrip(t *testing.T) {
	pkg, err := loadDir(filepath.Join("testdata", "durablewrite", "fixable"), "rpol/internal/journal")
	if err != nil {
		t.Fatal(err)
	}
	findings, suppressed := Run([]*Package{pkg}, []*Analyzer{DurableWrite})
	if len(suppressed) != 0 {
		t.Fatalf("unexpected suppressions: %v", suppressed)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 os.WriteFile findings: %v", len(findings), findings)
	}
	for _, d := range findings {
		if len(d.Fixes) != 1 {
			t.Fatalf("finding %s carries %d fixes, want 1", d, len(d.Fixes))
		}
	}

	patched, err := ApplyFixes(findings, os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(patched) != 1 {
		t.Fatalf("fixes touched %d files, want 1: %v", len(patched), patched)
	}
	var got []byte
	for f, content := range patched {
		if filepath.Base(f) != "fixable.go" {
			t.Fatalf("fix touched unexpected file %s", f)
		}
		got = content
	}
	want, err := os.ReadFile(filepath.Join("testdata", "durablewrite", "fixed", "fixed.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("fix round-trip mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	fixedPkg, err := loadDir(filepath.Join("testdata", "durablewrite", "fixed"), "rpol/internal/journal")
	if err != nil {
		t.Fatal(err)
	}
	fixedFindings, _ := Run([]*Package{fixedPkg}, []*Analyzer{DurableWrite})
	for _, d := range fixedFindings {
		t.Errorf("fixed fixture still flagged: %s", d)
	}
}

func fixDiag(edits ...TextEdit) Diagnostic {
	return Diagnostic{
		Analyzer: "durablewrite",
		File:     "x.go",
		Message:  "m",
		Fixes:    []SuggestedFix{{Message: "f", Edits: edits}},
	}
}

// TestApplyFixesDedup checks that the identical edit carried by two
// findings (both WriteFile fixes in one file include the same import
// rewrite) is applied once.
func TestApplyFixesDedup(t *testing.T) {
	src := []byte("aaa bbb ccc")
	read := func(string) ([]byte, error) { return src, nil }
	shared := TextEdit{File: "x.go", Start: 4, End: 7, New: "BBB"}
	patched, err := ApplyFixes([]Diagnostic{
		fixDiag(shared, TextEdit{File: "x.go", Start: 0, End: 3, New: "AAA"}),
		fixDiag(shared, TextEdit{File: "x.go", Start: 8, End: 11, New: "CCC"}),
	}, read)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(patched["x.go"]); got != "AAA BBB CCC" {
		t.Errorf("patched = %q, want %q", got, "AAA BBB CCC")
	}
}

// TestApplyFixesConflict checks that genuinely overlapping rewrites are an
// error, not a silent merge.
func TestApplyFixesConflict(t *testing.T) {
	read := func(string) ([]byte, error) { return []byte("aaaaaa"), nil }
	_, err := ApplyFixes([]Diagnostic{
		fixDiag(TextEdit{File: "x.go", Start: 0, End: 4, New: "x"}),
		fixDiag(TextEdit{File: "x.go", Start: 2, End: 6, New: "y"}),
	}, read)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("want overlap error, got %v", err)
	}
}

func TestApplyFixesOutOfRange(t *testing.T) {
	read := func(string) ([]byte, error) { return []byte("short"), nil }
	_, err := ApplyFixes([]Diagnostic{
		fixDiag(TextEdit{File: "x.go", Start: 2, End: 99, New: "x"}),
	}, read)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}

func TestDiff(t *testing.T) {
	oldSrc := []byte("a\nb\nc\n")
	newSrc := []byte("a\nB\nc\n")
	d := Diff("x.go", oldSrc, newSrc)
	for _, want := range []string{"--- x.go", "+++ x.go (fixed)", "-b", "+B"} {
		if !strings.Contains(d, want) {
			t.Errorf("diff missing %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, "-a") || strings.Contains(d, "+c") {
		t.Errorf("diff includes unchanged lines:\n%s", d)
	}
	if Diff("x.go", oldSrc, oldSrc) != "" {
		t.Error("identical contents produced a non-empty diff")
	}
}
