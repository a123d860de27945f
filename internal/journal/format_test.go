package journal

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestDurablePackagesImportNoJSON holds the durable writers to fsio's one
// binary body codec: no non-test file of journal, pool or blockchain imports
// encoding/json.
func TestDurablePackagesImportNoJSON(t *testing.T) {
	for _, dir := range []string{".", "../pool", "../blockchain"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %d Go files (%v)", dir, len(files), err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/json"` {
					t.Errorf("%s imports encoding/json", name)
				}
			}
		}
	}
}
