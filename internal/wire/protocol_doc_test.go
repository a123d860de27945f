package wire

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// protocolDoc is the protocol description whose wire-format table this
// package must match.
const protocolDoc = "../../PROTOCOL.md"

// docKindTable returns the rows of the message-kind table under "## Wire
// format" in PROTOCOL.md: kind → header cell, as written.
func docKindTable(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(protocolDoc)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Wire format\n")
	if !ok {
		t.Fatalf("%s has no Wire format section", protocolDoc)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{}
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break // the first table ends here
			}
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("table row %q has fewer than three cells", line)
		}
		kind, header := strings.TrimSpace(cells[1]), strings.TrimSpace(cells[2])
		if !inTable { // the heading row, then its separator
			inTable = true
			continue
		}
		if strings.HasPrefix(kind, "---") {
			continue
		}
		name, err := strconv.Unquote(strings.ReplaceAll(kind, "`", `"`))
		if err != nil {
			t.Fatalf("kind cell %q is not one backquoted name", kind)
		}
		if _, dup := rows[name]; dup {
			t.Fatalf("kind %q has two rows", name)
		}
		rows[name] = strings.Trim(header, "`")
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no kind table under Wire format", protocolDoc)
	}
	return rows
}

// sourceKinds returns the values of the package's Kind* constants, read from
// its source so that a kind added there cannot be missed here.
func sourceKinds(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range pkgs["wire"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Kind") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Fatalf("%s is not a string literal", name.Name)
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					kinds = append(kinds, v)
				}
			}
		}
	}
	slices.Sort(kinds)
	return kinds
}

// TestProtocolDocKindTable holds PROTOCOL.md's wire-format table to the
// codec: every row's header bytes are the ones this package writes for that
// message, and the table's kinds and the package's Kind constants are the
// same set.
func TestProtocolDocKindTable(t *testing.T) {
	net, _ := wireTask(t, 40)
	global := net.ParamVector()
	result := &rpol.EpochResult{WorkerID: "w", NumCheckpoints: 3, Update: global}
	// One encoder per kind; nil for a kind that carries no binary body (an
	// error reply is the peer's error text as-is, see WorkerServer.Run).
	encoders := map[string]func() ([]byte, error){
		KindTask:          func() ([]byte, error) { return EncodeTask(wireParams(global)) },
		KindResult:        func() ([]byte, error) { return EncodeResult(result) },
		KindOpenRequest:   func() ([]byte, error) { return AppendOpenRequest(nil, 1), nil },
		KindOpenResponse:  func() ([]byte, error) { return AppendOpenResponse(nil, 1, "", tensor.Vector{1, 2}), nil },
		KindProofRequest:  func() ([]byte, error) { return AppendProofRequest(nil, 1), nil },
		KindProofResponse: func() ([]byte, error) { return AppendProofResponse(nil, 1, "no such leaf", rpol.LeafProof{}), nil },
		KindError:         nil,
	}

	table := docKindTable(t)
	docKinds := make([]string, 0, len(table))
	for kind := range table {
		docKinds = append(docKinds, kind)
	}
	slices.Sort(docKinds)
	if src := sourceKinds(t); !slices.Equal(docKinds, src) {
		t.Fatalf("PROTOCOL.md lists kinds %q, the package defines %q", docKinds, src)
	}
	for _, kind := range docKinds {
		encode, ok := encoders[kind]
		if !ok {
			t.Errorf("kind %q: no encoder in this test", kind)
			continue
		}
		want := table[kind]
		if encode == nil {
			if want != "none" {
				t.Errorf("kind %q: PROTOCOL.md gives header %q, but it has no binary body", kind, want)
			}
			continue
		}
		body, err := encode()
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if got := fmt.Sprintf("% X", body[:3]); got != want {
			t.Errorf("kind %q: encoded header %s, PROTOCOL.md says %s", kind, got, want)
		}
	}
}
