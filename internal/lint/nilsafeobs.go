package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// obsNilSafeTypes are the internal/obs instrument and tracing types whose
// documented contract is "a nil receiver no-ops". Instrumented protocol
// code relies on this to skip enablement branches entirely, so a single
// unguarded method turns disabled observability into a panic on a hot path.
// (SpanTree and the Clock implementations are offline/construction-time
// helpers and are not part of the contract.)
var obsNilSafeTypes = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Registry":  true,
	"Tracer":    true,
	"Span":      true,
	"Observer":  true,
	"Events":    true,
}

// NilSafeObs enforces the obs nil-safety contract established in PR 1:
// every exported pointer-receiver method on a metric/tracer type must
// handle a nil receiver before touching it. Two shapes satisfy the check:
//
//   - a guard `if recv == nil { ... }` (or a condition containing
//     `recv == nil` / `recv != nil`) appearing before any statement that
//     uses the receiver, or
//   - a body that is a single statement delegating to another method on the
//     receiver (e.g. `return o.Registry().Counter(name)`), inheriting that
//     method's guard.
var NilSafeObs = &Analyzer{
	Name:    "nilsafeobs",
	Doc:     "exported pointer-receiver methods on obs metric/tracer types must open with a nil-receiver guard",
	Applies: pathIn("rpol/internal/obs"),
	Run: func(pass *Pass) {
		info := pass.Pkg.TypesInfo
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() {
					continue
				}
				typeName, ptr := recvTypeName(fd.Recv.List[0].Type)
				if !ptr || !obsNilSafeTypes[typeName] {
					continue
				}
				if fd.Body == nil || len(fd.Body.List) == 0 {
					continue // no body, nothing can dereference the receiver
				}
				recvObj := recvObject(info, fd)
				if recvObj == nil {
					continue // unnamed receiver is never dereferenced
				}
				if nilGuarded(info, fd.Body.List, recvObj) || delegates(info, fd.Body.List, recvObj) {
					continue
				}
				pass.Reportf(fd.Name.Pos(), "exported method (*%s).%s must open with a nil-receiver guard or delegate to a guarded method: obs instruments promise that nil receivers no-op", typeName, fd.Name.Name)
			}
		}
	},
}

// recvTypeName unwraps a receiver type expression to its base type name,
// reporting whether it is a pointer receiver.
func recvTypeName(e ast.Expr) (name string, ptr bool) {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return "", false
	}
	switch t := star.X.(type) {
	case *ast.Ident:
		return t.Name, true
	case *ast.IndexExpr: // generic receiver *T[P]
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name, true
		}
	}
	return "", false
}

func recvObject(info *types.Info, fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return info.Defs[names[0]]
}

// nilGuarded reports whether a nil check on recv appears among the
// top-level statements before any statement that uses recv.
func nilGuarded(info *types.Info, stmts []ast.Stmt, recv types.Object) bool {
	for _, stmt := range stmts {
		if ifs, ok := stmt.(*ast.IfStmt); ok && condMentionsRecvNil(info, ifs.Cond, recv) {
			return true
		}
		if usesObject(info, stmt, recv) {
			return false
		}
	}
	return false
}

// condMentionsRecvNil looks for `recv == nil` or `recv != nil` anywhere in
// the condition (covering compound guards like `if c == nil || n <= 0`).
func condMentionsRecvNil(info *types.Info, cond ast.Expr, recv types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if (isObject(info, be.X, recv) && isNilExpr(info, be.Y)) ||
			(isObject(info, be.Y, recv) && isNilExpr(info, be.X)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// delegates reports whether the body is exactly one statement whose
// expression is a call chain rooted at a method call on recv, like
// `c.Add(1)` or `return o.Registry().Counter(name)`. Such methods inherit
// nil-safety from the method they call.
func delegates(info *types.Info, stmts []ast.Stmt, recv types.Object) bool {
	if len(stmts) != 1 {
		return false
	}
	var expr ast.Expr
	switch s := stmts[0].(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.ReturnStmt:
		if len(s.Results) != 1 {
			return false
		}
		expr = s.Results[0]
	default:
		return false
	}
	for {
		call, ok := expr.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch x := sel.X.(type) {
		case *ast.Ident:
			return isObject(info, x, recv)
		case *ast.CallExpr:
			expr = x
		default:
			return false
		}
	}
}

func isObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && info.Uses[id] == obj
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	if _, isNil := info.Uses[id].(*types.Nil); isNil {
		return true
	}
	return false
}

func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	return used
}
