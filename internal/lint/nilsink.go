package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DefaultNilSinkTypes are the accounting and observability sink types whose
// exported pointer-receiver methods must be nil-safe: a nil sink is the
// documented "uninstrumented" mode of every search hot path, costing exactly
// one predictable branch per call.
var DefaultNilSinkTypes = []string{
	"lbkeogh/internal/stats.Counter",
	"lbkeogh/internal/stats.Tally",
	"lbkeogh/internal/obs.SearchStats",
	"lbkeogh/internal/obs.Histogram",
}

// NilSink returns the nilsink analyzer for the given "pkgpath.Type" names:
// every exported method with a pointer receiver on one of these types must
// begin with the nil-receiver guard, in one of the two idiomatic forms
//
//	func (s *T) M() { if s == nil { return } ... }
//	func (s *T) M() { if s != nil { ... } }
//
// so that an uninstrumented (nil-sink) call is a guaranteed no-op rather
// than a panic.
func NilSink(typeNames ...string) *Analyzer {
	if len(typeNames) == 0 {
		typeNames = DefaultNilSinkTypes
	}
	targets := map[string]bool{}
	for _, n := range typeNames {
		targets[n] = true
	}
	a := &Analyzer{
		Name: "nilsink",
		Doc: "check that exported pointer-receiver methods on nil-sink types (stats/obs accounting records) " +
			"begin with a nil-receiver guard, keeping the uninstrumented path a no-op",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() {
					continue
				}
				recv := fd.Recv.List[0]
				t := pass.TypesInfo.TypeOf(recv.Type)
				if t == nil {
					continue
				}
				if _, isPtr := t.(*types.Pointer); !isPtr {
					continue // value receivers cannot be nil-guarded
				}
				key := namedTypeKey(t)
				if !targets[key] {
					continue
				}
				typeName := key[strings.LastIndexByte(key, '.')+1:]
				if len(recv.Names) == 0 || recv.Names[0].Name == "_" {
					pass.Reportf(fd.Pos(),
						"exported method (*%s).%s has an unnamed receiver and so cannot nil-guard it; name the receiver and guard for nil",
						typeName, fd.Name.Name)
					continue
				}
				if fd.Body == nil || hasNilGuard(fd.Body, recv.Names[0].Name, pass) {
					continue
				}
				pass.Reportf(fd.Pos(),
					"exported method (*%s).%s must begin with a nil-receiver guard (`if %s == nil { return ... }`); a nil %s is the documented no-op sink",
					typeName, fd.Name.Name, recv.Names[0].Name, typeName)
			}
		}
	}
	return a
}

// hasNilGuard accepts the two guard shapes used throughout the repository:
// a leading `if recv == nil { ...; return }`, or a body that consists of a
// single `if recv != nil { ... }` wrapping all the work.
func hasNilGuard(body *ast.BlockStmt, recvName string, pass *Pass) bool {
	if len(body.List) == 0 {
		return true // empty method body is trivially nil-safe
	}
	first, ok := body.List[0].(*ast.IfStmt)
	if !ok || first.Init != nil {
		return false
	}
	cmp, ok := nilComparison(first.Cond, recvName, pass)
	if !ok {
		return false
	}
	switch cmp {
	case "==":
		// Guard body must leave the method: its last statement is a return.
		if len(first.Body.List) == 0 {
			return false
		}
		_, ret := first.Body.List[len(first.Body.List)-1].(*ast.ReturnStmt)
		return ret
	case "!=":
		// The positive guard must wrap the entire method.
		return len(body.List) == 1 && first.Else == nil
	}
	return false
}

// nilComparison matches `recv == nil` / `recv != nil` (either operand
// order) and returns the operator.
func nilComparison(cond ast.Expr, recvName string, pass *Pass) (string, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return "", false
	}
	op := be.Op.String()
	if op != "==" && op != "!=" {
		return "", false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == recvName
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		_, isNilConst := pass.TypesInfo.Uses[id].(*types.Nil)
		return isNilConst
	}
	if (isRecv(be.X) && isNil(be.Y)) || (isRecv(be.Y) && isNil(be.X)) {
		return op, true
	}
	return "", false
}
