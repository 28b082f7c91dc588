package lint

import (
	"go/ast"
	"go/types"
)

// tallyTypeKey identifies the single-goroutine scratch accumulator whose
// ownership discipline tallyescape enforces.
const tallyTypeKey = "lbkeogh/internal/stats.Tally"

// TallyEscape returns the tallyescape analyzer: a *stats.Tally is a plain
// (non-atomic) accumulator that must stay confined to one goroutine, so it
// must not be referenced from a go-statement — neither passed as an argument
// nor captured by the spawned closure — and must not be stored in a struct
// field, where it could outlive its owning goroutine. Goroutine-local
// tallies declared inside the spawned function are fine. A tally that must
// outlive one call lives in a goroutine-confined owner (core.Searcher,
// Monitor), under a //lint:ignore that names the confinement, and is read
// through the owner's Steps(); a *stats.Counter is only a caller's
// accumulator, which an owner's steps are added to once, after the call.
func TallyEscape() *Analyzer {
	a := &Analyzer{
		Name: "tallyescape",
		Doc: "check that *stats.Tally values never cross goroutines or hide in struct fields; " +
			"a tally that outlives one call belongs to a goroutine-confined owner, read through its Steps()",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					checkGoStmt(pass, n)
				case *ast.StructType:
					checkStructFields(pass, n)
				}
				return true
			})
		}
	}
	return a
}

// checkGoStmt flags every reference inside the go statement to a
// Tally-typed variable declared outside it. Variables declared within the
// statement (locals of the spawned closure, or its parameters) are
// goroutine-local and allowed.
func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || !typeContains(v.Type(), tallyTypeKey) {
			return true
		}
		if v.Pos() >= g.Pos() && v.Pos() <= g.End() {
			return true // declared inside the go statement: goroutine-local
		}
		pass.Reportf(id.Pos(),
			"%s (a *stats.Tally) crosses into a goroutine; Tally is single-goroutine scratch — give each goroutine its own (a local Tally or a confined owner such as a core.Searcher) and read its Steps() after the join", id.Name)
		return true
	})
}

// checkStructFields flags struct fields that embed or point to a Tally: a
// Tally parked in a struct can be reached from any goroutine holding the
// struct, which defeats the single-owner contract. The stats package itself
// is exempt (it defines the type).
func checkStructFields(pass *Pass, s *ast.StructType) {
	if pass.Pkg != nil && pass.Pkg.Path() == "lbkeogh/internal/stats" {
		return
	}
	for _, field := range s.Fields.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil || !typeContains(t, tallyTypeKey) {
			continue
		}
		pass.Reportf(field.Pos(),
			"struct field holds a stats.Tally; keep the tally on its goroutine's stack, or in a goroutine-confined owner (core.Searcher, Monitor) under a //lint:ignore naming the confinement, read through Steps()")
	}
}
