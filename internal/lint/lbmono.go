package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// RootspaceDirective marks a lower-bound function as a documented API
// boundary that intentionally converts its result from squared space to
// root ("distance") units on return. See internal/lint/doc.go.
const RootspaceDirective = "//lbkeogh:rootspace"

// LowerBoundDirective marks a function as an admissible lower bound: for
// every input it returns a value ≤ the true distance its cascade guards
// (LB_Keogh ≤ DTW, the FFT magnitude bound ≤ ED, the PAA bound ≤ LB_Keogh —
// Keogh et al., VLDB 2006; Lemire, arXiv:0807.1734). The lbmono analyzer
// restricts what annotated functions may compose, so the exactness guarantee
// survives refactors of the cascade.
const LowerBoundDirective = "//lbkeogh:lowerbound"

// lbMonoAllowedPkgs are module packages whose float-returning helpers are
// admissibility-neutral: instrumentation, cancellation and summary
// statistics never feed the bound value itself.
var lbMonoAllowedPkgs = []string{
	"lbkeogh/internal/stats",
	"lbkeogh/internal/obs",
	"lbkeogh/internal/cancel",
}

// LBMono returns the lbmono analyzer. Functions annotated
// //lbkeogh:lowerbound may only compose monotone-safe operations:
//
//   - a float-returning call to another module function must target another
//     annotated lower bound (taking the max of two admissible lower bounds
//     is again admissible; mixing in an arbitrary value is not);
//   - max(...) / math.Max(...) arguments that are calls must resolve to
//     annotated lower bounds — max with an upper bound or any other
//     non-bound quantity silently breaks admissibility while staying
//     numerically plausible;
//   - calling anything named Upper*/UB*/*UpperBound* inside a lower bound is
//     flagged as contamination outright (an intentional inversion — e.g. an
//     LCSS match-count upper bound inverting to a distance lower bound —
//     must carry a //lint:ignore with its admissibility argument);
//   - an annotated function calling math.Sqrt, in its body or in a closure
//     inside it, must also carry //lbkeogh:rootspace: pruning comparisons
//     stay in squared space, where the accumulate-and-compare loop is exact
//     and cheap, and a root-space result is a documented API contract;
//   - an annotated function must return a float: the annotation on anything
//     else is a mistake.
//
// The annotation table is built module-wide in a Prepare pass, so a wedge
// bound calling envelope.LBKeogh sees the callee's annotation across the
// package boundary.
func LBMono() *Analyzer {
	a := &Analyzer{
		Name: "lbmono",
		Doc: "functions annotated //lbkeogh:lowerbound may only compose annotated lower bounds " +
			"and monotone-safe operations; flag max-with-non-bound contamination, upper-bound " +
			"calls, unannotated float-returning callees, and math.Sqrt without //lbkeogh:rootspace",
	}
	annotated := map[string]bool{}
	a.Prepare = func(pkgs []*Package) {
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || !funcHasDirective(fd.Doc, LowerBoundDirective) {
						continue
					}
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						annotated[fn.FullName()] = true
					}
				}
			}
		}
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !funcHasDirective(fd.Doc, LowerBoundDirective) {
					continue
				}
				checkLowerBound(pass, fd, annotated)
			}
		}
	}
	return a
}

func checkLowerBound(pass *Pass, fd *ast.FuncDecl, annotated map[string]bool) {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	if !returnsFloat(fn) {
		pass.Reportf(fd.Name.Pos(),
			"%s is annotated %s but returns no float; the annotation marks admissible distance lower bounds only",
			fd.Name.Name, LowerBoundDirective)
		return
	}
	rootspace := funcHasDirective(fd.Doc, RootspaceDirective)
	// max arguments get the stricter per-argument check; remember them so the
	// general callee walk does not double-report.
	insideMax := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isMaxCall(pass, call) {
			for _, arg := range call.Args {
				argCall, ok := unparen(arg).(*ast.CallExpr)
				if !ok {
					continue // literals and variables are the caller's claim
				}
				insideMax[argCall] = true
				if callee := calledFunc(pass, argCall); callee != nil && !isAdmissibleCallee(callee, annotated) {
					pass.Reportf(argCall.Pos(),
						"max() over %s, which is not an annotated lower bound; max is only admissible over admissible lower bounds",
						calleeLabel(callee))
				}
			}
			return true
		}
		callee := calledFunc(pass, call)
		if callee == nil || insideMax[call] {
			return true
		}
		if namesUpperBound(callee.Name()) && !annotated[callee.FullName()] {
			pass.Reportf(call.Pos(),
				"lower bound %s calls %s, which names an upper bound; if the inversion is admissible, document it with a //lint:ignore lbmono reason",
				fd.Name.Name, calleeLabel(callee))
			return true
		}
		if callee.Pkg() != nil && callee.Pkg().Path() == "math" && callee.Name() == "Sqrt" {
			if !rootspace {
				pass.Reportf(call.Pos(),
					"lower bound %s calls math.Sqrt without %s; keep pruning comparisons in squared space, or declare the root-space result a documented contract",
					fd.Name.Name, RootspaceDirective)
			}
			return true
		}
		if !inModuleScope(pass, callee) || !returnsFloat(callee) {
			return true
		}
		if !isAdmissibleCallee(callee, annotated) {
			pass.Reportf(call.Pos(),
				"lower bound %s calls unannotated %s; a cascade stays admissible only through annotated lower bounds (annotate the callee %s, or //lint:ignore lbmono with the admissibility argument)",
				fd.Name.Name, calleeLabel(callee), LowerBoundDirective)
		}
		return true
	})
}

// calledFunc resolves the function or method a call targets, or nil for
// builtins, conversions and indirect calls through variables.
func calledFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isMaxCall matches the builtin max and math.Max.
func isMaxCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin)
		return ok && b.Name() == "max"
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return ok && fn.Pkg() != nil && fn.Pkg().Path() == "math" && fn.Name() == "Max"
	}
	return false
}

// isAdmissibleCallee reports whether a call target is safe inside a lower
// bound: annotated, an admissibility-neutral helper package, or an interface
// method whose name declares it a lower bound (the concrete implementations
// carry their own annotations and are checked where they are defined).
func isAdmissibleCallee(fn *types.Func, annotated map[string]bool) bool {
	if annotated[fn.FullName()] {
		return true
	}
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		for _, allowed := range lbMonoAllowedPkgs {
			if path == allowed || strings.HasPrefix(path, allowed+"/") {
				return true
			}
		}
	}
	if isInterfaceMethod(fn) && namesLowerBound(fn.Name()) {
		return true
	}
	return false
}

// calleeLabel renders a call target for diagnostics: pkgpath.Func for
// functions, (pkgpath.Type).Method for methods.
func calleeLabel(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.FullName()
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// inModuleScope reports whether the callee lives in this module (same
// package or an lbkeogh path): only module code can carry the annotation, so
// only module callees are held to it.
func inModuleScope(pass *Pass, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg() == pass.Pkg {
		return true
	}
	path := fn.Pkg().Path()
	return path == "lbkeogh" || strings.HasPrefix(path, "lbkeogh/")
}

func namesLowerBound(name string) bool {
	return strings.HasPrefix(name, "LB") ||
		strings.HasPrefix(name, "LowerBound") ||
		strings.HasPrefix(name, "lowerBound")
}

func namesUpperBound(name string) bool {
	return strings.HasPrefix(name, "Upper") ||
		strings.HasPrefix(name, "upperBound") ||
		strings.HasPrefix(name, "UB") ||
		strings.Contains(name, "UpperBound")
}

// returnsFloat reports whether any result of fn is (or is named as) a float.
func returnsFloat(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if b, ok := sig.Results().At(i).Type().Underlying().(*types.Basic); ok {
			if b.Info()&types.IsFloat != 0 {
				return true
			}
		}
	}
	return false
}
