package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// MetricNames returns the metricnames analyzer, enforcing the exposition
// naming contract on every metric written through internal/obs/ops:
//
//  1. Names are snake_case: [a-z0-9_], starting with a letter, no doubled or
//     trailing underscores.
//  2. Names carry the repository namespace: the lbkeogh_ prefix for library
//     metrics, shapeserver_ for serving-layer metrics.
//  3. Counters end in _total; nothing else may claim that suffix.
//  4. Units are base units (_seconds, _bytes), never ns/ms/us/kb/mb, and the
//     unit component sits last in the name (only _total may follow it).
//
// Only string-literal name arguments are checked; dynamically built names
// (table-driven exposition like ops.WriteRuntimeMetrics) are the caller's
// responsibility.
func MetricNames() *Analyzer {
	a := &Analyzer{
		Name: "metricnames",
		Doc: "metric names written via ops.Write* are " +
			"snake_case, lbkeogh_/shapeserver_-namespaced, counter-suffixed with _total, " +
			"and use base units (_seconds, _bytes) placed last",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkMetricCall(pass, call)
				}
				return true
			})
		}
	}
	return a
}

// metricRegistrar describes one function that accepts a metric name: which
// argument carries the name and what sample kind the function implies. The
// kind "family" means the kind is itself an argument (WriteFamily's third),
// read from a string literal when present.
type metricRegistrar struct {
	nameArg int
	kind    string
}

// metricRegistrars maps types.Func.FullName of every exposition entry point
// to its name-argument slot.
var metricRegistrars = map[string]metricRegistrar{
	"lbkeogh/internal/obs/ops.WriteFamily":            {1, "family"},
	"lbkeogh/internal/obs/ops.WriteCounter":           {1, "counter"},
	"lbkeogh/internal/obs/ops.WriteGaugeInt":          {1, "gauge"},
	"lbkeogh/internal/obs/ops.WriteGaugeFloat":        {1, "gauge"},
	"lbkeogh/internal/obs/ops.WriteHistogram":         {1, "histogram"},
	"lbkeogh/internal/obs/ops.WriteDurationHistogram": {1, "histogram"},
}

func checkMetricCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	reg, ok := metricRegistrars[fn.FullName()]
	if !ok || reg.nameArg >= len(call.Args) {
		return
	}
	name, ok := stringLiteral(call.Args[reg.nameArg])
	if !ok {
		return // dynamic name; out of scope
	}
	kind := reg.kind
	if kind == "family" {
		kind = "" // unknown unless the kind argument is a literal
		if reg.nameArg+1 < len(call.Args) {
			if k, ok := stringLiteral(call.Args[reg.nameArg+1]); ok {
				kind = k
			}
		}
	}
	checkMetricName(pass, call.Args[reg.nameArg].Pos(), name, kind)
}

func stringLiteral(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// metricBadUnits are unit components the exposition format bans: durations
// are seconds, sizes are bytes, with any scaling left to the consumer.
var metricBadUnits = map[string]bool{
	"ns": true, "nanoseconds": true,
	"ms": true, "milliseconds": true,
	"us": true, "microseconds": true,
	"kb": true, "mb": true,
}

func checkMetricName(pass *Pass, pos token.Pos, name, kind string) {
	if !metricNameRE.MatchString(name) || strings.Contains(name, "__") || strings.HasSuffix(name, "_") {
		pass.Reportf(pos,
			"metric name %q is not snake_case (lowercase [a-z0-9_], no doubled or trailing underscores)", name)
		return // the remaining rules assume well-formed components
	}
	if !strings.HasPrefix(name, "lbkeogh_") && !strings.HasPrefix(name, "shapeserver_") {
		pass.Reportf(pos, "metric name %q lacks the lbkeogh_ or shapeserver_ namespace prefix", name)
	}
	switch {
	case kind == "counter" && !strings.HasSuffix(name, "_total"):
		pass.Reportf(pos, "counter %q must end in _total", name)
	case kind != "counter" && kind != "" && strings.HasSuffix(name, "_total"):
		pass.Reportf(pos, "%s %q must not end in _total (the suffix is reserved for counters)", kind, name)
	}
	parts := strings.Split(name, "_")
	for i, p := range parts {
		if metricBadUnits[p] {
			pass.Reportf(pos, "metric name %q uses unit %q; use base units (_seconds, _bytes)", name, p)
			continue
		}
		if p != "seconds" && p != "bytes" {
			continue
		}
		rest := parts[i+1:]
		if len(rest) > 1 || (len(rest) == 1 && rest[0] != "total") {
			pass.Reportf(pos, "metric name %q buries the unit %q; the unit goes last (only _total may follow)", name, p)
		}
	}
}
