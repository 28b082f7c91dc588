package lint

// DefaultAnalyzers returns the production lbkeoghvet suite, configured for
// this repository's packages and conventions:
//
//	tallyescape  *stats.Tally confinement (no goroutine crossing, no fields)
//	floateq      no float ==/!= in internal/{dist,envelope,wedge}
//	hotalloc     no allocations in //lbkeogh:hotpath functions
//	lbguard      no math.Sqrt in LB*/lowerBound* except //lbkeogh:rootspace
//	ctxcheck     context.Context first in exported signatures; no
//	             per-iteration ctx.Err() polls in //lbkeogh:hotpath loops
//	metricnames  metric names registered via obs/ops are snake_case,
//	             lbkeogh_/shapeserver_-namespaced, counters end _total,
//	             units are base units (_seconds, _bytes) placed last
//	lbmono       //lbkeogh:lowerbound functions compose only annotated
//	             lower bounds and monotone-safe operations
//
// The bcebaseline check (bounds-check-elimination regression against a
// committed baseline) shells out to the compiler rather than walking ASTs;
// cmd/lbkeoghvet runs it as a separate step (see bce.go).
func DefaultAnalyzers() []*Analyzer {
	floatEq := FloatEq()
	floatEq.Applies = pkgPathIn(FloatEqPackages...)
	return []*Analyzer{
		TallyEscape(),
		floatEq,
		HotAlloc(),
		LBGuard(),
		CtxCheck(),
		MetricNames(),
		LBMono(),
	}
}
