package lint

// DefaultAnalyzers returns the production lbkeoghvet suite, configured for
// this repository's packages and conventions:
//
//	tallyescape  *stats.Tally confinement (no goroutine crossing, no fields)
//	floateq      no float ==/!= in internal/{dist,envelope,wedge}
//	hotalloc     no allocations in //lbkeogh:hotpath functions
//	ctxcheck     context.Context first in exported signatures; no
//	             per-iteration ctx.Err() polls in //lbkeogh:hotpath loops
//	lbmono       //lbkeogh:lowerbound functions compose only annotated
//	             lower bounds and monotone-safe operations, and call
//	             math.Sqrt only under //lbkeogh:rootspace
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
		CtxCheck(),
		LBMono(),
	}
}
