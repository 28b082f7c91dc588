// Package directive exercises the //lint:ignore grammar: one well-formed
// suppression, one directive missing its reason, one naming an unknown
// analyzer, one naming lockorder, which the suite does not have, and one
// naming hotalloc, an analyzer of the suite that a run may leave unselected.
// The malformed directives are reported and suppress nothing; the hotalloc
// one is well formed whichever analyzers run.
package directive

func suppressed(a, b float64) bool {
	return a == b //lint:ignore floateq fixture for the valid-directive path
}

//lint:ignore floateq
func missingReason(a, b float64) bool {
	return a != b
}

//lint:ignore nosuchanalyzer the analyzer list must name known analyzers
func unknownAnalyzer(a, b float64) bool {
	return a != b
}

//lint:ignore lockorder the analyzer list must name analyzers of the suite
func absentAnalyzer(a, b float64) bool {
	return a < b
}

//lint:ignore hotalloc names an analyzer of the suite that the run leaves out
func unselectedAnalyzer(a, b float64) bool {
	return a < b
}

var (
	_ = suppressed
	_ = missingReason
	_ = unknownAnalyzer
	_ = absentAnalyzer
	_ = unselectedAnalyzer
)
