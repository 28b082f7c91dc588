// Package lint implements lbkeoghvet, this repository's custom static
// analysis suite. It enforces, at vet time, the hand-maintained conventions
// the paper's guarantees rest on: the exactness of the LB_Keogh bounds
// (Propositions 1–2 — no false dismissals) and the implementation-bias-free
// num_steps accounting (Section 5.3).
//
// The suite is a stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis shape (this module deliberately has no
// third-party dependencies): packages are resolved and compiled through
// `go list -export -test -deps`, type-checked with go/types against the
// resulting export data, and each Analyzer walks the typed syntax trees.
// Run it with `make lint` or directly:
//
//	go run ./cmd/lbkeoghvet ./...
//
// # Analyzers
//
//	tallyescape  A *stats.Tally is single-goroutine scratch. It must not be
//	             passed to or captured by a go statement, and must not be
//	             stored in a struct field. Cross-goroutine accounting uses
//	             the atomic *stats.Counter, flushed once per comparison.
//	floateq      ==/!= on floating-point operands is forbidden in
//	             internal/dist, internal/envelope and internal/wedge
//	             (tests included). Use epsilon helpers, or math.IsInf and
//	             math.IsNaN for sentinels.
//	hotalloc     Functions annotated //lbkeogh:hotpath must not contain
//	             syntactic allocation sites: make, new, append, slice/map
//	             composite literals, &-literals, or closures.
//	lbguard      Functions named LB*, LowerBound* or lowerBound* must not
//	             call math.Sqrt, keeping pruning comparisons in squared
//	             space, unless annotated //lbkeogh:rootspace.
//	ctxcheck     Exported functions that accept a context.Context take it
//	             as the first parameter, and //lbkeogh:hotpath loops never
//	             call ctx.Err() on every iteration — cancellation polls are
//	             amortized behind an integer checkpoint counter (the
//	             internal/cancel.Checker shape).
//	metricnames  Metric names written through ops.Write* are snake_case,
//	             namespaced, and keep counter/unit suffixes last.
//	lbmono       Functions annotated //lbkeogh:lowerbound may only compose
//	             monotone-admissible operations: other annotated lower
//	             bounds under max(), no upper-bound-named callees, no
//	             unannotated float-returning callees, and math.Sqrt at an
//	             exported boundary only together with //lbkeogh:rootspace.
//	bcebaseline  Not an AST analyzer: cmd/lbkeoghvet drives the compiler
//	             with -gcflags=-d=ssa/check_bce over every package that
//	             contains a //lbkeogh:hotpath function and diffs the
//	             surviving bounds checks against the committed baseline
//	             (internal/lint/testdata/bce_baseline.txt). Any NEW check
//	             in a hot-path function fails; regenerate deliberately with
//	             `make bce-baseline`.
//
// Conventions that another gate already enforces have no analyzer here: go
// vet's copylocks pass catches a copied lock, `make race` a data race or a
// WaitGroup.Add racing its Wait, and the nilsafe tests in internal/stats and
// internal/obs call every exported sink method on a nil receiver.
//
// # The //lbkeogh:hotpath convention
//
// A function is annotated hotpath when it executes once per rotation, per
// candidate, or per DP cell inside the query loop — the distance kernels
// (dist.Euclidean, dist.EuclideanEA, dtwBanded, dist.LCSS), the envelope
// lower bounds (envelope.LBKeogh, envelope.LCSSUpperBound), the envelope
// builders (envelope.New, Merge, ExpandDTW, slidingMax) and the H-Merge
// traversal (wedge.(*Tree).SearchInto). The annotation is a standalone
// directive line in the function's doc comment:
//
//	// dtwBanded computes ...
//	//
//	//lbkeogh:hotpath
//	func dtwBanded(...)
//
// hotalloc then keeps those bodies allocation-free: the banded kernels keep
// their rolling rows, and ExpandDTW its deque, in fixed stack arrays. Where
// an allocation is intentional — a result buffer handed to the caller, the
// deque of a band too wide for the stack — or only syntactic (H-Merge pushes
// onto a stack its scratch sized once per query), the site carries a
// suppression directive with a reason (see below), which doubles as
// documentation.
//
// # The //lbkeogh:rootspace convention
//
// Lower bounds accumulate squared discrepancies and compare against r² so
// that early abandoning never pays a square root. The few exported bounds
// that return distances in root units for API symmetry (envelope.LBKeogh,
// paa.LowerBound, fourier.LowerBoundED) declare that boundary with a
// //lbkeogh:rootspace directive line in their doc comment; lbguard flags
// any other math.Sqrt inside a lower-bound function.
//
// # The //lbkeogh:lowerbound convention
//
// A function is annotated lowerbound when its return value must lower-bound
// an exact distance for every series a wedge encloses — the no-false-dismissal
// contract of Propositions 1–3. The annotation declares membership in the
// admissible family; lbmono then checks, across packages, that annotated
// functions only compose operations that preserve admissibility: the max of
// admissible bounds is admissible, the min is admissible for unions, but one
// upper bound or one unvetted estimate mixed into the cascade silently breaks
// exactness (false dismissals, which no test that checks only *found* matches
// will catch). Inverting an upper bound into a lower bound — the paper's
// LCSS similarity-to-distance flip — is legal but must be audited and
// carries a //lint:ignore lbmono suppression explaining the inversion.
//
// # Suppressing a finding
//
// Following the staticcheck convention, a finding is suppressed in place
// with a directive naming the analyzers and a mandatory reason:
//
//	buf := make([]float64, 2*n) //lint:ignore hotalloc result buffer, one per expansion
//
// A standalone //lint:ignore line suppresses the line below it; the
// file-wide form is //lint:file-ignore. The analyzer list is
// comma-separated, with * matching every analyzer. Directives with a
// missing reason or an unknown analyzer name are themselves reported.
package lint
