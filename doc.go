// Package lbkeogh is an exact rotation-invariant shape and time-series
// matching library, implementing Keogh, Wei, Xi, Vlachos, Lee & Protopapas,
// "LB_Keogh Supports Exact Indexing of Shapes under Rotation Invariance with
// Arbitrary Representations and Distance Measures" (VLDB 2006).
//
// # Overview
//
// A closed 2-D shape is converted to a 1-D "time series" — the distance from
// each contour point to the shape's centroid. Rotating the shape circularly
// shifts the series, and mirroring the shape reverses it, so rotation- and
// mirror-invariant shape matching reduces to comparing a series against
// every circular shift of another. Star light curves folded at an unknown
// phase are the same problem with no conversion at all.
//
// The naive approach costs O(n²) per comparison for Euclidean distance and
// O(n²R) for Dynamic Time Warping. This library groups similar rotations
// into hierarchically nested wedges, lower-bounds whole groups at once with
// the LB_Keogh family of admissible bounds, and adapts the grouping
// granularity as the search tightens — typically orders of magnitude faster,
// with exactly the same answers as brute force (no false dismissals).
//
// # Quick start
//
//	q, _ := lbkeogh.NewQuery(signature, lbkeogh.Euclidean())
//	res, _ := q.Search(database)             // exact nearest neighbour
//	d, rot, _ := q.Distance(someSeries)      // exact rotation-invariant distance
//
// DTW, LCSS, mirror-image invariance and rotation-limited queries ("allow at
// most 15 degrees") are options:
//
//	q, _ := lbkeogh.NewQuery(signature, lbkeogh.DTW(5),
//	        lbkeogh.WithMirrorInvariance(),
//	        lbkeogh.WithMaxRotationDegrees(15))
//
// For datasets that do not fit in memory, NewIndex builds a compressed
// rotation-invariant index (Fourier magnitudes in a VP-tree, PAA means in a
// column that a DTW search bounds and sorts) that answers the same 1-NN,
// top-K and range queries exactly while fetching only the objects its bounds
// cannot exclude; WriteSegmentStore persists the collection as an on-disk
// segment store and OpenSegmentIndex reopens it.
// An Index search runs through the Query it is given — its options, steps and
// statistics — and one Index serves any number of goroutines, each with its
// own Query.
//
// Beyond search, the data-mining subroutines the paper motivates are built
// in: ClosestPair (motif discovery), Cluster (hierarchical clustering under
// exact rotation-invariant distances), Medoid, and Discord (the light-curve
// outlier scan); NewMonitor filters live streams against a pattern
// dictionary ("Atomic Wedgie"); SearchParallel shards scans across
// goroutines.
//
// Shapes are converted with the helpers in shape.go (NewBitmap, Signature);
// synthetic datasets mirroring the paper's evaluation are available from the
// generators in dataset.go.
//
// # Observability
//
// Query, Index and Monitor each keep a SearchStats record of the work a
// search performed — comparisons, rotations, the paper's num_steps metric,
// the pruning breakdown per mechanism and hierarchy level, index fetch and
// disk-read counts, and the dynamic-K trajectory. Stats() returns a
// JSON-serialisable snapshot whose Reconciles method verifies that every
// rotation was either fully evaluated or pruned by exactly one mechanism.
// Collection uses atomic counters and is safe under SearchParallel; with no
// consumer the sink is a nil pointer and costs only a branch.
// WriteMetrics exports live counters in Prometheus text form, and a
// TraceLog serves its traces over HTTP as JSON summaries and Chrome
// trace-event files and writes its per-stage latency histograms (the only
// wall-clock telemetry: SearchStats carries none) with its own
// WriteMetrics. HandleObs mounts the one surface — /metrics over an ordered
// list of writers, /debug/lbkeogh and /debug/pprof/ — on a caller's mux;
// both binaries and a library user serve theirs through it. SearchStats, Counts, KChange and HistogramBucket are
// aliases of the internal/obs types every layer fills in:
// internal/obs owns the record, the list of its counters and the table that
// names their metric families, so the public API carries no copy of them.
//
// # Static analysis
//
// The repository enforces its own invariants with a custom analyzer suite,
// cmd/lbkeoghvet (see internal/lint): stats.Tally goroutine confinement,
// no floating-point equality in the admissibility-critical packages,
// allocation-free //lbkeogh:hotpath kernels that amortize their context
// polls and keep their bounds-check baseline, and //lbkeogh:lowerbound
// functions that compose only admissible bounds, in squared space outside
// //lbkeogh:rootspace boundaries. Run it with `make lint`; it also runs
// inside `make ci` and, via internal/lint's self-check test, inside
// `go test ./...`.
package lbkeogh
