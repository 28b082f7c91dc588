// Package core implements rotation-invariant matching (Section 3 of the
// paper) and the four search strategies the evaluation compares: brute force
// (Tables 2–3), early abandoning, FFT-magnitude filtering, and the wedge /
// H-Merge strategy of Section 4.
//
// A query series C of length n is expanded into the rotation matrix C — all
// n circular shifts, optionally doubled with the mirror image's shifts for
// enantiomorphic invariance, and optionally restricted to a shift window for
// rotation-limited queries. The rotation-invariant distance to a database
// series X is then the minimum kernel distance from X to any row.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// Options configures the rotation matrix of a RotationSet.
type Options struct {
	// Mirror additionally admits all rotations of the mirror image
	// (enantiomorphic invariance, Section 3): matching a "d" to a "b".
	Mirror bool

	// MaxShift, when >= 0, restricts rotations to circular shifts in
	// [-MaxShift, +MaxShift] (rotation-limited queries, Section 3: "find the
	// best match allowing a maximum rotation of 15 degrees"). The default of
	// -1 admits every rotation.
	MaxShift int
}

// DefaultOptions admits all rotations, no mirror images.
func DefaultOptions() Options { return Options{Mirror: false, MaxShift: -1} }

// Member identifies one row of the rotation matrix.
type Member struct {
	// Shift is the circular shift applied to the base (or mirrored) series.
	Shift int
	// Mirrored reports whether the row comes from the mirror image.
	Mirrored bool
}

// RotationSet is the expanded rotation matrix of one query series together
// with its wedge hierarchy. The matrix is views and costs O(n) to lay out;
// the hierarchy costs O(n²) — the set-up the paper charges to the wedge
// strategy alone (§4.1) — and is built on its first read (Tree), once,
// whichever of the goroutines sharing the set reads it first. A query whose
// comparisons never walk a wedge never pays for one.
//
// The rows are not copies: rotation s of x is the window [s, s+n) of x‖x, so
// every row is a view (cap == len) of one doubled buffer, two with Mirror.
// They alias each other and Base; nothing may write through them.
type RotationSet struct {
	base    []float64
	n       int
	halves  [][]float64 // x‖x, and the mirror's, of which the rows are windows
	members [][]float64
	ids     []Member

	once sync.Once
	tree atomic.Pointer[wedge.Tree] // nil until the first Tree

	// SetupSteps is the num_steps the wedge hierarchy's build costs
	// (circulant distance profiles + node envelopes), known before it runs:
	// n(n−1+|cross|) + n(m−1) for m rows, 125 500 at n = 251. It is charged
	// once, when the build happens (Built).
	SetupSteps int64
}

// NewRotationSet expands base into its rotation matrix per opts and builds
// the hierarchical wedge structure over it at once, adding SetupSteps to cnt
// (nil: not accumulated). The pairwise distances needed by the clustering are
// computed in O(n²) total using the circulant structure of the rotation
// matrix: the Euclidean distance between two rotations of the same series
// depends only on their relative shift, and the distance between a rotation
// and a mirrored rotation depends only on the sum of the indices, so n + n
// profile entries suffice for the full matrix.
func NewRotationSet(base []float64, opts Options, cnt *stats.Counter) *RotationSet {
	rs := NewRotationSetTraced(base, opts, nil)
	rs.Tree()
	cnt.Add(rs.SetupSteps)
	return rs
}

// NewRotationSetTraced expands base into its rotation matrix per opts,
// recording the expansion as a span on rec (nil: untraced), and leaves the
// wedge hierarchy to its first read: NewQuery's set.
func NewRotationSetTraced(base []float64, opts Options, rec *trace.Recorder) *RotationSet {
	n := len(base)
	if n == 0 {
		panic("core: empty query series")
	}
	rotSpan := rec.Begin(trace.StageRotationMatrix, -1)
	shifts := allowedShifts(n, opts.MaxShift)
	halves := [][]float64{doubled(base)}
	if opts.Mirror {
		halves = append(halves, doubled(ts.Mirror(base)))
	}
	rs := &RotationSet{base: halves[0][:n:n], n: n, halves: halves}
	rs.members = make([][]float64, 0, len(halves)*len(shifts))
	rs.ids = make([]Member, 0, cap(rs.members))
	for h, dbl := range halves {
		for _, s := range shifts {
			rs.members = append(rs.members, dbl[s:s+n:s+n])
			rs.ids = append(rs.ids, Member{Shift: s, Mirrored: h == 1})
		}
	}
	cross := 0
	if opts.Mirror {
		cross = n
	}
	rs.SetupSteps = int64(n)*int64(n-1+cross) + int64(n)*int64(len(rs.members)-1)
	rec.End(rotSpan)
	return rs
}

// build returns the wedge hierarchy, building it first if no goroutine has:
// the circulant profiles, the clustering and every node's envelope, recorded
// as one wedge-build span on rec (nil: untraced) by the goroutine that builds.
// Concurrent callers wait for that one build.
func (rs *RotationSet) build(rec *trace.Recorder) *wedge.Tree {
	rs.once.Do(func() {
		span := rec.Begin(trace.StageWedgeBuild, -1)
		same, cross := circulantProfiles(rs.halves)
		rs.tree.Store(wedge.BuildFilled(rs.members, func(matrix []float64) { fillCirculant(matrix, rs.ids, same, cross) }, nil))
		rec.End(span)
	})
	return rs.tree.Load()
}

// Built reports whether the wedge hierarchy has been built, and so whether
// SetupSteps has been spent.
func (rs *RotationSet) Built() bool { return rs.tree.Load() != nil }

// circulantProfiles returns, for halves = {base‖base} or {base‖base,
// mirror‖mirror}, the two rows the whole distance matrix is read out of:
//
//	same[l]  = ED(base, rotate(base, l)) — also the distance between two
//	           mirrored rotations at relative shift l.
//	cross[s] = ED(rot_i(base), rot_j(mirror)) for (i - j + n - 1) mod n = s
//	           (nil without a mirror half).
//
// Each entry is one in-order pass over base against a window of a half.
func circulantProfiles(halves [][]float64) (same, cross []float64) {
	n := len(halves[0]) / 2
	base := halves[0][:n]
	same = make([]float64, n)
	for l := 1; l < n; l++ {
		same[l] = euclideanInOrder(base, halves[0][l:])
	}
	if len(halves) > 1 {
		cross = make([]float64, n)
		for s := range cross {
			cross[s] = euclideanInOrder(base, halves[1][n-1-s:])
		}
	}
	return same, cross
}

// doubled returns x‖x, of which every rotation of x is a window.
func doubled(x []float64) []float64 {
	return append(append(make([]float64, 0, 2*len(x)), x...), x...)
}

// euclideanInOrder is ED(x, y[:len(x)]) accumulated strictly left to right:
// the profiles' bits, and through them the dendrogram, depend on the order.
func euclideanInOrder(x, y []float64) float64 {
	y = y[:len(x)]
	var acc float64
	for t, v := range x {
		d := v - y[t]
		acc += d * d
	}
	return math.Sqrt(acc)
}

// fillCirculant writes the distance between rotation-matrix rows i and j,
// i < j, to entries (i, j) and (j, i) of the m×m matrix by profile lookup:
// same[(sᵢ−sⱼ) mod n] within a half, cross[(sᵢ−sⱼ+n−1) mod n] from a plain
// row to a mirrored one. The direction matters: same[l] and same[n−l] sum
// the same terms in a different order and may differ in the last bit.
func fillCirculant(matrix []float64, ids []Member, same, cross []float64) {
	n, m := len(same), len(ids)
	if m == n && cross == nil {
		// Every rotation, no mirror (sᵢ = i): entry (i, j) is same[n−|i−j|],
		// so row i is a window of one symmetric lookup row.
		look := make([]float64, 2*n-1)
		for l := 1; l < n; l++ {
			look[n-1-l], look[n-1+l] = same[n-l], same[n-l]
		}
		for i := 0; i < n; i++ {
			copy(matrix[i*n:(i+1)*n], look[n-1-i:])
		}
		return
	}
	for i, a := range ids {
		for j := i + 1; j < m; j++ {
			d, prof := a.Shift-ids[j].Shift, same
			if a.Mirrored != ids[j].Mirrored { // i < j: a is the plain row
				d, prof = d+n-1, cross
			}
			if d < 0 {
				d += n
			} else if d >= n {
				d -= n
			}
			matrix[i*m+j], matrix[j*m+i] = prof[d], prof[d]
		}
	}
}

// allowedShifts lists the admitted circular shifts: all of 0..n-1, or the
// window [-maxShift, maxShift] when limited — which never wraps onto itself,
// because maxShift < n/2.
func allowedShifts(n, maxShift int) []int {
	if maxShift < 0 || maxShift >= n/2 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, 2*maxShift+1)
	for s := -maxShift; s <= maxShift; s++ {
		out = append(out, (s+n)%n)
	}
	return out
}

// Len returns the series length n.
func (rs *RotationSet) Len() int { return rs.n }

// Members returns the number of rows in the rotation matrix.
func (rs *RotationSet) Members() int { return len(rs.members) }

// Member returns the i-th row.
func (rs *RotationSet) Member(i int) []float64 { return rs.members[i] }

// MemberID describes the i-th row (shift and mirroredness).
func (rs *RotationSet) MemberID(i int) Member { return rs.ids[i] }

// Tree is the wedge hierarchy, built untraced on the first read.
func (rs *RotationSet) Tree() *wedge.Tree { return rs.build(nil) }

// Base returns the original query series.
func (rs *RotationSet) Base() []float64 { return rs.base }

func (rs *RotationSet) checkLen(x []float64) {
	if len(x) != rs.n {
		panic(fmt.Sprintf("core: series length %d != query length %d", len(x), rs.n))
	}
}
