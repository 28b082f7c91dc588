// Package envelope implements time-series wedges and the LB_Keogh family of
// lower bounds that are the cornerstone of the paper (Section 4.1).
//
// A wedge W = {U, L} is the tightest pair of sequences enclosing a set of
// candidate series from above and below (Figure 6). LB_Keogh(Q, W) lower
// bounds the Euclidean distance from Q to every member of the wedge
// (Proposition 1); widening the wedge by the Sakoe-Chiba radius R yields
// LB_KeoghDTW, which lower bounds the banded DTW distance to every member
// (Proposition 2, Figure 13).
package envelope

import (
	"fmt"
	"math"

	"lbkeogh/internal/stats"
)

// Envelope is a wedge W = {U, L}: for every member series C enclosed by the
// wedge and every position i, L[i] <= C[i] <= U[i].
type Envelope struct {
	U, L []float64
}

// New builds the tightest envelope enclosing the given series, all of which
// must share the same length. At least one series is required.
//
//lbkeogh:hotpath
func New(series ...[]float64) Envelope {
	if len(series) == 0 {
		panic("envelope: New requires at least one series")
	}
	n := len(series[0])
	u := make([]float64, n) //lint:ignore hotalloc result buffer, one per envelope built
	l := make([]float64, n) //lint:ignore hotalloc result buffer, one per envelope built
	copy(u, series[0])
	copy(l, series[0])
	for _, s := range series[1:] {
		if len(s) != n {
			panic(fmt.Sprintf("envelope: length mismatch %d vs %d", len(s), n))
		}
		for i, v := range s {
			if v > u[i] {
				u[i] = v
			}
			if v < l[i] {
				l[i] = v
			}
		}
	}
	return Envelope{U: u, L: l}
}

// Merge returns the envelope enclosing both a and b (the hierarchical wedge
// combination of Figure 7: U_i = max(a.U_i, b.U_i), L_i = min(a.L_i, b.L_i)).
//
//lbkeogh:hotpath
func Merge(a, b Envelope) Envelope {
	// Locals let the compiler prove the four length equalities below and
	// drop every per-iteration bounds check in the loop (ssa/check_bce).
	au, al, bu, bl := a.U, a.L, b.U, b.L
	if len(au) != len(bu) || len(al) != len(au) || len(bl) != len(au) {
		panic(fmt.Sprintf("envelope: Merge length mismatch U %d/%d L %d/%d",
			len(au), len(bu), len(al), len(bl)))
	}
	// Two result buffers, not ExpandDTW's one split in two: with a tree's
	// 2m-1 envelopes all in the doubled size class, a DTW scan's peak RSS
	// measured 10 % higher for ~7 % off this function.
	u := make([]float64, len(au)) //lint:ignore hotalloc result buffer, one per merge
	l := make([]float64, len(au)) //lint:ignore hotalloc result buffer, one per merge
	// Plain compares, not math.Max/Min: envelopes are finite (NaN is rejected
	// at the API boundary), so the special-case handling buys nothing here.
	for i := range au {
		u[i], l[i] = au[i], al[i]
		if bu[i] > u[i] {
			u[i] = bu[i]
		}
		if bl[i] < l[i] {
			l[i] = bl[i]
		}
	}
	return Envelope{U: u, L: l}
}

// Len returns the series length covered by the envelope.
func (e Envelope) Len() int { return len(e.U) }

// Contains reports whether series s lies inside the envelope everywhere,
// within tolerance tol.
func (e Envelope) Contains(s []float64, tol float64) bool {
	if len(s) != len(e.U) {
		return false
	}
	for i, v := range s {
		if v > e.U[i]+tol || v < e.L[i]-tol {
			return false
		}
	}
	return true
}

// ExpandDTW returns the envelope widened for banded DTW with Sakoe-Chiba
// radius R (Figure 13):
//
//	DTW_U[i] = max(U[i-R] .. U[i+R]),  DTW_L[i] = min(L[i-R] .. L[i+R])
//
// clamped at the series boundaries. R = 0 returns a copy of e. R < 0 is the
// unconstrained path, as it is for dist.DTW and dist.LCSS, and widens by
// n-1 like any R >= n-1: every measure normalises its radius the same way,
// or a wedge would be narrower than the paths it must bound.
//
// The expansion runs in O(n) using a monotonic-deque sliding-window
// max/min rather than the naive O(nR) scan; the result is identical. U and
// L share one result buffer, and the deque is a ring on the stack for
// R <= 31 (it never holds more than the 2R+1 samples of one window).
//
//lbkeogh:hotpath
func (e Envelope) ExpandDTW(R int) Envelope {
	n := len(e.U)
	if R < 0 || R > n-1 {
		R = n - 1
	}
	var stack [64]windowEntry
	ring := stack[:]
	if size := len(ring); size < 2*R+2 {
		for size < 2*R+2 {
			size *= 2
		}
		ring = make([]windowEntry, size) //lint:ignore hotalloc scratch ring for a band too wide for the stack, one per expansion
	}
	buf := make([]float64, 2*n) //lint:ignore hotalloc result buffer, one per expansion
	half := len(buf) / 2        // n, written so the split below needs no bounds check
	x := Envelope{U: buf[:half:half], L: buf[half:]}
	slidingMax(x.U, e.U, R, true, ring)
	slidingMax(x.L, e.L, R, false, ring)
	return x
}

// windowEntry is one live sample of slidingMax's deque.
type windowEntry struct {
	i int
	v float64
}

// slidingMax computes out[i] = max (or min) of s[max(0,i-R) .. min(n-1,i+R)]
// with a monotonic deque kept in ring, whose length is a power of two above
// 2R+1. The max/min selection is branched inline rather than through a
// closure so the inner loop stays call-free.
//
//lbkeogh:hotpath
func slidingMax(out, s []float64, R int, wantMax bool, ring []windowEntry) {
	n := len(s)
	mask := len(ring) - 1
	if mask < 0 || len(out) != n {
		panic(fmt.Sprintf("envelope: slidingMax out %d vs s %d, ring %d", len(out), n, len(ring)))
	}
	// Live entries are ring[head&mask] .. ring[(tail-1)&mask], front first.
	head, tail := 0, 0
	// Window for position i is [i-R, i+R]; advance right edge j.
	j := 0
	for i := range out {
		hi := i + R
		if hi > n-1 {
			hi = n - 1
		}
		for ; j <= hi; j++ {
			v := s[j]
			for tail > head {
				last := ring[(tail-1)&mask].v
				if wantMax && v < last || !wantMax && v > last {
					break
				}
				tail--
			}
			ring[tail&mask] = windowEntry{i: j, v: v}
			tail++
		}
		// Sample hi >= i is live, so the front never runs off the deque.
		for ring[head&mask].i < i-R {
			head++
		}
		out[i] = ring[head&mask].v
	}
}

// LBKeogh is EA_LB_Keogh from Table 5 of the paper: the early-abandoning
// lower bound between query series q and wedge e. It returns (Inf, true) as
// soon as the accumulated squared error exceeds r²; otherwise the exact
// LB_Keogh value and false. r < 0 disables abandoning. Steps are charged per
// sample examined.
//
// When e encloses a single series, LBKeogh degenerates to the Euclidean
// distance (the paper's first observation about LB_Keogh).
//
// LBKeogh accumulates and abandons in squared space; only the final return
// converts to root units, so it is a documented root-space API boundary.
//
//lbkeogh:hotpath
//lbkeogh:rootspace
//lbkeogh:lowerbound
func LBKeogh(q []float64, e Envelope, r float64, cnt *stats.Tally) (float64, bool) {
	// Locals + a combined length check make u[i]/l[i] provably in bounds for
	// every i < len(q), so the inner loop carries no bounds checks.
	u, l := e.U, e.L
	if len(q) != len(u) || len(l) != len(u) {
		panic(lengthMismatch("LBKeogh", len(q), len(u), len(l), -1))
	}
	r2 := math.Inf(1)
	if r >= 0 {
		r2 = r * r
	}
	var acc float64
	for i, v := range q {
		// Branch-free, and exact: with l <= u at most one term is non-zero,
		// and adding +0 leaves acc's bits as they are.
		d := max(v-u[i], 0) + min(v-l[i], 0)
		acc += d * d
		if acc > r2 {
			cnt.Add(int64(i + 1))
			return math.Inf(1), true
		}
	}
	cnt.Add(int64(len(q)))
	return math.Sqrt(acc), false
}

// LBKeoghSuffix is LBKeogh accumulated from the last position back, leaving
// its running sums in cb (length len(q)+1): cb[i] is the squared bound over
// positions i..n-1 and cb[n] = 0. Against a wedge widened by the band R,
// cb[i] lower-bounds what rows i.. of any banded DTW path must still add, so
// it is what dtwBanded's row test can charge the rows it has not computed.
// It is one pass, one store per position. Abandoning (on the suffix sum
// exceeding r², r < 0 never) and steps (one per position examined) are
// LBKeogh's; an abandoned call leaves cb[0..i] unwritten.
//
//lbkeogh:hotpath
//lbkeogh:rootspace
//lbkeogh:lowerbound
func LBKeoghSuffix(q []float64, e Envelope, r float64, cb []float64, cnt *stats.Tally) (float64, bool) {
	// The cb test is spelled len(cb)-1 != n, and its end stored before the
	// slice, so that the prove pass sees every index below in bounds.
	u, l := e.U, e.L
	n := len(q)
	if len(u) != n || len(l) != n || len(cb)-1 != n {
		panic(lengthMismatch("LBKeoghSuffix", n, len(u), len(l), len(cb)))
	}
	r2 := math.Inf(1)
	if r >= 0 {
		r2 = r * r
	}
	cb[len(cb)-1] = 0
	sums := cb[:len(cb)-1]
	var acc float64
	for i := n - 1; i >= 0; i-- {
		v := q[i]
		d := max(v-u[i], 0) + min(v-l[i], 0) // LBKeogh's term
		acc += d * d
		sums[i] = acc
		if acc > r2 {
			cnt.Add(int64(n - i))
			return math.Inf(1), true
		}
	}
	cnt.Add(int64(n))
	return math.Sqrt(acc), false
}

// lengthMismatch is the message of a bound called on mismatched lengths
// (cb < 0: no suffix buffer). It is built out of line, so that a bound's
// hot loop does not keep its arguments spilled for the message.
//
//go:noinline
func lengthMismatch(fn string, q, u, l, cb int) string {
	msg := fmt.Sprintf("envelope: %s length mismatch q %d vs U %d L %d", fn, q, u, l)
	if cb >= 0 {
		msg += fmt.Sprintf(" cb %d", cb)
	}
	return msg
}

// LCSSUpperBound returns an upper bound on the LCSS similarity between q and
// every series enclosed by e, for matching threshold eps. e must already be
// expanded by the LCSS window delta (the same ExpandDTW widening applies,
// per reference [37]). A point can only participate in a match if it lies
// within eps of the widened envelope, so counting such points bounds the
// similarity from above; as the paper notes, for a similarity measure the
// inequality signs simply reverse.
//
//lbkeogh:hotpath
func LCSSUpperBound(q []float64, e Envelope, eps float64, cnt *stats.Tally) int {
	u, l := e.U, e.L
	if len(q) != len(u) || len(l) != len(u) {
		panic(fmt.Sprintf("envelope: LCSSUpperBound length mismatch q %d vs U %d L %d", len(q), len(u), len(l)))
	}
	matches := 0
	for i, v := range q {
		if v <= u[i]+eps && v >= l[i]-eps {
			matches++
		}
	}
	cnt.Add(int64(len(q)))
	return matches
}
