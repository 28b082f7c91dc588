package dist

import (
	"fmt"
	"math"

	"lbkeogh/internal/stats"
)

// DTW returns the Sakoe-Chiba-banded Dynamic Time Warping distance between q
// and c (equal length n). The warping path may deviate at most R cells from
// the diagonal (Section 4.3, Figure 12). R < 0 or R >= n-1 means an
// unconstrained path. The result is the square root of the accumulated
// squared point costs, so DTW with R = 0 equals the Euclidean distance.
//
// The implementation is iterative (not recursive), which is what makes early
// abandoning possible in DTWEA; the paper notes (footnote 2) that the elegant
// recursive form cannot abandon early.
func DTW(q, c []float64, R int, cnt *stats.Tally) float64 {
	d, _ := dtwBanded(q, c, R, -1, nil, cnt)
	return d
}

// DTWEA is the early-abandoning form of DTW: as soon as every cell of a DP
// row exceeds r², no warping path can finish below r, so the computation
// abandons and returns (Inf, true). r < 0 disables abandoning.
//
// cb, when non-nil, is a suffix bound of length len(q)+1 — cb[i] no more
// than any path's cost over rows i..n-1, cb[n] = 0, as
// envelope.LBKeoghSuffix leaves it against c's wedge widened by R — and
// the row test becomes rowMin + cb[i+1] > r²: the rows still to come are
// charged what they must at least cost instead of nothing. A nil cb is the
// plain row test.
func DTWEA(q, c []float64, R int, r float64, cb []float64, cnt *stats.Tally) (float64, bool) {
	return dtwBanded(q, c, R, r, cb, cnt)
}

// dtwBanded is the shared rolling-row DP behind DTW and DTWEA, at band cost:
// O(n·R) cells, O(R) scratch.
//
// The rows are band-local: each holds the 2R+1 band cells of one DP row plus
// a sentinel on the right, column j of row i at slot j-(i-R). Moving down a
// row shifts the band one column right, so cell (i,j) at slot s finds its
// predecessors (i-1,j-1) at slot s and (i-1,j) at slot s+1 of the previous
// row; (i,j-1) is the cell just computed and stays in a register, +Inf at
// the start of a row. Both rows start +Inf. A row only ever writes cells
// inside the matrix, and a slot left of the matrix in row i was left of it
// in rows i-1 and i-2 as well, so the sentinel and every out-of-matrix slot
// a cell can read stay +Inf with no per-row clearing. A virtual 0 at cell
// (-1,-1) (slot R of the row above row 0, overwritten by row 1) seeds the
// recurrence, so (0,0), the first row and the first column need no special
// case.
//
// Row i's abandon test adds rest[i] = cb[i+1], the bound on rows i+1..; a
// nil cb leaves rest empty, and the test is the plain rowMin > r².
//
//lbkeogh:hotpath
func dtwBanded(q, c []float64, R int, r float64, cb []float64, cnt *stats.Tally) (float64, bool) {
	checkSameLength(q, c)
	n := len(q)
	if n == 0 {
		return 0, false
	}
	var rest []float64
	if cb != nil {
		if len(cb) != n+1 {
			panic(fmt.Sprintf("dist: DTW suffix bound length %d, want %d", len(cb), n+1))
		}
		rest = cb[1:]
	}
	if R < 0 || R > n-1 {
		R = n - 1
	}
	r2 := math.Inf(1)
	if r >= 0 {
		r2 = r * r
	}

	w := 2*R + 2
	var stack [stackRowSlots]float64
	buf := stack[:]
	var pooled *dtwRows
	if 2*w > len(buf) {
		pooled = borrowDTWRows(2 * w)
		buf = pooled.buf
	}
	// Both rows live in one slice and swap by offset, which costs the
	// compiler fewer bounds checks per row than swapping two slices.
	rows := buf[:2*w]
	for s := range rows {
		rows[s] = math.Inf(1)
	}
	rows[R] = 0
	prev, curr := 0, w // row offsets in rows

	var steps int64
	var total float64
	for i, qi := range q {
		lo := i - R
		if lo < 0 {
			lo = 0
		}
		hi := i + R
		if hi > n-1 {
			hi = n - 1
		}
		// Cell k of this row's in-matrix band is column lo+k at slot s0+k.
		band := c[lo : hi+1]
		s0 := lo - (i - R)
		us, cs := prev+s0+1, curr+s0
		up := rows[us : us+len(band)]
		out := rows[cs : cs+len(band)]
		diag, left := rows[us-1], math.Inf(1)
		rowMin := math.Inf(1)
		for k, cj := range band {
			d := qi - cj
			cost := d * d
			best := up[k]
			if diag < best {
				best = diag
			}
			if left < best {
				best = left
			}
			diag = up[k]
			left = cost + best
			out[k] = left
			if left < rowMin {
				rowMin = left
			}
		}
		steps += int64(len(band))
		total = left // the last row ends at cell (n-1, n-1)
		if i < len(rest) {
			rowMin += rest[i]
		}
		if rowMin > r2 {
			total = math.Inf(1) // abandon: no path can finish below r
			break
		}
		prev, curr = curr, prev
	}
	if pooled != nil {
		pooled.release()
	}
	cnt.Add(steps)
	if total > r2 {
		return Inf, true
	}
	return math.Sqrt(total), false
}

// DTWPath returns the DTW distance along with the optimal warping path as
// (i, j) index pairs from (0,0) to (n-1,n-1). It materializes the full banded
// matrix, so it is intended for analysis and visualization (e.g. the
// alignment plots of Figure 11), not for the search hot path.
func DTWPath(q, c []float64, R int) (float64, [][2]int) {
	checkSameLength(q, c)
	n := len(q)
	if n == 0 {
		return 0, nil
	}
	if R < 0 || R > n-1 {
		R = n - 1
	}
	dp := make([][]float64, n)
	for i := range dp {
		dp[i] = make([]float64, n)
		for j := range dp[i] {
			dp[i][j] = math.Inf(1)
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := i-R, i+R
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		for j := lo; j <= hi; j++ {
			d := q[i] - c[j]
			cost := d * d
			var best float64
			switch {
			case i == 0 && j == 0:
				best = 0
			case i == 0:
				best = dp[0][j-1]
			case j == 0:
				best = dp[i-1][0]
			default:
				best = math.Min(dp[i-1][j], math.Min(dp[i][j-1], dp[i-1][j-1]))
			}
			dp[i][j] = cost + best
		}
	}
	// Backtrack.
	var path [][2]int
	i, j := n-1, n-1
	for {
		path = append(path, [2]int{i, j})
		if i == 0 && j == 0 {
			break
		}
		bi, bj := i, j
		best := math.Inf(1)
		if i > 0 && dp[i-1][j] < best {
			best, bi, bj = dp[i-1][j], i-1, j
		}
		if j > 0 && dp[i][j-1] < best {
			best, bi, bj = dp[i][j-1], i, j-1
		}
		if i > 0 && j > 0 && dp[i-1][j-1] <= best {
			bi, bj = i-1, j-1
		}
		i, j = bi, bj
	}
	// Reverse into forward order.
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	return math.Sqrt(dp[n-1][n-1]), path
}
