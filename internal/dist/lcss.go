package dist

import (
	"lbkeogh/internal/stats"
)

// LCSS returns the Longest Common SubSequence similarity between q and c
// (equal length n): the maximum number of point pairs (i, j) that can be
// matched in order, where a pair matches if |q[i]-c[j]| <= eps and
// |i-j| <= delta. Unlike DTW, unmatched points are simply skipped, which is
// what makes LCSS robust to occlusions and missing parts (Figure 14).
//
// delta < 0 means an unconstrained matching window. The result is an integer
// in [0, n] returned as int; use LCSSDist for the normalized distance form.
//
// The DP runs at band cost, O(n·delta) cells and O(delta) scratch, over the
// same band-local rolling rows as dtwBanded (column j of row i at slot
// j-(i-delta), rows and columns 1-based with an all-zero row and column 0).
// Outside the band a row is flat: left of it the value the previous row
// had there, right of it the band's last cell. The first is exactly the
// first cell's diagonal predecessor, so it is carried in a scalar; the
// second is stored once per row in the slot right of the band, where the
// next row's last cell reads it.
//
//lbkeogh:hotpath
func LCSS(q, c []float64, delta int, eps float64, cnt *stats.Tally) int {
	checkSameLength(q, c)
	n := len(q)
	if n == 0 {
		return 0
	}
	if delta < 0 || delta > n-1 {
		delta = n - 1
	}
	w := 2*delta + 2
	var stack [stackRowSlots]int
	buf := stack[:]
	var pooled *lcssRows
	if 2*w > len(buf) {
		pooled = borrowLCSSRows(2 * w)
		buf = pooled.buf
		for s := range buf {
			buf[s] = 0
		}
	}
	rows := buf[:2*w]
	prev, curr := 0, w // row offsets in rows, swapped per row
	var steps int64
	sim := 0
	for i, qi := range q {
		// Row i+1 of the DP; its band is columns lo+1..hi+1.
		lo := i - delta
		if lo < 0 {
			lo = 0
		}
		hi := i + delta
		if hi > n-1 {
			hi = n - 1
		}
		band := c[lo : hi+1]
		s0 := lo - (i - delta)
		us, cs := prev+s0+1, curr+s0
		up := rows[us : us+len(band)]
		out := rows[cs : cs+len(band)]
		diag := rows[us-1]
		left := diag
		for k, cj := range band {
			d := qi - cj
			if d < 0 {
				d = -d
			}
			if d <= eps {
				left = diag + 1
			} else if up[k] > left {
				left = up[k]
			}
			diag = up[k]
			out[k] = left
		}
		rows[cs+len(band)] = left
		steps += int64(len(band))
		sim = left // the last row ends at cell (n, n)
		prev, curr = curr, prev
	}
	if pooled != nil {
		pooled.release()
	}
	cnt.Add(steps)
	return sim
}

// LCSSDist converts LCSS similarity to a distance in [0, 1]:
// 1 - LCSS(q,c)/n. Zero means the sequences match everywhere within eps.
func LCSSDist(q, c []float64, delta int, eps float64, cnt *stats.Tally) float64 {
	n := len(q)
	if n == 0 {
		return 0
	}
	sim := LCSS(q, c, delta, eps, cnt)
	return 1 - float64(sim)/float64(n)
}
