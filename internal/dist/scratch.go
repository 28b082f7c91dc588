package dist

import "sync"

// DP-row scratch for the DTW and LCSS kernels. Both kernels keep their two
// band-local rolling rows (2R+2 slots each) in a stack array of stackRowSlots
// slots, enough for R <= 31; only a wider band borrows from the pools below,
// so the //lbkeogh:hotpath bodies stay allocation-free at any radius. Each
// borrow reslices to the requested length and grows (amortized) only when a
// wider band arrives.

const stackRowSlots = 128

type dtwRows struct {
	buf []float64
}

var dtwRowsPool = sync.Pool{New: func() any { return new(dtwRows) }}

// borrowDTWRows returns a float64 buffer of length n (both rows). Contents
// are unspecified; dtwBanded initializes the buffer before reading.
func borrowDTWRows(n int) *dtwRows {
	r := dtwRowsPool.Get().(*dtwRows)
	if cap(r.buf) < n {
		r.buf = make([]float64, n)
	}
	r.buf = r.buf[:n]
	return r
}

func (r *dtwRows) release() { dtwRowsPool.Put(r) }

type lcssRows struct {
	buf []int
}

var lcssRowsPool = sync.Pool{New: func() any { return new(lcssRows) }}

// borrowLCSSRows returns an int buffer of length n (both rows). Contents
// are unspecified; LCSS zeroes the buffer before reading.
func borrowLCSSRows(n int) *lcssRows {
	r := lcssRowsPool.Get().(*lcssRows)
	if cap(r.buf) < n {
		r.buf = make([]int, n)
	}
	r.buf = r.buf[:n]
	return r
}

func (r *lcssRows) release() { lcssRowsPool.Put(r) }
