package envelope

import (
	"math"
	"testing"

	"lbkeogh/internal/stats"
)

// refLBKeogh is LBKeogh as first written, with one branch per side of the
// wedge: the reference the branch-free kernel must match bit for bit.
func refLBKeogh(q []float64, e Envelope, r float64, cnt *stats.Tally) (float64, bool) {
	u, l := e.U, e.L
	r2 := math.Inf(1)
	if r >= 0 {
		r2 = r * r
	}
	var acc float64
	for i, v := range q {
		if v > u[i] {
			d := v - u[i]
			acc += d * d
		} else if v < l[i] {
			d := v - l[i]
			acc += d * d
		}
		if acc > r2 {
			cnt.Add(int64(i + 1))
			return math.Inf(1), true
		}
	}
	cnt.Add(int64(len(q)))
	return math.Sqrt(acc), false
}

// refLBKeoghSuffix is LBKeoghSuffix as first written, branching like
// refLBKeogh.
func refLBKeoghSuffix(q []float64, e Envelope, r float64, cb []float64, cnt *stats.Tally) (float64, bool) {
	u, l := e.U, e.L
	n := len(q)
	r2 := math.Inf(1)
	if r >= 0 {
		r2 = r * r
	}
	cb[n] = 0
	var acc float64
	for i := n - 1; i >= 0; i-- {
		v := q[i]
		if v > u[i] {
			d := v - u[i]
			acc += d * d
		} else if v < l[i] {
			d := v - l[i]
			acc += d * d
		}
		cb[i] = acc
		if acc > r2 {
			cnt.Add(int64(n - i))
			return math.Inf(1), true
		}
	}
	cnt.Add(int64(n))
	return math.Sqrt(acc), false
}

// fuzzValues are the samples a fuzzed byte can name besides a small
// integer: both zeros, the smallest subnormal, and magnitudes whose
// differences overflow to ±Inf. Rows are finite (the API refuses others).
var fuzzValues = [...]float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
}

// fuzzSample maps one byte to a sample: a special value, or a multiple of
// 1/8 in [-16, 16) so that ties with the wedge's sides are common.
func fuzzSample(b byte) float64 {
	if int(b) < len(fuzzValues) {
		return fuzzValues[b]
	}
	return float64(int8(b)) / 8
}

// fuzzCase decodes four bytes per position into a wedge and a row: U and L
// are the larger and smaller of the first two samples (a valid wedge,
// L <= U), and the third byte puts the row on U, on L, or at the fourth
// byte's sample.
func fuzzCase(data []byte) (q []float64, e Envelope) {
	n := len(data) / 4
	q, e = make([]float64, n), Envelope{U: make([]float64, n), L: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := fuzzSample(data[4*i]), fuzzSample(data[4*i+1])
		e.U[i], e.L[i] = max(a, b), min(a, b)
		switch data[4*i+2] % 4 {
		case 0:
			q[i] = e.U[i]
		case 1:
			q[i] = e.L[i]
		default:
			q[i] = fuzzSample(data[4*i+3])
		}
	}
	return q, e
}

// checkAgainstReference runs both kernels against their references and
// fails on any difference: the value's bits, the abandon flag, the steps,
// and every cb entry (an abandoned suffix call's unwritten ones included).
func checkAgainstReference(t *testing.T, q []float64, e Envelope, r float64) {
	t.Helper()
	var got, want stats.Tally
	gv, ga := LBKeogh(q, e, r, &got)
	wv, wa := refLBKeogh(q, e, r, &want)
	if math.Float64bits(gv) != math.Float64bits(wv) || ga != wa || got != want {
		t.Fatalf("LBKeogh(%v, %v, r=%v) = (%v, %v, %d steps), reference (%v, %v, %d steps)",
			q, e, r, gv, ga, got.Steps(), wv, wa, want.Steps())
	}
	gcb, wcb := make([]float64, len(q)+1), make([]float64, len(q)+1)
	for i := range gcb {
		gcb[i], wcb[i] = -7, -7
	}
	got, want = stats.Tally{}, stats.Tally{}
	gv, ga = LBKeoghSuffix(q, e, r, gcb, &got)
	wv, wa = refLBKeoghSuffix(q, e, r, wcb, &want)
	if math.Float64bits(gv) != math.Float64bits(wv) || ga != wa || got != want {
		t.Fatalf("LBKeoghSuffix(%v, %v, r=%v) = (%v, %v, %d steps), reference (%v, %v, %d steps)",
			q, e, r, gv, ga, got.Steps(), wv, wa, want.Steps())
	}
	for i := range gcb {
		if math.Float64bits(gcb[i]) != math.Float64bits(wcb[i]) {
			t.Fatalf("LBKeoghSuffix(%v, %v, r=%v): cb[%d] = %v, reference %v", q, e, r, i, gcb[i], wcb[i])
		}
	}
}

// FuzzLBKeogh holds the branch-free LB_Keogh kernels to their branching
// references over fuzzed wedges and rows (rows on U or L, ±0, subnormals,
// overflowing differences) and fuzzed thresholds (r = 0, r < 0, +Inf, NaN).
func FuzzLBKeogh(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, r := range []float64{0, negZero, -1, 0.5, 3, math.Inf(1), math.NaN()} {
		f.Add([]byte{}, r)
		f.Add([]byte{1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 1}, r)             // ±0: rows on U, on L, at -0
		f.Add([]byte{8, 16, 2, 12, 16, 24, 2, 8, 200, 8, 2, 240}, r)     // in band, below, above
		f.Add([]byte{4, 5, 2, 5, 5, 4, 2, 4, 6, 7, 2, 7, 7, 6, 2, 6}, r) // differences overflowing to ±Inf
		f.Add([]byte{2, 3, 2, 3, 2, 9, 0, 0, 3, 9, 2, 2}, r)             // subnormals
	}
	f.Fuzz(func(t *testing.T, data []byte, r float64) {
		q, e := fuzzCase(data)
		checkAgainstReference(t, q, e, r)
	})
}
