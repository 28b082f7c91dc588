package envelope

import (
	"math"
	"testing"

	"lbkeogh/internal/stats"
)

// refLBKeogh is LBKeogh as first written, with one branch per side of the
// wedge and one test per position: the reference the kernel must match bit
// for bit. A NaN sample (flat scans pass non-finite rows to the kernels)
// turns the sum NaN, as the kernel's arithmetic does, so no later position
// abandons.
func refLBKeogh(q []float64, e Envelope, r float64, cnt *stats.Tally) (float64, bool) {
	u, l := e.U, e.L
	r2 := math.Inf(1)
	if r >= 0 {
		r2 = r * r
	}
	var acc float64
	for i, v := range q {
		if math.IsNaN(v) || math.IsNaN(u[i]) || math.IsNaN(l[i]) {
			acc = math.NaN()
		} else if v > u[i] {
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

// refLBKeoghSuffix is LBKeoghSuffix as first written, branching (and
// turning NaN) like refLBKeogh.
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
		if math.IsNaN(v) || math.IsNaN(u[i]) || math.IsNaN(l[i]) {
			acc = math.NaN()
		} else if v > u[i] {
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
// integer: both zeros, the smallest subnormal, magnitudes whose differences
// overflow to ±Inf, and NaN. NewQuery refuses non-finite rows, but a flat
// scan over a database hands its rows to the kernels unchecked
// (TestParallelSearchOfNonFiniteRows), so a NaN row is a case to match.
var fuzzValues = [...]float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, math.NaN(),
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

// sameBits reports whether a and b have the same bits, or are both NaN: which
// NaN a sum carries depends on which operand a subtraction or min met first,
// and nothing reads a NaN's sign or payload.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkAgainstReference runs both kernels against their references and
// fails on any difference: the value's bits, the abandon flag, the steps,
// and every cb entry (an abandoned suffix call's unwritten ones included),
// NaN for NaN.
func checkAgainstReference(t *testing.T, q []float64, e Envelope, r float64) {
	t.Helper()
	var got, want stats.Tally
	gv, ga := LBKeogh(q, e, r, &got)
	wv, wa := refLBKeogh(q, e, r, &want)
	if !sameBits(gv, wv) || ga != wa || got != want {
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
	if !sameBits(gv, wv) || ga != wa || got != want {
		t.Fatalf("LBKeoghSuffix(%v, %v, r=%v) = (%v, %v, %d steps), reference (%v, %v, %d steps)",
			q, e, r, gv, ga, got.Steps(), wv, wa, want.Steps())
	}
	for i := range gcb {
		if !sameBits(gcb[i], wcb[i]) {
			t.Fatalf("LBKeoghSuffix(%v, %v, r=%v): cb[%d] = %v, reference %v", q, e, r, i, gcb[i], wcb[i])
		}
	}
}

// nanAfterAbandon is a fuzz case of n positions, each a wedge [2, 3] with the
// row inside it at 2.5, except that the row is far above it (15.875) at
// position k and NaN at position nan: with k and nan in one block of four, a
// block test spelled a3 > r2 misses the abandon at k.
func nanAfterAbandon(n, k, nan int) []byte {
	data := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		row := byte(20) // 2.5
		switch i {
		case k:
			row = 127 // 15.875
		case nan:
			row = 8 // fuzzValues' NaN
		}
		data = append(data, 16, 24, 2, row)
	}
	return data
}

// FuzzLBKeogh holds the LB_Keogh kernels to their branching references over
// fuzzed wedges and rows (rows on U or L, ±0, subnormals, overflowing
// differences, NaN) and fuzzed thresholds (r = 0, r < 0, +Inf, NaN).
func FuzzLBKeogh(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, r := range []float64{0, negZero, -1, 0.5, 3, math.Inf(1), math.NaN()} {
		f.Add([]byte{}, r)
		f.Add([]byte{1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 1}, r)             // ±0: rows on U, on L, at -0
		f.Add([]byte{9, 16, 2, 12, 16, 24, 2, 9, 200, 9, 2, 240}, r)     // in band, below, above
		f.Add([]byte{4, 5, 2, 5, 5, 4, 2, 4, 6, 7, 2, 7, 7, 6, 2, 6}, r) // differences overflowing to ±Inf
		f.Add([]byte{2, 3, 2, 3, 2, 9, 0, 0, 3, 9, 2, 2}, r)             // subnormals
		f.Add([]byte{16, 24, 2, 40, 8, 16, 0, 0, 16, 24, 2, 8}, r)       // above, a NaN wedge, a NaN row
		for n := 8; n <= 13; n++ {
			f.Add(nanAfterAbandon(n, 1, 2), r) // in the first block
			f.Add(nanAfterAbandon(n, 0, 3), r)
			if n >= 12 {
				f.Add(nanAfterAbandon(n, 5, 7), r) // in the second block
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, r float64) {
		q, e := fuzzCase(data)
		checkAgainstReference(t, q, e, r)
	})
}

// TestLBKeoghBlockBoundaries calls both kernels at every length 0..13 (no
// block, one, two, and every tail length) with a threshold that stops each
// exactly at every position 1..n, and with none, against the references: the
// value's bits, the flag, the steps and every cb entry. The row leaves the
// wedge at every position, alternately above and below, by 1, 2 or 3, so
// each position raises the sum and each abandon position has a threshold.
func TestLBKeoghBlockBoundaries(t *testing.T) {
	for n := 0; n <= 13; n++ {
		q, e := make([]float64, n), Envelope{U: make([]float64, n), L: make([]float64, n)}
		sq := make([]float64, n) // each position's term, squared
		for i := range q {
			e.U[i], e.L[i] = float64(i), float64(i)-1
			d := float64(i%3 + 1)
			sq[i] = d * d
			if i%2 == 0 {
				q[i] = e.U[i] + d
			} else {
				q[i] = e.L[i] - d
			}
		}
		checkAgainstReference(t, q, e, -1)
		// A threshold whose square lies halfway between the sums over k-1
		// and k positions stops a kernel after exactly k: the first k for
		// LBKeogh, the last k for LBKeoghSuffix.
		var fwd, bwd float64
		for k := 1; k <= n; k++ {
			rf, rb := math.Sqrt(fwd+sq[k-1]/2), math.Sqrt(bwd+sq[n-k]/2)
			fwd, bwd = fwd+sq[k-1], bwd+sq[n-k]
			var fs, bs stats.Tally
			if _, a := LBKeogh(q, e, rf, &fs); !a || fs.Steps() != int64(k) {
				t.Fatalf("n=%d: LBKeogh with r=%v read %d positions, want an abandon after %d", n, rf, fs.Steps(), k)
			}
			if _, a := LBKeoghSuffix(q, e, rb, make([]float64, n+1), &bs); !a || bs.Steps() != int64(k) {
				t.Fatalf("n=%d: LBKeoghSuffix with r=%v read %d positions, want an abandon after %d", n, rb, bs.Steps(), k)
			}
			checkAgainstReference(t, q, e, rf)
			checkAgainstReference(t, q, e, rb)
		}
		checkAgainstReference(t, q, e, math.Sqrt(fwd)+1)
	}
}
