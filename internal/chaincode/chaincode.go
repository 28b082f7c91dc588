// Package chaincode implements the discretized shape representation and
// cyclic string matching the paper compares against in Section 2.3
// (Marzal & Palazón [23]): the contour is quantized into 8-direction chain
// codes and two shapes are compared by the minimum edit distance over every
// cyclic rotation of one of the strings.
//
// The reference algorithm runs in O(n²·log n) (Maes' divide and conquer);
// this implementation evaluates the rotations directly in O(n³), which is
// exact and fast enough at baseline-experiment scale — the point of the
// comparison is the paper's: the chain-code pipeline needs quantization, has
// parameters (substitution/indel costs), and costs orders of magnitude more
// than wedge-based matching, for no accuracy gain.
package chaincode

import (
	"fmt"
	"math"

	"lbkeogh/internal/shape"
)

// FromContour quantizes a traced contour (8-connected pixel boundary) into
// chain codes: symbol k in 0..7 encodes the direction of each step,
// counter-clockwise from east. The closing step back to the first pixel is
// included, so the code has exactly len(contour) symbols.
func FromContour(contour [][2]int) ([]byte, error) {
	if len(contour) < 2 {
		return nil, fmt.Errorf("chaincode: contour needs >= 2 points, got %d", len(contour))
	}
	// Direction table indexed by (dx+1, dy+1).
	dirOf := map[[2]int]byte{
		{1, 0}: 0, {1, -1}: 1, {0, -1}: 2, {-1, -1}: 3,
		{-1, 0}: 4, {-1, 1}: 5, {0, 1}: 6, {1, 1}: 7,
	}
	out := make([]byte, 0, len(contour))
	for i := range contour {
		p := contour[i]
		q := contour[(i+1)%len(contour)]
		d, ok := dirOf[[2]int{q[0] - p[0], q[1] - p[1]}]
		if !ok {
			return nil, fmt.Errorf("chaincode: points %d and %d are not 8-adjacent", i, (i+1)%len(contour))
		}
		out = append(out, d)
	}
	return out, nil
}

// FromBitmap traces b and chain-codes its boundary.
func FromBitmap(b *shape.Bitmap) ([]byte, error) {
	contour, err := shape.Trace(b)
	if err != nil {
		return nil, err
	}
	return FromContour(contour)
}

// AngularSubstCost is the standard substitution cost between chain-code
// symbols: the cyclic direction difference scaled to [0, 1] (opposite
// directions cost 1, equal directions 0).
func AngularSubstCost(a, b byte) float64 {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	if 8-d < d {
		d = 8 - d
	}
	return float64(d) / 4
}

// EditDistance is the classic string edit distance between a and b with the
// given substitution cost and insertion/deletion cost.
func EditDistance(a, b []byte, sub func(x, y byte) float64, indel float64) float64 {
	prev := make([]float64, len(b)+1)
	curr := make([]float64, len(b)+1)
	for j := range prev {
		prev[j] = float64(j) * indel
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = float64(i) * indel
		for j := 1; j <= len(b); j++ {
			best := prev[j-1] + sub(a[i-1], b[j-1])
			if v := prev[j] + indel; v < best {
				best = v
			}
			if v := curr[j-1] + indel; v < best {
				best = v
			}
			curr[j] = best
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}

// CyclicEditDistance is the rotation-invariant form: the minimum edit
// distance between any cyclic rotation of a and the string b. Exact, O(n³):
// every rotation of a is evaluated (the [23] baseline achieves O(n² log n)
// with Maes' algorithm; same answer, different constant — steps accounting
// in the experiments uses the reference algorithm's cost model).
func CyclicEditDistance(a, b []byte, sub func(x, y byte) float64, indel float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Max(float64(len(a)), float64(len(b))) * indel
	}
	rot := make([]byte, len(a))
	best := math.Inf(1)
	for s := 0; s < len(a); s++ {
		copy(rot, a[s:])
		copy(rot[len(a)-s:], a[:s])
		if d := EditDistance(rot, b, sub, indel); d < best {
			best = d
		}
	}
	return best
}

// ReferenceSteps is the cost model of the [23] algorithm for one comparison
// of two length-n chain codes: n·n·log2(n) elementary operations.
func ReferenceSteps(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	return float64(n) * float64(n) * math.Log2(float64(n))
}
