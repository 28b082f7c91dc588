package paa

import (
	"math"
	"testing"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/ts"
)

// FuzzMinLowerBound holds the one-pass wedge-set bound the DTW index walks
// with to its definition and to admissibility: MinLowerBound equals the
// minimum of the per-box LowerBound values bit for bit (the abandoning and
// the single Sqrt change nothing), and it never exceeds the banded DTW
// distance from the candidate to any member of any box, within rounding.
// Half the inputs are quantised to quarters, so candidates sit exactly on
// box edges and boxes tie.
func FuzzMinLowerBound(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(8), uint8(2), uint8(3))
	f.Add(int64(2), uint8(60), uint8(59), uint8(0), uint8(0))
	f.Add(int64(3), uint8(7), uint8(1), uint8(5), uint8(1))
	f.Add(int64(4), uint8(251), uint8(7), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nSeed, dSeed, rSeed, kSeed uint8) {
		rng := ts.NewRand(seed)
		n := 4 + int(nSeed)%60
		D := 1 + int(dSeed)%n
		R := int(rSeed) % 6
		series := func() []float64 {
			x := ts.RandomWalk(rng, n)
			if seed%2 == 0 {
				for i := range x {
					x[i] = math.Round(4*x[i]) / 4
				}
			}
			return x
		}
		var members [][]float64
		var boxes []Box
		for k := 0; k <= int(kSeed)%4; k++ {
			set := [][]float64{series(), series()}
			members = append(members, set...)
			boxes = append(boxes, ReduceEnvelope(envelope.New(set...).ExpandDTW(R), D))
		}
		c := series()
		if kSeed%3 == 0 {
			c = ts.Clone(members[0])
		}
		means := Reduce(c, D)
		got := MinLowerBound(means, boxes, Widths(n, D))
		want := math.Inf(1)
		for _, bx := range boxes {
			want = math.Min(want, LowerBound(means, bx, n))
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d D=%d R=%d: MinLowerBound %v, the per-box minimum %v", n, D, R, got, want)
		}
		for i, m := range members {
			if d := dist.DTW(c, m, R, nil); got > d+1e-9 {
				t.Fatalf("n=%d D=%d R=%d: bound %v exceeds DTW %v to member %d", n, D, R, got, d, i)
			}
		}
	})
}

// A bound is one pass over a row per box: nothing is allocated.
func TestMinLowerBoundDoesNotAllocate(t *testing.T) {
	rng := ts.NewRand(7)
	n, D := 64, 8
	boxes := []Box{
		ReduceEnvelope(envelope.New(ts.RandomWalk(rng, n)).ExpandDTW(3), D),
		ReduceEnvelope(envelope.New(ts.RandomWalk(rng, n)).ExpandDTW(3), D),
	}
	means, w := Reduce(ts.RandomWalk(rng, n), D), Widths(n, D)
	if allocs := testing.AllocsPerRun(100, func() { MinLowerBound(means, boxes, w) }); allocs > 0 {
		t.Fatalf("MinLowerBound allocated %v times per call", allocs)
	}
}
