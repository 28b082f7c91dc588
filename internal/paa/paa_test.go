package paa

import (
	"math"
	"testing"
	"testing/quick"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/ts"
)

func TestBounds(t *testing.T) {
	b := Bounds(10, 4)
	want := []int{0, 2, 5, 7, 10}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("Bounds(10,4) = %v, want %v", b, want)
		}
	}
	if got := Bounds(4, 10); len(got) != 5 {
		t.Fatalf("D should clamp to n: %v", got)
	}
}

func TestBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Bounds(0, 4)
}

func TestReduceExact(t *testing.T) {
	x := []float64{1, 3, 5, 7}
	got := Reduce(x, 2)
	if got[0] != 2 || got[1] != 6 {
		t.Fatalf("Reduce = %v, want [2 6]", got)
	}
	full := Reduce(x, 4)
	if !ts.Equal(full, x, 0) {
		t.Fatal("D = n reduction must be identity")
	}
}

func TestReduceUnequalSegments(t *testing.T) {
	x := []float64{2, 2, 4, 4, 4}
	got := Reduce(x, 2) // segments [0,2) and [2,5)
	if got[0] != 2 || got[1] != 4 {
		t.Fatalf("Reduce = %v, want [2 4]", got)
	}
}

func TestReduceEnvelopeContainsMeans(t *testing.T) {
	rng := ts.NewRand(1)
	set := [][]float64{ts.RandomWalk(rng, 40), ts.RandomWalk(rng, 40)}
	env := envelope.New(set...)
	box := ReduceEnvelope(env, 8)
	for _, s := range set {
		means := Reduce(s, 8)
		for i := range means {
			if means[i] > box.Hi[i]+1e-12 || means[i] < box.Lo[i]-1e-12 {
				t.Fatal("member PAA means must lie inside the envelope box")
			}
		}
	}
}

// The chain of admissibility: LB_PAA <= LB_Keogh <= ED(member).
func TestLowerBoundChain(t *testing.T) {
	rng := ts.NewRand(2)
	for trial := 0; trial < 30; trial++ {
		n := 48
		set := [][]float64{ts.RandomWalk(rng, n), ts.RandomWalk(rng, n), ts.RandomWalk(rng, n)}
		env := envelope.New(set...)
		c := ts.RandomWalk(rng, n)
		for _, D := range []int{1, 4, 8, 16, 48} {
			box := ReduceEnvelope(env, D)
			lbPAA := LowerBound(Reduce(c, D), box, n)
			lbKeogh, _ := envelope.LBKeogh(c, env, -1, nil)
			if lbPAA > lbKeogh+1e-9 {
				t.Fatalf("D=%d: LB_PAA %v exceeds LB_Keogh %v", D, lbPAA, lbKeogh)
			}
			for _, s := range set {
				if ed := dist.Euclidean(c, s, nil); lbPAA > ed+1e-9 {
					t.Fatalf("D=%d: LB_PAA %v exceeds member ED %v", D, lbPAA, ed)
				}
			}
		}
	}
}

// DTW variant: box bound of the DTW-expanded envelope lower-bounds DTW to
// every member.
func TestLowerBoundDTWChain(t *testing.T) {
	rng := ts.NewRand(3)
	for _, R := range []int{1, 4} {
		for trial := 0; trial < 15; trial++ {
			n := 36
			set := [][]float64{ts.RandomWalk(rng, n), ts.RandomWalk(rng, n)}
			env := envelope.New(set...).ExpandDTW(R)
			c := ts.RandomWalk(rng, n)
			box := ReduceEnvelope(env, 9)
			lb := LowerBound(Reduce(c, 9), box, n)
			for _, s := range set {
				if d := dist.DTW(c, s, R, nil); lb > d+1e-9 {
					t.Fatalf("R=%d: PAA DTW bound %v exceeds DTW %v", R, lb, d)
				}
			}
		}
	}
}

func TestLowerBoundZeroInside(t *testing.T) {
	rng := ts.NewRand(4)
	s := ts.RandomWalk(rng, 32)
	env := envelope.New(s)
	box := ReduceEnvelope(env, 8)
	if lb := LowerBound(Reduce(s, 8), box, 32); lb != 0 {
		t.Fatalf("member must have zero box bound, got %v", lb)
	}
}

func TestMinLowerBound(t *testing.T) {
	rng := ts.NewRand(5)
	n := 32
	a := envelope.New(ts.RandomWalk(rng, n))
	b := envelope.New(ts.RandomWalk(rng, n))
	c := ts.RandomWalk(rng, n)
	boxes := []Box{ReduceEnvelope(a, 8), ReduceEnvelope(b, 8)}
	got := MinLowerBound(Reduce(c, 8), boxes, Widths(n, 8))
	la := LowerBound(Reduce(c, 8), boxes[0], n)
	lb := LowerBound(Reduce(c, 8), boxes[1], n)
	if got != math.Min(la, lb) {
		t.Fatalf("MinLowerBound = %v, want min(%v,%v)", got, la, lb)
	}
}

// Hand-computed values: a segment whose mean lies inside its box interval adds
// nothing, one below or above it adds width·gap², and the bound is the
// nearest box's, whatever the order of the boxes.
func TestMinLowerBoundHandComputed(t *testing.T) {
	w := []float64{2, 3}
	far := Box{Lo: []float64{2, 3}, Hi: []float64{4, 5}}
	near := Box{Lo: []float64{0, 0}, Hi: []float64{0.5, 0.5}}
	for _, tc := range []struct {
		means []float64
		boxes []Box
		want  float64
	}{
		{[]float64{3, 4}, []Box{far}, 0},                                // inside
		{[]float64{1, 1}, []Box{far}, math.Sqrt(2*1 + 3*4)},             // below: gaps (1, 2)
		{[]float64{5, 7}, []Box{far}, math.Sqrt(2*1 + 3*4)},             // above: gaps (1, 2)
		{[]float64{3, 1}, []Box{far}, math.Sqrt(3 * 4)},                 // one segment inside
		{[]float64{1, 1}, []Box{far, near}, math.Sqrt(2*0.25 + 3*0.25)}, // gaps (0.5, 0.5)
		{[]float64{1, 1}, []Box{near, far}, math.Sqrt(2*0.25 + 3*0.25)},
		{[]float64{1, 1}, nil, math.Inf(1)},
	} {
		if got := MinLowerBound(tc.means, tc.boxes, w); got != tc.want {
			t.Fatalf("MinLowerBound(%v, %d boxes) = %v, want %v", tc.means, len(tc.boxes), got, tc.want)
		}
	}
}

func TestLowerBoundPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	LowerBound([]float64{1, 2}, Box{Lo: []float64{0}, Hi: []float64{1}}, 8)
}

// Property: admissibility for random dimensionality and window.
func TestLowerBoundProperty(t *testing.T) {
	rng := ts.NewRand(6)
	f := func(dSeed, rSeed uint8) bool {
		n := 40
		D := 1 + int(dSeed)%n
		R := int(rSeed) % 6
		set := [][]float64{ts.RandomWalk(rng, n), ts.RandomWalk(rng, n)}
		env := envelope.New(set...).ExpandDTW(R)
		c := ts.RandomWalk(rng, n)
		lb := LowerBound(Reduce(c, D), ReduceEnvelope(env, D), n)
		for _, s := range set {
			if d := dist.DTW(c, s, R, nil); lb > d+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
