package chaincode

import (
	"math"
	"testing"

	"lbkeogh/internal/shape"
)

func TestFromContourSquare(t *testing.T) {
	// A 2x2 pixel square traced clockwise in image coordinates (y down):
	// (0,0) -> (1,0) -> (1,1) -> (0,1) -> close.
	contour := [][2]int{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	code, err := FromContour(contour)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 7, 4, 3} // E, SE->... with y-down: (0,1) step is dir 7? verify below
	_ = want
	if len(code) != 4 {
		t.Fatalf("code length %d", len(code))
	}
	// Steps: (1,0)=E:0, (0,1)=S? y grows downward; dir table has {0,1}:6.
	if code[0] != 0 || code[1] != 6 || code[2] != 4 || code[3] != 2 {
		t.Fatalf("code = %v, want [0 6 4 2]", code)
	}
}

func TestFromContourErrors(t *testing.T) {
	if _, err := FromContour([][2]int{{0, 0}}); err == nil {
		t.Fatal("want error for single point")
	}
	if _, err := FromContour([][2]int{{0, 0}, {5, 5}}); err == nil {
		t.Fatal("want error for non-adjacent points")
	}
}

func TestFromBitmapDisk(t *testing.T) {
	b := shape.NewBitmap(32, 32)
	b.FillDisk(16, 16, 8)
	code, err := FromBitmap(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) < 30 || len(code) > 80 {
		t.Fatalf("disk chain code length %d", len(code))
	}
	// A closed boundary's direction steps must sum to a full turn; weaker
	// check: all 8 directions of a circle appear.
	seen := map[byte]bool{}
	for _, c := range code {
		seen[c] = true
	}
	if len(seen) < 8 {
		t.Fatalf("circle uses only %d directions", len(seen))
	}
}

func TestSubstCosts(t *testing.T) {
	if AngularSubstCost(0, 0) != 0 || AngularSubstCost(3, 3) != 0 {
		t.Fatal("equal symbols must cost 0")
	}
	if AngularSubstCost(0, 4) != 1 {
		t.Fatal("opposite directions must cost 1")
	}
	if AngularSubstCost(0, 7) != 0.25 || AngularSubstCost(7, 0) != 0.25 {
		t.Fatal("adjacent directions must cost 0.25 (cyclic)")
	}
}

// unitSubst is 0/1 substitution: the classic string edit distance.
func unitSubst(a, b byte) float64 {
	if a == b {
		return 0
	}
	return 1
}

func TestEditDistanceKnown(t *testing.T) {
	a := []byte{0, 1, 2, 3}
	if d := EditDistance(a, a, unitSubst, 1); d != 0 {
		t.Fatalf("self distance %v", d)
	}
	// One substitution.
	b := []byte{0, 1, 7, 3}
	if d := EditDistance(a, b, unitSubst, 1); d != 1 {
		t.Fatalf("one-subst distance %v", d)
	}
	// Pure indels.
	if d := EditDistance(a, a[:2], unitSubst, 1); d != 2 {
		t.Fatalf("deletion distance %v", d)
	}
	if d := EditDistance(nil, a, unitSubst, 1); d != 4 {
		t.Fatalf("empty-vs-full distance %v", d)
	}
}

func TestEditDistanceTriangle(t *testing.T) {
	strs := [][]byte{
		{0, 1, 2, 3, 4}, {0, 1, 1, 3, 4}, {7, 6, 5, 4, 3}, {0, 0, 0, 0, 0},
	}
	for _, a := range strs {
		for _, b := range strs {
			for _, c := range strs {
				ab := EditDistance(a, b, unitSubst, 1)
				bc := EditDistance(b, c, unitSubst, 1)
				ac := EditDistance(a, c, unitSubst, 1)
				if ac > ab+bc+1e-12 {
					t.Fatalf("triangle violated: %v > %v + %v", ac, ab, bc)
				}
			}
		}
	}
}

func TestCyclicEditDistanceRotationInvariant(t *testing.T) {
	a := []byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 2}
	b := []byte{1, 2, 3, 4, 5, 6, 7, 0, 2, 0}
	base := CyclicEditDistance(a, b, AngularSubstCost, 1)
	for s := 1; s < len(a); s++ {
		rot := append(append([]byte{}, a[s:]...), a[:s]...)
		if d := CyclicEditDistance(rot, b, AngularSubstCost, 1); math.Abs(d-base) > 1e-12 {
			t.Fatalf("cyclic distance not rotation invariant at shift %d: %v vs %v", s, d, base)
		}
	}
	// A rotated copy is at distance 0.
	rot := append(append([]byte{}, a[4:]...), a[:4]...)
	if d := CyclicEditDistance(rot, a, unitSubst, 1); d != 0 {
		t.Fatalf("rotated copy distance %v", d)
	}
}

// Chain-coded rotated bitmaps must be close under cyclic edit distance,
// while different shapes are far — the discretized analogue of rotation-
// invariant matching.
func TestCyclicMatchingOnShapes(t *testing.T) {
	sf := shape.Superformula{M: 4, N1: 3, N2: 7, N3: 7, A: 1, B: 1}
	bmp := shape.FromRadial(sf.Radius, 48)
	codeA, err := FromBitmap(bmp)
	if err != nil {
		t.Fatal(err)
	}
	codeB, err := FromBitmap(bmp.Rotate(math.Pi / 2))
	if err != nil {
		t.Fatal(err)
	}
	other := shape.Superformula{M: 7, N1: 2, N2: 9, N3: 9, A: 1, B: 1}
	codeC, err := FromBitmap(shape.FromRadial(other.Radius, 48))
	if err != nil {
		t.Fatal(err)
	}
	same := CyclicEditDistance(codeA, codeB, AngularSubstCost, 1)
	diff := CyclicEditDistance(codeA, codeC, AngularSubstCost, 1)
	if same >= diff {
		t.Fatalf("rotated copy (%v) should be closer than a different shape (%v)", same, diff)
	}
}

func TestReferenceSteps(t *testing.T) {
	if ReferenceSteps(1) != 1 {
		t.Fatal("degenerate cost model")
	}
	if got := ReferenceSteps(256); got != 256*256*8 {
		t.Fatalf("ReferenceSteps(256) = %v", got)
	}
}

func TestCyclicEmpty(t *testing.T) {
	if d := CyclicEditDistance(nil, []byte{1, 2}, unitSubst, 1); d != 2 {
		t.Fatalf("empty cyclic distance %v", d)
	}
}
