package ts

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRotateBasic(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	got := Rotate(s, 2)
	want := []float64{3, 4, 5, 1, 2}
	if !Equal(got, want, 0) {
		t.Fatalf("Rotate(s,2) = %v, want %v", got, want)
	}
}

func TestRotateZeroAndFull(t *testing.T) {
	s := []float64{1, 2, 3}
	if !Equal(Rotate(s, 0), s, 0) {
		t.Fatal("Rotate by 0 should be identity")
	}
	if !Equal(Rotate(s, 3), s, 0) {
		t.Fatal("Rotate by n should be identity")
	}
	if !Equal(Rotate(s, -1), Rotate(s, 2), 0) {
		t.Fatal("Rotate by -1 should equal Rotate by n-1")
	}
	if !Equal(Rotate(s, 7), Rotate(s, 1), 0) {
		t.Fatal("Rotate should wrap modulo n")
	}
}

func TestRotateEmpty(t *testing.T) {
	if got := Rotate(nil, 3); len(got) != 0 {
		t.Fatalf("Rotate(nil) = %v, want empty", got)
	}
}

func TestRotateDoesNotAlias(t *testing.T) {
	s := []float64{1, 2, 3}
	r := Rotate(s, 1)
	r[0] = 99
	if s[1] == 99 {
		t.Fatal("Rotate must return a copy")
	}
}

func TestMirror(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	want := []float64{4, 3, 2, 1}
	if got := Mirror(s); !Equal(got, want, 0) {
		t.Fatalf("Mirror = %v, want %v", got, want)
	}
	if got := Mirror(Mirror(s)); !Equal(got, s, 0) {
		t.Fatal("Mirror twice should be identity")
	}
}

func TestZNorm(t *testing.T) {
	rng := NewRand(1)
	s := RandomSeries(rng, 100)
	z := ZNorm(s)
	if m := Mean(z); math.Abs(m) > 1e-9 {
		t.Fatalf("ZNorm mean = %v, want 0", m)
	}
	if sd := Std(z); math.Abs(sd-1) > 1e-9 {
		t.Fatalf("ZNorm std = %v, want 1", sd)
	}
}

func TestZNormConstant(t *testing.T) {
	z := ZNorm([]float64{5, 5, 5, 5})
	for _, v := range z {
		if v != 0 {
			t.Fatalf("ZNorm of constant series = %v, want zeros", z)
		}
	}
}

func TestResampleIdentityLength(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	got, err := Resample(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, s, 1e-12) {
		t.Fatalf("Resample to same length = %v, want %v", got, s)
	}
}

func TestResampleUpDown(t *testing.T) {
	s := []float64{0, 1, 0, -1}
	up, err := Resample(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 8 {
		t.Fatalf("len = %d, want 8", len(up))
	}
	// Every original sample appears at even indices.
	for i, v := range s {
		if math.Abs(up[2*i]-v) > 1e-12 {
			t.Fatalf("up[%d] = %v, want %v", 2*i, up[2*i], v)
		}
	}
	down, err := Resample(up, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(down, s, 1e-12) {
		t.Fatalf("down = %v, want %v", down, s)
	}
}

func TestResampleErrors(t *testing.T) {
	if _, err := Resample(nil, 4); err == nil {
		t.Fatal("want error for empty input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive target length")
		}
	}()
	_, _ = Resample([]float64{1}, 0)
}

func TestCloneIndependent(t *testing.T) {
	s := []float64{1, 2}
	c := Clone(s)
	c[0] = 9
	if s[0] == 9 {
		t.Fatal("Clone must copy")
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := RandomWalk(NewRand(42), 64)
	b := RandomWalk(NewRand(42), 64)
	if !Equal(a, b, 0) {
		t.Fatal("same seed must give identical series")
	}
	c := RandomWalk(NewRand(43), 64)
	if Equal(a, c, 0) {
		t.Fatal("different seeds should differ")
	}
}

// Property: rotation composes additively modulo n.
func TestRotateComposeProperty(t *testing.T) {
	rng := NewRand(7)
	f := func(j, k uint8) bool {
		s := RandomSeries(rng, 37)
		a := Rotate(Rotate(s, int(j)), int(k))
		b := Rotate(s, int(j)+int(k))
		return Equal(a, b, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Mirror(Rotate(s,k)) == Rotate(Mirror(s), n-k) — mirroring
// reverses rotation direction, which is why mirror invariance only needs the
// reversed series added to the rotation matrix.
func TestMirrorRotateProperty(t *testing.T) {
	rng := NewRand(8)
	f := func(k uint8) bool {
		n := 29
		s := RandomSeries(rng, n)
		a := Mirror(Rotate(s, int(k)))
		b := Rotate(Mirror(s), -int(k))
		return Equal(a, b, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddNoiseZeroSigma(t *testing.T) {
	rng := NewRand(3)
	s := RandomSeries(rng, 10)
	if !Equal(AddNoise(rng, s, 0), s, 0) {
		t.Fatal("sigma=0 noise must be identity")
	}
}

func TestNonFinite(t *testing.T) {
	if i := NonFinite([]float64{1, -2, 0, math.MaxFloat64}); i != -1 {
		t.Fatalf("finite series: NonFinite = %d, want -1", i)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if i := NonFinite([]float64{1, 2, bad, 3, bad}); i != 2 {
			t.Fatalf("%v at 2 and 4: NonFinite = %d, want 2", bad, i)
		}
	}
}

// Oversized draws its line at MaxSquaredNorm, and an overflowing sum of
// squares counts as over it; CheckRows refuses such a row by number.
func TestOversized(t *testing.T) {
	big := math.Sqrt(MaxSquaredNorm / 2)
	for _, c := range []struct {
		s    []float64
		want bool
	}{
		{[]float64{1, -2, 3}, false},
		{[]float64{big, big * 0.999}, false},
		{[]float64{big, big * 1.001}, true},
		{[]float64{math.MaxFloat64, -math.MaxFloat64}, true},
		{[]float64{1e200, -1e200}, true},
	} {
		if got := Oversized(c.s); got != c.want {
			t.Errorf("Oversized(%v) = %v, want %v", c.s, got, c.want)
		}
	}
	rows := [][]float64{{1, 2}, {3, 4}, {1e200, -1e200}}
	if _, err := CheckRows(rows, "row"); err == nil || !strings.Contains(err.Error(), "row 2 has") {
		t.Errorf("CheckRows: want an error naming row 2, got %v", err)
	}
	// CheckRow names a non-finite sample before it reports the norm.
	for _, c := range []struct {
		s    []float64
		want string
	}{
		{[]float64{1, -2, 3}, ""},
		{[]float64{1e200, math.NaN(), 3}, "sample 1 is NaN"},
		{[]float64{1, 2, math.Inf(-1)}, "sample 2 is -Inf"},
		{[]float64{1e200, -1e200}, "has a squared norm"},
	} {
		err := CheckRow(c.s)
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("CheckRow(%v) = %v, want %q", c.s, err, c.want)
		}
	}
}
