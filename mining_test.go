package lbkeogh

import (
	"math"
	"strings"
	"testing"

	"lbkeogh/internal/core"
	"lbkeogh/internal/ts"
)

func TestClosestPairPublic(t *testing.T) {
	db := demoDB(20, 12, 48)
	// Plant the motif.
	rng := ts.NewRand(21)
	db[9] = ts.ZNorm(ts.AddNoise(rng, ts.Rotate(db[2], 17), 0.01))
	motif, err := ClosestPair(db, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if motif.I != 2 || motif.J != 9 {
		t.Fatalf("motif = (%d,%d), want (2,9)", motif.I, motif.J)
	}
	// Verify the reported distance against Query.
	q, _ := NewQuery(db[motif.I], Euclidean())
	want, _, _ := q.Distance(db[motif.J])
	if math.Abs(motif.Dist-want) > 1e-9 {
		t.Fatalf("motif dist %v != query dist %v", motif.Dist, want)
	}
}

func TestClosestPairValidation(t *testing.T) {
	if _, err := ClosestPair(nil, Euclidean()); err == nil {
		t.Fatal("want error for empty db")
	}
	if _, err := ClosestPair([]Series{{1, 2, 3}}, Euclidean()); err == nil {
		t.Fatal("want error for single series")
	}
	if _, err := ClosestPair([]Series{{1, 2}, {1, 2}}, Measure{}); err == nil {
		t.Fatal("want error for zero measure")
	}
	if _, err := ClosestPair([]Series{{1, 2}, {1, 2, 3}}, Euclidean()); err == nil {
		t.Fatal("want error for ragged db")
	}
	if _, err := ClosestPair([]Series{{1}, {2}}, Euclidean()); err == nil {
		t.Fatal("want error for one-sample series")
	}
}

// The mining operations read the options as NewQuery does: a rotation limit
// NewQuery refuses is refused with its message, and a degree limit, once
// refused for want of a series length, answers as the sample limit it rounds
// to.
func TestMiningReadsOptionsLikeNewQuery(t *testing.T) {
	db := demoDB(26, 10, 40)
	for _, opt := range []QueryOption{WithMaxRotationDegrees(-1), WithMaxRotationDegrees(180)} {
		_, want := NewQuery(db[0], Euclidean(), opt)
		if want == nil {
			t.Fatal("NewQuery accepted an out-of-domain rotation limit")
		}
		if _, err := ClosestPair(db, Euclidean(), opt); err == nil || err.Error() != want.Error() {
			t.Errorf("ClosestPair: error %v, NewQuery's %v", err, want)
		}
	}
	// 27 degrees of 40 samples round to 3 samples.
	byDeg, err := ClosestPair(db, Euclidean(), WithMaxRotationDegrees(27))
	if err != nil {
		t.Fatal(err)
	}
	bySamples := Motif{Dist: math.Inf(1)}
	for i := 0; i < len(db)-1; i++ {
		s := core.NewSearcher(core.NewRotationSet(db[i], core.Options{MaxShift: 3}, nil), Euclidean().kern, core.Wedge, core.SearcherConfig{})
		for j := i + 1; j < len(db); j++ {
			if m := s.MatchSeries(db[j], -1, nil); m.Dist < bySamples.Dist {
				bySamples = Motif{I: i, J: j, Dist: m.Dist, Rotation: Rotation{Shift: m.Member.Shift, Mirrored: m.Member.Mirrored}}
			}
		}
	}
	if byDeg.I != bySamples.I || byDeg.J != bySamples.J || math.Float64bits(byDeg.Dist) != math.Float64bits(bySamples.Dist) ||
		byDeg.Rotation.Shift != bySamples.Rotation.Shift || byDeg.Rotation.Mirrored != bySamples.Rotation.Mirrored {
		t.Fatalf("27 degrees %+v, 3 samples %+v", byDeg, bySamples)
	}
	unlimited, err := ClosestPair(db, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if byDeg.Dist < unlimited.Dist {
		t.Fatalf("a limited motif %v beats the unlimited one %v", byDeg.Dist, unlimited.Dist)
	}
}

// A non-finite sample in the collection is refused by every mining
// operation, naming the row and the sample; it used to reach the clustering
// and panic there ("non-finite distance").
func TestMiningRefusesNonFiniteRows(t *testing.T) {
	calls := map[string]func([]Series) error{
		"ClosestPair": func(db []Series) error { _, err := ClosestPair(db, Euclidean()); return err },
		"Cluster":     func(db []Series) error { _, err := Cluster(db, Euclidean()); return err },
		"Medoid":      func(db []Series) error { _, err := Medoid(db, Euclidean()); return err },
		"Discord":     func(db []Series) error { _, _, err := Discord(db, Euclidean()); return err },
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, call := range calls {
			db := demoDB(27, 8, 32)
			db[3][5] = bad
			if err := call(db); err == nil || !strings.Contains(err.Error(), "series 3 sample 5 ") {
				t.Errorf("%s with a %v sample: want an error naming series 3 sample 5, got %v", name, bad, err)
			}
		}
	}
}

func TestClusterPublic(t *testing.T) {
	rng := ts.NewRand(22)
	baseA := ts.ZNorm(ts.RandomWalk(rng, 40))
	baseB := ts.ZNorm(ts.RandomWalk(rng, 40))
	var db []Series
	for i := 0; i < 3; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(baseA, rng.Intn(40)), 0.03)))
	}
	for i := 0; i < 3; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(baseB, rng.Intn(40)), 0.03)))
	}
	dend, err := Cluster(db, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	groups := dend.Clusters(2)
	if len(groups) != 2 {
		t.Fatalf("got %d clusters", len(groups))
	}
	for _, g := range groups {
		isA := g[0] < 3
		for _, idx := range g {
			if (idx < 3) != isA {
				t.Fatalf("cluster mixes planted groups: %v", groups)
			}
		}
	}
	if len(dend.Heights()) != 5 {
		t.Fatalf("heights = %v", dend.Heights())
	}
	out := dend.Render([]string{"a0", "a1", "a2", "b0", "b1", "b2"})
	for _, want := range []string{"a0", "b2", "height"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMedoidPublic(t *testing.T) {
	rng := ts.NewRand(23)
	base := ts.ZNorm(ts.RandomWalk(rng, 32))
	db := []Series{ts.Clone(base)}
	for i := 1; i < 5; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(base, i), 0.08*float64(i))))
	}
	idx, err := Medoid(db, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("medoid = %d, want 0", idx)
	}
}

func TestDiscordPublic(t *testing.T) {
	d := SyntheticLightCurves(24, 12, 64, 0.05)
	db := append([]Series{}, d.Series...)
	weird := make(Series, 64)
	for i := range weird {
		weird[i] = math.Sin(9*float64(i)) + math.Cos(23*float64(i))
	}
	db = append(db, ts.ZNorm(weird))
	idx, nn, err := Discord(db, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 12 {
		t.Fatalf("discord = %d, want the injected series 12", idx)
	}
	if nn <= 0 {
		t.Fatalf("discord NN = %v", nn)
	}
}

func TestMiningWithMirrorOption(t *testing.T) {
	db := demoDB(25, 8, 40)
	db[5] = ts.Mirror(ts.Rotate(db[1], 7)) // a mirrored rotation of db[1]
	plain, err := ClosestPair(db, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	mir, err := ClosestPair(db, Euclidean(), WithMirrorInvariance())
	if err != nil {
		t.Fatal(err)
	}
	if mir.Dist > 1e-9 || mir.I != 1 || mir.J != 5 {
		t.Fatalf("mirror motif not found: %+v", mir)
	}
	if plain.Dist < mir.Dist {
		t.Fatal("plain motif cannot beat the mirrored exact match")
	}
}

// Two finite rows can be +Inf apart: the squared differences overflow.
// Such rows are refused, naming the first one, before any comparison.
func TestClosestPairOverflowingDistance(t *testing.T) {
	db := []Series{{1, 2, 3, 4}, {1e200, 1e200, 1e200, 1e200}, {-1e200, -1e200, -1e200, -1e200}}
	if _, err := ClosestPair(db, Euclidean()); err == nil || !strings.Contains(err.Error(), "series 1 has") {
		t.Fatalf("overflowing rows: want an error naming series 1, got %v", err)
	}
}

// The distance matrix Cluster and Medoid read is symmetric with a zero
// diagonal, and its entries are the query's exact distances.
func TestDistanceMatrixProperties(t *testing.T) {
	rng := ts.NewRand(5)
	db := make([]Series, 8)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, 20))
	}
	d := distanceMatrix(db, Euclidean(), core.DefaultOptions())
	for i := range d {
		if d[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d: %v", i, d[i][i])
		}
		for j := range d {
			if d[i][j] != d[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
			if i != j && d[i][j] <= 0 {
				t.Fatalf("off-diagonal not positive at (%d,%d): %v", i, j, d[i][j])
			}
		}
	}
	q, err := NewQuery(db[2], Euclidean(), WithStrategy(BruteForceSearch))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := q.Distance(db[5])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[2][5]-want) > 1e-9 {
		t.Fatalf("matrix entry %v != direct %v", d[2][5], want)
	}
}
