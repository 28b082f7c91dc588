package mining

import (
	"math"
	"testing"

	"lbkeogh/internal/core"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

func randomDB(seed int64, m, n int) [][]float64 {
	rng := ts.NewRand(seed)
	db := make([][]float64, m)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	return db
}

// bruteClosestPair is the quadratic, rotation-enumerating reference.
func bruteClosestPair(db [][]float64, kern wedge.Kernel) (int, int, float64) {
	bi, bj, best := -1, -1, math.Inf(1)
	for i := 0; i < len(db)-1; i++ {
		for j := i + 1; j < len(db); j++ {
			for s := 0; s < len(db[i]); s++ {
				d, _ := kern.Distance(db[j], ts.Rotate(db[i], s), -1, nil)
				if d < best {
					bi, bj, best = i, j, d
				}
			}
		}
	}
	return bi, bj, best
}

func TestClosestPairMatchesBrute(t *testing.T) {
	db := randomDB(1, 10, 24)
	// Plant a motif: a rotated noisy copy.
	rng := ts.NewRand(2)
	db[7] = ts.ZNorm(ts.AddNoise(rng, ts.Rotate(db[3], 9), 0.02))
	for _, kern := range []wedge.Kernel{wedge.ED{}, wedge.DTW{R: 2}} {
		got, err := ClosestPair(db, kern, core.DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		wi, wj, wd := bruteClosestPair(db, kern)
		if got.I != wi || got.J != wj || math.Abs(got.Dist-wd) > 1e-9 {
			t.Fatalf("%s: ClosestPair (%d,%d,%v) != brute (%d,%d,%v)",
				kern.Name(), got.I, got.J, got.Dist, wi, wj, wd)
		}
	}
}

func TestClosestPairIdenticalSeries(t *testing.T) {
	db := randomDB(3, 4, 20)
	db[2] = ts.Clone(db[0])
	got, err := ClosestPair(db, wedge.ED{}, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist > 1e-12 || got.I != 0 || got.J != 2 {
		t.Fatalf("identical pair not found: %+v", got)
	}
}

func TestClosestPairAllIdentical(t *testing.T) {
	base := randomDB(4, 1, 16)[0]
	db := [][]float64{ts.Clone(base), ts.Clone(base), ts.Clone(base)}
	got, err := ClosestPair(db, wedge.ED{}, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist != 0 || got.I < 0 {
		t.Fatalf("degenerate all-identical case mishandled: %+v", got)
	}
}

func TestClosestPairErrors(t *testing.T) {
	if _, err := ClosestPair(nil, wedge.ED{}, core.DefaultOptions(), nil); err == nil {
		t.Fatal("want error for tiny input")
	}
}

func TestDistanceMatrixProperties(t *testing.T) {
	db := randomDB(5, 8, 20)
	d := DistanceMatrix(db, wedge.ED{}, core.DefaultOptions(), nil)
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
	// Spot-check one entry against the Query machinery.
	rs := core.NewRotationSet(db[2], core.DefaultOptions(), nil)
	s := core.NewSearcher(rs, wedge.ED{}, core.BruteForce, core.SearcherConfig{})
	want := s.MatchSeries(db[5], -1, nil)
	if math.Abs(d[2][5]-want.Dist) > 1e-9 {
		t.Fatalf("matrix entry %v != direct %v", d[2][5], want.Dist)
	}
}

func TestClusterRecoversPlantedGroups(t *testing.T) {
	rng := ts.NewRand(6)
	baseA := ts.ZNorm(ts.RandomWalk(rng, 32))
	baseB := ts.ZNorm(ts.RandomWalk(rng, 32))
	var db [][]float64
	for i := 0; i < 4; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(baseA, rng.Intn(32)), 0.05)))
	}
	for i := 0; i < 4; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(baseB, rng.Intn(32)), 0.05)))
	}
	dend := Cluster(db, wedge.ED{}, core.DefaultOptions(), nil)
	front := dend.Frontier(2)
	for _, id := range front {
		leaves := dend.Leaves(id)
		isA := leaves[0] < 4
		for _, l := range leaves {
			if (l < 4) != isA {
				t.Fatalf("K=2 cut mixes planted groups: %v", leaves)
			}
		}
	}
}

func TestMedoid(t *testing.T) {
	rng := ts.NewRand(7)
	base := ts.ZNorm(ts.RandomWalk(rng, 24))
	// One central instance and progressively noisier satellites; the medoid
	// must be the clean centre (index 0).
	db := [][]float64{ts.Clone(base)}
	for i := 1; i <= 5; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(base, i*3), 0.1*float64(i))))
	}
	got, err := Medoid(db, wedge.ED{}, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("medoid = %d, want 0", got)
	}
	if _, err := Medoid(nil, wedge.ED{}, core.DefaultOptions(), nil); err == nil {
		t.Fatal("want error for empty set")
	}
}

func TestDiscordFindsAnomaly(t *testing.T) {
	rng := ts.NewRand(8)
	base := ts.ZNorm(ts.RandomWalk(rng, 32))
	var db [][]float64
	for i := 0; i < 6; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(base, rng.Intn(32)), 0.05)))
	}
	// Inject one structurally different series.
	anomaly := make([]float64, 32)
	for i := range anomaly {
		anomaly[i] = math.Sin(7 * float64(i))
	}
	db = append(db, ts.ZNorm(anomaly))
	idx, nn, err := Discord(db, wedge.ED{}, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 6 {
		t.Fatalf("discord = %d, want the injected anomaly 6", idx)
	}
	if nn <= 0 {
		t.Fatalf("discord NN distance = %v", nn)
	}
	if _, _, err := Discord(db[:1], wedge.ED{}, core.DefaultOptions(), nil); err == nil {
		t.Fatal("want error for single series")
	}
}
