// Package mining holds black-box tests of the root package's mining calls
// (mining.go): ClosestPair against a brute-force reference, Cluster, Medoid
// and Discord on planted data. The package has no non-test code.
package mining

import (
	"math"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

func randomDB(seed int64, m, n int) []lbkeogh.Series {
	rng := ts.NewRand(seed)
	db := make([]lbkeogh.Series, m)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	return db
}

// bruteClosestPair is the quadratic, rotation-enumerating reference under
// kern, the kernel the Measure under test wraps.
func bruteClosestPair(db []lbkeogh.Series, kern wedge.Kernel) (int, int, float64) {
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
	for _, c := range []struct {
		m    lbkeogh.Measure
		kern wedge.Kernel
	}{{lbkeogh.Euclidean(), wedge.ED{}}, {lbkeogh.DTW(2), wedge.DTW{R: 2}}} {
		got, err := lbkeogh.ClosestPair(db, c.m)
		if err != nil {
			t.Fatal(err)
		}
		wi, wj, wd := bruteClosestPair(db, c.kern)
		if got.I != wi || got.J != wj || math.Abs(got.Dist-wd) > 1e-9 {
			t.Fatalf("%s: ClosestPair (%d,%d,%v) != brute (%d,%d,%v)",
				c.m.Name(), got.I, got.J, got.Dist, wi, wj, wd)
		}
	}
}

func TestClosestPairIdenticalSeries(t *testing.T) {
	db := randomDB(3, 4, 20)
	db[2] = ts.Clone(db[0])
	got, err := lbkeogh.ClosestPair(db, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist > 1e-12 || got.I != 0 || got.J != 2 {
		t.Fatalf("identical pair not found: %+v", got)
	}
}

// Every distance is 0, so no later pair beats the first one.
func TestClosestPairAllIdentical(t *testing.T) {
	base := randomDB(4, 1, 16)[0]
	db := []lbkeogh.Series{ts.Clone(base), ts.Clone(base), ts.Clone(base)}
	got, err := lbkeogh.ClosestPair(db, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist != 0 || got.I != 0 || got.J != 1 {
		t.Fatalf("degenerate all-identical case mishandled: %+v", got)
	}
}

func TestClosestPairErrors(t *testing.T) {
	if _, err := lbkeogh.ClosestPair(nil, lbkeogh.Euclidean()); err == nil {
		t.Fatal("want error for tiny input")
	}
}

func TestClusterRecoversPlantedGroups(t *testing.T) {
	rng := ts.NewRand(6)
	baseA := ts.ZNorm(ts.RandomWalk(rng, 32))
	baseB := ts.ZNorm(ts.RandomWalk(rng, 32))
	var db []lbkeogh.Series
	for i := 0; i < 4; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(baseA, rng.Intn(32)), 0.05)))
	}
	for i := 0; i < 4; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(baseB, rng.Intn(32)), 0.05)))
	}
	dend, err := lbkeogh.Cluster(db, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	for _, leaves := range dend.Clusters(2) {
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
	db := []lbkeogh.Series{ts.Clone(base)}
	for i := 1; i <= 5; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(base, i*3), 0.1*float64(i))))
	}
	got, err := lbkeogh.Medoid(db, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("medoid = %d, want 0", got)
	}
	if _, err := lbkeogh.Medoid(nil, lbkeogh.Euclidean()); err == nil {
		t.Fatal("want error for empty set")
	}
}

func TestDiscordFindsAnomaly(t *testing.T) {
	rng := ts.NewRand(8)
	base := ts.ZNorm(ts.RandomWalk(rng, 32))
	var db []lbkeogh.Series
	for i := 0; i < 6; i++ {
		db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(base, rng.Intn(32)), 0.05)))
	}
	// Inject one structurally different series.
	anomaly := make([]float64, 32)
	for i := range anomaly {
		anomaly[i] = math.Sin(7 * float64(i))
	}
	db = append(db, ts.ZNorm(anomaly))
	idx, nn, err := lbkeogh.Discord(db, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 6 {
		t.Fatalf("discord = %d, want the injected anomaly 6", idx)
	}
	if nn <= 0 {
		t.Fatalf("discord NN distance = %v", nn)
	}
	if _, _, err := lbkeogh.Discord(db[:1], lbkeogh.Euclidean()); err == nil {
		t.Fatal("want error for single series")
	}
}
