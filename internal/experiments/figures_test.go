package experiments

// Clustering demonstrations of Figures 17 and 18: DTW-based clustering of a
// morphologically diverse collection, and articulation robustness of the
// centroid-distance representation (the "bent hindwing" experiment).

import (
	"testing"

	"lbkeogh"
	"lbkeogh/internal/shape"
	"lbkeogh/internal/ts"
)

// TestArticulationClustering reproduces Figure 18: three Lepidoptera-like
// contours and a copy of each with a "bent hindwing" (a local angular
// articulation). Group-average clustering under rotation-invariant ED must
// pair every original with its articulated copy — the centroid-based
// representation is robust to articulation, unlike Hausdorff-style measures
// (the paper's car-antenna thought experiment).
func TestArticulationClustering(t *testing.T) {
	bases := []shape.Superformula{
		{M: 4, N1: 2.5, N2: 7, N3: 7, A: 1, B: 1},   // Actias maenas stand-in
		{M: 5, N1: 2.0, N2: 11, N3: 11, A: 1, B: 1}, // Actias philippinica
		{M: 6, N1: 3.5, N2: 12, N3: 12, A: 1, B: 1}, // Chorinea amazon
	}
	n := 128
	var db [][]float64
	for _, sf := range bases {
		plain := shape.RadialSignature(sf.Radius, n)
		bent := shape.NewRadialShape(sf.Radius).WithArticulation(4.5, 0.6, 0.06)
		bentSig := shape.RadialSignature(bent.Radius, n)
		rng := ts.NewRand(int64(n))
		db = append(db, ts.Rotate(plain, rng.Intn(n)), ts.Rotate(bentSig, rng.Intn(n)))
	}
	dend, err := lbkeogh.Cluster(db, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	for _, leaves := range dend.Clusters(3) {
		if len(leaves) != 2 || leaves[0]/2 != leaves[1]/2 {
			t.Fatalf("articulated pair split: K=3 cut contains %v", leaves)
		}
	}
}

// TestDTWClusteringDiverse reproduces the Figure 17 mechanism: on a
// morphologically diverse collection whose within-pair variation is
// articulation (features sliding along the contour), DTW-based clustering
// recovers every related pair.
func TestDTWClusteringDiverse(t *testing.T) {
	n := 96
	rng := ts.NewRand(99)
	var db [][]float64
	pairs := 4
	for p := 0; p < pairs; p++ {
		base := shape.Superformula{
			M:  float64(3 + p),
			N1: 2 + float64(p)*0.8,
			N2: 6 + float64(p)*2,
			N3: 6 + float64(p)*2,
			A:  1, B: 1,
		}
		for k := 0; k < 2; k++ {
			inst := shape.NewRadialShape(base.Radius).
				WithArticulation(rng.Float64()*6, 0.5, 0.12).
				WithNoise(rng, 0.02)
			sig := shape.RadialSignature(inst.Radius, n)
			db = append(db, ts.Rotate(sig, rng.Intn(n)))
		}
	}
	dend, err := lbkeogh.Cluster(db, lbkeogh.DTW(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, leaves := range dend.Clusters(pairs) {
		if len(leaves) != 2 || leaves[0]/2 != leaves[1]/2 {
			t.Fatalf("DTW clustering split a related pair: %v", leaves)
		}
	}
}
