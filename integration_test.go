package lbkeogh

// End-to-end integration scenario: the "anthropology workflow" the paper's
// introduction motivates — a collection of raster shapes is segmented,
// converted to signatures, persisted to disk, indexed, searched, clustered
// and mined, with every answer cross-checked against brute force.

import (
	"math"
	"path/filepath"
	"testing"

	"lbkeogh/internal/shape"
	"lbkeogh/internal/ts"
)

func TestEndToEndAnthropologyWorkflow(t *testing.T) {
	const (
		sigLen     = 128
		rasterSize = 96
		perClass   = 4
	)

	// 1. "Photograph" the collection: three families of raster shapes at
	// random orientations, one specimen duplicated at a different rotation
	// (the planted motif).
	families := []shape.Superformula{
		{M: 4, N1: 3, N2: 7, N3: 7, A: 1, B: 1},
		{M: 5, N1: 2.2, N2: 6, N3: 6, A: 1, B: 1},
		{M: 3, N1: 4.5, N2: 10, N3: 10, A: 1, B: 1},
	}
	rng := ts.NewRand(2026)
	var bitmaps []*Bitmap
	var labels []int
	for fi, sf := range families {
		base := shape.NewRadialShape(sf.Radius)
		for k := 0; k < perClass; k++ {
			inst := shape.NewRadialShape(base.Radius).WithNoise(rng, 0.015)
			bmp := shape.FromRadial(inst.Radius, rasterSize)
			bitmaps = append(bitmaps, bmp.Rotate(rng.Float64()*2*math.Pi))
			labels = append(labels, fi)
		}
	}
	m := len(bitmaps) + 1 // +1 for the planted duplicate below

	// 2. Segment: contour → signature.
	db := make([]Series, 0, m)
	for i, b := range bitmaps {
		sig, err := Signature(b, sigLen)
		if err != nil {
			t.Fatalf("signature %d: %v", i, err)
		}
		db = append(db, sig)
	}
	// Plant the motif: the same specimen re-registered at another rotation
	// (a circular shift of its signature with a whisper of sensor noise).
	motifOriginal := 2
	db = append(db, ts.ZNorm(ts.AddNoise(rng, ts.Rotate(db[motifOriginal], 37), 0.003)))
	labels = append(labels, labels[motifOriginal])

	// 3. Persist the collection and open a disk-backed index.
	dir := filepath.Join(t.TempDir(), "collection")
	if err := WriteSegmentStore(dir, db, 16); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenSegmentIndex(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// 4. Query: a fresh rotated specimen of family 1 must retrieve a
	// family-1 object, identically via linear scan, parallel scan and index.
	queryShape := shape.NewRadialShape(families[1].Radius).WithNoise(rng, 0.015)
	queryBmp := shape.FromRadial(queryShape.Radius, rasterSize).Rotate(2.0)
	query, err := Signature(queryBmp, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, meas := range []Measure{Euclidean(), DTW(4)} {
		q, err := NewQuery(query, meas, WithMirrorInvariance())
		if err != nil {
			t.Fatal(err)
		}
		linear, err := q.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		if labels[linear.Index] != 1 {
			t.Fatalf("%s: retrieved family %d, want 1", meas.Name(), labels[linear.Index])
		}
		q2, _ := NewQuery(query, meas, WithMirrorInvariance())
		par, err := q2.SearchParallel(db, 4)
		if err != nil {
			t.Fatal(err)
		}
		if par.Index != linear.Index || math.Abs(par.Dist-linear.Dist) > 1e-9 {
			t.Fatalf("%s: parallel (%d,%v) != linear (%d,%v)", meas.Name(), par.Index, par.Dist, linear.Index, linear.Dist)
		}
		q3, _ := NewQuery(query, meas, WithMirrorInvariance())
		ixRes, err := ix.Search(q3)
		if err != nil {
			t.Fatal(err)
		}
		if ixRes.Index != linear.Index || math.Abs(ixRes.Dist-linear.Dist) > 1e-9 {
			t.Fatalf("%s: index (%d,%v) != linear (%d,%v)", meas.Name(), ixRes.Index, ixRes.Dist, linear.Index, linear.Dist)
		}
	}

	// 5. Mine: the planted motif must be the closest pair...
	motif, err := ClosestPair(db, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if motif.I != motifOriginal || motif.J != m-1 {
		t.Fatalf("motif = (%d,%d), want (%d,%d)", motif.I, motif.J, motifOriginal, m-1)
	}
	// ...and clustering at K=3 must recover the three families.
	dend, err := Cluster(db, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range dend.Clusters(3) {
		family := labels[group[0]]
		for _, idx := range group {
			if labels[idx] != family {
				t.Fatalf("K=3 cluster mixes families: %v", group)
			}
		}
	}

	// 6. Outlier scan: inject a shape from none of the families; Discord
	// must surface it.
	weird := shape.Superformula{M: 11, N1: 1.2, N2: 4, N3: 12, A: 1, B: 0.6}
	weirdSig, err := Signature(shape.FromRadial(weird.Radius, rasterSize), sigLen)
	if err != nil {
		t.Fatal(err)
	}
	withOutlier := append(append([]Series{}, db...), weirdSig)
	idx, nn, err := Discord(withOutlier, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if idx != len(withOutlier)-1 {
		t.Fatalf("discord = %d (nn %v), want the injected outlier %d", idx, nn, len(withOutlier)-1)
	}
}
