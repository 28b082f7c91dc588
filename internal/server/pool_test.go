package server

import (
	"testing"

	"lbkeogh"
)

func testSpec(series []float64) QuerySpec {
	return QuerySpec{Measure: "euclidean", R: 5, Eps: 0.25, Series: series}
}

func buildFor(spec QuerySpec) func() (*lbkeogh.Query, error) {
	return func() (*lbkeogh.Query, error) { return lbkeogh.NewQuery(spec.Series, lbkeogh.Euclidean()) }
}

func TestPoolHitMissEvict(t *testing.T) {
	db := lbkeogh.SyntheticProjectilePoints(1, 3, 32)
	p := NewPool(1)
	specA, specB := testSpec(db[0]), testSpec(db[1])

	sa, hit, err := p.Checkout(specA, buildFor(specA))
	if err != nil || hit {
		t.Fatalf("first checkout: hit=%v err=%v", hit, err)
	}
	p.Checkin(sa)
	sa2, hit, err := p.Checkout(specA, buildFor(specA))
	if err != nil || !hit {
		t.Fatalf("second checkout: hit=%v err=%v", hit, err)
	}
	if sa2 != sa {
		t.Fatal("hit returned a different session")
	}
	p.Checkin(sa2)

	// A different spec misses; checking it in evicts the older idle session.
	sb, hit, err := p.Checkout(specB, buildFor(specB))
	if err != nil || hit {
		t.Fatalf("specB checkout: hit=%v err=%v", hit, err)
	}
	p.Checkin(sb)
	st := p.Stats()
	if st.Idle != 1 || st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, hit, _ := p.Checkout(specA, buildFor(specA)); hit {
		t.Fatal("specA should have been evicted")
	}
}

func TestQuerySpecKeyDistinguishesParams(t *testing.T) {
	base := testSpec([]float64{1, 2, 3, 4})
	zero, forty := 0.0, 40.0
	variants := []QuerySpec{base, base, base, base, base, base, base, base}
	variants[1].Measure = "dtw"
	variants[2].R = 6
	variants[3].Mirror = true
	variants[4].MaxDeg = &zero // a limit of 0 degrees is not "unlimited"
	variants[5].MaxDeg = &forty
	variants[6].Series = []float64{1, 2, 3, 5}
	variants[7].Eps = 0
	keys := map[uint64]bool{}
	for _, v := range variants {
		keys[v.Key()] = true
	}
	if len(keys) != len(variants) {
		t.Fatalf("expected %d distinct keys, got %d", len(variants), len(keys))
	}
	if base.Key() != testSpec([]float64{1, 2, 3, 4}).Key() {
		t.Fatal("equal specs must hash equal")
	}
}
