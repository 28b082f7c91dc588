package server

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

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

	// A different spec misses. Checking it in puts the pool over capacity,
	// and the victim is specB itself: specA has repeated, specB has not.
	sb, hit, err := p.Checkout(specB, buildFor(specB))
	if err != nil || hit {
		t.Fatalf("specB checkout: hit=%v err=%v", hit, err)
	}
	p.Checkin(sb)
	st := p.Stats()
	if st.Idle != 1 || st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, hit, _ := p.Checkout(specB, buildFor(specB)); hit {
		t.Fatal("specB should have been evicted")
	}
	if s, hit, _ := p.Checkout(specA, buildFor(specA)); !hit || s != sa {
		t.Fatal("specA should have been kept")
	}
}

// stubSpec is a distinct spec per id; stubBuild stands in for NewQuery, since
// the eviction policy never looks at the query itself.
func stubSpec(id int) QuerySpec { return testSpec([]float64{float64(id)}) }

func stubBuild() (*lbkeogh.Query, error) { return nil, nil }

// use checks a session for the spec out and straight back in, and reports
// whether it was a hit.
func use(p *Pool, id int) bool {
	s, hit, _ := p.Checkout(stubSpec(id), stubBuild)
	p.Checkin(s)
	return hit
}

// However many one-off specs pass through between two uses of a repeated
// spec, they evict one another and never the repeated session.
func TestPoolOneOffsNeverEvictRepeated(t *testing.T) {
	p := NewPool(4)
	for _, hot := range []int{0, 1} {
		use(p, hot)
		if !use(p, hot) {
			t.Fatalf("spec %d: second use missed", hot)
		}
	}
	for id := 100; id < 400; id++ {
		if use(p, id) {
			t.Fatalf("one-off spec %d hit", id)
		}
		if id%50 == 0 && !(use(p, 0) && use(p, 1)) {
			t.Fatalf("after one-off %d: a repeated spec was evicted", id)
		}
	}
	if st := p.Stats(); st.Idle != 4 {
		t.Fatalf("stats = %+v; want a full pool", st)
	}
}

// A spec evicted as a one-off and then asked for again is repeated from its
// second build on: it is kept, and the least recently used repeated session
// goes instead.
func TestPoolGhostKeepsSecondBuild(t *testing.T) {
	p := NewPool(2)
	for _, hot := range []int{1, 2} {
		use(p, hot)
		use(p, hot)
	}
	// A pool full of repeated sessions: spec 3's first session is the only
	// one-off, so it is the victim of its own check-in.
	if use(p, 3) || use(p, 3) {
		t.Fatal("spec 3 hit before its second build")
	}
	if !use(p, 3) {
		t.Fatal("spec 3 was built twice but not kept")
	}
	if !use(p, 2) {
		t.Fatal("spec 2 was evicted; spec 1 is the least recently used")
	}
	if use(p, 1) {
		t.Fatal("spec 1 should have made room for spec 3")
	}
}

// After a phase change a new hot set takes the pool over from the old one,
// though every old session has repeated and one-off specs arrive between
// the new hot specs' uses. Without the ghost list each new hot spec would
// arrive as a one-off and be evicted at its every check-in.
func TestPoolNewHotSetTakesOver(t *testing.T) {
	const size = 8
	p := NewPool(size)
	oneOff := 1000
	// round uses hot specs base..base+n-1, each followed by a one-off, and
	// counts the hot hits.
	round := func(base, n int) (hits int) {
		for h := 0; h < n; h++ {
			if use(p, base+h) {
				hits++
			}
			use(p, oneOff)
			oneOff++
		}
		return hits
	}
	for r := 0; r < 3; r++ {
		round(0, size)
	}
	if hits := round(0, size); hits != size {
		t.Fatalf("old hot set: %d of %d hits", hits, size)
	}
	// The new hot set is half the pool, so one round of it and its one-offs
	// evicts exactly as many keys as the ghost list holds.
	for r := 0; r < 2; r++ {
		round(100, size/2)
	}
	if hits := round(100, size/2); hits != size/2 {
		t.Fatalf("new hot set: %d of %d hits after two rounds", hits, size/2)
	}
}

// An evicted session is garbage: the pool keeps no pointer to it, not even
// in the spare capacity of the slice that indexes its key. Such a pointer
// once kept up to one evicted session per key alive, and the GC's heap goal
// doubled what they held.
func TestPoolReleasesEvictedSessions(t *testing.T) {
	p := NewPool(2)
	released := make(chan struct{})
	func() {
		// Spec 1 gets a repeated session a and, checked out beside it, a
		// second session b that has not repeated: the key's index is
		// [a, b].
		a, _, _ := p.Checkout(stubSpec(1), stubBuild)
		p.Checkin(a)
		a, _, _ = p.Checkout(stubSpec(1), stubBuild)
		b, hit, _ := p.Checkout(stubSpec(1), stubBuild)
		if hit {
			t.Fatal("the second session of spec 1 hit")
		}
		runtime.SetFinalizer(b, func(*Session) { close(released) })
		p.Checkin(a)
		p.Checkin(b)
	}()
	use(p, 2) // over capacity: b is the victim, the last entry of the index
	if st := p.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v; want one eviction", st)
	}
	defer runtime.KeepAlive(p)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatal("the evicted session is still reachable")
}

// serve-mix's traffic replayed against the pool: passes of 400 requests,
// half over 16 hot specs and half over 240 fresh ones taken in turn, in a
// seeded order, two requests in flight at a time. A fresh spec comes back
// only every ≈ 480 requests, so the ceiling is 0.5; an LRU pool of 32
// sessions read ≈ 0.34 here, as one-offs flushed the hot sessions.
func TestPoolServeMixReplay(t *testing.T) {
	const hot, queries, passLen, passes = 16, 256, 400, 6
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPool(32)
		fresh := hot
		var pass []int
		for j := 0; j < passLen; j++ {
			if j/4%2 == 0 {
				pass = append(pass, j/8%hot)
			} else {
				pass = append(pass, fresh)
				if fresh++; fresh == queries {
					fresh = hot
				}
			}
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		var hits, total int
		for r := 0; r < passes; r++ {
			for j := 0; j+1 < len(pass); j += 2 {
				a, hitA, _ := p.Checkout(stubSpec(pass[j]), stubBuild)
				b, hitB, _ := p.Checkout(stubSpec(pass[j+1]), stubBuild)
				p.Checkin(a)
				p.Checkin(b)
				for _, h := range []bool{hitA, hitB} {
					if h {
						hits++
					}
				}
				total += 2
			}
		}
		frac := float64(hits) / float64(total)
		t.Logf("seed %d: hit fraction %.3f", seed, frac)
		if frac < 0.45 {
			t.Errorf("seed %d: hit fraction %.3f; want >= 0.45", seed, frac)
		}
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
