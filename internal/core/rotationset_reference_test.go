package core

// A query build used to copy every rotation (ts.Rotate per row), index the
// circulant profiles modulo n per sample and fill the clustering's matrix
// through a closure per pair. That spelling lives on here as the reference:
// the views, the modulo-free profiles and the row-copied matrix must
// reproduce it bit for bit, because the dendrogram — and so every envelope
// and every num_steps — is decided by the last bit of these distances.

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"lbkeogh/internal/cluster"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// refRotationSet is the build as it was: copied rows, modulo profiles.
type refRotationSet struct {
	n           int
	members     [][]float64
	ids         []Member
	same, cross []float64
}

func newRefRotationSet(base []float64, opts Options) *refRotationSet {
	n := len(base)
	var shifts []int
	if opts.MaxShift < 0 || opts.MaxShift >= n/2 {
		for s := 0; s < n; s++ {
			shifts = append(shifts, s)
		}
	} else {
		for s := -opts.MaxShift; s <= opts.MaxShift; s++ {
			shifts = append(shifts, ((s%n)+n)%n)
		}
	}
	rs := &refRotationSet{n: n}
	for _, s := range shifts {
		rs.members = append(rs.members, ts.Rotate(base, s))
		rs.ids = append(rs.ids, Member{Shift: s})
	}
	if opts.Mirror {
		mirrored := ts.Mirror(base)
		for _, s := range shifts {
			rs.members = append(rs.members, ts.Rotate(mirrored, s))
			rs.ids = append(rs.ids, Member{Shift: s, Mirrored: true})
		}
	}
	rs.same = make([]float64, n)
	for l := 1; l < n; l++ {
		var acc float64
		for t := 0; t < n; t++ {
			d := base[t] - base[(t+l)%n]
			acc += d * d
		}
		rs.same[l] = math.Sqrt(acc)
	}
	if opts.Mirror {
		rs.cross = make([]float64, n)
		for s := 0; s < n; s++ {
			var acc float64
			for t := 0; t < n; t++ {
				d := base[t] - base[((s-t)%n+n)%n]
				acc += d * d
			}
			rs.cross[s] = math.Sqrt(acc)
		}
	}
	return rs
}

// memberDistance is the closure wedge.Build was handed per pair.
func (rs *refRotationSet) memberDistance(i, j int) float64 {
	a, b := rs.ids[i], rs.ids[j]
	n := rs.n
	if a.Mirrored == b.Mirrored {
		return rs.same[((a.Shift-b.Shift)%n+n)%n]
	}
	if a.Mirrored {
		a, b = b, a
	}
	return rs.cross[((a.Shift-b.Shift+n-1)%n+n)%n]
}

func rotationOptions() []Options {
	return []Options{
		{MaxShift: -1}, {Mirror: true, MaxShift: -1},
		{MaxShift: 5}, {Mirror: true, MaxShift: 5},
		{MaxShift: 0}, {Mirror: true, MaxShift: 0},
		{Mirror: true, MaxShift: 1}, // n = 6: 2·3 rows = n, yet mirrored and limited
	}
}

// profilesOf is the build's own circulantProfiles for base.
func profilesOf(base []float64, mirror bool) (same, cross []float64) {
	halves := [][]float64{doubled(base)}
	if mirror {
		halves = append(halves, doubled(ts.Mirror(base)))
	}
	return circulantProfiles(halves)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Every row is the advertised rotation, element for element, and a view that
// an append cannot grow into its neighbour.
func TestMembersAreRotationViews(t *testing.T) {
	for _, n := range []int{2, 3, 6, 47, 251} {
		base := ts.RandomWalk(ts.NewRand(int64(n)), n)
		for _, opts := range rotationOptions() {
			rs := NewRotationSet(base, opts, nil)
			ref := newRefRotationSet(base, opts)
			if rs.Members() != len(ref.members) {
				t.Fatalf("n=%d %+v: %d members, reference %d", n, opts, rs.Members(), len(ref.members))
			}
			if !sameBits(rs.Base(), base) {
				t.Fatalf("n=%d %+v: Base is not the query", n, opts)
			}
			for i := 0; i < rs.Members(); i++ {
				if rs.MemberID(i) != ref.ids[i] {
					t.Fatalf("n=%d %+v: row %d is %+v, reference %+v", n, opts, i, rs.MemberID(i), ref.ids[i])
				}
				row := rs.Member(i)
				if !sameBits(row, ref.members[i]) {
					t.Fatalf("n=%d %+v: row %d is not ts.Rotate(%+v)", n, opts, i, ref.ids[i])
				}
				if cap(row) != len(row) {
					t.Fatalf("n=%d %+v: row %d has cap %d > len %d", n, opts, i, cap(row), len(row))
				}
			}
		}
	}
}

// The modulo-free profiles and the row-copied (or direct-loop) matrix equal
// the modulo profiles and the closure-filled matrix bit for bit, and the tree
// raised over them is the reference tree: same nodes, same envelopes, same
// set-up charge.
func TestCirculantFillMatchesClosureFill(t *testing.T) {
	for _, n := range []int{2, 3, 6, 47, 251} {
		base := ts.ZNorm(ts.RandomWalk(ts.NewRand(int64(100+n)), n))
		for _, opts := range rotationOptions() {
			ref := newRefRotationSet(base, opts)
			same, cross := profilesOf(base, opts.Mirror)
			if !sameBits(same, ref.same) || !sameBits(cross, ref.cross) {
				t.Fatalf("n=%d %+v: profiles differ from the modulo loops", n, opts)
			}
			m := len(ref.ids)
			want := make([]float64, m*m)
			cluster.FillMatrix(want, m, ref.memberDistance)
			got := make([]float64, m*m)
			for i := range got {
				got[i] = math.NaN() // the pool hands out garbage, not zeros
			}
			fillCirculant(got, ref.ids, same, cross)
			for i := 0; i < m; i++ {
				got[i*m+i] = 0 // the diagonal is the clustering's to set
			}
			if !sameBits(got, want) {
				t.Fatalf("n=%d %+v: circulant fill differs from the closure fill", n, opts)
			}

			var refSteps stats.Tally
			refTree := wedge.Build(ref.members, ref.memberDistance, &refSteps)
			rs := NewRotationSet(base, opts, nil)
			if !reflect.DeepEqual(rs.Tree().Dendrogram(), refTree.Dendrogram()) {
				t.Fatalf("n=%d %+v: dendrogram differs from the reference build", n, opts)
			}
			for id := range refTree.Dendrogram().Nodes {
				g, w := rs.Tree().Widened(0, nil)[id], refTree.Widened(0, nil)[id]
				if !sameBits(g.U, w.U) || !sameBits(g.L, w.L) {
					t.Fatalf("n=%d %+v: envelope %d differs from the reference build", n, opts, id)
				}
			}
			profile := int64(n) * int64(n-1)
			if opts.Mirror {
				profile += int64(n) * int64(n)
			}
			if want := profile + refSteps.Steps(); rs.SetupSteps != want {
				t.Fatalf("n=%d %+v: SetupSteps %d, reference %d", n, opts, rs.SetupSteps, want)
			}
		}
	}
}

// The rows alias one buffer: a writer anywhere in the search path would
// corrupt every rotation at once. No strategy under any kernel writes.
func TestScanLeavesRotationBuffersUntouched(t *testing.T) {
	rng := ts.NewRand(77)
	n := 48
	q := ts.ZNorm(ts.RandomWalk(rng, n))
	db := make([][]float64, 40)
	for i := range db {
		db[i] = ts.ZNorm(ts.RandomWalk(rng, n))
	}
	kernels := []wedge.Kernel{wedge.ED{}, wedge.DTW{R: 5}, wedge.LCSS{Delta: 5, Eps: 0.5}}
	for _, opts := range []Options{{MaxShift: -1}, {Mirror: true, MaxShift: -1}} {
		ref := newRefRotationSet(q, opts)
		for _, kern := range kernels {
			for _, strat := range allStrategies() {
				if _, ed := kern.(wedge.ED); strat == FFTFilter && !ed {
					continue // the magnitude bound is Euclidean-only
				}
				rs := NewRotationSet(q, opts, nil)
				NewSearcher(rs, kern, strat, SearcherConfig{}).Scan(db, nil)
				for i := range ref.members {
					if !sameBits(rs.Member(i), ref.members[i]) {
						t.Fatalf("%+v %T %v: row %d changed under the scan", opts, kern, strat, i)
					}
				}
			}
		}
	}
}

// wedge.BuildFilled's matrix pool is shared by every concurrent build, of
// whatever size: each tree must still be the one a lone build raises.
func TestNewRotationSetConcurrent(t *testing.T) {
	sizes := []int{16, 33, 64, 97, 128, 40, 251, 7}
	bases := make([][]float64, len(sizes))
	want := make([]*cluster.Dendrogram, len(sizes))
	for i, n := range sizes {
		bases[i] = ts.ZNorm(ts.RandomWalk(ts.NewRand(int64(i+1)), n))
		want[i] = NewRotationSet(bases[i], DefaultOptions(), nil).Tree().Dendrogram()
	}
	var wg sync.WaitGroup
	for g := range sizes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 50; b++ {
				i := (g + b) % len(sizes)
				got := NewRotationSet(bases[i], DefaultOptions(), nil).Tree().Dendrogram()
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d build %d (n=%d): tree differs from the serial build", g, b, sizes[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A plain n = 251 build allocated 787 objects and 2.13 MB when every row was
// a copy and the matrix was fresh each time.
func TestRotationSetBuildAllocations(t *testing.T) {
	base := ts.ZNorm(ts.RandomWalk(ts.NewRand(5), 251))
	NewRotationSet(base, DefaultOptions(), nil) // the pooled matrix exists from here on
	if allocs := testing.AllocsPerRun(20, func() { NewRotationSet(base, DefaultOptions(), nil) }); allocs > 540 {
		t.Errorf("a plain n=251 build allocates %.0f objects, want <= 540", allocs)
	}
	// The cheapest of several builds, not their mean: the guard is on what a
	// build allocates when it finds the pooled matrix, and a pool may miss —
	// after a GC, after the goroutine moves to another P, and at random
	// under -race.
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		NewRotationSet(base, DefaultOptions(), nil)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if kb := least / 1024; kb > 1300 {
		t.Errorf("a plain n=251 build allocates %d kB, want <= 1300", kb)
	}
}
