package wedge

import (
	"math"
	"testing"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
)

// FuzzHMerge holds H-Merge to brute force over the tree's members, which are
// the rotations (and, half the time, the mirror rotations) of a fuzzed
// series of int8 samples scaled by 1/16, n in 8..64: so members tie, repeat
// and sit on each other's envelopes. Under ED, DTW{R} and LCSS{Delta, Eps} at
// fuzzed radii, a fuzzed starting K in [1, m] and r ∈ {−1, a finite
// threshold near the answer, +Inf}, SearchInto's Dist equals the brute-force
// minimum bit for bit and is +Inf exactly when no member is below r,
// BestMember attains it, every member is attributed to one outcome, and the
// widened array the walk read equals each node's own envelope widened.
func FuzzHMerge(f *testing.F) {
	f.Add([]byte("\x10\x20\x30\x7f\x80\x90\x00\x05\x05\x05"), []byte("\x01\x02\x03"), false, uint8(0), uint8(0), uint8(3), uint16(1), uint8(0), uint8(64))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00"), []byte{}, true, uint8(1), uint8(2), uint8(0), uint16(9), uint8(1), uint8(128))
	f.Add([]byte("\x7f\x7f\x80\x80\x01\xff\x02\xfe\x03\xfd\x04\xfc"), []byte("\x10\xf0"), true, uint8(1), uint8(255), uint8(0), uint16(500), uint8(2), uint8(0))
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), []byte("zyxwvu"), false, uint8(2), uint8(3), uint8(20), uint16(7), uint8(1), uint8(100))
	f.Fuzz(func(t *testing.T, data, query []byte, mirror bool, kind, radius, eps uint8, kSeed uint16, rKind, rFrac uint8) {
		n := min(len(data), 64)
		if n < 8 {
			return
		}
		base := make([]float64, n)
		for i := range base {
			base[i] = float64(int8(data[i])) / 16
		}
		q := make([]float64, n)
		for i := range q {
			if len(query) > 0 {
				q[i] = float64(int8(query[i%len(query)])) / 16
			} else {
				q[i] = base[n-1-i]
			}
		}
		var members [][]float64
		for shift := 0; shift < n; shift++ {
			members = append(members, ts.Rotate(base, shift))
		}
		if mirror {
			for shift := 0; shift < n; shift++ {
				members = append(members, ts.Rotate(ts.Mirror(base), shift))
			}
		}
		m := len(members)
		var k Kernel
		switch kind % 3 {
		case 0:
			k = ED{}
		case 1:
			k = DTW{R: int(radius)%(n+1) - 1} // -1: unconstrained
		default:
			k = LCSS{Delta: int(radius) % n, Eps: float64(1+int(eps)) / 32}
		}
		K := 1 + int(kSeed)%m
		tree := Build(members, func(i, j int) float64 {
			return dist.Euclidean(members[i], members[j], nil)
		}, nil)

		brute := math.Inf(1)
		for _, c := range members {
			if d, _ := k.Distance(q, c, -1, nil); d < brute {
				brute = d
			}
		}
		r := -1.0
		switch rKind % 3 {
		case 1:
			r = brute * float64(rFrac) / 128 // 128: r is the minimum itself, which no member is below
		case 2:
			r = math.Inf(1)
		}
		want := brute
		if r >= 0 && !(brute < r) {
			want = math.Inf(1)
		}

		var sc Scratch
		var steps stats.Tally
		res := tree.SearchInto(q, k, K, r, &steps, &sc, nil)
		if math.Float64bits(res.Dist) != math.Float64bits(want) {
			t.Fatalf("%s n=%d m=%d K=%d r=%v: H-Merge %v, brute force %v (minimum %v)", k.Name(), n, m, K, r, res.Dist, want, brute)
		}
		if math.IsInf(want, 1) != (res.BestMember < 0) {
			t.Fatalf("%s K=%d r=%v: Dist %v with BestMember %d", k.Name(), K, r, res.Dist, res.BestMember)
		}
		if res.BestMember >= 0 {
			if d, _ := k.Distance(q, members[res.BestMember], -1, nil); math.Float64bits(d) != math.Float64bits(res.Dist) {
				t.Fatalf("%s K=%d r=%v: BestMember %d is at %v, Dist %v", k.Name(), K, r, res.BestMember, d, res.Dist)
			}
		}
		c := sc.Counts
		if c.FullDistEvals+c.EarlyAbandons+c.WedgePrunedMembers+c.WedgeLeafLBPrunes != int64(m) || c.CancelledMembers != 0 {
			t.Fatalf("%s K=%d r=%v: outcomes %+v do not cover %d members", k.Name(), K, r, c, m)
		}
		if res.Steps != steps.Steps() {
			t.Fatalf("%s: Result.Steps %d, the tally %d", k.Name(), res.Steps, steps.Steps())
		}
		var again stats.Tally
		envs := tree.Widened(k.Radius(), &again)
		if again.Steps() != 0 {
			t.Fatalf("%s: widening charged again after the search built it: %d steps", k.Name(), again.Steps())
		}
		for id, e := range envs {
			if !sameEnvelope(e, tree.Widened(0, nil)[id].ExpandDTW(k.Radius())) {
				t.Fatalf("%s radius %d: widened node %d differs from its own envelope widened", k.Name(), k.Radius(), id)
			}
		}
	})
}
