package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"lbkeogh/internal/synth"
	"lbkeogh/internal/wedge"
)

// TestCollector holds the one keep policy to the three it replaced: nearest
// (k 1), top-K (k) and range (k 0 under a threshold) — and to its tie rule,
// (distance, row id): the same rows offered in id order, reversed and in
// three seeded shuffles keep the same Results, and Radius(i) is loosened
// exactly when row i is below the k-th kept row.
func TestCollector(t *testing.T) {
	inf := math.Inf(1)
	found := func(d float64) Match { return Match{Dist: d, found: true} }
	offers := []float64{5, 3, 7, 3, 1, 9, 3} // row i is offered at offers[i]
	type order struct {
		name string
		perm []int // rows in offer order
	}
	orders := []order{{"id order", []int{0, 1, 2, 3, 4, 5, 6}}, {"reversed", []int{6, 5, 4, 3, 2, 1, 0}}}
	for seed := uint64(1); seed <= 3; seed++ {
		orders = append(orders, order{fmt.Sprintf("shuffle %d", seed), rand.New(rand.NewPCG(seed, 0)).Perm(len(offers))})
	}
	for _, tc := range []struct {
		name  string
		k     int
		limit float64
		want  []int // kept rows in Results order
	}{
		{"nearest", 1, inf, []int{4}},
		{"nearest under 1", 1, 1, nil}, // strictly below the limit
		{"nearest under 4", 1, 4, []int{4}},
		{"top3", 3, inf, []int{4, 1, 3}}, // the tie at 3 keeps its two lowest rows
		{"top3 under 4", 3, 4, []int{4, 1, 3}},
		{"top3 under 3", 3, 3, []int{4}},
		{"all under 4", 0, 4, []int{4, 1, 3, 6}},
		{"all under 6", 0, 6, []int{4, 1, 3, 6, 0}},
		{"all under 0", 0, 0, nil},
		{"all", 0, inf, []int{4, 1, 3, 6, 0, 2, 5}},
		{"all under NaN", 0, math.NaN(), nil}, // as the range scan's `dist < threshold` had it
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, o := range orders {
				t.Run(o.name, func(t *testing.T) {
					c := NewCollector(tc.k, tc.limit)
					if got := c.Best(); got.Index != -1 || !math.IsInf(got.Dist, 1) {
						t.Fatalf("Best() on empty = %+v, want {-1 +Inf}", got)
					}
					radii := make([]float64, len(offers))
					for i := range radii {
						radii[i] = c.Radius(i)
						if radii[i] != tc.limit && !math.IsNaN(tc.limit) {
							t.Fatalf("initial Radius(%d) = %v, want the limit %v", i, radii[i], tc.limit)
						}
					}
					for _, i := range o.perm {
						c.Offer(i, found(offers[i]))
						c.Offer(i, Match{Dist: 0}) // not found: never kept
						kept := c.Results()
						full := tc.k > 0 && len(kept) == tc.k
						for j := range offers {
							r := c.Radius(j)
							if r > radii[j] {
								t.Fatalf("Radius(%d) rose from %v to %v after offering row %d", j, radii[j], r, i)
							}
							radii[j] = r
							loosened := r > c.Radius(len(offers)) // no row is above every kept one
							if want := full && j < kept[tc.k-1].Index; loosened != want {
								t.Fatalf("after offering row %d: Radius(%d) = %v loosened %v, want %v (kept %+v)", i, j, r, loosened, want, kept)
							}
						}
					}
					var got []int
					for _, r := range c.Results() {
						if r.Dist != offers[r.Index] {
							t.Fatalf("result %+v does not carry its offered distance %v", r, offers[r.Index])
						}
						got = append(got, r.Index)
					}
					if !reflect.DeepEqual(got, tc.want) {
						t.Fatalf("kept %v, want %v", got, tc.want)
					}
					if len(tc.want) > 0 && c.Best().Index != tc.want[0] {
						t.Fatalf("Best() = %+v, want index %d", c.Best(), tc.want[0])
					}
				})
			}
		})
	}
}

// FuzzCollectorOrder offers fuzzed rows — row i at distance dists[i] mod 4,
// so ties dominate — in a fuzzed permutation to a collector of fuzzed k in
// [0, 4] and limit (0–4, or +Inf): Results must equal the id-order run's bit
// for bit and be the k smallest rows by (distance, row id) strictly below the
// limit.
func FuzzCollectorOrder(f *testing.F) {
	f.Add([]byte{5, 3, 7, 3, 1, 9, 3}, uint8(3), uint8(4), uint64(1))
	f.Add([]byte{2, 2, 2, 2, 2, 2}, uint8(1), uint8(5), uint64(2))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 3}, uint8(0), uint8(2), uint64(3))
	f.Add([]byte{}, uint8(2), uint8(5), uint64(4))
	f.Fuzz(func(t *testing.T, dists []byte, k, limit uint8, seed uint64) {
		kk, lim := int(k%5), math.Inf(1)
		if limit%6 < 5 {
			lim = float64(limit % 6)
		}
		run := func(perm []int) []ScanResult {
			c := NewCollector(kk, lim)
			for _, i := range perm {
				c.Offer(i, Match{Dist: float64(dists[i] % 4), Member: Member{Shift: i}, found: true})
			}
			return c.Results()
		}
		ids := make([]int, len(dists))
		var want []ScanResult
		for i := range ids {
			ids[i] = i
			if d := float64(dists[i] % 4); d < lim {
				want = append(want, ScanResult{Index: i, Dist: d, Member: Member{Shift: i}})
			}
		}
		slices.SortStableFunc(want, func(a, b ScanResult) int { return cmp.Compare(a.Dist, b.Dist) })
		if kk > 0 && len(want) > kk {
			want = want[:kk]
		}
		inIDOrder := run(ids)
		if len(inIDOrder) != len(want) || (len(want) > 0 && !reflect.DeepEqual(inIDOrder, want)) {
			t.Fatalf("k %d limit %v, id order: kept %+v, want %+v", kk, lim, inIDOrder, want)
		}
		perm := rand.New(rand.NewPCG(seed, uint64(len(dists)))).Perm(len(dists))
		if got := run(perm); !reflect.DeepEqual(got, inIDOrder) {
			t.Fatalf("k %d limit %v, order %v: kept %+v, the id-order run %+v", kk, lim, perm, got, inIDOrder)
		}
	})
}

// TestCollectorScanInto pins ScanInto, per keep policy, to what the three
// scan loops it replaced — nearest, top-K and range, each with its own
// hand-written keep policy — returned, answers and steps (literals captured
// from them at 2623cf0, before they were deleted; the steps were re-pinned
// when the dynamic-K controller became the windowed one — 14840, 29473 and
// 8650 under the paper's — and the answers, to the bit, were not).
func TestCollectorScanInto(t *testing.T) {
	db := synth.ProjectilePoints(7, 201, 47)
	rs := NewRotationSet(db[0], DefaultOptions(), nil)
	hits := []ScanResult{
		{Index: 199, Dist: 0.03796484258366709, Member: Member{Shift: 19}},
		{Index: 159, Dist: 0.06977694807265017, Member: Member{Shift: 22}},
		{Index: 39, Dist: 0.12373156337095335, Member: Member{Shift: 29}},
		{Index: 79, Dist: 0.2534970823776401, Member: Member{Shift: 24}},
	}
	for _, tc := range []struct {
		name  string
		k     int
		limit float64
		want  []ScanResult
		steps int64
	}{
		{"nearest", 1, math.Inf(1), hits[:1], 12851},
		{"top-3", 3, math.Inf(1), hits[:3], 24966},
		{"range 0.3", 0, 0.3, hits, 6815},
	} {
		c := NewCollector(tc.k, tc.limit)
		s := NewSearcher(rs, wedge.ED{}, Wedge, SearcherConfig{})
		if err := s.ScanInto(context.Background(), db[1:], c); err != nil {
			t.Fatal(err)
		}
		if got := c.Results(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		if s.Steps() != tc.steps {
			t.Errorf("%s: %d steps, want %d", tc.name, s.Steps(), tc.steps)
		}
	}
}
