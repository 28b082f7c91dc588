package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"lbkeogh/internal/synth"
	"lbkeogh/internal/wedge"
)

// TestCollector holds the one keep policy to the three it replaced: nearest
// (k 1), top-K (k) and range (k 0 under a threshold).
func TestCollector(t *testing.T) {
	inf := math.Inf(1)
	found := func(d float64) Match { return Match{Dist: d, found: true} }
	offers := []float64{5, 3, 7, 3, 1, 9, 3} // series i is offered at offers[i]
	for _, tc := range []struct {
		name  string
		k     int
		limit float64
		want  []int // kept indices in Results order
	}{
		{"nearest", 1, inf, []int{4}},
		{"nearest under 1", 1, 1, nil}, // strictly below the limit
		{"top3", 3, inf, []int{4, 1, 3}},
		{"top3 under 4", 3, 4, []int{4, 1, 3}},
		{"top3 under 3", 3, 3, []int{4}},
		{"all under 6", 0, 6, []int{4, 1, 3, 6, 0}}, // equal distances in offer order
		{"all under 0", 0, 0, nil},
		{"all", 0, inf, []int{4, 1, 3, 6, 0, 2, 5}},
		{"all under NaN", 0, math.NaN(), nil}, // as the range scan's `dist < threshold` had it
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(tc.k, tc.limit)
			if got := c.Best(); got.Index != -1 || !math.IsInf(got.Dist, 1) {
				t.Fatalf("Best() on empty = %+v, want {-1 +Inf}", got)
			}
			radius := c.Radius()
			if radius != tc.limit && !math.IsNaN(tc.limit) {
				t.Fatalf("initial Radius() = %v, want the limit %v", radius, tc.limit)
			}
			for i, d := range offers {
				c.Offer(i, found(d))
				c.Offer(i, Match{Dist: 0}) // not found: never kept
				if r := c.Radius(); r > radius {
					t.Fatalf("Radius() rose from %v to %v after offer %d", radius, r, i)
				} else {
					radius = r
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
