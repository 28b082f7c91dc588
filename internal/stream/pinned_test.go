package stream

import (
	"math"
	"reflect"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/wedge"
)

// pinnedMatch is a StreamMatch written as an unkeyed literal.
type pinnedMatch struct {
	End, Pattern int
	Dist         float64
}

// TestPinnedMonitorStats pins everything a monitor reports for one seeded
// stream — 4 096 values over 16 patterns of 32 samples, threshold 1 — under ED
// and DTW(3): the step total, every counter, the per-level prunes and the
// matches in the order Push returned them. The literals were captured at
// 2c81433, when Push fed its record one atomic per event; a walk that tallies
// locally and flushes once per window must read the same.
func TestPinnedMonitorStats(t *testing.T) {
	patterns := makePatterns(11, 16, 32)
	stream := testStream(12, 4096, patterns)
	for _, c := range []struct {
		name    string
		m       lbkeogh.Measure
		kern    wedge.Kernel // the kernel m wraps, for the brute-force reference
		steps   int64
		counts  lbkeogh.Counts
		levels  []int64
		matches []pinnedMatch
	}{
		{
			name: "ed", m: lbkeogh.Euclidean(), kern: wedge.ED{}, steps: 131643,
			counts: lbkeogh.Counts{Comparisons: 4065, Rotations: 65040, Steps: 131643, FullDistEvals: 16, EarlyAbandons: 114,
				WedgeNodeVisits: 1789, WedgeLeafVisits: 130, WedgePrunedMembers: 64910},
			levels: []int64{2473, 3087, 104, 37, 12, 8, 3},
			matches: []pinnedMatch{
				{258, 0, 0.2517506385034555}, {486, 1, 0.3875590763996904}, {713, 2, 0.3625962471101375},
				{941, 3, 0.29020057487794176}, {1168, 4, 0.3061319491454799}, {1396, 5, 0.29275646900151214},
				{1623, 6, 0.3001253683362519}, {1851, 7, 0.3555870883066802}, {2079, 8, 0.26009198632589414},
				{2306, 9, 0.25960241906444687}, {2534, 10, 0.3412578153200974}, {2761, 11, 0.25748491228353465},
				{2989, 12, 0.26915906087491764}, {3216, 13, 0.32769932233335874}, {3444, 14, 0.27153139750304767},
				{3671, 15, 0.25547974157164377},
			},
		},
		{
			name: "dtw3", m: lbkeogh.DTW(3), kern: wedge.DTW{R: 3}, steps: 473481,
			counts: lbkeogh.Counts{Comparisons: 4065, Rotations: 65040, Steps: 473481, FullDistEvals: 29, EarlyAbandons: 3308,
				WedgeNodeVisits: 8420, WedgeLeafVisits: 3337, WedgePrunedMembers: 61703},
			levels: []int64{574, 4497, 1587, 1980, 364, 119, 27},
			matches: []pinnedMatch{
				{258, 0, 0.24834389966820775}, {259, 0, 0.5219644748041731}, {486, 1, 0.3680793594702037},
				{713, 2, 0.3326065255395643}, {714, 2, 0.9030689585980478}, {715, 2, 0.8954253777003698},
				{941, 3, 0.29020057487794176}, {1168, 4, 0.3061319491454799}, {1169, 4, 0.9596338832711876},
				{1396, 5, 0.29275646900151214}, {1623, 6, 0.3001253683362519}, {1851, 7, 0.3535780942523272},
				{1852, 7, 0.9269001342886964}, {2079, 8, 0.26009198632589414}, {2306, 9, 0.25960241906444687},
				{2534, 10, 0.3412578153200974}, {2761, 11, 0.25748491228353465}, {2762, 11, 0.7588074051385038},
				{2763, 11, 0.8024830056320323}, {2987, 12, 0.7275339569773467}, {2988, 12, 0.6812790074012012},
				{2989, 12, 0.2604893699022533}, {2990, 12, 0.7802810973494081}, {2991, 12, 0.6587915077560308},
				{2992, 12, 0.824345888907748}, {3216, 13, 0.32769932233335874}, {3443, 14, 0.48960805009000036},
				{3444, 14, 0.27153139750304767}, {3671, 15, 0.25547974157164377},
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := lbkeogh.NewMonitor(patterns, c.m, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := m.PushAll(stream)
			snap := m.Stats()
			if m.Steps() != c.steps || snap.StepsHistogramSum != c.steps {
				t.Errorf("Steps() = %d, histogram sum %d, pinned %d", m.Steps(), snap.StepsHistogramSum, c.steps)
			}
			if snap.Counts != c.counts || !snap.Counts.Reconciles() {
				t.Errorf("counts %+v (reconciles %v), pinned %+v", snap.Counts, snap.Counts.Reconciles(), c.counts)
			}
			if !reflect.DeepEqual(snap.WedgePrunesByLevel, c.levels) {
				t.Errorf("prunes by level %v, pinned %v", snap.WedgePrunesByLevel, c.levels)
			}
			if len(got) != len(c.matches) {
				t.Fatalf("%d matches, pinned %d: %+v", len(got), len(c.matches), got)
			}
			for i, g := range got {
				if w := c.matches[i]; g.End != w.End || g.Pattern != w.Pattern || math.Abs(g.Dist-w.Dist) > 1e-12 {
					t.Errorf("match %d = %+v, pinned %+v", i, g, w)
				}
			}
			if want := bruteFilter(stream, patterns, c.kern, 1); !matchesEqual(got, want) {
				t.Errorf("monitor %d matches != brute-force sliding window's %d", len(got), len(want))
			}
		})
	}
}
