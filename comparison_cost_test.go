package lbkeogh_test

import (
	"reflect"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/obs"
)

// TestPinnedScanRecord holds one small scan's whole instrumentation record
// to literals captured at commit 23903a4, before the per-comparison path was
// rebuilt around a searcher-owned scratch: every counter, the per-level
// prune breakdown, each dynamic-K change with the comparison it was stamped
// at, and the Steps total including set-up (for DTW that includes the
// widened-wedge build charged to the first comparison). A change that moves
// any of them has changed what a comparison does, not only what it costs —
// as the windowed dynamic-K controller did: the neighbour and its distance
// are 23903a4's, everything that depends on K was re-pinned with it
// (CHANGES.md PR 21 lists old -> new).
// The DTW row moved again when the DTW leaf began abandoning on its LB_Keogh
// suffix sums: fewer steps, a K trajectory that climbs sooner, the same
// neighbour at the same distance.
func TestPinnedScanRecord(t *testing.T) {
	for _, tc := range []struct {
		measure lbkeogh.Measure
		index   int
		steps   int64
		counts  obs.Counts
		levels  []int64
		traj    []lbkeogh.KChange
	}{
		{
			measure: lbkeogh.Euclidean(), index: 330, steps: 70179,
			counts: obs.Counts{
				Comparisons: 400, Rotations: 18800, Steps: 65855,
				FullDistEvals: 16, EarlyAbandons: 285,
				WedgeNodeVisits: 444, WedgeLeafVisits: 301, WedgePrunedMembers: 18499,
				KChanges: 5,
			},
			levels: []int64{0, 53, 377, 1655, 810, 483, 9},
			traj:   []lbkeogh.KChange{{Comparison: 64, From: 2, To: 3}, {Comparison: 96, From: 3, To: 5}, {Comparison: 128, From: 5, To: 7}, {Comparison: 343, From: 7, To: 10}, {Comparison: 375, From: 10, To: 15}},
		},
		{
			measure: lbkeogh.DTW(5), index: 330, steps: 2478729,
			counts: obs.Counts{
				Comparisons: 400, Rotations: 18800, Steps: 2474405,
				FullDistEvals: 12, EarlyAbandons: 13804,
				WedgeNodeVisits: 13323, WedgeLeafVisits: 16002, WedgePrunedMembers: 2798, WedgeLeafLBPrunes: 2186,
				KChanges: 5,
			},
			levels: []int64{0, 1, 5, 89, 509, 429, 64},
			traj:   []lbkeogh.KChange{{Comparison: 64, From: 2, To: 3}, {Comparison: 96, From: 3, To: 5}, {Comparison: 128, From: 5, To: 7}, {Comparison: 160, From: 7, To: 10}, {Comparison: 384, From: 10, To: 15}},
		},
	} {
		db := lbkeogh.SyntheticProjectilePoints(19, 401, 47)
		q, err := lbkeogh.NewQuery(db[0], tc.measure)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Search(db[1:])
		if err != nil {
			t.Fatal(err)
		}
		name := tc.measure.Name()
		if res.Index != tc.index {
			t.Errorf("%s: nearest neighbour %d, want %d", name, res.Index, tc.index)
		}
		if got := q.Steps(); got != tc.steps {
			t.Errorf("%s: Steps() = %d, want %d", name, got, tc.steps)
		}
		st := q.Stats()
		if st.Counts != tc.counts {
			t.Errorf("%s: counters\n got %+v\nwant %+v", name, st.Counts, tc.counts)
		}
		if !reflect.DeepEqual(st.WedgePrunesByLevel, tc.levels) {
			t.Errorf("%s: WedgePrunesByLevel = %v, want %v", name, st.WedgePrunesByLevel, tc.levels)
		}
		if !reflect.DeepEqual(st.KTrajectory, tc.traj) {
			t.Errorf("%s: KTrajectory = %v, want %v", name, st.KTrajectory, tc.traj)
		}
	}
}

// searchTrace returns the newest retained trace with the given label.
func searchTrace(t *testing.T, tlog *lbkeogh.TraceLog, label string) lbkeogh.TraceSummary {
	t.Helper()
	recent := tlog.Recent()
	for i := len(recent) - 1; i >= 0; i-- {
		if recent[i].Label == label {
			return recent[i]
		}
	}
	t.Fatalf("no %q trace retained at sample rate 1", label)
	return lbkeogh.TraceSummary{}
}

// TestSaturatedTraceMatchesUntraced scans 8x the span cap: once the
// recorder's buffer is full a comparison takes the untraced path, so the
// answer, the steps and the whole stats record must equal an untraced
// query's, the trace keeps exactly its cap, and the drops are counted. With
// EXPLAIN on, its sampler still sees every comparison.
func TestSaturatedTraceMatchesUntraced(t *testing.T) {
	const spanCap = 512 // trace.SpanCap, the cap shapeserver runs with
	db := lbkeogh.SyntheticProjectilePoints(23, 8*spanCap+1, 32)
	query, db := db[0], db[1:]

	plain, err := lbkeogh.NewQuery(query, lbkeogh.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Search(db)
	if err != nil {
		t.Fatal(err)
	}

	tlog := lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))
	traced, err := lbkeogh.NewQuery(query, lbkeogh.Euclidean(), lbkeogh.WithTraceLog(tlog))
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.Search(db)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("traced search = %+v, untraced = %+v", got, want)
	}
	if traced.Steps() != plain.Steps() {
		t.Errorf("traced Steps() = %d, untraced = %d", traced.Steps(), plain.Steps())
	}
	ts, ps := traced.Stats(), plain.Stats()
	if !reflect.DeepEqual(ts, ps) {
		t.Errorf("traced Stats()\n got %+v\nwant %+v", ts, ps)
	}
	if !ts.Reconciles() {
		t.Errorf("traced stats do not reconcile: %+v", ts.Counts)
	}
	tr := searchTrace(t, tlog, "search")
	if tr.Spans != spanCap {
		t.Errorf("retained %d spans, want exactly the cap %d", tr.Spans, spanCap)
	}
	if tr.DroppedSpans < int64(len(db)-spanCap) {
		t.Errorf("DroppedSpans = %d, want at least one per unrecorded comparison (%d)", tr.DroppedSpans, len(db)-spanCap)
	}
	if tr.Stats.Counts != ps.Counts {
		t.Errorf("trace delta %+v, want the whole search %+v", tr.Stats.Counts, ps.Counts)
	}

	// A saturated recorder does not hide a comparison from an attached
	// sampler, which measures the first of every 4.
	sampler := lbkeogh.NewBoundSampler(4)
	traced.SetBoundSampler(sampler)
	hits, err := traced.SearchRange(db, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(db) {
		t.Fatalf("range search admitted %d of %d", len(hits), len(db))
	}
	plan := sampler.Snapshot()
	if n := int64(len(db)); plan.Seen != n || plan.Sampled != (n+3)/4 {
		t.Errorf("sampler sampled %d of %d comparisons, want %d of %d", plan.Sampled, plan.Seen, (n+3)/4, n)
	}
	if tr := searchTrace(t, tlog, "search_range"); tr.Spans != spanCap || tr.DroppedSpans == 0 {
		t.Errorf("sampled search's trace: %d spans, %d dropped; want %d and > 0", tr.Spans, tr.DroppedSpans, spanCap)
	}
}
