package lbkeogh

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"lbkeogh/internal/obs/explain"
	"lbkeogh/internal/obs/expofmt"
)

// assertPlanMatchesStats checks the satellite contract: every waterfall
// stage count in the plan reconciles term-by-term with the search's own
// SearchStats record.
func assertPlanMatchesStats(t *testing.T, plan *ExplainPlan, st SearchStats) {
	t.Helper()
	if plan == nil {
		t.Fatal("EXPLAIN mode on but plan is nil")
	}
	if !plan.Waterfall.Reconciles() {
		t.Fatalf("plan waterfall does not reconcile: %+v", plan.Waterfall)
	}
	if plan.Waterfall.Comparisons != st.Comparisons {
		t.Errorf("plan comparisons %d != stats %d", plan.Waterfall.Comparisons, st.Comparisons)
	}
	if plan.Waterfall.Rotations != st.Rotations {
		t.Errorf("plan rotations %d != stats %d", plan.Waterfall.Rotations, st.Rotations)
	}
	if got := plan.Waterfall.Stage(explain.StageFFT); got != st.FFTRejectedMembers {
		t.Errorf("fft stage %d != FFTRejectedMembers %d", got, st.FFTRejectedMembers)
	}
	if got := plan.Waterfall.Stage(explain.StageEnvelope); got != st.WedgePrunedMembers+st.WedgeLeafLBPrunes {
		t.Errorf("envelope stage %d != wedge prunes %d",
			got, st.WedgePrunedMembers+st.WedgeLeafLBPrunes)
	}
	if got := plan.Waterfall.Stage(explain.StageKernel); got != st.EarlyAbandons {
		t.Errorf("kernel stage %d != EarlyAbandons %d", got, st.EarlyAbandons)
	}
	if plan.Waterfall.Survivors != st.FullDistEvals {
		t.Errorf("survivors %d != FullDistEvals %d", plan.Waterfall.Survivors, st.FullDistEvals)
	}
	if plan.Waterfall.Cancelled != st.CancelledMembers {
		t.Errorf("cancelled %d != CancelledMembers %d", plan.Waterfall.Cancelled, st.CancelledMembers)
	}
}

// TestExplainPlanReconcilesAcrossStrategies runs every search flavour in
// EXPLAIN mode under every strategy: a fresh query's SearchStats after one
// operation IS that operation's delta, so the plan waterfall must match it
// exactly.
func TestExplainPlanReconcilesAcrossStrategies(t *testing.T) {
	db := demoDB(21, 12, 64)
	for _, s := range allStrategies() {
		t.Run(s.internal().String(), func(t *testing.T) {
			q, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			q.SetExplain(true)
			if q.Explain() != nil {
				t.Fatal("plan before any search must be nil")
			}

			if _, err := q.Search(db); err != nil {
				t.Fatal(err)
			}
			plan := q.Explain()
			assertPlanMatchesStats(t, plan, q.Stats())
			if plan.Strategy != s.internal().String() {
				t.Errorf("plan strategy %q, want %q", plan.Strategy, s.internal().String())
			}
			if plan.Measure != "euclidean" {
				t.Errorf("plan measure %q, want euclidean", plan.Measure)
			}
			// The first of every 4 comparisons is measured.
			if want := (plan.Waterfall.Comparisons + 3) / 4; plan.SampledComparisons != want || len(plan.Tightness) == 0 {
				t.Errorf("%d comparisons sampled %d times (want %d), tightness %+v",
					plan.Waterfall.Comparisons, plan.SampledComparisons, want, plan.Tightness)
			}

			// Top-K and range flavours must reconcile the same way.
			q.ResetStats()
			top, err := q.SearchTopK(db, 4)
			if err != nil {
				t.Fatal(err)
			}
			assertPlanMatchesStats(t, q.Explain(), q.Stats())

			// The query is db[0], so r.Dist is 0: the range reaches out to the
			// fourth neighbour instead (a range threshold must be positive).
			q.ResetStats()
			if _, err := q.SearchRange(db, top[3].Dist); err != nil {
				t.Fatal(err)
			}
			assertPlanMatchesStats(t, q.Explain(), q.Stats())
		})
	}
}

// TestExplainPlanCancelledSearch cancels mid-scan: the plan's waterfall must
// carry the CancelledMembers bucket and still reconcile.
func TestExplainPlanCancelledSearch(t *testing.T) {
	const n = 512
	db := demoDB(22, 1, n)
	for _, s := range allStrategies() {
		opts := []QueryOption{WithStrategy(s)}
		if s == WedgeSearch {
			opts = append(opts, WithFixedWedgeCount(n))
		}
		q, err := NewQuery(db[0], Euclidean(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		q.SetExplain(true)
		if _, err := q.SearchContext(newFlipCtx(4), db); err != context.Canceled {
			t.Fatalf("strategy %v: want context.Canceled, got %v", s, err)
		}
		plan := q.Explain()
		assertPlanMatchesStats(t, plan, q.Stats())
		if plan.Waterfall.Cancelled == 0 {
			t.Errorf("strategy %v: cancelled mid-scan but plan.Cancelled = 0", s)
		}
	}
}

// TestExplainParallelWaterfall: parallel scans bypass the per-comparison
// hooks, but the plan's waterfall still reconciles from the query-level
// counter delta (with no tightness).
func TestExplainParallelWaterfall(t *testing.T) {
	db := demoDB(23, 16, 64)
	q, err := NewQuery(db[0], Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	q.SetExplain(true)
	if _, err := q.SearchParallel(db, 4); err != nil {
		t.Fatal(err)
	}
	assertPlanMatchesStats(t, q.Explain(), q.Stats())
}

func TestExplainOffReturnsNil(t *testing.T) {
	db := demoDB(24, 4, 48)
	q, err := NewQuery(db[0], Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if q.Explain() != nil {
		t.Fatal("plan must be nil with EXPLAIN off")
	}
	q.SetExplain(true)
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if q.Explain() == nil {
		t.Fatal("plan must be recorded with EXPLAIN on")
	}
	q.SetExplain(false)
	if q.Explain() != nil {
		t.Fatal("turning EXPLAIN off must drop the plan")
	}
}

// TestExplainFeedsOnePrivateSampler: an explained search feeds its own
// interval-4 sampler, which measures the first of every 4 comparisons, and
// nothing of it reaches the query's shared sampler; with EXPLAIN off the
// shared sampler counts again.
func TestExplainFeedsOnePrivateSampler(t *testing.T) {
	db := demoDB(27, 30, 64)
	q, err := NewQuery(db[0], Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	shared := NewBoundSampler(1)
	q.SetBoundSampler(shared)
	q.SetExplain(true)
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if seen := shared.Snapshot().Seen; seen != 0 {
		t.Fatalf("an explained search moved the shared sampler's Seen to %d", seen)
	}
	plan := q.Explain()
	if plan.Waterfall.Comparisons != 30 || plan.SampledComparisons != (plan.Waterfall.Comparisons+3)/4 || plan.SampledComparisons != 8 {
		t.Fatalf("%d comparisons sampled %d times, want 30 and 8", plan.Waterfall.Comparisons, plan.SampledComparisons)
	}
	q.SetExplain(false)
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if snap := shared.Snapshot(); snap.Seen != 30 || snap.Sampled != 30 {
		t.Fatalf("after SetExplain(false) the shared sampler saw %d and sampled %d of 30", snap.Seen, snap.Sampled)
	}
}

// TestExplainResultsUnperturbed: EXPLAIN mode and an attached sampler must
// not change what a search returns or how its stats reconcile.
func TestExplainResultsUnperturbed(t *testing.T) {
	db := demoDB(25, 10, 96)
	for _, s := range allStrategies() {
		plainQ, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		expQ, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		expQ.SetExplain(true)
		expQ.SetBoundSampler(NewBoundSampler(1))
		want, err := plainQ.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := expQ.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) ||
			got.Rotation != want.Rotation {
			t.Fatalf("strategy %v: explained search %+v != plain %+v", s, got, want)
		}
		ps, es := plainQ.Stats(), expQ.Stats()
		if ps.Comparisons != es.Comparisons || ps.Rotations != es.Rotations ||
			ps.FullDistEvals != es.FullDistEvals || ps.EarlyAbandons != es.EarlyAbandons ||
			ps.WedgePrunedMembers != es.WedgePrunedMembers ||
			ps.WedgeLeafLBPrunes != es.WedgeLeafLBPrunes ||
			ps.FFTRejectedMembers != es.FFTRejectedMembers {
			t.Fatalf("strategy %v: explained stats %+v != plain %+v", s, es, ps)
		}
	}
}

// TestBoundSamplerMetricsRoundTrip feeds a sampler from a traced query and
// requires its exposition to parse strictly as 0.0.4 — HELP/TYPE before
// samples, nothing after a sample value, the tightness histogram resolving
// as a histogram family with one le set for every bound.
func TestBoundSamplerMetricsRoundTrip(t *testing.T) {
	db := demoDB(26, 8, 64)
	tlog := NewTraceLog(WithSampleRate(1))
	sampler := NewBoundSampler(1)
	q, err := NewQuery(db[0], Euclidean(), WithTraceLog(tlog))
	if err != nil {
		t.Fatal(err)
	}
	q.SetBoundSampler(sampler)
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if q.LastTraceID() == 0 {
		t.Fatal("sample-everything trace log retained no trace")
	}

	var sb strings.Builder
	sampler.WriteMetrics(&sb)
	exp, err := expofmt.Parse(sb.String())
	if err != nil {
		t.Fatalf("sampler exposition does not parse: %v\n%s", err, sb.String())
	}
	if got := exp.Types["lbkeogh_explain_bound_tightness_ratio"]; got != "histogram" {
		t.Fatalf("tightness family type = %q, want histogram", got)
	}
	if exp.Counter("lbkeogh_explain_samples_total", nil) == 0 {
		t.Fatal("interval-1 sampler recorded no samples")
	}
	snap := sampler.Snapshot()
	if len(snap.Bounds) == 0 {
		t.Fatal("no bounds in snapshot")
	}
	for _, bt := range snap.Bounds {
		if got := exp.Counter("lbkeogh_explain_bound_checks_total",
			map[string]string{"bound": bt.Bound}); got != bt.Checks {
			t.Errorf("%s checks metric %d != snapshot %d", bt.Bound, got, bt.Checks)
		}
		// The last bucket must be the +Inf edge and equal the sample count.
		buckets := exp.Find("lbkeogh_explain_bound_tightness_ratio_bucket")
		var cum float64
		seen := false
		for _, s := range buckets {
			if s.Labels["bound"] != bt.Bound {
				continue
			}
			cum = s.Value
			if s.Labels["le"] == "+Inf" {
				seen = true
			}
		}
		if !seen {
			t.Errorf("%s histogram missing +Inf bucket", bt.Bound)
		}
		if int64(cum) != bt.Samples {
			t.Errorf("%s +Inf bucket %v != sample count %d", bt.Bound, cum, bt.Samples)
		}
	}
	les := map[string][]string{}
	for _, s := range exp.Find("lbkeogh_explain_bound_tightness_ratio_bucket") {
		les[s.Labels["bound"]] = append(les[s.Labels["bound"]], s.Labels["le"])
	}
	want := les[snap.Bounds[0].Bound]
	for bound, got := range les {
		if len(got) != explain.NumRatioBuckets+1 || !slices.Equal(got, want) {
			t.Errorf("%s le set %v, want the %d of %s: %v", bound, got, explain.NumRatioBuckets+1, snap.Bounds[0].Bound, want)
		}
	}
}
