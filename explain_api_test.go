package lbkeogh

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lbkeogh/internal/obs/explain"
	"lbkeogh/internal/obs/expofmt"
)

// explainInterval is the interval the serving layer's explain requests
// sample at: an explained search is an ordinary search with a fresh sampler
// of its own attached.
const explainInterval = 4

// assertPlanMatchesStats checks what an explained search's plan — its own
// sampler's snapshot — holds against the search's SearchStats: the sampler
// was offered exactly the search's comparisons and measured the first of
// every interval, each with one check per applicable bound (the FFT and
// envelope bounds, both applicable to the Euclidean measure).
func assertPlanMatchesStats(t *testing.T, plan BoundSamplerSnapshot, st SearchStats) {
	t.Helper()
	if !st.Reconciles() {
		t.Fatalf("stats do not reconcile: %+v", st.Counts)
	}
	if plan.Seen != st.Comparisons {
		t.Errorf("sampler saw %d comparisons, stats %d", plan.Seen, st.Comparisons)
	}
	if want := (st.Comparisons + plan.Interval - 1) / plan.Interval; plan.Sampled != want {
		t.Errorf("%d comparisons sampled %d times at interval %d, want %d", st.Comparisons, plan.Sampled, plan.Interval, want)
	}
	if len(plan.Bounds) != 2 {
		t.Fatalf("plan bounds %+v, want fft and envelope", plan.Bounds)
	}
	for _, bt := range plan.Bounds {
		if bt.Checks != plan.Sampled {
			t.Errorf("%s bound checked %d times over %d samples", bt.Bound, bt.Checks, plan.Sampled)
		}
	}
}

// TestExplainPlanReconcilesAcrossStrategies runs every search flavour with a
// fresh interval-4 sampler under every strategy: a fresh query's SearchStats
// after one operation IS that operation's record, and the sampler must have
// seen exactly its comparisons.
func TestExplainPlanReconcilesAcrossStrategies(t *testing.T) {
	db := demoDB(21, 12, 64)
	for _, s := range allStrategies() {
		t.Run(s.String(), func(t *testing.T) {
			q, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			explained := func(search func() error) {
				t.Helper()
				sampler := NewBoundSampler(explainInterval)
				q.SetBoundSampler(sampler)
				q.ResetStats()
				if err := search(); err != nil {
					t.Fatal(err)
				}
				assertPlanMatchesStats(t, sampler.Snapshot(), q.Stats())
			}
			explained(func() error { _, err := q.Search(db); return err })
			var top []SearchResult
			explained(func() (err error) { top, err = q.SearchTopK(db, 4); return err })
			// The query is db[0], so its nearest distance is 0: the range
			// reaches out to the fourth neighbour instead (a range threshold
			// must be positive).
			explained(func() error { _, err := q.SearchRange(db, top[3].Dist); return err })
		})
	}
}

// TestExplainPlanCancelledSearch cancels mid-scan: the stats carry the
// CancelledMembers bucket and still reconcile, and the sampler saw exactly
// the comparisons the search began.
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
		sampler := NewBoundSampler(explainInterval)
		q.SetBoundSampler(sampler)
		if _, err := q.SearchContext(newFlipCtx(4), db); err != context.Canceled {
			t.Fatalf("strategy %v: want context.Canceled, got %v", s, err)
		}
		st := q.Stats()
		assertPlanMatchesStats(t, sampler.Snapshot(), st)
		if st.CancelledMembers == 0 {
			t.Errorf("strategy %v: cancelled mid-scan but CancelledMembers = 0", s)
		}
	}
}

// TestExplainParallelWaterfall: parallel scans run on per-worker searchers
// and bypass the attached sampler, but the query's stats still reconcile.
func TestExplainParallelWaterfall(t *testing.T) {
	db := demoDB(23, 16, 64)
	q, err := NewQuery(db[0], Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	sampler := NewBoundSampler(explainInterval)
	q.SetBoundSampler(sampler)
	if _, err := q.SearchParallel(db, 4); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Comparisons != int64(len(db)) || !st.Reconciles() {
		t.Fatalf("parallel stats %+v over %d rows", st.Counts, len(db))
	}
	if snap := sampler.Snapshot(); snap.Seen != 0 || snap.Sampled != 0 {
		t.Fatalf("a parallel search fed the sampler: %+v", snap)
	}
}

// TestExplainFeedsOnePrivateSampler: a query feeds one sampler at a time.
// Swapping a private interval-4 sampler in for a search, as the serving
// layer does for an explain request, measures the first of every 4
// comparisons and leaves the shared sampler untouched; once the shared one
// is restored it counts again and the private one stops.
func TestExplainFeedsOnePrivateSampler(t *testing.T) {
	db := demoDB(27, 30, 64)
	q, err := NewQuery(db[0], Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	shared := NewBoundSampler(1)
	q.SetBoundSampler(shared)
	private := NewBoundSampler(explainInterval)
	q.SetBoundSampler(private)
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if seen := shared.Snapshot().Seen; seen != 0 {
		t.Fatalf("an explained search moved the shared sampler's Seen to %d", seen)
	}
	if snap := private.Snapshot(); snap.Seen != 30 || snap.Sampled != 8 {
		t.Fatalf("private sampler saw %d and sampled %d, want 30 and 8", snap.Seen, snap.Sampled)
	}
	q.SetBoundSampler(shared)
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if snap := shared.Snapshot(); snap.Seen != 30 || snap.Sampled != 30 {
		t.Fatalf("after restoring it the shared sampler saw %d and sampled %d of 30", snap.Seen, snap.Sampled)
	}
	if seen := private.Snapshot().Seen; seen != 30 {
		t.Fatalf("the detached private sampler went on counting: %d", seen)
	}
}

// TestExplainResultsUnperturbed: an attached sampler must not change what a
// search returns, its stats record or its steps, under every measure and
// every strategy the measure admits. Under DTW and LCSS the sampler reads
// its root wedge from the widened tree, which the wedge strategy's plain
// search also builds: whichever builds it charges the query once.
func TestExplainResultsUnperturbed(t *testing.T) {
	db := demoDB(25, 10, 96)
	for _, m := range []Measure{Euclidean(), DTW(3), LCSS(3, 0.25)} {
		for _, s := range allStrategies() {
			if s == FFTSearch && m.Name() != "euclidean" {
				continue // the magnitude filter admits the Euclidean measure only
			}
			t.Run(m.Name()+"/"+s.String(), func(t *testing.T) {
				plainQ, err := NewQuery(db[0], m, WithStrategy(s))
				if err != nil {
					t.Fatal(err)
				}
				expQ, err := NewQuery(db[0], m, WithStrategy(s))
				if err != nil {
					t.Fatal(err)
				}
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
					t.Fatalf("sampled search %+v != plain %+v", got, want)
				}
				if ps, es := plainQ.Stats(), expQ.Stats(); !reflect.DeepEqual(ps, es) {
					t.Fatalf("sampled stats %+v != plain %+v", es, ps)
				}
				if plainQ.Steps() != expQ.Steps() {
					t.Fatalf("sampled steps %d != plain %d", expQ.Steps(), plainQ.Steps())
				}
			})
		}
	}
}

// TestWideningChargedOnEveryPath: one comparison costs the same steps
// whichever door reaches it — a flat search of one row, an index search over
// that row alone, and a flat search with a bound sampler attached. Under DTW
// and LCSS the first reader of the query's widened wedges (the comparison,
// the index's DTW walk, the sampler) is charged the widening, so each path
// pays it exactly once.
func TestWideningChargedOnEveryPath(t *testing.T) {
	db := demoDB(25, 10, 96)
	row := db[1:2]
	ix, err := NewIndex(row, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Measure{Euclidean(), DTW(3), LCSS(3, 0.25)} {
		paths := []struct {
			name   string
			search func(q *Query) (SearchResult, error)
		}{
			{"flat", func(q *Query) (SearchResult, error) { return q.Search(row) }},
			{"index", ix.Search},
			{"sampled", func(q *Query) (SearchResult, error) {
				q.SetBoundSampler(NewBoundSampler(1000))
				return q.Search(row)
			}},
		}
		var want int64
		for i, p := range paths {
			q, err := NewQuery(db[0], m)
			if err != nil {
				t.Fatal(err)
			}
			q.ResetSteps()
			if _, err := p.search(q); err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), p.name, err)
			}
			if got := q.Stats().Steps; got != q.Steps() {
				t.Fatalf("%s/%s: the record holds %d steps of %d", m.Name(), p.name, got, q.Steps())
			}
			if i == 0 {
				want = q.Steps()
			} else if q.Steps() != want {
				t.Errorf("%s/%s: %d steps, flat %d", m.Name(), p.name, q.Steps(), want)
			}
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
