package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lbkeogh/internal/cancel"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/wedge"
)

// perComparison is a pass as it was published before searchers batched
// their records: the rows of order are offered to c under ctx with no pass
// open, so MatchSeries publishes each comparison as it ends, and the steps
// no comparison carried are published after the last, as End did. probe
// marks the rows as an index probe's (BeginProbe).
func perComparison(ctx context.Context, s *Searcher, db [][]float64, order []int, c *Collector, probe bool) {
	if ctx.Err() != nil { // Begin's check
		return
	}
	s.chk, s.probe = cancel.New(ctx, CancelCheckInterval), probe
	for _, i := range order {
		m, err := s.match(i, db[i], c.Radius(i))
		if err != nil {
			break
		}
		c.Offer(i, m)
	}
	s.chk, s.probe = nil, false
	s.obs.AddCounts(&obs.Counts{Steps: s.flush()}, nil)
}

// pollsCtx reports Canceled from its polls-th Err call on, so that a serial
// scan under it stops at the same checkpoint every run. Its Done channel,
// which never closes, only makes it cancellable.
type pollsCtx struct {
	context.Context
	polls int
}

var neverDone = make(chan struct{})

func (c *pollsCtx) Done() <-chan struct{} { return neverDone }

func (c *pollsCtx) Err() error {
	if c.polls--; c.polls <= 0 {
		return context.Canceled
	}
	return nil
}

func newPollsCtx(polls int) *pollsCtx {
	return &pollsCtx{Context: context.Background(), polls: polls}
}

func ids(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// sameRecord fails unless the record a pass published equals the
// per-comparison reference's: the counters, the prunes per level, the steps
// histogram and its sum, and the K trajectory with its stamps.
func sameRecord(t *testing.T, what string, got, want *obs.SearchStats) {
	t.Helper()
	g, w := got.Snapshot(), want.Snapshot()
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: published per pass\n%+v\nper comparison\n%+v", what, g, w)
	}
	if g.Comparisons == 0 || !g.Reconciles() {
		t.Fatalf("%s: record %+v: want comparisons that reconcile", what, g.Counts)
	}
}

// TestPerPassRecordMatchesPerComparison holds a searcher that publishes its
// record once per pass to one that published every comparison as it ended,
// on each kind of pass: a serial scan, a parallel scan, an index probe (its
// fetches added after End, as index.Probe does), and a scan cancelled
// mid-way.
func TestPerPassRecordMatchesPerComparison(t *testing.T) {
	db, q := parallelTestDB(58, 400, 32)
	kernels := []wedge.Kernel{wedge.ED{}, wedge.DTW{R: 2}}

	t.Run("serial", func(t *testing.T) {
		for _, kern := range kernels {
			for _, strategy := range []Strategy{Wedge, EarlyAbandon, BruteForce} {
				var got, want obs.SearchStats
				gc, wc := NewCollector(1, math.Inf(1)), NewCollector(1, math.Inf(1))
				g := NewSearcher(NewRotationSetTraced(q, DefaultOptions(), nil), kern, strategy, SearcherConfig{Obs: &got})
				if err := g.ScanInto(context.Background(), db, gc); err != nil {
					t.Fatal(err)
				}
				w := NewSearcher(NewRotationSetTraced(q, DefaultOptions(), nil), kern, strategy, SearcherConfig{Obs: &want})
				perComparison(context.Background(), w, db, ids(len(db)), wc, false)
				sameRecord(t, kern.Name()+"/"+strategy.String(), &got, &want)
				if strategy == Wedge && len(got.Snapshot().KTrajectory) == 0 {
					t.Fatalf("%s: the scan must move K for its stamps to be checked", kern.Name())
				}
				if gc.Best() != wc.Best() {
					t.Fatalf("%s/%s: answers %+v, reference %+v", kern.Name(), strategy, gc.Best(), wc.Best())
				}
			}
		}
	})

	t.Run("parallel", func(t *testing.T) {
		for _, kern := range kernels {
			// One worker offers the rows in id order under the serial radii.
			// Each side widens a tree of its own: a widening is charged to
			// the first reader.
			var got, want obs.SearchStats
			ScanParallel(NewRotationSet(q, DefaultOptions(), nil), kern, Wedge, SearcherConfig{Obs: &got}, db, 1, nil)
			perComparison(context.Background(), NewSearcher(NewRotationSet(q, DefaultOptions(), nil), kern, Wedge, SearcherConfig{Obs: &want}), db, ids(len(db)), NewCollector(1, math.Inf(1)), false)
			sameRecord(t, kern.Name()+"/1 worker", &got, &want)
			rs := NewRotationSet(q, DefaultOptions(), nil) // brute force widens nothing

			// Several workers race for the radius, so what a wedge or an
			// abandon disposes of depends on the schedule; brute force's
			// record does not, and each worker's End must land all of it.
			want = obs.SearchStats{}
			perComparison(context.Background(), NewSearcher(rs, kern, BruteForce, SearcherConfig{Obs: &want}), db, ids(len(db)), NewCollector(1, math.Inf(1)), false)
			for _, workers := range []int{2, 3} {
				got = obs.SearchStats{}
				ScanParallel(rs, kern, BruteForce, SearcherConfig{Obs: &got}, db, workers, nil)
				sameRecord(t, kern.Name()+"/brute", &got, &want)

				got = obs.SearchStats{}
				ScanParallel(rs, kern, Wedge, SearcherConfig{Obs: &got}, db, workers, nil)
				sn := got.Snapshot()
				var hist int64
				for _, b := range sn.StepsHistogram {
					hist += b.Count
				}
				if sn.Comparisons != int64(len(db)) || !sn.Reconciles() || hist != sn.Comparisons ||
					sn.StepsHistogramSum != sn.Steps || sn.KChanges != int64(len(sn.KTrajectory)) {
					t.Fatalf("%s/%d workers: record %+v", kern.Name(), workers, sn)
				}
				for _, c := range sn.KTrajectory {
					if c.Comparison < 1 || c.Comparison > sn.Comparisons {
						t.Fatalf("%s/%d workers: K change %+v stamped outside the scan's %d comparisons", kern.Name(), workers, c, sn.Comparisons)
					}
				}
			}
		}
	})

	t.Run("probe", func(t *testing.T) {
		// The rows in an order no scan takes, as an index's bound proposes
		// them; the tree is bought on the way (ED) or up front (DTW).
		order := rand.New(rand.NewSource(58)).Perm(len(db))
		for _, kern := range kernels {
			var got, want obs.SearchStats
			g := NewSearcher(NewRotationSetTraced(q, DefaultOptions(), nil), kern, Wedge, SearcherConfig{Obs: &got})
			w := NewSearcher(NewRotationSetTraced(q, DefaultOptions(), nil), kern, Wedge, SearcherConfig{Obs: &want})
			if err := g.BeginProbe(context.Background()); err != nil {
				t.Fatal(err)
			}
			gc, wc := NewCollector(3, math.Inf(1)), NewCollector(3, math.Inf(1))
			if kern.Radius() > 0 {
				g.Widened()
				w.Widened()
			}
			for _, i := range order {
				if err := g.Offer(i, db[i], gc); err != nil {
					t.Fatal(err)
				}
			}
			g.End()
			got.AddCounts(&obs.Counts{IndexFetches: int64(len(order))}, nil)
			perComparison(context.Background(), w, db, order, wc, true)
			want.AddCounts(&obs.Counts{IndexFetches: int64(len(order))}, nil)
			sameRecord(t, kern.Name()+"/probe", &got, &want)
			if g.lazy == 0 && kern.Radius() == 0 || g.tree == nil {
				t.Fatalf("%s: the probe must verify by early abandoning, then buy its tree", kern.Name())
			}
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		for _, kern := range kernels {
			mid := false
			for _, polls := range []int{3, 9, 40, 150} {
				var got, want obs.SearchStats
				g := NewSearcher(NewRotationSetTraced(q, DefaultOptions(), nil), kern, Wedge, SearcherConfig{Obs: &got})
				if err := g.ScanInto(newPollsCtx(polls), db, NewCollector(1, math.Inf(1))); err == nil {
					t.Fatalf("%s: %d polls: the scan was not cancelled", kern.Name(), polls)
				}
				w := NewSearcher(NewRotationSetTraced(q, DefaultOptions(), nil), kern, Wedge, SearcherConfig{Obs: &want})
				perComparison(newPollsCtx(polls), w, db, ids(len(db)), NewCollector(1, math.Inf(1)), false)
				sameRecord(t, kern.Name()+"/cancelled", &got, &want)
				mid = mid || got.Counts().CancelledMembers > 0
			}
			if !mid {
				t.Fatalf("%s: no cancellation landed inside a comparison", kern.Name())
			}
		}
	})
}
