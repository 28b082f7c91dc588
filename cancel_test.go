package lbkeogh

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lbkeogh/internal/core"
)

// flipCtx is a deterministic cancellable context: Err reports Canceled from
// the (after+1)'th poll onward. It lets cancellation tests place the trip at
// an exact checkpoint instead of racing a timer.
type flipCtx struct {
	context.Context // Background, for Deadline/Value
	done            chan struct{}
	polls           atomic.Int64
	after           int64
}

func newFlipCtx(after int64) *flipCtx {
	return &flipCtx{Context: context.Background(), done: make(chan struct{}), after: after}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func allStrategies() []Strategy {
	return []Strategy{WedgeSearch, BruteForceSearch, EarlyAbandonSearch, FFTSearch}
}

func TestSearchContextAlreadyCancelled(t *testing.T) {
	db := demoDB(3, 6, 64)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	for _, s := range allStrategies() {
		q, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.SearchContext(ctx, db); err != context.Canceled {
			t.Fatalf("strategy %v: want context.Canceled, got %v", s, err)
		}
		if _, err := q.SearchTopKContext(ctx, db, 3); err != context.Canceled {
			t.Fatalf("strategy %v topk: want context.Canceled, got %v", s, err)
		}
		if _, err := q.SearchRangeContext(ctx, db, 10); err != context.Canceled {
			t.Fatalf("strategy %v range: want context.Canceled, got %v", s, err)
		}
		if _, err := q.SearchParallelContext(ctx, db, 2); err != context.Canceled {
			t.Fatalf("strategy %v parallel: want context.Canceled, got %v", s, err)
		}
		// Cancelled before the scan started: nothing was compared.
		if st := q.Stats(); st.Comparisons != 0 || st.Rotations != 0 {
			t.Fatalf("strategy %v: pre-cancelled search still scanned: %+v", s, st)
		}
	}
}

// TestSearchContextMidScanPromptness cancels at a known checkpoint poll and
// checks the scan stops within one checkpoint interval of it — far short of
// the full rotation budget — with the undisposed rotations attributed to the
// CancelledMembers bucket so the record still reconciles.
func TestSearchContextMidScanPromptness(t *testing.T) {
	const n = 512
	db := demoDB(4, 1, n) // single candidate: all work is rotation disposal
	for _, s := range allStrategies() {
		opts := []QueryOption{WithStrategy(s)}
		if s == WedgeSearch {
			// Pin the wedge set to one singleton wedge per rotation so the
			// walk checkpoints at rotation granularity; the dynamic controller
			// would prune most of the single comparison away and finish before
			// the chosen poll trips.
			opts = append(opts, WithFixedWedgeCount(n))
		}
		q, err := NewQuery(db[0], Euclidean(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		const after = 4 // trip on the 5th ctx.Err() poll
		ctx := newFlipCtx(after)
		if _, err := q.SearchContext(ctx, db); err != context.Canceled {
			t.Fatalf("strategy %v: want context.Canceled, got %v", s, err)
		}
		st := q.Stats()
		if !st.Reconciles() {
			t.Fatalf("strategy %v: cancelled-search stats do not reconcile: %+v", s, st)
		}
		if st.CancelledMembers == 0 {
			t.Fatalf("strategy %v: cancelled mid-scan but CancelledMembers = 0: %+v", s, st)
		}
		// Entry checks burn 2 polls; each checkpoint poll admits at most
		// CancelCheckInterval more checkpoints before the next one. Anything
		// at or under this bound stopped within one interval of the trip.
		disposed := st.Rotations - st.CancelledMembers
		bound := int64((after + 1) * core.CancelCheckInterval)
		if disposed > bound {
			t.Fatalf("strategy %v: disposed %d rotations before stopping, want <= %d (of %d total)",
				s, disposed, bound, st.Rotations)
		}
		if st.Rotations != int64(q.Rotations()) {
			t.Fatalf("strategy %v: aborted comparison accounted %d rotations, want all %d",
				s, st.Rotations, q.Rotations())
		}
	}
}

// TestSearchContextCancelledQueryReusable cancels a search mid-scan and then
// reruns it uncancelled: the query must stay valid and return the exact
// result a fresh query does.
func TestSearchContextCancelledQueryReusable(t *testing.T) {
	db := demoDB(5, 8, 128)
	for _, s := range allStrategies() {
		q, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.SearchContext(newFlipCtx(3), db); err != context.Canceled {
			t.Fatalf("strategy %v: want context.Canceled, got %v", s, err)
		}
		got, err := q.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("strategy %v: post-cancel search %+v != fresh-query search %+v", s, got, want)
		}
	}
}

// TestSearchContextUncancelledBitIdentical runs every search flavour through
// a live (but never cancelled) context and requires bit-identical results to
// the context-free methods.
func TestSearchContextUncancelledBitIdentical(t *testing.T) {
	db := demoDB(6, 10, 96)
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	for _, s := range allStrategies() {
		q1, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		q2, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := q1.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := q2.SearchContext(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Index != ctxed.Index || math.Float64bits(plain.Dist) != math.Float64bits(ctxed.Dist) ||
			plain.Rotation != ctxed.Rotation {
			t.Fatalf("strategy %v: SearchContext %+v != Search %+v", s, ctxed, plain)
		}
		tk1, err := q1.SearchTopK(db, 4)
		if err != nil {
			t.Fatal(err)
		}
		tk2, err := q2.SearchTopKContext(ctx, db, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(tk1) != len(tk2) {
			t.Fatalf("strategy %v: topk lengths differ", s)
		}
		for i := range tk1 {
			if tk1[i].Index != tk2[i].Index || math.Float64bits(tk1[i].Dist) != math.Float64bits(tk2[i].Dist) {
				t.Fatalf("strategy %v: topk[%d] %+v != %+v", s, i, tk2[i], tk1[i])
			}
		}
	}
}

func TestSearchRangeMatchesDistances(t *testing.T) {
	db := demoDB(7, 12, 64)
	q, err := NewQuery(db[0], Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	all, err := q.SearchTopK(db, len(db))
	if err != nil {
		t.Fatal(err)
	}
	threshold := all[len(db)/2].Dist // strictly-below semantics: midpoint hit excluded
	got, err := q.SearchRange(db, threshold)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range all {
		if r.Dist < threshold {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("SearchRange returned %d hits, want %d", len(got), want)
	}
	for i, r := range got {
		if r.Dist >= threshold {
			t.Fatalf("hit %d dist %v >= threshold %v", i, r.Dist, threshold)
		}
		if i > 0 && got[i-1].Dist > r.Dist {
			t.Fatalf("range results not ascending at %d", i)
		}
		if r.Index != all[i].Index || math.Float64bits(r.Dist) != math.Float64bits(all[i].Dist) {
			t.Fatalf("range hit %d = %+v, want %+v", i, r, all[i])
		}
	}
}

// TestSearchParallelContextNoGoroutineLeak cancels parallel scans mid-flight
// and checks every worker goroutine is joined before the call returns.
func TestSearchParallelContextNoGoroutineLeak(t *testing.T) {
	db := demoDB(8, 64, 128)
	q, err := NewQuery(db[0], Euclidean(), WithStrategy(EarlyAbandonSearch))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := q.SearchParallelContext(newFlipCtx(2), db, 4); err != context.Canceled {
			t.Fatalf("iteration %d: want context.Canceled, got %v", i, err)
		}
	}
	// Workers are WaitGroup-joined before return, so no settling time should
	// be needed; allow a few scheduler beats anyway before failing.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i >= 100 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And the query still works.
	if _, err := q.SearchParallel(db, 4); err != nil {
		t.Fatal(err)
	}
}

// TestSearchParallelInvariantUnreachable exercises SearchParallel across
// strategies, worker counts, and degenerate-but-valid databases: the
// internal-invariant "scan returned no result" error must never surface
// through the public API.
func TestSearchParallelInvariantUnreachable(t *testing.T) {
	dbs := [][]Series{
		demoDB(9, 1, 32),  // fewer series than workers
		demoDB(10, 2, 32), // ties possible with identical pairs below
		demoDB(11, 33, 32),
	}
	dup := demoDB(12, 1, 32)
	dbs = append(dbs, []Series{dup[0], dup[0], dup[0]}) // all-equal distances
	for _, s := range allStrategies() {
		for _, db := range dbs {
			for _, workers := range []int{0, 1, 2, 8} {
				q, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
				if err != nil {
					t.Fatal(err)
				}
				r, err := q.SearchParallel(db, workers)
				if err != nil {
					if strings.Contains(err.Error(), "internal invariant") {
						t.Fatalf("strategy %v workers %d db %d: invariant error escaped: %v",
							s, workers, len(db), err)
					}
					t.Fatalf("strategy %v workers %d: %v", s, workers, err)
				}
				if r.Index < 0 {
					t.Fatalf("strategy %v workers %d: negative index without error", s, workers)
				}
			}
		}
	}
}

func TestSearchContextNilContext(t *testing.T) {
	db := demoDB(13, 4, 48)
	q, err := NewQuery(db[0], Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.SearchContext(nil, db) //nolint:staticcheck // nil ctx tolerance is part of the contract
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Search(db)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("nil-ctx search %+v != Search %+v", got, want)
	}
}

// TestIndexSearchContextCancellation is the cancellation contract through the
// index probe: an already-expired context does no work; a trip mid-probe
// returns ctx.Err() within one checkpoint interval with the undisposed
// rotations in CancelledMembers, so the record reconciles; the query stays
// reusable and the shared index answers the next query as if nothing happened.
func TestIndexSearchContextCancellation(t *testing.T) {
	const n = 512
	db := demoDB(14, 12, n)
	ix, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := NewQuery(db[0], Euclidean())
	want, err := fresh.Search(db)
	if err != nil {
		t.Fatal(err)
	}

	done, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	q, _ := NewQuery(db[0], Euclidean())
	if _, err := ix.SearchContext(done, q); err != context.Canceled {
		t.Fatalf("search: want context.Canceled, got %v", err)
	}
	if _, err := ix.SearchTopKContext(done, q, 3); err != context.Canceled {
		t.Fatalf("topk: want context.Canceled, got %v", err)
	}
	if _, err := ix.SearchRangeContext(done, q, 10); err != context.Canceled {
		t.Fatalf("range: want context.Canceled, got %v", err)
	}
	if st := q.Stats(); st.Comparisons != 0 || st.IndexFetches != 0 || ix.DiskReads() != 0 || ix.Stats().Comparisons != 0 {
		t.Fatalf("pre-cancelled index searches still worked: query %+v, index read %d", st, ix.DiskReads())
	}

	// One singleton wedge per rotation, so the walk checkpoints at rotation
	// granularity (see TestSearchContextMidScanPromptness) and the trip lands
	// inside the first fetched candidate's comparison.
	q, _ = NewQuery(db[0], Euclidean(), WithFixedWedgeCount(n))
	const after = 4 // trip on the 5th ctx.Err() poll
	if _, err := ix.SearchContext(newFlipCtx(after), q); err != context.Canceled {
		t.Fatalf("mid-probe: want context.Canceled, got %v", err)
	}
	st := q.Stats()
	if !st.Reconciles() || st.CancelledMembers == 0 || st.IndexFetches == 0 || st.IndexFetches != int64(ix.DiskReads()) {
		t.Fatalf("cancelled-probe stats: %+v (index read %d)", st, ix.DiskReads())
	}
	if disposed, bound := st.Rotations-st.CancelledMembers, int64((after+1)*core.CancelCheckInterval); disposed > bound {
		t.Fatalf("disposed %d rotations before stopping, want <= %d (of %d)", disposed, bound, st.Rotations)
	}
	if cum := ix.Stats(); cum.Counts != st.Counts {
		t.Fatalf("index record %+v, the cancelled query's %+v", cum.Counts, st.Counts)
	}

	// The cancelled query, and the index under another query, still answer.
	for name, again := range map[string]*Query{"cancelled query": q, "fresh query": fresh} {
		got, err := ix.Search(again)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("%s after the cancellation: %+v, want %+v", name, got, want)
		}
	}
	if !ix.Stats().Reconciles() {
		t.Fatalf("index record after the cancellation: %+v", ix.Stats().Counts)
	}
}
