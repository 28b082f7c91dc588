package core

import (
	"context"
	"math"
	"runtime"
	"sync"

	"lbkeogh/internal/stats"
	"lbkeogh/internal/wedge"
)

// ScanParallel performs the exact linear scan of Scan across the given
// number of workers (0 selects GOMAXPROCS). Every worker shares the rotation
// set's wedge tree (concurrency-safe) but owns its search state; the
// best-so-far threshold is shared through a mutex so all workers prune
// against the global best. The result is identical to the serial scan: the
// database series with the minimum rotation-invariant distance, with ties
// broken towards the lowest index. Each series is matched exactly once.
//
// Work is handed out in contiguous chunks via an atomic-style cursor under
// the same mutex that guards the best-so-far; the per-item work dwarfs the
// coordination cost.
func ScanParallel(rs *RotationSet, kernel wedge.Kernel, strategy Strategy, cfg SearcherConfig, db [][]float64, workers int, cnt *stats.Counter) ScanResult {
	r, _ := ScanParallelContext(context.Background(), rs, kernel, strategy, cfg, db, workers, cnt) // uncancellable: never errs
	return r
}

// ScanParallelContext is ScanParallel bounded by ctx. Every worker opens its
// own searcher's pass with Begin, so each owns its cancellation checkpoint
// and polls it per comparison: a cancellation stops all workers within one
// checkpoint interval each, and the WaitGroup then joins them before the
// error is returned — a cancelled scan leaks no goroutines. An uncancelled
// ScanParallelContext is identical to ScanParallel. The num_steps spent,
// a cancelled scan's included, are added to cnt (nil: not accumulated).
func ScanParallelContext(ctx context.Context, rs *RotationSet, kernel wedge.Kernel, strategy Strategy, cfg SearcherConfig, db [][]float64, workers int, cnt *stats.Counter) (ScanResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(db) {
		workers = len(db)
	}
	if workers <= 1 {
		s := NewSearcher(rs, kernel, strategy, cfg)
		c := NewCollector(1, math.Inf(1))
		err := s.ScanInto(ctx, db, c)
		cnt.Add(s.Steps())
		if err != nil {
			return ScanResult{Index: -1, Dist: math.Inf(1)}, err
		}
		return c.Best(), nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return ScanResult{Index: -1, Dist: math.Inf(1)}, err
	}

	const chunk = 16
	var mu sync.Mutex
	next := 0
	best := ScanResult{Index: -1, Dist: math.Inf(1)}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker's searcher keeps its own step tally, added to cnt
			// once when the worker stops, cancelled or not; any cfg.Obs
			// record is shared and flushed once per comparison. Each
			// comparison is offered to a one-slot collector whose limit is
			// the worker's copy of the global best-so-far.
			searcher := NewSearcher(rs, kernel, strategy, cfg)
			defer func() { cnt.Add(searcher.Steps()) }()
			if searcher.Begin(ctx) != nil {
				return
			}
			defer searcher.End()
			c := NewCollector(1, math.Inf(1))
			for {
				mu.Lock()
				lo := next
				next += chunk
				threshold := tieLimit(best.Dist)
				mu.Unlock()
				if lo >= len(db) {
					break
				}
				hi := lo + chunk
				if hi > len(db) {
					hi = len(db)
				}
				for i := lo; i < hi; i++ {
					c.limit, c.res = threshold, c.res[:0]
					if searcher.Offer(i, db[i], c) != nil {
						return
					}
					if len(c.res) == 0 {
						continue
					}
					m := c.res[0]
					mu.Lock()
					if m.Dist < best.Dist || (m.Dist == best.Dist && i < best.Index) {
						best = m
					}
					threshold = tieLimit(best.Dist)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return ScanResult{Index: -1, Dist: math.Inf(1)}, err
	}
	return best, nil
}

// tieLimit loosens a best-so-far into a worker's match threshold. The
// collector keeps only strictly closer matches, so without the loosening a
// worker that learned of a best at a higher index would prune an exact tie
// at a lower one; with it the tie is matched and the (dist, index) merge
// resolves it as the serial scan does.
func tieLimit(best float64) float64 { return best*(1+1e-12) + 1e-300 }
