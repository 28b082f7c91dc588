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
// set's wedge tree (concurrency-safe) but owns its search state; the workers
// share one Collector through a mutex, matching each row under its radius
// and offering the match back, so all prune against the global best and the
// collector's tie rule makes the result the serial scan's: the database
// series with the minimum rotation-invariant distance, ties towards the
// lowest index. Each series is matched exactly once; one worker matches them
// in id order under the serial scan's radii, spending its steps.
//
// Work is handed out in contiguous chunks via a cursor under the same mutex;
// the per-item work dwarfs the coordination cost.
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
	if ctx == nil {
		ctx = context.Background()
	}

	const chunk = 16
	var mu sync.Mutex
	next := 0
	c := NewCollector(1, math.Inf(1))

	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(db)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker's searcher keeps its own step tally, added to cnt
			// once when the worker stops, cancelled or not; any cfg.Obs
			// record is shared, and each worker publishes to it at End.
			searcher := NewSearcher(rs, kernel, strategy, cfg)
			defer func() { cnt.Add(searcher.Steps()) }()
			if searcher.Begin(ctx) != nil {
				return
			}
			defer searcher.End()
			for {
				mu.Lock()
				lo := next
				next += chunk
				mu.Unlock()
				if lo >= len(db) {
					return
				}
				for i := lo; i < min(lo+chunk, len(db)); i++ {
					mu.Lock()
					r := c.Radius(i)
					mu.Unlock()
					m, err := searcher.match(i, db[i], r)
					if err != nil {
						return
					}
					mu.Lock()
					c.Offer(i, m)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return ScanResult{Index: -1, Dist: math.Inf(1)}, err
	}
	return c.Best(), nil
}
