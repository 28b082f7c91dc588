package lbkeogh

import (
	"context"
	"testing"
)

// TestQueryStepsIsOneRecord holds Query.Steps to the query's own records of
// cost: the num_steps its SearchStats holds plus the build's SetupSteps once
// the build has happened. NewQuery builds nothing and charges nothing. On
// every path — each strategy under each measure; Distance, Match, flat
// search, top-K, range and parallel; index search, top-K and range; searches
// cancelled before they start and mid-scan — an operation moves Steps by
// exactly what it moves Stats().Steps, plus SetupSteps if it is the one that
// built the wedge tree. Only a strategy that walks wedges builds one; a DTW
// index walk under any other widens the rotations without a tree. ResetStats leaves Steps
// alone, and ResetSteps zeroes Steps and leaves Stats alone, however they
// interleave.
func TestQueryStepsIsOneRecord(t *testing.T) {
	const n = 48
	db := demoDB(21, 24, n)
	ix, err := NewIndex(db, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Measure{Euclidean(), DTW(3), LCSS(3, 0.5)} {
		for _, s := range allStrategies() {
			if s == FFTSearch && m.Name() != "euclidean" {
				continue
			}
			q, err := NewQuery(db[0], m, WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			name := m.Name() + "/" + s.String()
			if got := q.Steps(); got != 0 || q.rs.Built() {
				t.Fatalf("%s: Steps after NewQuery = %d (tree built: %v), want 0 and no tree", name, got, q.rs.Built())
			}
			pre, stop := context.WithCancel(context.Background())
			stop()
			cancelled := func(op string, err error) error {
				if err != context.Canceled {
					t.Errorf("%s %s: returned %v, want context.Canceled", name, op, err)
				}
				return nil
			}
			ops := []struct {
				name string
				run  func() error
			}{
				{"distance", func() error { _, _, err := q.Distance(db[1]); return err }},
				{"match", func() error { _, _, _, err := q.Match(db[2], 4); return err }},
				{"search", func() error { _, err := q.Search(db); return err }},
				{"topk", func() error { _, err := q.SearchTopK(db, 3); return err }},
				{"range", func() error { _, err := q.SearchRange(db, 4); return err }},
				{"parallel", func() error { _, err := q.SearchParallel(db, 2); return err }},
				{"index", func() error { _, err := ix.Search(q); return err }},
				{"index_topk", func() error { _, err := ix.SearchTopK(q, 3); return err }},
				{"index_range", func() error { _, err := ix.SearchRange(q, 4); return err }},
				{"cancelled_before", func() error { _, err := q.SearchContext(pre, db); return cancelled("cancelled_before", err) }},
				{"cancelled_before_index", func() error { _, err := ix.SearchContext(pre, q); return cancelled("cancelled_before_index", err) }},
				{"cancelled_mid", func() error { _, err := q.SearchContext(newFlipCtx(3), db); return cancelled("cancelled_mid", err) }},
				{"cancelled_mid_parallel", func() error {
					_, err := q.SearchParallelContext(newFlipCtx(3), db, 2)
					return cancelled("cancelled_mid_parallel", err)
				}},
				{"cancelled_mid_index", func() error {
					_, err := ix.SearchContext(newFlipCtx(3), q)
					return cancelled("cancelled_mid_index", err)
				}},
			}
			// runAll runs every operation and checks each moves Steps by
			// exactly its own num_steps, the build's included.
			runAll := func(round string) {
				for _, op := range ops {
					steps, rec, built := q.Steps(), q.Stats().Steps, q.rs.Built()
					if err := op.run(); err != nil {
						t.Fatalf("%s %s %s: %v", name, round, op.name, err)
					}
					build := int64(0)
					if !built && q.rs.Built() {
						build = q.rs.SetupSteps
					}
					if ds, dr := q.Steps()-steps, q.Stats().Steps-rec; ds != dr+build {
						t.Errorf("%s %s %s: Steps moved %d, Stats().Steps %d, build %d", name, round, op.name, ds, dr, build)
					}
				}
			}

			runAll("first")
			if wantBuilt := s == WedgeSearch; q.rs.Built() != wantBuilt {
				t.Errorf("%s: tree built %v, want %v", name, q.rs.Built(), wantBuilt)
			}
			setup := int64(0)
			if q.rs.Built() {
				setup = q.rs.SetupSteps
			}
			if got, want := q.Steps(), setup+q.obs.Steps(); got != want {
				t.Errorf("%s: Steps = %d, want SetupSteps if built + record = %d", name, got, want)
			}
			before := q.Steps()
			q.ResetStats()
			if got := q.Steps(); got != before {
				t.Errorf("%s: ResetStats moved Steps %d -> %d", name, before, got)
			}
			if got := q.Stats().Steps; got != 0 {
				t.Errorf("%s: Stats().Steps after ResetStats = %d", name, got)
			}
			runAll("after ResetStats")
			if got, want := q.Steps()-before, q.Stats().Steps; got != want {
				t.Errorf("%s: Steps since ResetStats = %d, record = %d", name, got, want)
			}

			rec := q.Stats().Steps
			q.ResetSteps()
			if got := q.Steps(); got != 0 {
				t.Errorf("%s: Steps after ResetSteps = %d", name, got)
			}
			if got := q.Stats().Steps; got != rec {
				t.Errorf("%s: ResetSteps moved Stats().Steps %d -> %d", name, rec, got)
			}
			runAll("after ResetSteps")
			if got, want := q.Steps(), q.Stats().Steps-rec; got != want {
				t.Errorf("%s: Steps since ResetSteps = %d, record moved %d", name, got, want)
			}
			q.ResetStats()
			q.ResetStats()
			before = q.Steps()
			runAll("after ResetSteps then ResetStats")
			if got, want := q.Steps()-before, q.Stats().Steps; got != want {
				t.Errorf("%s: Steps since the last ResetStats = %d, record = %d", name, got, want)
			}
			q.ResetSteps()
			q.ResetSteps()
			if got := q.Steps(); got != 0 {
				t.Errorf("%s: Steps after a second ResetSteps = %d", name, got)
			}
		}
	}
}
