package lbkeogh

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/ts"
)

// lazyCase is one index search of the lazy-tree tests: 1-NN, top-k or a range
// at radius.
type lazyCase struct {
	kind   string
	k      int
	radius float64
}

func (c lazyCase) run(ix *Index, q *Query) ([]SearchResult, error) {
	switch c.kind {
	case "nn":
		r, err := ix.Search(q)
		return []SearchResult{r}, err
	case "topk":
		return ix.SearchTopK(q, c.k)
	default:
		return ix.SearchRange(q, c.radius)
	}
}

// flat is the same search as a flat scan of db.
func (c lazyCase) flat(q *Query, db []Series) ([]SearchResult, error) {
	switch c.kind {
	case "nn":
		r, err := q.Search(db)
		return []SearchResult{r}, err
	case "topk":
		return q.SearchTopK(db, c.k)
	default:
		return q.SearchRange(db, c.radius)
	}
}

// builtQuery is a query whose wedge tree a flat Search has already built
// (off its record: the stats are reset), so an index probe walks H-Merge
// from its first row.
func builtQuery(t testing.TB, series Series, m Measure, db []Series) *Query {
	t.Helper()
	q, err := NewQuery(series, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if !q.rs.Built() {
		t.Fatal("a flat search left the tree unbuilt")
	}
	q.ResetStats()
	return q
}

// earlySteps reads a traced index search's purchase off its trace: the
// steps of the comparisons recorded before its wedge-build span (all of them
// when it has none), which early abandoning spent in place of the tree, the
// last of those comparisons' steps, and whether the search built the tree. A
// build span is the probe's, never a comparison's child.
func earlySteps(t testing.TB, tlog *TraceLog) (early, last int64, built bool) {
	t.Helper()
	recent := tlog.sampled.inOrder()
	tr := recent[len(recent)-1]
	if tr.DroppedSpans != 0 {
		t.Fatalf("trace dropped %d spans", tr.DroppedSpans)
	}
	for _, sp := range tr.spans {
		switch sp.Stage {
		case trace.StageWedgeBuild:
			if built {
				t.Fatal("two wedge builds in one search")
			}
			if p := tr.spans[sp.Parent].Stage; p != trace.StageVPProbe && p != trace.StageSearch {
				t.Fatalf("wedge build under a %v span", p)
			}
			built = true
		case trace.StageComparison:
			if !built {
				early += sp.Attrs.Steps
				last = sp.Attrs.Steps
			}
		}
	}
	return early, last, built
}

// sameRowsBitwise holds two answers to the same rows at the same distances,
// bit for bit. The rotation is not compared: where two rotations of one row
// tie (LCSS distances are multiples of 1/n), early abandoning and H-Merge
// may report either; the tie rule orders rows, not rotations.
func sameRowsBitwise(t testing.TB, what string, got, want []SearchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s row %d: %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestLazyProbeKeepsTheFlatScansRows: a fresh query's index probe, which
// verifies by early abandoning until that has spent twice the tree's set-up
// and then builds the tree and walks H-Merge, answers exactly the rows — the
// same (Index, Dist) bit for bit — of a query whose tree a flat Search had
// already built, and of the flat scan, over both kinds of index, under ED,
// DTW and LCSS, for 1-NN, top-K and range. The table holds cells where the
// purchase happens mid-probe and cells where it never does; under DTW the
// walk reads the widened tree, so the tree is built before the first row.
func TestLazyProbeKeepsTheFlatScansRows(t *testing.T) {
	const n = 40
	db := demoDB(57, 150, n)
	dir := filepath.Join(t.TempDir(), "store")
	if err := WriteSegmentStore(dir, db, 8); err != nil {
		t.Fatal(err)
	}
	mem, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegmentIndex(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	queries := []Series{ts.Rotate(db[3], 7), ts.Rotate(db[88], 23), db[140]}
	crossed, never := 0, 0
	for _, ms := range []struct {
		m      Measure
		radius float64
	}{{Euclidean(), 6}, {DTW(2), 3}, {LCSS(2, 0.3), 0.4}} {
		for _, c := range []lazyCase{{kind: "nn"}, {kind: "topk", k: 5}, {kind: "topk", k: 60}, {kind: "range", radius: ms.radius}} {
			for _, store := range []struct {
				name string
				ix   *Index
			}{{"mem", mem}, {"segment", seg}} {
				for qi, qs := range queries {
					cell := fmt.Sprintf("%s/%s/%s-%d/q%d", store.name, ms.m.Name(), c.kind, c.k, qi)
					tlog := NewTraceLog(WithSampleRate(1))
					lazy, err := NewQuery(qs, ms.m, WithTraceLog(tlog))
					if err != nil {
						t.Fatal(err)
					}
					got, err := c.run(store.ix, lazy)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					built := builtQuery(t, qs, ms.m, db)
					want, err := c.run(store.ix, built)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					sameRowsBitwise(t, cell+" lazy vs built", got, want)
					if built.Stats().IndexFetches != lazy.Stats().IndexFetches {
						t.Fatalf("%s: lazy fetched %d rows, built %d", cell, lazy.Stats().IndexFetches, built.Stats().IndexFetches)
					}
					flatQ, _ := NewQuery(qs, ms.m)
					flat, err := c.flat(flatQ, db)
					if err != nil {
						t.Fatal(err)
					}
					sameRowsBitwise(t, cell+" lazy vs flat", got, flat)

					st := lazy.Stats()
					if !st.Reconciles() {
						t.Fatalf("%s: stats do not reconcile: %+v", cell, st)
					}
					lz, last, boughtHere := earlySteps(t, tlog)
					if boughtHere != lazy.rs.Built() {
						t.Fatalf("%s: tree built %v, the search's trace says %v", cell, lazy.rs.Built(), boughtHere)
					}
					switch {
					case ms.m.Name() == "dtw":
						if lz != 0 || !lazy.rs.Built() {
							t.Fatalf("%s: a DTW probe verified %d steps without its tree (built %v)", cell, lz, lazy.rs.Built())
						}
					case lazy.rs.Built():
						crossed++
						if lz < 2*lazy.rs.SetupSteps || lz-last >= 2*lazy.rs.SetupSteps || st.WedgeLeafVisits == 0 {
							t.Fatalf("%s: bought the tree after %d early-abandoning steps of %d, %d leaf visits", cell, lz, 2*lazy.rs.SetupSteps, st.WedgeLeafVisits)
						}
						if got, want := lazy.Steps(), st.Steps+lazy.rs.SetupSteps; got != want {
							t.Fatalf("%s: Steps %d, want the record + the build once = %d", cell, got, want)
						}
					default:
						never++
						if lz >= 2*lazy.rs.SetupSteps || st.WedgeLeafVisits != 0 || lazy.Steps() != st.Steps || lz != st.Steps {
							t.Fatalf("%s: no tree after %d early-abandoning steps (of %d; record %d, Steps %d, %d leaf visits)", cell, lz, 2*lazy.rs.SetupSteps, st.Steps, lazy.Steps(), st.WedgeLeafVisits)
						}
					}
				}
			}
		}
	}
	if crossed == 0 || never == 0 {
		t.Fatalf("%d cells bought the tree mid-probe and %d never did; the table needs both", crossed, never)
	}
}

// TestSampledProbeBuildsNoTree: a bound sampler attached to a fresh query
// takes its root wedge off the rotation rows, so a sampled probe leaves the
// tree unbuilt, and records — snapshot for snapshot — what it records for a
// query whose tree is built: the rows' envelope, widened, is the root node's,
// bit for bit.
func TestSampledProbeBuildsNoTree(t *testing.T) {
	db := demoDB(61, 60, 48)
	ix, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewIndex(db[:1], 8) // LCSS verifies every row: the purchase would come before the second
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    Measure
		ix   *Index
		rows []Series
	}{
		{"ed", Euclidean(), ix, db},
		{"lcss", LCSS(3, 0.25), one, db[:1]},
	} {
		snapshot := func(q *Query) string {
			t.Helper()
			sampler := NewBoundSampler(1)
			q.SetBoundSampler(sampler)
			if _, err := tc.ix.SearchTopK(q, 3); err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(sampler.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return string(js)
		}
		series := ts.Rotate(db[2], 5)
		fresh, _ := NewQuery(series, tc.m)
		got := snapshot(fresh)
		if fresh.rs.Built() {
			t.Fatalf("%s: the sampled probe built the tree", tc.name)
		}
		want := snapshot(builtQuery(t, series, tc.m, tc.rows))
		if got != want {
			t.Fatalf("%s: sampled without a tree:\n%s\nwith one:\n%s", tc.name, got, want)
		}
	}
}

// TestSearchParallelBuildsTheTreeOnce: a fresh query's parallel scan, whose
// workers share the rotation set and race for its first Tree, builds it once
// (run under -race, as make race-concurrency does) and charges it once: Steps
// is the record plus one SetupSteps, and at one worker it equals the serial
// scan's.
func TestSearchParallelBuildsTheTreeOnce(t *testing.T) {
	db := demoDB(63, 200, 48)
	series := ts.Rotate(db[9], 13)
	serial, _ := NewQuery(series, Euclidean())
	want, err := serial.Search(db)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 4; workers++ {
		q, _ := NewQuery(series, Euclidean())
		got, err := q.SearchParallel(db, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameRowsBitwise(t, fmt.Sprintf("workers=%d", workers), []SearchResult{got}, []SearchResult{want})
		if !q.rs.Built() {
			t.Fatalf("workers=%d: the scan built no tree", workers)
		}
		if got, want := q.Steps(), q.Stats().Steps+q.rs.SetupSteps; got != want {
			t.Fatalf("workers=%d: Steps %d, want the record + one build = %d", workers, got, want)
		}
		if workers == 1 && q.Steps() != serial.Steps() {
			t.Fatalf("one worker spent %d steps, the serial scan %d", q.Steps(), serial.Steps())
		}
	}
}

// FuzzLazyProbeMatchesBuilt: over a fuzzed collection, measure, k and range
// radius, a fresh query's index probe — verifying by early abandoning until
// its tree pays, then by H-Merge — returns the rows of a query whose tree a
// flat Search built, bit for bit, with the same fetches.
func FuzzLazyProbeMatchesBuilt(f *testing.F) {
	f.Add(int64(1), uint8(1), 0.5, uint8(0))
	f.Add(int64(2), uint8(40), 1.5, uint8(0))
	f.Add(int64(3), uint8(3), 0.8, uint8(1))
	f.Add(int64(4), uint8(90), 2.0, uint8(2))
	f.Add(int64(5), uint8(0), 4.0, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, k uint8, radius float64, measure uint8) {
		const rows, n = 90, 32
		db := demoDB(seed, rows, n)
		ix, err := NewIndex(db, 6)
		if err != nil {
			t.Fatal(err)
		}
		m := []Measure{Euclidean(), DTW(2), LCSS(2, 0.3)}[int(measure)%3]
		series := ts.Rotate(db[int(uint64(seed)%rows)], int(k)%n)
		// The radius is a multiple of the nearest distance, so that a range
		// keeps a few rows or many, rather than none or all.
		nn, err := builtQuery(t, series, m, db).Search(db)
		if err != nil {
			t.Fatal(err)
		}
		scale := math.Abs(radius)
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale > 8 {
			scale = 8
		}
		r := (nn.Dist + 1e-3) * (0.25 + scale)
		for _, c := range []lazyCase{{kind: "nn"}, {kind: "topk", k: 1 + int(k)}, {kind: "range", radius: r}} {
			lazy, _ := NewQuery(series, m)
			got, err := c.run(ix, lazy)
			if err != nil {
				t.Fatal(err)
			}
			built := builtQuery(t, series, m, db)
			want, err := c.run(ix, built)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s %s k=%d r=%v", m.Name(), c.kind, c.k, c.radius)
			sameRowsBitwise(t, what, got, want)
			if lazy.Stats().IndexFetches != built.Stats().IndexFetches || !lazy.Stats().Reconciles() {
				t.Fatalf("%s: lazy fetched %d rows, built %d (lazy stats %+v)", what, lazy.Stats().IndexFetches, built.Stats().IndexFetches, lazy.Stats())
			}
		}
	})
}

// TestOnlyTheWedgeStrategyBuildsATree holds Query's contract over every
// strategy, measure and path: the wedge tree is built under the wedge
// strategy (by a flat search at once, by an index search once it pays), and
// never under one that walks no wedge — the DTW index walk included, which
// then widens the rotations' own envelopes, bit for bit the tree's leaves. Every cell answers the flat
// wedge scan's rows, and every index cell of a measure fetches the same
// rows as its wedge cell. A query with no tree is charged no set-up: its
// Steps are its record's.
func TestOnlyTheWedgeStrategyBuildsATree(t *testing.T) {
	db := demoDB(64, 64, 64)
	ix, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	series := ts.Rotate(db[5], 11)
	for _, m := range []Measure{Euclidean(), DTW(3), LCSS(3, 0.5)} {
		var want []SearchResult
		var wantReads int
		for _, s := range []Strategy{WedgeSearch, EarlyAbandonSearch, BruteForceSearch} {
			for _, indexed := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/indexed=%v", m.Name(), s, indexed)
				q, err := NewQuery(series, m, WithStrategy(s))
				if err != nil {
					t.Fatal(err)
				}
				ix.ResetDiskReads()
				var got []SearchResult
				if indexed {
					got, err = ix.SearchTopK(q, 3)
				} else {
					got, err = q.SearchTopK(db, 3)
				}
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				}
				sameRowsBitwise(t, name, got, want)
				if indexed {
					if s == WedgeSearch {
						wantReads = ix.DiskReads()
					} else if ix.DiskReads() != wantReads {
						t.Errorf("%s: %d disk reads, the wedge strategy's %d", name, ix.DiskReads(), wantReads)
					}
				}
				if built := q.rs.Built(); built && s != WedgeSearch || !built && s == WedgeSearch && !indexed {
					t.Errorf("%s: tree built %v", name, built)
				}
				if !q.rs.Built() && q.Steps() != q.Stats().Steps {
					t.Errorf("%s: Steps %d, record %d: a query with no tree paid a set-up", name, q.Steps(), q.Stats().Steps)
				}
			}
		}
	}
}
