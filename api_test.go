package lbkeogh

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"lbkeogh/internal/segment"
	"lbkeogh/internal/ts"
)

func demoDB(seed int64, m, n int) []Series {
	return SyntheticProjectilePoints(seed, m, n)
}

// TestStrategyZeroValueIsWedge: the default a query gets without
// WithStrategy is the zero Strategy, and it is the paper's wedge search.
func TestStrategyZeroValueIsWedge(t *testing.T) {
	var s Strategy
	if s != WedgeSearch || s.String() != "wedge" {
		t.Fatalf("zero Strategy = %v (%d), want WedgeSearch printing \"wedge\"", s, int(s))
	}
	q, err := NewQuery([]float64{1, 2, 3, 4}, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	if got := q.searcher.Strategy(); got != WedgeSearch {
		t.Fatalf("a query without WithStrategy runs %v", got)
	}
}

func TestNewQueryValidation(t *testing.T) {
	if _, err := NewQuery(nil, Euclidean()); err == nil {
		t.Fatal("want error for empty series")
	}
	if _, err := NewQuery([]float64{1}, Euclidean()); err == nil {
		t.Fatal("want error for 1-sample series")
	}
	if _, err := NewQuery([]float64{1, 2, 3}, Measure{}); err == nil {
		t.Fatal("want error for zero Measure")
	}
	for _, m := range []Measure{DTW(3), LCSS(3, 0.25)} {
		_, err := NewQuery([]float64{1, 2, 3}, m, WithStrategy(FFTSearch))
		if err == nil || !strings.Contains(err.Error(), "FFTSearch") || !strings.Contains(err.Error(), m.Name()) {
			t.Fatalf("FFTSearch with %s: got %v, want an error naming FFTSearch and the measure", m.Name(), err)
		}
	}
	if _, err := NewQuery([]float64{1, 2, 3, 4}, Euclidean(), WithMaxRotationDegrees(200)); err == nil {
		t.Fatal("want error for degree limit >= 180")
	}
	// A non-finite sample used to reach the clustering and die there with an
	// index panic (no distance compares < NaN).
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		series := ts.RandomWalk(ts.NewRand(1), 32)
		series[17] = bad
		if _, err := NewQuery(series, Euclidean()); err == nil || !strings.Contains(err.Error(), "sample 17") {
			t.Fatalf("want an error naming sample 17 for a %v sample, got %v", bad, err)
		}
	}
}

// alternating is n samples alternating between v and -v.
func alternating(v float64, n int) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = v * float64(1-2*(i%2))
	}
	return s
}

// Finite samples whose squares overflow are refused where a query is built:
// their squared distances are +Inf, and the clustering of the rotations used
// to panic with "non-finite distance". Large samples whose squared norm stays
// below ts.MaxSquaredNorm still build.
func TestNewQueryRefusesOverflowingNorm(t *testing.T) {
	if _, err := NewQuery(alternating(1e200, 32), Euclidean()); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("NewQuery over ±1e200: want an overflow error, got %v", err)
	}
	if _, err := NewQuery(alternating(1e150, 32), Euclidean()); err != nil {
		t.Errorf("NewQuery over ±1e150: %v", err)
	}
}

// The same holds for a monitor's patterns, whose clustering panicked alike.
func TestNewMonitorRefusesOverflowingNorm(t *testing.T) {
	patterns := []Series{alternating(1e200, 16), alternating(-1e200, 16), alternating(1, 16)}
	if _, err := NewMonitor(patterns, Euclidean(), 0.5); err == nil || !strings.Contains(err.Error(), "pattern 0 has") {
		t.Errorf("NewMonitor over ±1e200 patterns: want an error naming pattern 0, got %v", err)
	}
}

// TestNonFiniteCandidateNeverMatches: a candidate with a NaN sample is at no
// finite distance under any strategy, so Distance answers +Inf. Brute force
// used to panic on it: no distance compares below NaN, so no rotation was
// kept, and it looked up rotation -1.
func TestNonFiniteCandidateNeverMatches(t *testing.T) {
	db := demoDB(25, 3, 32)
	x := append(Series(nil), db[1]...)
	x[3] = math.NaN()
	for _, s := range allStrategies() {
		q, err := NewQuery(db[0], Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		if d, _, err := q.Distance(x); err != nil || !math.IsInf(d, 1) {
			t.Fatalf("%v: Distance to a NaN candidate = %v, %v; want +Inf", s, d, err)
		}
	}
}

// TestParallelSearchOfNonFiniteRows: a database in which every row holds a
// NaN has no series at a finite distance. Search answers it {-1, +Inf} with
// no error (a flat scan checks lengths only), and SearchParallel must answer
// the same at every worker count; it used to report an internal invariant
// violation instead.
func TestParallelSearchOfNonFiniteRows(t *testing.T) {
	db := demoDB(25, 4, 32)
	rows := make([]Series, 3)
	for i := range rows {
		rows[i] = append(Series(nil), db[i+1]...)
		rows[i][5*i] = math.NaN()
	}
	q, err := NewQuery(db[0], Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Search(rows)
	if err != nil || want.Index != -1 || !math.IsInf(want.Dist, 1) {
		t.Fatalf("Search = %+v, %v; want {-1, +Inf} and no error", want, err)
	}
	for _, workers := range []int{1, 2, 3} {
		got, err := q.SearchParallel(rows, workers)
		if err != nil || got != want {
			t.Fatalf("SearchParallel(%d workers) = %+v, %v; want %+v and no error", workers, got, err, want)
		}
	}
}

// A database row with a non-finite sample is refused wherever rows enter an
// index or a store, with an error naming the row and the sample. Such a row
// used to reach the VP-tree, whose NaN bounds hid whole subtrees: over these
// rows every index search failed with "found no result" while the flat scan
// answered. A refused write leaves no store behind.
func TestNonFiniteRowsRefused(t *testing.T) {
	entries := []struct {
		name string
		add  func(t *testing.T, rows []Series) error
	}{
		{"NewIndex", func(t *testing.T, rows []Series) error {
			_, err := NewIndex(rows, 8)
			return err
		}},
		{"WriteSegmentStore", func(t *testing.T, rows []Series) error {
			dir := filepath.Join(t.TempDir(), "store")
			err := WriteSegmentStore(dir, rows, 8)
			if _, openErr := OpenSegmentIndex(dir, 8); err != nil && openErr == nil {
				t.Error("a refused write left an openable store")
			}
			return err
		}},
		{"DB.Ingest", func(t *testing.T, rows []Series) error {
			db, err := segment.OpenDB(t.TempDir(), 8)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			_, err = db.Ingest(rows, nil)
			if n := db.Len(); err != nil && n != 0 {
				t.Errorf("a refused ingest published %d records", n)
			}
			return err
		}},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows := SyntheticProjectilePoints(3, 400, 64)
		for i := 3; i < len(rows); i += 10 {
			rows[i][5] = bad
		}
		for _, e := range entries {
			err := e.add(t, rows)
			if err == nil || !strings.Contains(err.Error(), " 3 sample 5 ") {
				t.Errorf("%s with a %v sample: want an error naming row 3 sample 5, got %v", e.name, bad, err)
			}
		}
	}
}

// A row whose squared norm overflows is refused by the same one row rule
// wherever rows enter an index or a store, naming the row; a store's ingest
// wraps segment.ErrInvalidRecords. Such a row used to be written to a store
// and served, at +Inf from every query.
func TestOverflowingRowsRefused(t *testing.T) {
	rows := SyntheticProjectilePoints(3, 40, 64)
	rows[3] = alternating(1e200, 64)
	if _, err := NewIndex(rows, 8); err == nil || !strings.Contains(err.Error(), "series 3 has a squared norm") {
		t.Errorf("NewIndex: want an error naming series 3, got %v", err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := WriteSegmentStore(dir, rows, 8); err == nil || !strings.Contains(err.Error(), "record 3 has a squared norm") {
		t.Errorf("WriteSegmentStore: want an error naming record 3, got %v", err)
	}
	if _, err := OpenSegmentIndex(dir, 8); err == nil {
		t.Error("a refused write left an openable store")
	}
	db, err := segment.OpenDB(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Ingest(rows, nil); !errors.Is(err, segment.ErrInvalidRecords) || !strings.Contains(err.Error(), "record 3 has a squared norm") {
		t.Errorf("DB.Ingest: want ErrInvalidRecords naming record 3, got %v", err)
	}
	if n := db.Len(); n != 0 {
		t.Errorf("a refused ingest published %d records", n)
	}
}

// NewMonitor refuses a NaN threshold, which used to pass the positivity
// check and match nothing, and a non-finite pattern sample, which used to
// panic in the clustering.
func TestNewMonitorRefusesNonFinite(t *testing.T) {
	patterns := SyntheticProjectilePoints(5, 8, 32)
	if _, err := NewMonitor(patterns, Euclidean(), math.NaN()); err == nil {
		t.Error("want an error for a NaN threshold")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ps := SyntheticProjectilePoints(5, 8, 32)
		ps[3][7] = bad
		if _, err := NewMonitor(ps, Euclidean(), 0.5); err == nil || !strings.Contains(err.Error(), "pattern 3 sample 7") {
			t.Errorf("a %v pattern sample: want an error naming pattern 3 sample 7, got %v", bad, err)
		}
	}
}

func TestMeasureNames(t *testing.T) {
	if Euclidean().Name() != "euclidean" || DTW(3).Name() != "dtw" || LCSS(2, 0.5).Name() != "lcss" {
		t.Fatal("measure names wrong")
	}
	if (Measure{}).Name() != "unset" {
		t.Fatal("zero measure name wrong")
	}
}

func TestQueryDistanceSelfZero(t *testing.T) {
	db := demoDB(1, 4, 64)
	for _, m := range []Measure{Euclidean(), DTW(3), LCSS(3, 0.3)} {
		q, err := NewQuery(db[0], m)
		if err != nil {
			t.Fatal(err)
		}
		d, rot, err := q.Distance(ts.Rotate(db[0], 17))
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-9 {
			t.Fatalf("%s: self distance under rotation = %v", m.Name(), d)
		}
		if rot.Shift != 17 && m.Name() != "lcss" { // LCSS can tie at several shifts
			t.Fatalf("%s: recovered shift %d, want 17", m.Name(), rot.Shift)
		}
	}
}

func TestRotationDegrees(t *testing.T) {
	db := demoDB(2, 1, 72)
	q, _ := NewQuery(db[0], Euclidean())
	_, rot, err := q.Distance(ts.Rotate(db[0], 18))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rot.Degrees-90) > 1e-9 {
		t.Fatalf("18/72 shift should be 90 degrees, got %v", rot.Degrees)
	}
}

func TestAllStrategiesAgreePublic(t *testing.T) {
	n := 64
	db := demoDB(3, 30, n)
	query := ts.Rotate(db[7], 11)
	var want SearchResult
	for i, s := range []Strategy{WedgeSearch, BruteForceSearch, EarlyAbandonSearch, FFTSearch} {
		q, err := NewQuery(query, Euclidean(), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got.Index != want.Index || math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("strategy %d disagrees: %+v vs %+v", s, got, want)
		}
	}
	if want.Index != 7 {
		t.Fatalf("planted NN not found: %d", want.Index)
	}
}

func TestSearchParallelPublic(t *testing.T) {
	db := demoDB(40, 150, 64)
	query := ts.Rotate(db[42], 19)
	q, _ := NewQuery(query, Euclidean())
	want, err := q.Search(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		qp, _ := NewQuery(query, DTW(2))
		wantD, err := qp.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		qp2, _ := NewQuery(query, DTW(2))
		gotD, err := qp2.SearchParallel(db, workers)
		if err != nil {
			t.Fatal(err)
		}
		if gotD.Index != wantD.Index || math.Abs(gotD.Dist-wantD.Dist) > 1e-9 {
			t.Fatalf("workers=%d DTW: parallel %+v != serial %+v", workers, gotD, wantD)
		}
		q2, _ := NewQuery(query, Euclidean())
		got, err := q2.SearchParallel(db, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index || math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("workers=%d: parallel %+v != serial %+v", workers, got, want)
		}
	}
	if _, err := q.SearchParallel(nil, 2); err == nil {
		t.Fatal("want error for empty db")
	}
	if _, err := q.SearchParallel([]Series{make(Series, 8)}, 2); err == nil {
		t.Fatal("want error for wrong-length db")
	}
}

func TestMatchThreshold(t *testing.T) {
	db := demoDB(4, 10, 48)
	q, _ := NewQuery(db[0], Euclidean())
	d, _, err := q.Distance(db[1])
	if err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := q.Match(db[1], d*0.9)
	if err != nil || ok {
		t.Fatalf("tight threshold must not match (ok=%v err=%v)", ok, err)
	}
	got, _, ok, err := q.Match(db[1], d*1.1)
	if err != nil || !ok || math.Abs(got-d) > 1e-9 {
		t.Fatalf("loose threshold must match exactly: got=%v ok=%v err=%v", got, ok, err)
	}
}

// Every threshold-taking method over {−1, 0, NaN, +Inf}: Match answers 0
// with "no" but refuses a negative or NaN threshold, the two range searches
// refuse all three (the server's rule), and +Inf is legal everywhere. A
// refusal spends no steps; a negative or NaN threshold used to run the
// search unbounded, and Match then answered "yes".
func TestThresholdDomain(t *testing.T) {
	db := SyntheticProjectilePoints(3, 10, 64)
	ix, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := db[5]
	ref, _ := NewQuery(db[0], Euclidean())
	d, _, err := ref.Distance(x)
	if err != nil {
		t.Fatal(err)
	}
	methods := []struct {
		name string
		run  func(q *Query, threshold float64) (hits int, err error)
	}{
		{"Match", func(q *Query, threshold float64) (int, error) {
			got, _, ok, err := q.Match(x, threshold)
			if ok && got != d {
				t.Errorf("Match(%v) = %v, Distance %v", threshold, got, d)
			}
			if ok {
				return 1, err
			}
			return 0, err
		}},
		{"Query.SearchRange", func(q *Query, threshold float64) (int, error) {
			hits, err := q.SearchRange(db, threshold)
			return len(hits), err
		}},
		{"Index.SearchRange", func(q *Query, threshold float64) (int, error) {
			hits, err := ix.SearchRange(q, threshold)
			return len(hits), err
		}},
	}
	for _, tc := range []struct {
		threshold float64
		want      [3]int // hits per method; -1: an error
	}{
		{-1, [3]int{-1, -1, -1}},
		{0, [3]int{0, -1, -1}},
		{math.NaN(), [3]int{-1, -1, -1}},
		{math.Inf(1), [3]int{1, len(db), len(db)}},
	} {
		for i, m := range methods {
			q, _ := NewQuery(db[0], Euclidean())
			built := q.Steps() // the query's construction
			hits, err := m.run(q, tc.threshold)
			if err != nil {
				hits = -1
			}
			if hits != tc.want[i] {
				t.Errorf("%s(%v): %d hits (err %v), want %d", m.name, tc.threshold, hits, err, tc.want[i])
			}
			if spent := q.Steps() - built; err != nil && spent != 0 {
				t.Errorf("%s(%v) refused after %d steps", m.name, tc.threshold, spent)
			}
		}
	}
}

func TestSearchTopKOrdering(t *testing.T) {
	db := demoDB(5, 25, 48)
	q, _ := NewQuery(db[3], DTW(2))
	top, err := q.SearchTopK(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 || top[0].Index != 3 || top[0].Dist > 1e-9 {
		t.Fatalf("self must rank first: %+v", top)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Dist < top[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
	// Clamp k.
	all, err := q.SearchTopK(db, 100)
	if err != nil || len(all) != 25 {
		t.Fatalf("k clamp failed: %d, %v", len(all), err)
	}
}

func TestSearchErrors(t *testing.T) {
	db := demoDB(6, 5, 32)
	q, _ := NewQuery(db[0], Euclidean())
	if _, err := q.Search(nil); err == nil {
		t.Fatal("want error for empty db")
	}
	if _, err := q.Search([]Series{db[0], make(Series, 16)}); err == nil {
		t.Fatal("want error for ragged db")
	}
	if _, _, err := q.Distance(make(Series, 16)); err == nil {
		t.Fatal("want error for wrong-length candidate")
	}
	if _, err := q.SearchTopK(nil, 3); err == nil {
		t.Fatal("want error for empty db in TopK")
	}
}

func TestMirrorInvarianceOption(t *testing.T) {
	g, err := Glyphs(96)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := NewQuery(g['b'], Euclidean())
	mir, _ := NewQuery(g['b'], Euclidean(), WithMirrorInvariance())
	if mir.Rotations() != 2*plain.Rotations() {
		t.Fatal("mirror invariance should double the alignment count")
	}
	dPlain, _, _ := plain.Distance(g['d'])
	dMir, rot, _ := mir.Distance(g['d'])
	if dMir >= dPlain {
		t.Fatalf("mirror match should be closer: %v vs %v", dMir, dPlain)
	}
	if !rot.Mirrored {
		t.Fatal("best alignment should be mirrored")
	}
}

func TestRotationLimitedOption(t *testing.T) {
	n := 72
	db := demoDB(7, 1, n)
	base := db[0]
	rotated := ts.Rotate(base, 18) // 90 degrees
	narrow, err := NewQuery(base, Euclidean(), WithMaxRotationDegrees(45))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewQuery(base, Euclidean(), WithMaxRotationDegrees(120))
	if err != nil {
		t.Fatal(err)
	}
	dN, _, _ := narrow.Distance(rotated)
	dW, _, _ := wide.Distance(rotated)
	if dW > 1e-9 {
		t.Fatalf("120-degree limit should find the 90-degree match: %v", dW)
	}
	if dN <= 1e-9 {
		t.Fatal("45-degree limit must not find the 90-degree match")
	}
}

func TestSixVsNine(t *testing.T) {
	// The paper's flagship rotation-limited example: a '6' should not match
	// a '9' under a tight rotation limit, but unrestricted rotation-invariant
	// search confuses them (a 9 is a rotated 6-like glyph).
	g, err := Glyphs(96)
	if err != nil {
		t.Fatal(err)
	}
	free, _ := NewQuery(g['6'], Euclidean())
	limited, _ := NewQuery(g['6'], Euclidean(), WithMaxRotationDegrees(15))
	dFree, _, _ := free.Distance(g['9'])
	dLim, _, _ := limited.Distance(g['9'])
	if dLim < dFree {
		t.Fatalf("limited query should not match 9 better: %v vs %v", dLim, dFree)
	}
}

func TestStepsAccounting(t *testing.T) {
	db := demoDB(8, 20, 64)
	q, _ := NewQuery(db[0], Euclidean())
	setup := q.Steps()
	if setup == 0 {
		t.Fatal("construction should charge steps")
	}
	if _, err := q.Search(db); err != nil {
		t.Fatal(err)
	}
	if q.Steps() <= setup {
		t.Fatal("search should add steps")
	}
	q.ResetSteps()
	if q.Steps() != 0 {
		t.Fatal("reset failed")
	}
}

func TestFixedWedgeCountOptionExact(t *testing.T) {
	db := demoDB(9, 15, 48)
	query := ts.Rotate(db[4], 9)
	ref, _ := NewQuery(query, Euclidean())
	want, err := ref.Search(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]QueryOption{
		{WithFixedWedgeCount(1)},
		{WithFixedWedgeCount(48)},
		{WithFixedWedgeCount(7)},
	} {
		q, err := NewQuery(query, Euclidean(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index || math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("options %v disagree: %+v vs %+v", opts, got, want)
		}
	}
}

func TestIndexSearchMatchesLinear(t *testing.T) {
	n := 64
	db := demoDB(10, 80, n)
	ix, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 80 || ix.Dims() != 8 {
		t.Fatalf("index metadata wrong: %d, %d", ix.Len(), ix.Dims())
	}
	for _, m := range []Measure{Euclidean(), DTW(3), LCSS(2, 0.4)} {
		q, err := NewQuery(ts.Rotate(db[13], 21), m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		q2, _ := NewQuery(ts.Rotate(db[13], 21), m)
		ix.ResetDiskReads()
		got, err := ix.Search(q2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index || math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("%s: index (%d,%v) != linear (%d,%v)", m.Name(), got.Index, got.Dist, want.Index, want.Dist)
		}
		if m.Name() != "lcss" && ix.DiskReads() >= ix.Len() {
			t.Fatalf("%s: index fetched everything (%d)", m.Name(), ix.DiskReads())
		}
	}
}

func TestIndexSearchRange(t *testing.T) {
	n := 48
	db := demoDB(30, 50, n)
	ix, err := NewIndex(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Measure{Euclidean(), DTW(2), LCSS(2, 0.3)} {
		q, _ := NewQuery(ts.Rotate(db[11], 5), m)
		nn, err := q.Search(db)
		if err != nil {
			t.Fatal(err)
		}
		q2, _ := NewQuery(ts.Rotate(db[11], 5), m)
		hits, err := ix.SearchRange(q2, nn.Dist*1.5+0.1)
		if err != nil {
			t.Fatal(err)
		}
		foundNN := false
		for _, h := range hits {
			if h.Index == nn.Index {
				foundNN = true
				if math.Abs(h.Dist-nn.Dist) > 1e-9 {
					t.Fatalf("%s: range dist %v != NN dist %v", m.Name(), h.Dist, nn.Dist)
				}
			}
			if h.Dist >= nn.Dist*1.5+0.1 {
				t.Fatalf("%s: hit beyond radius: %v", m.Name(), h.Dist)
			}
		}
		if !foundNN {
			t.Fatalf("%s: range query missed the nearest neighbour", m.Name())
		}
	}
	// Validation.
	q, _ := NewQuery(db[0], Euclidean())
	if _, err := ix.SearchRange(q, -1); err == nil {
		t.Fatal("want error for non-positive radius")
	}
	qShort, _ := NewQuery(make(Series, 16), Euclidean())
	if _, err := ix.SearchRange(qShort, 1); err == nil {
		t.Fatal("want error for length mismatch")
	}
}

func TestFileBackedIndex(t *testing.T) {
	n := 48
	db := demoDB(50, 60, n)
	dir := filepath.Join(t.TempDir(), "store")
	if err := WriteSegmentStore(dir, db, 8); err != nil {
		t.Fatal(err)
	}
	// Exactness and accounting over a reopened store are
	// TestIndexPathOracle's; this holds the persist/reopen pair's contract.
	ix, err := OpenSegmentIndex(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 60 || ix.Dims() != 8 {
		t.Fatalf("reopened index metadata (%d,%d)", ix.Len(), ix.Dims())
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Validation paths.
	if err := WriteSegmentStore(dir, db, 8); err == nil {
		t.Fatal("want error for a directory that already holds a store")
	}
	fresh := filepath.Join(t.TempDir(), "fresh")
	if err := WriteSegmentStore(fresh, nil, 8); err == nil {
		t.Fatal("want error for empty db")
	}
	if err := WriteSegmentStore(fresh, db, 0); err == nil {
		t.Fatal("want error for dims < 1")
	}
	if err := WriteSegmentStore(fresh, []Series{db[0], db[1][:n-1]}, 8); err == nil {
		t.Fatal("want error for ragged db")
	}
	if _, err := OpenSegmentIndex(fresh, 8); err == nil {
		t.Fatal("a failed write must not leave an openable store")
	}
	// In-memory index Close is a no-op.
	mem, _ := NewIndex(db, 4)
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex(nil, 4); err == nil {
		t.Fatal("want error for empty db")
	}
	if _, err := NewIndex([]Series{{1, 2}, {1}}, 4); err == nil {
		t.Fatal("want error for ragged db")
	}
	if _, err := NewIndex([]Series{{1, 2, 3, 4}}, 0); err == nil {
		t.Fatal("want error for dims < 1")
	}
	// One-sample series used to pass the row check and clamp dims to n/2 = 0,
	// which the tree build then panicked on.
	if _, err := NewIndex([]Series{{1}, {2}}, 16); err == nil || !strings.Contains(err.Error(), "need >= 2") {
		t.Fatalf("one-sample series: want a refusal, got %v", err)
	}
	db := demoDB(11, 5, 32)
	ix, _ := NewIndex(db, 4)
	q, _ := NewQuery(make(Series, 16), Euclidean())
	if _, err := ix.Search(q); err == nil {
		t.Fatal("want error for length mismatch")
	}
}

func TestDatasetGenerators(t *testing.T) {
	lc := SyntheticLightCurves(1, 30, 64, 0.1)
	if len(lc.Series) != 30 || lc.NumClasses != 3 {
		t.Fatalf("light curves malformed: %d series", len(lc.Series))
	}
	het := SyntheticHeterogeneous(2, 20, 64)
	if len(het) != 20 {
		t.Fatal("heterogeneous size wrong")
	}
	names := Table8Names()
	if len(names) != 10 {
		t.Fatal("Table8Names wrong")
	}
	d, err := Table8Dataset("Chicken", 0.5)
	if err != nil || d.NumClasses != 5 {
		t.Fatalf("Chicken dataset: %v", err)
	}
	if _, err := Table8Dataset("bogus", 1); err == nil {
		t.Fatal("want error for unknown dataset")
	}
	skulls, species := SkullDataset(3, 2, 64, 0.02)
	if len(skulls.Series) != 2*len(species) {
		t.Fatal("skull dataset size wrong")
	}
}

func TestShapePipelinePublic(t *testing.T) {
	bmp := NewBitmap(120, 120)
	bmp.FillDisk(60, 60, 30)
	bmp.FillDisk(85, 60, 14) // asymmetric feature
	sig, err := Signature(bmp, 96)
	if err != nil {
		t.Fatal(err)
	}
	rotSig, err := Signature(bmp.Rotate(math.Pi/2), 96)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(sig, Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := q.Distance(rotSig)
	if err != nil {
		t.Fatal(err)
	}
	raw := 0.0
	for i := range sig {
		diff := sig[i] - rotSig[i]
		raw += diff * diff
	}
	raw = math.Sqrt(raw)
	if d > raw {
		t.Fatalf("rotation-invariant distance %v exceeds raw %v", d, raw)
	}
	if d > 2.0 {
		t.Fatalf("rotated shape should match closely: %v", d)
	}
	if _, err := TraceContour(bmp); err != nil {
		t.Fatal(err)
	}
	if _, err := AngularSignature(bmp, 64); err != nil {
		t.Fatal(err)
	}
	if LetterBitmap('b', 64).Count() == 0 {
		t.Fatal("letter bitmap empty")
	}
}
