package main

import (
	"math"
	"testing"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = int64(n - i) // descending: the quantile must sort a copy
	}
	return s
}

func TestQuantileKnownVectors(t *testing.T) {
	cases := []struct {
		name string
		s    samples
		p    float64
		want int64
	}{
		{"n=1 median", samples{7}, 0.5, 7},
		{"n=1 p95", samples{7}, 0.95, 7},
		{"n=10 median", seq(10), 0.5, 5},
		{"n=10 p95", seq(10), 0.95, 10},
		{"n=10 p10", seq(10), 0.1, 1},
		{"n=200 median", seq(200), 0.5, 100},
		{"n=200 p95", seq(200), 0.95, 190},
		{"n=200 p100", seq(200), 1, 200},
		{"ties", samples{3, 1, 3, 3, 2, 3, 3, 9}, 0.5, 3},
		{"ties p95", samples{3, 1, 3, 3, 2, 3, 3, 9}, 0.95, 9},
	}
	for _, c := range cases {
		if got := quantile(c.s.sorted(), c.p); got != c.want {
			t.Errorf("%s: quantile = %d, want %d", c.name, got, c.want)
		}
	}
	if s := seq(5); s[0] != 5 {
		t.Error("sorted() reordered the caller's samples")
	}
}

func TestTailGuard(t *testing.T) {
	// p95 of n samples has n - ceil(0.95 n) beyond it: 9 at n=199, 10 at n=200.
	if _, err := seq(199).tail(0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	got, err := seq(200).tail(0.95)
	if err != nil || got != 190 {
		t.Errorf("p95 of 200 samples = %d, %v; want 190", got, err)
	}
	if _, err := (samples{}).median(); err == nil {
		t.Error("median of no samples must be refused")
	}
	if m, err := seq(3).median(); err != nil || m != 2 {
		t.Errorf("median of 3 = %d, %v; the guard is for tail percentiles only", m, err)
	}

	b := newBench("scan-ed", smokeSizes["scan-ed"], 1, 0, false, t.TempDir())
	b.setTail("op_p95_ms", seq(199), 0.95, 1)
	if _, ok := b.rep.Metrics["op_p95_ms"]; ok {
		t.Error("a refused percentile was printed")
	}
	b.setTail("op_p95_ms", seq(200), 0.95, 1)
	if mv := b.rep.Metrics["op_p95_ms"]; mv.N != 200 || mv.Value != 190 {
		t.Errorf("reported %+v, want value 190 over 200 samples", mv)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestBudgetRowsSumToOpSpan(t *testing.T) {
	l := &spanLog{}
	for op := 0; op < 2; op++ {
		base := int64(op) * 1000
		root := l.add(opSpan, op, -1, base, 100, 0)
		a := l.add("index.search", op, root, base+10, 60, 0)
		l.add("segment.fetch", op, a, base+10, 25, 7) // aggregate of 7 fetches
		l.add("core.rotationset", op, root, base+70, 20, 0)
	}
	l.add("segment.compact", -1, -1, 0, 5000, 0) // background work is no op's
	rows, opMS, coverage := l.budget()
	want := map[string]float64{"index.search": 35e-6, "segment.fetch": 25e-6, "core.rotationset": 20e-6, "unattributed": 20e-6}
	var sum float64
	for _, r := range rows {
		if math.Abs(r.SelfMS-want[r.Span]) > 1e-12 {
			t.Errorf("%s self = %v ms, want %v", r.Span, r.SelfMS, want[r.Span])
		}
		sum += r.SelfMS
	}
	if len(rows) != len(want) || math.Abs(sum-opMS) > 1e-12 || math.Abs(opMS-100e-6) > 1e-12 {
		t.Errorf("rows %v sum to %v, op span %v", rows, sum, opMS)
	}
	if math.Abs(coverage-0.8) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8", coverage)
	}
	if rows[len(rows)-1].Span != "unattributed" {
		t.Errorf("unattributed must be the last row, got %v", rows)
	}
}
