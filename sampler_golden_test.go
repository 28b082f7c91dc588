package lbkeogh_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbkeogh"
)

// samplerGoldenBody feeds one interval-1 sampler every comparison of a fixed
// run under m — Distance over a candidate set (no threshold), Match at
// threshold, then a Search — and returns the snapshot's indented JSON
// followed by the WriteMetrics bytes.
func samplerGoldenBody(t *testing.T, m lbkeogh.Measure, threshold float64) []byte {
	t.Helper()
	db := lbkeogh.SyntheticProjectilePoints(9, 13, 32)
	sampler := lbkeogh.NewBoundSampler(1)
	q, err := lbkeogh.NewQuery(db[0], m)
	if err != nil {
		t.Fatal(err)
	}
	q.SetBoundSampler(sampler)
	for _, x := range db[1:] {
		if _, _, err := q.Distance(x); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := q.Match(x, threshold); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Search(db[1:]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	js, err := json.MarshalIndent(sampler.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(js)
	buf.WriteByte('\n')
	sampler.WriteMetrics(&buf)
	return buf.Bytes()
}

// TestBoundSamplerGoldens holds a sampler's whole Snapshot JSON and its
// WriteMetrics bytes over a Euclidean stream and over a DTW stream to files
// captured before the sampler's bound stages became a closed set: for a
// stream of one measure, neither output moved.
func TestBoundSamplerGoldens(t *testing.T) {
	for _, c := range []struct {
		file      string
		m         lbkeogh.Measure
		threshold float64
	}{
		{"bound_sampler_ed.golden", lbkeogh.Euclidean(), 3},
		{"bound_sampler_dtw3.golden", lbkeogh.DTW(3), 2},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := samplerGoldenBody(t, c.m, c.threshold); !bytes.Equal(got, want) {
			t.Errorf("%s: got\n%s\nwant\n%s", c.file, got, want)
		}
	}
}

// TestBoundSamplerListsCascadeOrder: one sampler shared by a DTW query that
// is sampled first and a Euclidean query after it lists the fft bound before
// the envelope bound, in its snapshot and in every per-bound family of its
// metrics — the cascade's order, not the order the bounds arrived in.
func TestBoundSamplerListsCascadeOrder(t *testing.T) {
	db := lbkeogh.SyntheticProjectilePoints(9, 13, 32)
	sampler := lbkeogh.NewBoundSampler(1)
	for _, m := range []lbkeogh.Measure{lbkeogh.DTW(3), lbkeogh.Euclidean()} {
		q, err := lbkeogh.NewQuery(db[0], m)
		if err != nil {
			t.Fatal(err)
		}
		q.SetBoundSampler(sampler)
		if _, err := q.Search(db[1:]); err != nil {
			t.Fatal(err)
		}
	}
	snap := sampler.Snapshot()
	if len(snap.Bounds) != 2 || snap.Bounds[0].Bound != "fft" || snap.Bounds[1].Bound != "envelope" {
		t.Fatalf("snapshot bounds %+v, want fft then envelope", snap.Bounds)
	}
	var buf strings.Builder
	sampler.WriteMetrics(&buf)
	body := buf.String()
	for _, family := range []string{
		"lbkeogh_explain_bound_checks_total",
		"lbkeogh_explain_bound_false_positives_total",
		"lbkeogh_explain_bound_eliminated_total",
		"lbkeogh_explain_bound_tightness_ratio_sum",
	} {
		fft := strings.Index(body, family+`{bound="fft"`)
		env := strings.Index(body, family+`{bound="envelope"`)
		if fft < 0 || env < 0 || fft > env {
			t.Errorf("%s: fft at %d, envelope at %d; want fft first", family, fft, env)
		}
	}
}
