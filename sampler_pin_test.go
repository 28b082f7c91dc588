package lbkeogh_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"lbkeogh"
)

// TestPinnedBoundSamplerSnapshot holds a bound sampler's whole snapshot, fed
// the comparisons of a fixed candidate set, to literals captured at commit
// f3568dd, while the waterfall was still measured by a private copy of the
// query's state beside the searcher. Each query runs Distance over the set
// (r = -1: nothing is eliminated), Match at a finite threshold (every stage
// gets to eliminate) and one Search (r = +Inf, then the shrinking
// best-so-far). The hash covers the snapshot's JSON, so every bound value,
// ratio bucket and attribution counts; the readable fields name what moved
// when the hash does.
//
// Steps are pinned beside the snapshot. Under DTW and LCSS they include the
// widening of the query's wedges, (2·64 − 1)·64 = 8 128 steps, as a plain
// query's do: the sampler reads its root wedge from the tree's one widened
// array, and whichever of it and the first comparison builds that array
// charges the query (they excluded it, 8 128 fewer each, while attaching a
// sampler widened the tree off the query's tally). The "shared" case
// attaches one interval-7 sampler to two queries, so the second query's
// first comparison is not sampled and its steps say that the attach does no
// work of its own.
func TestPinnedBoundSamplerSnapshot(t *testing.T) {
	db := lbkeogh.SyntheticProjectilePoints(5, 41, 64)
	cands := db[1:]
	run := func(q *lbkeogh.Query, threshold float64) {
		t.Helper()
		for _, x := range cands {
			if _, _, err := q.Distance(x); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range cands {
			if _, _, _, err := q.Match(x, threshold); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := q.Search(cands); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		measure   lbkeogh.Measure
		strategy  lbkeogh.Strategy
		interval  int
		queries   int
		threshold float64
		steps     []int64 // per query, build included
		kills     int64   // sampled candidates only the exact kernel eliminated
		survived  int64
		elim      map[string]int64 // per bound: sampled candidates it eliminated first
		sha       string           // first 16 hex digits of the snapshot JSON's SHA-256
	}{
		{"ed", lbkeogh.Euclidean(), lbkeogh.WedgeSearch, 1, 1, 3, []int64{192984},
			4, 46, map[string]int64{"fft": 70, "envelope": 0}, "903beb7b400fdb21"},
		{"ed-fft", lbkeogh.Euclidean(), lbkeogh.FFTSearch, 1, 1, 3, []int64{162251},
			4, 46, map[string]int64{"fft": 70, "envelope": 0}, "903beb7b400fdb21"},
		{"dtw3", lbkeogh.DTW(3), lbkeogh.WedgeSearch, 1, 1, 2, []int64{1259100},
			70, 48, map[string]int64{"envelope": 2}, "b3c92c7453591936"},
		{"lcss3", lbkeogh.LCSS(3, 0.25), lbkeogh.WedgeSearch, 1, 1, 0.3, []int64{3785076},
			45, 74, map[string]int64{"envelope": 1}, "af5a624b99fc27d3"},
		{"shared", lbkeogh.DTW(3), lbkeogh.WedgeSearch, 7, 2, 2, []int64{1259100, 930739},
			17, 12, map[string]int64{"envelope": 6}, "7555ddb8d4b5942f"},
	} {
		sampler := lbkeogh.NewBoundSampler(tc.interval)
		var steps []int64
		for i := 0; i < tc.queries; i++ {
			q, err := lbkeogh.NewQuery(db[i], tc.measure, lbkeogh.WithStrategy(tc.strategy))
			if err != nil {
				t.Fatal(err)
			}
			q.SetBoundSampler(sampler)
			run(q, tc.threshold)
			steps = append(steps, q.Steps())
		}
		snap := sampler.Snapshot()
		js, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(js)
		sha := hex.EncodeToString(sum[:8])
		elim := map[string]int64{}
		for _, b := range snap.Bounds {
			elim[b.Bound] = b.Eliminated
		}
		if !reflect.DeepEqual(steps, tc.steps) {
			t.Errorf("%s: steps %v, want %v", tc.name, steps, tc.steps)
		}
		if snap.KernelKills != tc.kills || snap.Survived != tc.survived || !reflect.DeepEqual(elim, tc.elim) {
			t.Errorf("%s: kernel kills %d, survived %d, eliminated %v; want %d, %d, %v",
				tc.name, snap.KernelKills, snap.Survived, elim, tc.kills, tc.survived, tc.elim)
		}
		if sha != tc.sha {
			t.Errorf("%s: snapshot hash %s, want %s; snapshot:\n%s", tc.name, sha, tc.sha, js)
		}
	}
}
