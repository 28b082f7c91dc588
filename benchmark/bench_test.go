package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// smoke runs one workload from the scaled-down size table. -seconds 0 ends
// the timed phase at min_ops, so the op count does not depend on the clock.
func smoke(t *testing.T, name string, seed int64, trace bool) (*bench, resultLine) {
	t.Helper()
	b := newBench(name, smokeSizes[name], seed, 0, trace, t.TempDir())
	var out bytes.Buffer
	if err := runners[name](b, &out); err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	line, err := lastLine(out.Bytes())
	if err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, out.Bytes())
	}
	if !b.rep.Correct || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: %d of %d ops failed: %v", name, seed, trace, b.rep.Failed, b.rep.Attempted, b.rep.Failures)
	}
	return b, line
}

// TestWorkloadsDeterministicAndCorrect runs every workload three times from
// the smoke table: the same seed twice — once untraced, once traced — must
// give the same inputs and the same counts, with every traced answer equal
// to the untraced one (the traced run fails itself otherwise); another seed
// must give other inputs.
func TestWorkloadsDeterministicAndCorrect(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, line := smoke(t, w.Name, 1, false)
			traced, tracedLine := smoke(t, w.Name, 1, true)
			other, _ := smoke(t, w.Name, 2, false)

			if plain.rep.InputHash != traced.rep.InputHash {
				t.Errorf("same seed, input hash %s then %s", plain.rep.InputHash, traced.rep.InputHash)
			}
			if plain.rep.InputHash == other.rep.InputHash {
				t.Errorf("seeds 1 and 2 share input hash %s", other.rep.InputHash)
			}
			if !reflect.DeepEqual(plain.requests, traced.requests) {
				t.Error("same seed, different request bodies")
			}
			if w.Name == "serve-mix" && (len(plain.requests) == 0 || reflect.DeepEqual(plain.requests, other.requests)) {
				t.Error("serve-mix request bodies missing or unchanged by the seed")
			}
			// Counts that repeat exactly. serve-mix's two clients race each
			// other for pooled sessions, whose adaptive state the steps
			// depend on, so its count repeats only approximately.
			exact := map[string][]string{
				"scan-ed":  {"steps_per_op"},
				"scan-dtw": {"steps_per_op"},
				"index-ed": {"steps_per_op", "index.fetch_frac", "segment.store_bytes_ratio"},
				"store-rw": {"steps_per_op"},
			}
			for _, name := range exact[w.Name] {
				a, b := plain.rep.Metrics[name], traced.rep.Metrics[name]
				if a.Value != b.Value || a.Value == 0 {
					t.Errorf("%s: %v then %v on the same seed", name, a.Value, b.Value)
				}
			}

			// The result lines carry exactly the contract's metric sets.
			for _, c := range []struct {
				line resultLine
				list []metricSpec
			}{{line, endToEnd}, {tracedLine, perLayer}} {
				if len(c.line.Metrics) != len(c.list) {
					t.Errorf("result line has %d metrics, want %d", len(c.line.Metrics), len(c.list))
				}
				for _, spec := range c.list {
					if mv, ok := c.line.Metrics[spec.Name]; !ok || mv.Unit != spec.Unit {
						t.Errorf("result line: %s = %+v, want unit %s", spec.Name, mv, spec.Unit)
					}
				}
			}
			for _, spec := range endToEnd {
				if line.Metrics[spec.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", spec.Name, line.Metrics[spec.Name].Value)
				}
			}
			if cov := tracedLine.Metrics["bench.trace_coverage"].Value; cov < 0.9 || cov > 1.1 {
				t.Errorf("trace coverage %v", cov)
			}
			if len(traced.rep.Budget) == 0 {
				t.Error("traced run printed no latency budget")
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with spec.go and inside the
// driver's limits. Run with -update to rewrite the file.
func TestBenchmarkJSON(t *testing.T) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(s metricSpec) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("metric %+v breaks the naming contract", s)
		}
		seen[s.Name] = true
	}
	for _, s := range endToEnd {
		check(s)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		doc.EndToEnd = append(doc.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		check(s)
		doc.PerLayer = append(doc.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	if !seen["setup_s"] || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("metric or workload counts outside the contract")
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name, or why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
		if _, ok := runners[w.Name]; !ok || fullSizes[w.Name].M == 0 || smokeSizes[w.Name].M == 0 {
			t.Errorf("workload %q lacks a runner or a row in a size table", w.Name)
		}
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is out of step with spec.go; run go test ./benchmark -run TestBenchmarkJSON -update")
	}
}
