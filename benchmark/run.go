package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// answer is what one op returned, reduced to what the checks compare.
type answer struct {
	Index int
	Dist  float64
}

// closeTo is the oracle's distance tolerance: 1e-9 relative.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// validAnswer is the structural check every op gets.
func validAnswer(a answer, m int) error {
	if a.Index < 0 || a.Index >= m {
		return fmt.Errorf("neighbour index %d outside [0,%d)", a.Index, m)
	}
	if math.IsNaN(a.Dist) || math.IsInf(a.Dist, 0) || a.Dist < 0 {
		return fmt.Errorf("distance %v is not a finite non-negative number", a.Dist)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the figure
}

type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Sizes      size   `json:"sizes"`
}

// report is the full result of one run, written to -out.
type report struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Env       envBlock               `json:"env"`
	InputHash string                 `json:"input_hash"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Budget    []budgetRow            `json:"budget,omitempty"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one run of one workload in this process.
type bench struct {
	name    string
	sz      size
	seed    int64
	seconds int
	trace   bool
	workDir string // scratch for segment stores, inside the checkout
	outPath string // "" writes no files

	rep      report
	genS     float64
	oracleS  float64
	oracleN  int
	setups   samples
	requests [][]byte // serve-mix: the generated bodies, kept for the determinism test
}

func newBench(name string, sz size, seed int64, seconds int, trace bool, workDir string) *bench {
	return &bench{
		name: name, sz: sz, seed: seed, seconds: seconds, trace: trace, workDir: workDir,
		rep: report{
			Workload: name, Trace: trace, Metrics: map[string]metricValue{},
			Env: envBlock{
				NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
				Commit: commit(), Seed: seed, Seconds: seconds, Sizes: sz,
			},
		},
	}
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			m[s.Name] = s.Unit
		}
	}
	return m
}()

// set records a metric by its normative name; n is the sample count.
func (b *bench) set(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	b.rep.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// setMedian records the nearest-rank median of s scaled by 1/div; an empty
// set (the layer did no work) records nothing, which prints as 0.
func (b *bench) setMedian(name string, s samples, div float64) {
	if v, err := s.median(); err == nil {
		b.set(name, float64(v)/div, len(s))
	}
}

// setTail records a tail percentile; one the guard refuses is not printed.
func (b *bench) setTail(name string, s samples, p, div float64) {
	if v, err := s.tail(p); err == nil {
		b.set(name, float64(v)/div, len(s))
	}
}

// fail counts one failed or wrong op (or failed whole-run check).
func (b *bench) fail(format string, args ...any) {
	b.rep.Failed++
	if len(b.rep.Failures) < 20 {
		b.rep.Failures = append(b.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// timeGen runs input generation, which setup_s excludes.
func (b *bench) timeGen(f func()) {
	t := time.Now()
	f()
	b.genS += time.Since(t).Seconds()
}

// timeOracle runs oracle work, outside every timed phase and setup_s.
func (b *bench) timeOracle(f func()) {
	t := time.Now()
	f()
	b.oracleS += time.Since(t).Seconds()
}

// setup times prepare — system preparation plus warm-up — setupReps times
// (once in a traced run, which does not report setup_s), tearing down all
// but the last, whose system the timed phase then uses.
func (b *bench) setup(prepare func() (teardown func(), err error)) (teardown func(), err error) {
	reps := setupReps
	if b.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if teardown != nil {
			teardown()
		}
		t := time.Now()
		teardown, err = prepare()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, int64(time.Since(t)))
	}
	return teardown, nil
}

// passes calls pass(p) for p = 0, 1, … until the run has measured for its
// -seconds and has at least min_ops ops; a traced run makes exactly one
// pass. Whole passes ask every query the same number of times in every run,
// which is what lets a quantile repeat. It returns each pass's wall time.
func (b *bench) passes(opsPerPass int, pass func(p int)) []time.Duration {
	var walls []time.Duration
	start := time.Now()
	for p := 0; ; p++ {
		t := time.Now()
		pass(p)
		walls = append(walls, time.Since(t))
		if b.trace || (time.Since(start) >= time.Duration(b.seconds)*time.Second && (p+1)*opsPerPass >= b.sz.MinOps) {
			return walls
		}
	}
}

// bestOfPasses reduces pass-major latencies to each op slot's fastest
// execution across the passes.
func bestOfPasses(lat samples, slots int) samples {
	best := append(samples(nil), lat[:slots]...)
	for i, v := range lat[slots:] {
		if j := i % slots; v < best[j] {
			best[j] = v
		}
	}
	return best
}

// finishOps derives the op metrics common to every workload from the timed
// phase: lat holds every op's latency, pass after pass, slots ops to a pass.
//
// The sandbox's clock wanders between two speeds, 1.55× apart, in bursts of
// tenths of a second, and the share of a run spent at the slow one moves
// every mean or median over all ops by ±8 % between runs of identical work.
// So op_p50_ms is the median over op slots of the slot's fastest pass, and
// ops_per_s the throughput of the fastest pass: the repeatable figures.
// op_p95_ms stays the p95 over every op of every pass — the tail a caller
// sees, disturbances included.
func (b *bench) finishOps(lat samples, slots int, walls []time.Duration, steps int64, stepOps int) {
	b.rep.Attempted += len(lat)
	b.setMedian("op_p50_ms", bestOfPasses(lat, slots), 1e6)
	b.setTail("op_p95_ms", lat, 0.95, 1e6)
	fastest := walls[0]
	for _, w := range walls {
		fastest = min(fastest, w)
	}
	b.set("ops_per_s", float64(slots)/fastest.Seconds(), slots)
	b.set("steps_per_op", float64(steps)/float64(stepOps), stepOps)
	b.set("bench.timed_ops", float64(len(lat)), 0)
}

// finish fills the metrics every run has, prints the report and writes -out.
func (b *bench) finish(w io.Writer, in *inputs, logs ...*spanLog) error {
	b.rep.InputHash = in.hash()
	b.setMedian("setup_s", b.setups, 1e9)
	b.set("peak_rss_mb", peakRSSMB(), 0)
	b.set("bench.gen_s", b.genS, 0)
	b.set("bench.oracle_s", b.oracleS, 0)
	b.set("bench.oracle_checked", float64(b.oracleN), 0)
	if b.trace && len(logs) > 0 {
		rows, opMS, coverage := logs[0].budget()
		b.rep.Budget = rows
		b.set("budget.op_ms", opMS, 0)
		b.set("bench.trace_coverage", coverage, 0)
		for _, r := range rows {
			b.set("budget."+r.Span+"_ms", r.SelfMS, 0)
		}
		if coverage < 0.90 || coverage > 1.10 {
			b.fail("trace coverage %.3f outside [0.90, 1.10]", coverage)
		}
	}
	list := perLayer
	if !b.trace {
		list = endToEnd
		for _, spec := range endToEnd {
			if _, ok := b.rep.Metrics[spec.Name]; !ok {
				b.fail("end-to-end metric %s was not measured", spec.Name)
			}
		}
	}
	b.rep.Correct = b.rep.Failed == 0

	line := resultLine{Correct: b.rep.Correct, Attempted: b.rep.Attempted, Failed: b.rep.Failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  input %s\n", b.name, b.seed, b.trace, b.rep.InputHash)
	e := b.rep.Env
	fmt.Fprintf(w, "env nproc=%d GOMAXPROCS=%d %s commit=%s\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
	sizes, _ := json.Marshal(b.sz) // a struct of numbers cannot fail to marshal
	fmt.Fprintf(w, "sizes %s\n", sizes)
	fmt.Fprintf(w, "%-36s %16s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, spec := range list {
		// A metric nothing recorded belongs to a layer this workload
		// bypasses: the layer did no work, and reads 0.
		mv := b.rep.Metrics[spec.Name]
		line.Metrics[spec.Name] = metricValue{Value: mv.Value, Unit: spec.Unit}
		fmt.Fprintf(w, "%-36s %16.6g %-6s %8d\n", spec.Name, mv.Value, spec.Unit, mv.N)
	}
	if len(b.rep.Budget) > 0 {
		fmt.Fprintf(w, "\nlatency budget (mean self time per traced op; rows sum to the op span)\n")
		var sum float64
		for _, r := range b.rep.Budget {
			fmt.Fprintf(w, "  %-28s %10.4f ms %6.1f %%\n", r.Span, r.SelfMS, 100*r.Share)
			sum += r.SelfMS
		}
		fmt.Fprintf(w, "  %-28s %10.4f ms  (op span %.4f ms)\n", "sum", sum, b.rep.Metrics["budget.op_ms"].Value)
	}
	for _, f := range b.rep.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	if b.outPath != "" {
		if err := os.MkdirAll(filepath.Dir(b.outPath), 0o755); err != nil {
			return err
		}
		full, err := json.MarshalIndent(b.rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(b.outPath, append(full, '\n'), 0o644); err != nil {
			return err
		}
		if b.trace && len(logs) > 0 {
			if err := writeSpans(strings.TrimSuffix(b.outPath, ".json")+".spans", logs...); err != nil {
				return err
			}
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", last)
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// reportMem records the allocation and GC cost of a phase of ops ops that
// began at before.
func (b *bench) reportMem(before *runtime.MemStats, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.set("lbkeogh.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(ops), ops)
	b.set("lbkeogh.mallocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(ops), ops)
	b.set("lbkeogh.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, ops)
}
