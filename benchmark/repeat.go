package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runChildren runs the named workload (or all of them), each run in a fresh
// child process, one after another, so no run inherits another's heap, page
// mappings or GC state. With repeat > 1 each workload runs on seeds seed,
// seed+1, … and the spread report follows; the exit code is non-zero when a
// child failed or a spread exceeds its metric's bound.
func runChildren(workload string, seed int64, seconds, trace, repeat int) int {
	names := []string{workload}
	if workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	results := map[string][]resultLine{}
	for _, name := range names {
		if _, ok := runners[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		for r := 0; r < repeat; r++ {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			err := cmd.Run()
			os.Stdout.Write(stdout.Bytes())
			fmt.Println()
			line, perr := lastLine(stdout.Bytes())
			if err != nil || perr != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d failed: run %v, result %v\n", name, seed+int64(r), err, perr)
				code = 1
				continue
			}
			results[name] = append(results[name], line)
		}
	}
	if repeat > 1 && trace == 0 && !spreadReport(names, results) {
		code = 1
	}
	return code
}

// lastLine parses the result line a child printed last.
func lastLine(stdout []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line resultLine
	err := json.Unmarshal(last, &line)
	return line, err
}

// spreadReport prints, per workload and end-to-end metric, min / median /
// max over the repeats, (max − min) / median, and the figure the bounds are
// judged by: the distance between the first and third quartile as a share
// of the median (quartiles as Python's statistics.quantiles(n=4) gives
// them). It reports false when a spread exceeds its metric's bound; setup_s
// is exempt, as it is for the driver.
func spreadReport(names []string, results map[string][]resultLine) bool {
	ok := true
	fmt.Printf("spread over seeds (IQR/median is judged against the bound)\n")
	fmt.Printf("%-10s %-14s %3s %12s %12s %12s %9s %9s %6s\n", "workload", "metric", "n", "min", "median", "max", "range/med", "IQR/med", "bound")
	for _, name := range names {
		runs := results[name]
		if len(runs) < 2 {
			continue
		}
		for _, spec := range endToEnd {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = r.Metrics[spec.Name].Value
			}
			sort.Float64s(vals)
			med := (vals[(len(vals)-1)/2] + vals[len(vals)/2]) / 2
			q1, q3 := quartiles(vals)
			iqr := (q3 - q1) / med
			verdict := ""
			if iqr > spec.Bound && spec.Name != "setup_s" {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-10s %-14s %3d %12.6g %12.6g %12.6g %9.4f %9.4f %6.2f%s\n", name, spec.Name, len(vals),
				vals[0], med, vals[len(vals)-1], (vals[len(vals)-1]-vals[0])/med, iqr, spec.Bound, verdict)
		}
	}
	return ok
}

// quartiles returns the first and third quartile of sorted (n ≥ 2) by the
// exclusive method of Python's statistics.quantiles(values, n=4).
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(k int) float64 {
		j := max(1, min(k*(n+1)/4, n-1))
		delta := k*(n+1) - 4*j
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
