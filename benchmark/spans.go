package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark from outside the program. Times are nanoseconds since the log
// was created. Parent is the ID of the span that caused it (-1 for an op's
// root); spans of one op share Op. Count > 1 marks an aggregate: many short
// calls (segment fetches) folded into one span whose duration is their sum.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

// spanLog keeps spans in memory until the run ends. One goroutine appends to
// a log; store-rw gives its writer goroutine a log of its own.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// begin opens a span and returns its ID; end closes it.
func (l *spanLog) begin(name string, op, parent int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: l.now()})
	return id
}

func (l *spanLog) end(id int) { l.spans[id].End = l.now() }

// add records a span whose interval was measured elsewhere.
func (l *spanLog) add(name string, op, parent int, start, dur int64, count int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: start + dur, Count: count})
	return id
}

// opSpan is the name of every op's root span.
const opSpan = "op"

// budgetRow is one line of the latency budget: a span name's mean self time
// per op and its share of the op span.
type budgetRow struct {
	Span   string  `json:"span"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// budget reduces the log to the latency budget. A span's self time is its
// duration minus what its child spans cover; the op root's own self time is
// the row "unattributed". Rows therefore sum to the mean op span, and
// coverage is the attributed share of it.
func (l *spanLog) budget() (rows []budgetRow, opMS, coverage float64) {
	covered := make([]int64, len(l.spans))
	ops := 0
	for _, s := range l.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		} else if s.Name == opSpan {
			ops++
		}
	}
	if ops == 0 {
		return nil, 0, 0
	}
	self := map[string]int64{}
	var total int64
	for i, s := range l.spans {
		if s.Op < 0 {
			continue // background work (store-rw's writer) is not part of an op
		}
		name := s.Name
		if name == opSpan {
			name = "unattributed"
			total += s.End - s.Start
		}
		self[name] += s.End - s.Start - covered[i]
	}
	perOp := func(ns int64) float64 { return float64(ns) / float64(ops) / 1e6 }
	for name, ns := range self {
		rows = append(rows, budgetRow{Span: name, SelfMS: perOp(ns), Share: float64(ns) / float64(total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if (rows[i].Span == "unattributed") != (rows[j].Span == "unattributed") {
			return rows[j].Span == "unattributed"
		}
		return rows[i].SelfMS > rows[j].SelfMS
	})
	return rows, perOp(total), 1 - float64(self["unattributed"])/float64(total)
}

// durations returns the duration of every span with the given name.
func (l *spanLog) durations(name string) samples {
	var out samples
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the logs as JSON Lines (one span per line) at path+".jsonl"
// and in Chrome trace-event form (ui.perfetto.dev) at path+".chrome.json".
func writeSpans(path string, logs ...*spanLog) error {
	jl, err := os.Create(path + ".jsonl")
	if err != nil {
		return err
	}
	defer jl.Close()
	ch, err := os.Create(path + ".chrome.json")
	if err != nil {
		return err
	}
	defer ch.Close()
	jw, cw := bufio.NewWriter(jl), bufio.NewWriter(ch)
	enc := json.NewEncoder(jw)
	fmt.Fprint(cw, `{"traceEvents":[`)
	first := true
	for track, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
			if !first {
				fmt.Fprint(cw, ",")
			}
			first = false
			fmt.Fprintf(cw, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
				s.Name, track, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Op)
		}
	}
	fmt.Fprintln(cw, "\n]}")
	if err := jw.Flush(); err != nil {
		return err
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	if err := jl.Close(); err != nil {
		return err
	}
	return ch.Close()
}
