// Package stream implements wedge-based query filtering for streaming time
// series — the "Atomic Wedgie" application of the LB_Keogh framework
// (reference [40] of the paper, Wei, Keogh et al., ICDM 2005), which the
// paper cites as evidence that the wedge machinery generalizes beyond shape
// search.
//
// A Monitor holds a set of pattern series merged into hierarchical wedges.
// Each incoming stream value slides a window forward; the window is compared
// against the wedge set with early-abandoning LB_Keogh, descending into
// individual patterns only when a wedge cannot exclude them. The monitor
// reports exactly the (time, pattern) pairs a brute-force scan would — the
// same no-false-dismissal contract as the rest of the library.
package stream

import (
	"fmt"
	"time"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// Match reports one pattern firing at one stream position.
type Match struct {
	// End is the stream index of the last value of the matching window
	// (the window covers [End-n+1, End]).
	End int
	// Pattern indexes the pattern set given to NewMonitor.
	Pattern int
	// Dist is the exact kernel distance between window and pattern.
	Dist float64
}

// Monitor filters a stream against a fixed set of equal-length patterns.
type Monitor struct {
	tree      *wedge.Tree
	kernel    wedge.Kernel
	threshold float64
	n         int

	envs   []envelope.Envelope // per dendrogram node, widened by kernel radius
	buf    []float64           // ring buffer of the last n values
	filled int
	pos    int
	seen   int // total values consumed

	// win, stack and local are the working memory of one full-window Push —
	// the window in stream order, the wedge walk's stack and its step tally —
	// so a Push that matches nothing allocates nothing.
	win   []float64
	stack []int
	//lint:ignore tallyescape a Monitor is confined to one goroutine; a stack Tally would escape through the Kernel interface and cost an allocation per window
	local stats.Tally

	steps stats.Counter   // cumulative num_steps; Push flushes local into it
	obs   obs.SearchStats // per-window pruning breakdowns
	tlog  *trace.Log      // nil: no filter-latency histograms
}

// NewMonitor compiles patterns (all the same length n) into a wedge
// hierarchy for threshold filtering under kern. A window matches pattern p
// when the kernel distance is strictly below threshold.
func NewMonitor(patterns [][]float64, kern wedge.Kernel, threshold float64) (*Monitor, error) {
	n, err := ts.CheckRows(patterns, "pattern")
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if !(threshold > 0) {
		return nil, fmt.Errorf("stream: threshold %v must be positive", threshold)
	}
	tree := wedge.Build(patterns, func(i, j int) float64 {
		return dist.Euclidean(patterns[i], patterns[j], nil)
	}, nil)
	d := tree.Dendrogram()
	envs := make([]envelope.Envelope, len(d.Nodes))
	for id := range d.Nodes {
		envs[id] = tree.Envelope(id)
		if r := kern.Radius(); r != 0 {
			envs[id] = envs[id].ExpandDTW(r)
		}
	}
	return &Monitor{
		tree:      tree,
		kernel:    kern,
		threshold: threshold,
		n:         n,
		envs:      envs,
		buf:       make([]float64, n),
		win:       make([]float64, n),
	}, nil
}

// WindowLen returns the pattern/window length n.
func (m *Monitor) WindowLen() int { return m.n }

// Steps reports the cumulative num_steps spent filtering.
func (m *Monitor) Steps() int64 { return m.steps.Steps() }

// Stats returns the monitor's instrumentation record: each full window is
// one "comparison", each pattern either wedge-pruned, abandoned, or fully
// evaluated.
func (m *Monitor) Stats() *obs.SearchStats { return &m.obs }

// SetTraceLog attaches a trace log whose monitor_filter stage histogram
// receives the wall duration of every full-window filter pass (nil removes
// it). Per-window spans are deliberately not recorded — a monitor pushes
// millions of values; the histogram is the useful granularity.
func (m *Monitor) SetTraceLog(l *trace.Log) { m.tlog = l }

// window copies the ring buffer into m.win in stream order and returns it.
func (m *Monitor) window() []float64 {
	copy(m.win, m.buf[m.pos:])
	copy(m.win[m.n-m.pos:], m.buf[:m.pos])
	return m.win
}

// Push consumes one stream value and returns the patterns matching the
// window that ends at this value (empty until the first full window, and
// whenever no pattern is within threshold).
//
// Unlike nearest-neighbour search, filtering must report EVERY pattern
// below threshold, so H-Merge's single-best contract does not apply
// directly; the monitor walks the wedge hierarchy pruning subtrees whose
// LB_Keogh already exceeds the threshold, and verifies each surviving leaf.
func (m *Monitor) Push(v float64) []Match {
	m.buf[m.pos] = v
	m.pos = (m.pos + 1) % m.n
	m.seen++
	if m.filled < m.n {
		m.filled++
		if m.filled < m.n {
			return nil
		}
	}
	var t0 time.Time
	if m.tlog != nil {
		t0 = time.Now()
	}
	w := m.window()
	var out []Match
	// The window's steps, outcomes and per-level prunes are tallied here with
	// plain increments and flushed into the shared record once, below.
	local := &m.local
	*local = stats.Tally{}
	var levels [obs.MaxPruneLevels]int64
	counts := obs.Counts{Comparisons: 1, Rotations: int64(m.tree.Members())}

	// Depth-first over the wedge hierarchy with threshold pruning.
	d := m.tree.Dendrogram()
	stack := append(m.stack[:0], d.Root())
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := d.Nodes[id]
		if node.Left < 0 {
			counts.WedgeLeafVisits++
			dd, abandoned := m.kernel.Distance(w, m.tree.Member(id), m.threshold, local)
			if abandoned {
				counts.EarlyAbandons++
				continue
			}
			counts.FullDistEvals++
			if dd < m.threshold {
				out = append(out, Match{End: m.seen - 1, Pattern: id, Dist: dd})
			}
			continue
		}
		lb, abandoned := m.kernel.LowerBound(w, m.envs[id], m.threshold, local)
		if abandoned || lb >= m.threshold {
			counts.WedgePrunedMembers += int64(node.Size)
			levels[obs.PruneLevel(m.tree.Depth(id))]++
			continue
		}
		counts.WedgeNodeVisits++
		stack = append(stack, node.Left, node.Right)
	}
	m.stack = stack
	counts.Steps = local.Steps()
	m.steps.Add(counts.Steps)
	m.obs.AddCounts(&counts, &levels)
	m.obs.ObserveComparisonSteps(counts.Steps)
	if m.tlog != nil {
		m.tlog.ObserveStage(trace.StageMonitorFilter, int64(time.Since(t0)))
	}
	return out
}

// PushAll consumes a batch of values and concatenates the matches.
func (m *Monitor) PushAll(values []float64) []Match {
	var out []Match
	for _, v := range values {
		out = append(out, m.Push(v)...)
	}
	return out
}
