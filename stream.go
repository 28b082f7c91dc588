package lbkeogh

import (
	"fmt"

	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/ts"
	"lbkeogh/internal/wedge"
)

// StreamMatch reports one pattern firing on a monitored stream.
type StreamMatch struct {
	// End is the stream index of the last value of the matching window.
	End int
	// Pattern indexes the pattern slice given to NewMonitor.
	Pattern int
	// Dist is the exact distance between the window and the pattern.
	Dist float64
}

// Monitor filters a live stream against a fixed set of query patterns using
// the same hierarchical-wedge lower bounds as search — the "Atomic Wedgie"
// application (reference [40] of the paper). It reports exactly the matches
// a brute-force sliding-window scan would, typically at a small fraction of
// the cost.
//
// The patterns are merged into a wedge hierarchy. Each full window is
// compared against it with early-abandoning LB_Keogh, descending into
// individual patterns only where a wedge cannot exclude them.
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

	obs   obs.SearchStats // per-window pruning breakdowns and steps
	batch obs.Batch       // one window's record until Push publishes it
}

// NewMonitor compiles the patterns (equal length n) for streaming threshold
// filtering under measure m. A window matches when its distance to a pattern
// is strictly below threshold. Streaming filtering compares raw windows: for
// amplitude-invariant matching, z-normalize patterns and feed a z-normalized
// stream.
func NewMonitor(patterns []Series, m Measure, threshold float64) (*Monitor, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	n, err := ts.CheckRows(patterns, "pattern")
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if !(threshold > 0) {
		return nil, fmt.Errorf("stream: threshold %v must be positive", threshold)
	}
	// The tree and its widening are uncharged: Steps counts filtering only.
	tree := wedge.Build(patterns, func(i, j int) float64 {
		return dist.Euclidean(patterns[i], patterns[j], nil)
	}, nil)
	return &Monitor{
		tree:      tree,
		kernel:    m.kern,
		threshold: threshold,
		n:         n,
		envs:      tree.Widened(m.kern.Radius(), nil),
		buf:       make([]float64, n),
		win:       make([]float64, n),
	}, nil
}

// WindowLen returns the pattern/window length.
func (mo *Monitor) WindowLen() int { return mo.n }

// Steps reports cumulative filtering cost in the paper's num_steps metric:
// the Steps of the instrumentation record, so ResetStats zeroes it too.
func (mo *Monitor) Steps() int64 { return mo.obs.Counts().Steps }

// Stats returns a snapshot of the monitor's instrumentation record: each
// full window is one comparison, and every pattern in it was either
// wedge-pruned, abandoned early, or fully evaluated.
func (mo *Monitor) Stats() SearchStats { return mo.obs.Snapshot() }

// ResetStats zeroes the instrumentation record, Steps included.
func (mo *Monitor) ResetStats() { mo.obs.Reset() }

// window copies the ring buffer into mo.win in stream order and returns it.
func (mo *Monitor) window() []float64 {
	copy(mo.win, mo.buf[mo.pos:])
	copy(mo.win[mo.n-mo.pos:], mo.buf[:mo.pos])
	return mo.win
}

// Push consumes one stream value and returns the patterns matching the
// window that ends at it: nil until the first full window, and whenever no
// pattern is within threshold.
//
// Unlike nearest-neighbour search, filtering must report EVERY pattern
// below threshold, so H-Merge's single-best contract does not apply
// directly; the monitor walks the wedge hierarchy pruning subtrees whose
// LB_Keogh already exceeds the threshold, and verifies each surviving leaf.
func (mo *Monitor) Push(v float64) []StreamMatch {
	mo.buf[mo.pos] = v
	mo.pos = (mo.pos + 1) % mo.n
	mo.seen++
	if mo.filled < mo.n {
		mo.filled++
		if mo.filled < mo.n {
			return nil
		}
	}
	w := mo.window()
	var out []StreamMatch
	// The window's steps, outcomes and per-level prunes are tallied here with
	// plain increments and published to the shared record once, below, as a
	// searcher publishes its pass.
	local := &mo.local
	*local = stats.Tally{}
	var levels [obs.MaxPruneLevels]int64
	counts := obs.Counts{Comparisons: 1, Rotations: int64(mo.tree.Members())}

	// Depth-first over the wedge hierarchy with threshold pruning.
	d := mo.tree.Dendrogram()
	stack := append(mo.stack[:0], d.Root())
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := d.Nodes[id]
		if node.Left < 0 {
			counts.WedgeLeafVisits++
			dd, abandoned := mo.kernel.Distance(w, mo.tree.Member(id), mo.threshold, local)
			if abandoned {
				counts.EarlyAbandons++
				continue
			}
			counts.FullDistEvals++
			if dd < mo.threshold {
				out = append(out, StreamMatch{End: mo.seen - 1, Pattern: id, Dist: dd})
			}
			continue
		}
		lb, abandoned := mo.kernel.LowerBound(w, mo.envs[id], mo.threshold, local)
		if abandoned || lb >= mo.threshold {
			counts.WedgePrunedMembers += int64(node.Size)
			levels[obs.PruneLevel(mo.tree.Depth(id))]++
			continue
		}
		counts.WedgeNodeVisits++
		stack = append(stack, node.Left, node.Right)
	}
	mo.stack = stack
	counts.Steps = local.Steps()
	mo.batch.Add(&counts)
	mo.obs.Publish(&mo.batch, &levels)
	return out
}

// PushAll consumes a batch of values and concatenates the matches.
func (mo *Monitor) PushAll(values []float64) []StreamMatch {
	var out []StreamMatch
	for _, v := range values {
		out = append(out, mo.Push(v)...)
	}
	return out
}
