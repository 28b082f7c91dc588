package wedge

import (
	"fmt"
	"math"
	"sync"

	"lbkeogh/internal/cancel"
	"lbkeogh/internal/cluster"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/stats"
)

// Traversal and LIFO are what is left of a visit-order option: H-Merge walks
// depth-first with a stack, as in the paper's Table 6, and nothing else.
// benchmark/ still passes LIFO to Search; a benchmark-only PR retires both.
type Traversal int

// LIFO is the only Traversal.
const LIFO Traversal = 0

// Tree is the hierarchically nested wedge structure built over a set of
// candidate series (in the paper: the rotations of the query). Node indexing
// follows the underlying dendrogram: 0..m-1 are the individual candidates,
// m..2m-2 the merged wedges, 2m-2 the root wedge.
//
// A Tree is safe for concurrent Search calls: the lazily built caches
// (expanded envelopes, frontier cuts) are guarded by a mutex, and everything
// else is immutable after Build. Parallel database scans share one tree.
type Tree struct {
	members [][]float64
	dend    *cluster.Dendrogram
	env     []envelope.Envelope // base (unexpanded) envelope per node
	depth   []int               // node depth from the root (root = 0)

	mu       sync.Mutex
	expanded map[int][]envelope.Envelope // per widening radius
	frontier map[int][]int               // cached dendrogram cuts per K
}

// Build constructs the wedge tree for the given member series (all the same
// length) using group-average-linkage clustering over the provided pairwise
// distance function, exactly as Section 4.1 prescribes. The cost of building
// every node's envelope — the O(n²) set-up cost the paper charges to the
// wedge strategy — is recorded on cnt (one step per sample merged).
func Build(members [][]float64, distFn func(i, j int) float64, cnt *stats.Tally) *Tree {
	return BuildFilled(members, func(matrix []float64) { cluster.FillMatrix(matrix, len(members), distFn) }, cnt)
}

// matrixPool recycles BuildFilled's distance matrices (*[]float64): each is
// fully overwritten by fill and consumed by the clustering before it returns.
var matrixPool sync.Pool

// BuildFilled is Build for a caller that can write the distance matrix
// faster than one distFn call per pair: fill must set every off-diagonal
// entry of the row-major m×m matrix (m = len(members)), symmetrically. The
// matrix arrives holding garbage, not zeros.
func BuildFilled(members [][]float64, fill func(matrix []float64), cnt *stats.Tally) *Tree {
	if len(members) == 0 {
		panic("wedge: Build requires at least one member")
	}
	n := len(members[0])
	for i, m := range members {
		if len(m) != n {
			panic(fmt.Sprintf("wedge: member %d length %d != %d", i, len(m), n))
		}
	}
	m := len(members)
	buf, _ := matrixPool.Get().(*[]float64)
	if buf == nil || cap(*buf) < m*m {
		buf = new([]float64)
		*buf = make([]float64, m*m)
	}
	matrix := (*buf)[:m*m]
	fill(matrix)
	dend := cluster.AgglomerativeMatrix(matrix, m)
	matrixPool.Put(buf)

	env := make([]envelope.Envelope, len(dend.Nodes))
	for i := 0; i < m; i++ {
		env[i] = envelope.Envelope{U: members[i], L: members[i]}
	}
	for id := m; id < len(dend.Nodes); id++ {
		node := dend.Nodes[id]
		env[id] = envelope.Merge(env[node.Left], env[node.Right])
		cnt.Add(int64(n))
	}
	// Node depths, walked top-down: dendrogram children always precede their
	// parent, so one reverse pass suffices.
	depth := make([]int, len(dend.Nodes))
	for id := len(dend.Nodes) - 1; id >= 0; id-- {
		node := dend.Nodes[id]
		if node.Left >= 0 {
			depth[node.Left] = depth[id] + 1
			depth[node.Right] = depth[id] + 1
		}
	}
	return &Tree{
		members:  members,
		dend:     dend,
		env:      env,
		depth:    depth,
		expanded: map[int][]envelope.Envelope{0: env},
		frontier: map[int][]int{},
	}
}

// Members returns the number of candidate series in the tree.
func (t *Tree) Members() int { return len(t.members) }

// Member returns the i-th candidate series.
func (t *Tree) Member(i int) []float64 { return t.members[i] }

// Len returns the series length.
func (t *Tree) Len() int { return len(t.members[0]) }

// Dendrogram exposes the underlying merge tree (for visualization and the
// examples that print dendrograms).
func (t *Tree) Dendrogram() *cluster.Dendrogram { return t.dend }

// Widened returns every node's envelope widened by radius (by the band R for
// DTW, Figure 13; by the window for LCSS), in node order, the root last; radius
// 0 is the base envelopes Build paid for. It is the one widened form of a
// wedge, cached for the tree's life: the call that first builds a radius
// charges cnt one step per sample per node, and every later call is free.
// Only the leaves are widened; an internal node is the Merge of its widened
// children, which is bit-identical to widening its own envelope because a
// sliding max distributes over max (and min over min). Never write through
// the result.
func (t *Tree) Widened(radius int, cnt *stats.Tally) []envelope.Envelope {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.expanded[radius]; ok {
		return e
	}
	out := make([]envelope.Envelope, len(t.env))
	for id, node := range t.dend.Nodes {
		if node.Left < 0 {
			out[id] = t.env[id].ExpandDTW(radius)
		} else {
			out[id] = envelope.Merge(out[node.Left], out[node.Right])
		}
		cnt.Add(int64(t.Len()))
	}
	t.expanded[radius] = out
	return out
}

// frontierFor returns the (cached) K-cluster dendrogram cut.
func (t *Tree) frontierFor(k int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.frontier[k]; ok {
		return f
	}
	f := t.dend.Frontier(k)
	t.frontier[k] = f
	return f
}

// CutFrontiers cuts and caches the dendrogram at every K of ks, which must
// ascend, in one walk. A searcher whose controller moves among a fixed ladder
// of sizes calls it once, so that no comparison pays for (or allocates) a
// cut, and the cache holds the ladder's cuts rather than one per K ever
// tried.
func (t *Tree) CutFrontiers(ks []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range ks {
		if _, ok := t.frontier[k]; !ok {
			for i, cut := range t.dend.Frontiers(ks) {
				t.frontier[ks[i]] = cut
			}
			return
		}
	}
}

// MaxK returns the largest meaningful wedge-set size (one wedge per member).
func (t *Tree) MaxK() int { return len(t.members) }

// Depth returns the dendrogram depth of the given node (root = 0).
func (t *Tree) Depth(node int) int { return t.depth[node] }

// Result reports the outcome of an H-Merge search.
type Result struct {
	// Dist is the exact minimum kernel distance from the probe to any member,
	// or +Inf if every member was proven to exceed the threshold.
	Dist float64
	// BestMember is the index of the minimizing member, or -1.
	BestMember int
	// Steps is the number of num_steps charged by this call.
	Steps int64
	// Aborted reports that a cancellation checkpoint stopped the walk before
	// every member was disposed of; Dist and BestMember are meaningless. The
	// undisposed members have been attributed to the cancelled bucket, so the
	// instrumentation record still reconciles.
	Aborted bool
}

// Scratch is the working memory H-Merge needs per comparison, kept between
// comparisons so that one costs its bound steps and nothing else: no
// allocation, no lock, no shared cache line. Its owner (a core.Searcher, or
// Search's throwaway) is a single goroutine; a Scratch must never be shared.
//
// Counts and PruneByLevel accumulate how the searches run with this scratch
// disposed of each rotation; the owner reads and clears them between
// comparisons and flushes them into the shared record
// (obs.SearchStats.AddCounts). The rest is cached per-query state: the tree's
// envelopes widened for the kernel's radius, the frontier cut for the last K
// used, the walk's stack, and the leaf kernel's per-position buffer. (The
// step tally travels beside the scratch, not in it: a pointer into the
// scratch handed to a Kernel would force Search's throwaway onto the heap.)
type Scratch struct {
	Counts       obs.Counts
	PruneByLevel [obs.MaxPruneLevels]int64

	tree     *Tree
	radius   int
	envs     []envelope.Envelope
	k        int   // the K frontier was cut for
	frontier []int // nil before the first search of a tree
	stack    []int
	cb       []float64 // Kernel.Leaf's scratch, len(q)+1
}

// prepare points the scratch at tree t, radius and K. The widened envelopes
// are fetched once per tree and radius — so a search that is the first to
// widen the tree is charged the build on steps — the leaf buffer once per tree,
// and the frontier once per change of K; a steady-state comparison takes
// neither lock nor allocates.
func (sc *Scratch) prepare(t *Tree, radius, K int, steps *stats.Tally) {
	if sc.tree != t || sc.radius != radius {
		sc.tree, sc.radius, sc.frontier = t, radius, nil
		sc.envs = t.Widened(radius, steps)
		if n := t.Len() + 1; cap(sc.cb) < n {
			sc.cb = make([]float64, n)
		} else {
			sc.cb = sc.cb[:n]
		}
	}
	if sc.k != K || sc.frontier == nil {
		sc.k, sc.frontier = K, t.frontierFor(K)
	}
}

// SearchInto is Search over a caller-owned scratch, with cooperative
// cancellation. The steps the walk spends are added to steps (never nil:
// Result.Steps is read off it), and every rotation it disposes of is
// attributed to exactly one outcome in sc.Counts (internal-wedge prune
// weighted by subtree size, singleton-wedge LB prune, early abandon, or full
// distance evaluation). The walk polls chk once per wedge visit — a
// cancellation is observed within one checkpoint interval of visits, at which
// point every undisposed member is attributed to the cancelled bucket and the
// Result comes back Aborted. chk may be nil — the nil path costs one
// predictable branch per visit.
//
//lbkeogh:hotpath
func (t *Tree) SearchInto(q []float64, k Kernel, K int, r float64, steps *stats.Tally, sc *Scratch, chk *cancel.Checker) Result {
	if len(q) != t.Len() {
		panic(fmt.Sprintf("wedge: query length %d != member length %d", len(q), t.Len()))
	}
	steps0 := steps.Steps()
	sc.prepare(t, k.Radius(), K, steps)
	envs, st, cb := sc.envs, &sc.Counts, sc.cb

	best := math.Inf(1)
	if r >= 0 {
		best = r
	}
	bestMember := -1

	aborted := false
	// The stack grows to a walk's high-water mark (at most one entry per
	// member: it holds disjoint unvisited subtrees) and is handed back to the
	// scratch below, so a searcher's later walks reuse it.
	stack := append(sc.stack[:0], sc.frontier...) //lint:ignore hotalloc grows a few times over a scratch's life, not per search
	for len(stack) > 0 {
		if chk.Stop() != nil {
			// Cancelled mid-walk: every member under a node still on the
			// stack is undisposed (pops either dispose or push children,
			// so the stack is exactly the undisposed partition).
			for _, rest := range stack {
				st.CancelledMembers += int64(t.dend.Nodes[rest].Size)
			}
			aborted = true
			break
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := t.dend.Nodes[id]
		if node.Left >= 0 {
			lb, abandoned := k.LowerBound(q, envs[id], best, steps)
			if abandoned || lb >= best {
				// Prune the whole wedge: every rotation under it goes to the
				// wedge-LB-prune bucket at the wedge's dendrogram level.
				st.WedgePrunedMembers += int64(node.Size)
				sc.PruneByLevel[obs.PruneLevel(t.depth[id])]++
				continue
			}
			st.WedgeNodeVisits++
			stack = append(stack, node.Left, node.Right) //lint:ignore hotalloc grows a few times over a scratch's life, not per search
			continue
		}
		st.WedgeLeafVisits++
		// The kernel runs its leaf cascade in one call: the distance for
		// Euclidean (LB against a singleton wedge IS the distance), bound then
		// distance for the warped measures.
		d, out := k.Leaf(q, t.members[id], envs[id], best, cb, steps)
		if out == LeafLBPruned {
			st.WedgeLeafLBPrunes++
			continue
		}
		if out == LeafAbandoned {
			st.EarlyAbandons++
			continue
		}
		st.FullDistEvals++
		if d < best {
			best, bestMember = d, id
		}
	}
	sc.stack = stack[:0]

	spent := steps.Steps() - steps0
	if aborted || bestMember < 0 {
		return Result{Dist: math.Inf(1), BestMember: -1, Steps: spent, Aborted: aborted}
	}
	return Result{Dist: best, BestMember: bestMember, Steps: spent}
}

// Search runs H-Merge (Table 6): it returns the exact minimum distance from
// q to any member of the tree, provided that minimum is strictly below r
// (r < 0 or +Inf means unbounded). K is the wedge-set size to start from. The
// result is exact: H-Merge returns precisely what brute force over all members
// would, as long as the caller treats Dist = +Inf as "no member beats r".
func (t *Tree) Search(q []float64, k Kernel, K int, r float64, _ Traversal, cnt *stats.Tally) Result {
	var sc Scratch
	var steps stats.Tally
	res := t.SearchInto(q, k, K, r, &steps, &sc, nil)
	cnt.Add(res.Steps)
	return res
}
