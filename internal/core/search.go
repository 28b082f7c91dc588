package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"lbkeogh/internal/cancel"
	"lbkeogh/internal/dist"
	"lbkeogh/internal/envelope"
	"lbkeogh/internal/fourier"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/explain"
	"lbkeogh/internal/obs/trace"
	"lbkeogh/internal/stats"
	"lbkeogh/internal/wedge"
)

// CancelCheckInterval is the cooperative-cancellation checkpoint interval:
// the scan loops and the per-rotation strategy loops poll the context's
// error once per this many checkpoint hits (comparisons at the scan level,
// rotations or wedge visits within one). A cancellation is therefore
// observed within one interval — at most a few kernel evaluations — while
// the uncancelled hot path pays one predictable branch per hit.
const CancelCheckInterval = cancel.DefaultInterval

// Strategy selects how a RotationSet is matched against database series.
// The zero value is Wedge, the paper's contribution.
type Strategy int

const (
	// Wedge is H-Merge over the hierarchical wedge set with the dynamic-K
	// controller (Section 4.1; the paper's contribution).
	Wedge Strategy = iota
	// BruteForce computes the full kernel distance for every rotation with no
	// early abandoning (the paper's "Brute force" baseline, Table 2 with
	// r = infinity throughout).
	BruteForce
	// EarlyAbandon is Test_All_Rotations with early abandoning and
	// best-so-far propagation (Tables 1–3; the "Early abandon" baseline).
	EarlyAbandon
	// FFTFilter computes the rotation-invariant Fourier-magnitude lower bound
	// per database item first (cost model: n·log2(n) steps, as in Section 5.3)
	// and falls back to EarlyAbandon when the bound cannot prune. Euclidean
	// only — magnitudes do not lower-bound DTW or LCSS (CheckStrategy).
	FFTFilter
)

func (s Strategy) String() string {
	switch s {
	case Wedge:
		return "wedge"
	case BruteForce:
		return "brute"
	case EarlyAbandon:
		return "early_abandon"
	case FFTFilter:
		return "fft"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// CheckStrategy is the one rule a strategy places on the kernel: FFTFilter
// needs the Euclidean kernel, because the magnitude bound is not admissible
// for the others.
func CheckStrategy(strategy Strategy, kernel wedge.Kernel) error {
	if _, ed := kernel.(wedge.ED); strategy == FFTFilter && !ed {
		return fmt.Errorf("the Fourier-magnitude filter supports only the Euclidean measure (the magnitude bound is not admissible for %s)", kernel.Name())
	}
	return nil
}

// Match is the result of matching one database series against the rotation
// set: the exact minimum distance over all admitted rotations (or +Inf if a
// threshold proved unbeatable) and the minimizing rotation.
type Match struct {
	Dist    float64
	Member  Member
	found   bool
	aborted bool
}

// Found reports whether any rotation beat the threshold.
func (m Match) Found() bool { return m.found }

// Searcher matches database series against one query's rotation set under a
// fixed kernel and strategy. It carries the dynamic-K state across calls so
// a database scan behaves exactly as in the paper. Only the wedge strategy
// reads the set's wedge tree; a searcher under another never builds it, not
// even for the DTW index walk (Widened). Its record (Stats)
// receives a pass's comparisons when the pass ends (End), and a comparison
// outside a pass (MatchSeries) as soon as it returns.
type Searcher struct {
	rs       *RotationSet
	kernel   wedge.Kernel
	ed       bool // kernel is wedge.ED
	strategy Strategy
	dyn      *wedge.DynamicK
	fixedK   int               // > 0 disables the dynamic controller (ablation)
	queryMag []float64         // the query's n/2 magnitudes; nil until magnitudes first computes them
	obs      *obs.SearchStats  // nil: the no-op sink
	rec      *trace.Recorder   // nil: no span recording
	ref      int               // comparison ordinal within the current trace
	chk      *cancel.Checker   // nil: uncancellable; Begin attaches, End detaches
	exp      *explain.Recorder // nil: no bound sampling

	// steps, scratch and batch are everything a comparison would otherwise
	// allocate, lock or atomically add to per candidate: the searcher's
	// cumulative step tally (read by Steps; what flush has taken of it is the
	// comparisons' steps), H-Merge's working memory with the comparison's
	// outcome tallies and the wedge prunes per level, and the comparisons not
	// yet published to the record (publish).
	//lint:ignore tallyescape a Searcher is confined to one goroutine; a stack Tally would escape through the Kernel interface and cost an allocation per comparison
	steps   stats.Tally
	flushed int64
	scratch wedge.Scratch
	batch   obs.Batch
	pass    bool // between Begin (or BeginProbe) and End

	// tree is the set's wedge tree from this searcher's first read of it
	// (useTree) on; nil before. probe marks a pass BeginProbe opened, and
	// lazy is what early abandoning has spent, over the searcher's life,
	// verifying probed rows in place of a tree not yet bought (walkTree).
	tree  *wedge.Tree
	probe bool
	lazy  int64
}

// SearcherConfig tunes a Searcher beyond its strategy.
type SearcherConfig struct {
	// FixedK, when > 0, pins the wedge-set size instead of running the
	// dynamic controller — used by the ablation benches.
	FixedK int
	// ProbeIntervals is the dynamic controller's single parameter (paper: 5):
	// the resolution of its K ladder, whose rungs are maxK^(1/(2·intervals))
	// apart (see wedge.NewDynamicK). The paper found 3..20 indistinguishable
	// and so does this controller. <= 0 selects 5.
	ProbeIntervals int
	// Obs, when non-nil, receives the structured pruning/cost record of
	// every comparison, published once per pass (Searcher.End). It is safe
	// to share one record across the searchers of a parallel scan.
	Obs *obs.SearchStats
}

// NewSearcher builds a Searcher. A strategy the kernel does not admit
// (CheckStrategy) panics.
func NewSearcher(rs *RotationSet, kernel wedge.Kernel, strategy Strategy, cfg SearcherConfig) *Searcher {
	if err := CheckStrategy(strategy, kernel); err != nil {
		panic("core: " + err.Error())
	}
	intervals := cfg.ProbeIntervals
	if intervals <= 0 {
		intervals = 5
	}
	_, ed := kernel.(wedge.ED)
	s := &Searcher{
		rs:       rs,
		kernel:   kernel,
		ed:       ed,
		strategy: strategy,
		fixedK:   cfg.FixedK,
		dyn:      wedge.NewDynamicK(rs.Members(), intervals),
		obs:      cfg.Obs,
	}
	return s
}

// buyAt is the rule by which an index probe buys its wedge tree: a wedge
// searcher verifies probed rows by early abandoning until that has spent
// buyAt × SetupSteps, then builds the tree and walks H-Merge from the next
// row on. An index probe verifies the paper's few-comparison regime (Fig 19's
// left end), where the tree's set-up need not pay. 2 is the break-even of a
// purchase that cuts the per-row cost from a to b, a/(a−b), with the wedge
// spending 0.44 of early abandoning's steps per verified row on index-ed's
// rows (DESIGN.md, "The index buys its tree").
const buyAt = 2

// walkTree decides, before a comparison, whether it walks the wedge tree,
// reading the tree (a build recorded on rec if this is the first reader)
// when it does: under the wedge strategy, in a flat pass from the first
// comparison, and in an index probe once the tree is built or early
// abandoning has spent buyAt × SetupSteps in its place.
func (s *Searcher) walkTree(rec *trace.Recorder) {
	if s.tree == nil && s.strategy == Wedge && (!s.probe || s.rs.Built() || s.lazy >= buyAt*s.rs.SetupSteps) {
		s.useTree(rec)
	}
}

// useTree is the searcher's first read of the set's tree, building it on rec
// if no one has: the dynamic controller's whole K ladder is cut at once, so
// that no comparison pays for (or allocates) a cut.
func (s *Searcher) useTree(rec *trace.Recorder) *wedge.Tree {
	if s.tree == nil {
		s.tree = s.rs.build(rec)
		if s.strategy == Wedge && s.fixedK <= 0 {
			s.tree.CutFrontiers(s.dyn.Ladder())
		}
	}
	return s.tree
}

// SetRecorder attaches (or, with nil, detaches) a span recorder for the next
// query. The comparison ordinal restarts at zero, so span refs index the scan.
// The recorder is single-goroutine: attach it to at most one searcher.
func (s *Searcher) SetRecorder(rec *trace.Recorder) {
	s.rec = rec
	s.ref = 0
}

// Recorder returns the attached span recorder (nil: untraced), under whose
// open span an index probe nests its own.
func (s *Searcher) Recorder() *trace.Recorder { return s.rec }

// SetExplain attaches (or, with nil, detaches) the bound sampler: the
// comparisons it elects get the full bound waterfall measured before they
// run (measure), charging the query's counters nothing the comparison would
// not have spent anyway. A detached searcher pays one nil check per
// comparison, and attaching one does no work.
func (s *Searcher) SetExplain(r *explain.Recorder) { s.exp = r }

// Kernel returns the searcher's distance kernel.
func (s *Searcher) Kernel() wedge.Kernel { return s.kernel }

// RotationSet returns the query's rotation set.
func (s *Searcher) RotationSet() *RotationSet { return s.rs }

// Widened returns one envelope per rotation, in member order, widened for
// the searcher's kernel, a first widening charged to the searcher's tally:
// under the wedge strategy the tree's leaves (wedge.Tree.Widened, so the
// first call builds the tree), and under a strategy that walks no wedge the
// rotations' own envelopes widened the same way — the leaves bit for bit —
// at one step per sample each, building no tree. The DTW index walk reads
// them before its first comparison.
func (s *Searcher) Widened() []envelope.Envelope {
	R := s.kernel.Radius()
	if s.strategy == Wedge {
		return s.useTree(s.rec).Widened(R, &s.steps)[:s.rs.Members()]
	}
	out := make([]envelope.Envelope, s.rs.Members())
	for i := range out {
		out[i] = envelope.Envelope{U: s.rs.Member(i), L: s.rs.Member(i)}.ExpandDTW(R)
		s.steps.Add(int64(s.rs.Len()))
	}
	return out
}

// Stats returns the record the searcher's comparisons are published to
// (nil: the no-op sink); an index probe counts its fetches on it too, after
// End.
func (s *Searcher) Stats() *obs.SearchStats { return s.obs }

// Steps returns the num_steps every comparison of this searcher has spent.
// It is the searcher's own tally, kept whether or not a record is attached;
// an attached record holds the same steps (plus those of any other searcher
// sharing it).
func (s *Searcher) Steps() int64 { return s.steps.Steps() }

// Strategy returns the searcher's strategy.
func (s *Searcher) Strategy() Strategy { return s.strategy }

// CurrentK reports the wedge-set size in effect (diagnostics).
func (s *Searcher) CurrentK() int {
	if s.fixedK > 0 {
		return s.fixedK
	}
	return s.dyn.Current()
}

// MatchSeries returns the exact rotation-invariant match of x against the
// query, subject to threshold r (r < 0 or +Inf: unbounded). The returned
// Match.Dist is +Inf when every rotation provably exceeds r. The num_steps
// spent are added to cnt (nil: not accumulated; Steps has them either way).
// Called outside a pass, it publishes the comparison to the record before
// it returns; inside one, End does.
func (s *Searcher) MatchSeries(x []float64, r float64, cnt *stats.Counter) Match {
	s.walkTree(s.rec) // a build is the operation's span, not the comparison's
	rec := s.rec
	if rec.Full() {
		// Saturated: no span of this comparison could be kept, so it pays
		// for none — no clock reads — exactly as if untraced.
		rec.Drop()
		rec = nil
	}
	if s.exp.ShouldSample() {
		s.exp.Observe(s.measure(x, r))
	}
	var m Match
	if rec == nil {
		m = s.matchSeries(x, r)
	} else {
		// One span per comparison carrying the counter delta it caused;
		// nothing beneath the comparison records a span.
		ref := s.ref
		s.ref++
		comp := rec.Begin(trace.StageComparison, ref)
		m = s.matchSeries(x, r)
		rec.EndAttrs(comp, s.scratch.Counts) // what matchSeries just flushed: this comparison alone
	}
	cnt.Add(s.scratch.Counts.Steps)
	return m
}

// matchSeries is one comparison. The strategies spend their steps on the
// searcher's tally, whose growth since the last flush — a widening built
// just before it included — is the comparison's steps, and attribute every
// rotation in its scratch with plain increments; the comparison then joins
// the batch, which the record receives at End, or at once outside a pass.
// A K change publishes the batch first, because it is stamped with the
// record's comparison count, which must include this comparison.
func (s *Searcher) matchSeries(x []float64, r float64) Match {
	s.rs.checkLen(x)
	sc := &s.scratch
	sc.Counts = obs.Counts{Comparisons: 1, Rotations: int64(s.rs.Members())}
	var m Match
	switch s.strategy {
	case BruteForce, EarlyAbandon:
		m = s.matchRotations(x, r, s.strategy == EarlyAbandon, &s.steps, s.chk, &sc.Counts)
	case FFTFilter:
		m = s.matchFFT(x, r)
	default:
		if s.tree == nil { // a probed row verified before the tree is bought
			before := s.steps.Steps()
			m = s.matchRotations(x, r, true, &s.steps, s.chk, &sc.Counts)
			s.lazy += s.steps.Steps() - before
		} else {
			m = s.matchWedge(x, r)
		}
	}
	steps := s.flush()
	sc.Counts.Steps = steps
	s.batch.Add(&sc.Counts)
	// A cancelled comparison must not feed the dynamic-K controller: its
	// partial step count would bias the wedge-set size and leave the query in
	// a different adaptive state than an uncancelled run. A move of the
	// settled K lands after the comparison joined the batch: the record
	// counts the change itself, the tally carries it into the comparison's
	// traced delta. Nor does an early-abandoning comparison in place of the
	// tree feed it: it walked no K.
	if s.strategy == Wedge && s.tree != nil && s.fixedK <= 0 && !m.aborted {
		old := s.dyn.Current()
		s.dyn.Observe(steps)
		if k := s.dyn.Current(); k != old {
			sc.Counts.KChanges++
			s.publish()
			s.obs.RecordKChange(old, k)
		}
	}
	if !s.pass {
		s.publish()
	}
	return m
}

// publish hands the batch, and the wedge prunes per level its comparisons
// made, to the record.
func (s *Searcher) publish() {
	s.obs.Publish(&s.batch, &s.scratch.PruneByLevel)
}

// matchRotations is Test_All_Rotations (Table 2): x against every rotation,
// keeping the nearest strictly below r (r < 0 or +Inf: unbounded). With
// abandon set, each kernel call abandons at the best so far, r to begin with
// (EarlyAbandon); without it, every rotation is evaluated in full
// (BruteForce). The steps go to steps and every rotation is attributed in c,
// the rotations left when chk (nil: uncancellable) stops the loop as
// cancelled.
func (s *Searcher) matchRotations(x []float64, r float64, abandon bool, steps *stats.Tally, chk *cancel.Checker, c *obs.Counts) Match {
	best := math.Inf(1)
	if r >= 0 {
		best = r
	}
	bestIdx := -1
	for i := 0; i < s.rs.Members(); i++ {
		if chk.Stop() != nil {
			c.CancelledMembers = int64(s.rs.Members() - i)
			return Match{Dist: math.Inf(1), aborted: true}
		}
		limit := -1.0
		if abandon {
			limit = best
		}
		var d float64
		var abandoned bool
		if s.ed { // ED's Distance, without the interface hop
			d, abandoned = dist.EuclideanEA(x, s.rs.Member(i), limit, steps)
		} else {
			d, abandoned = s.kernel.Distance(x, s.rs.Member(i), limit, steps)
		}
		if abandoned {
			c.EarlyAbandons++
			continue
		}
		c.FullDistEvals++
		if d < best {
			best, bestIdx = d, i
		}
	}
	if bestIdx < 0 {
		return Match{Dist: math.Inf(1)}
	}
	return Match{Dist: best, Member: s.rs.MemberID(bestIdx), found: true}
}

// magnitudes returns the query's n/2 Fourier magnitudes, computed the first
// time the FFT filter or the bound sampler needs them.
func (s *Searcher) magnitudes() []float64 {
	if s.queryMag == nil {
		s.queryMag = fourier.Magnitudes(s.rs.Base(), s.rs.Len()/2)
	}
	return s.queryMag
}

func (s *Searcher) matchFFT(x []float64, r float64) Match {
	// The magnitude filter only applies under a finite threshold; an
	// unbounded match (r < 0 or +Inf, as a scan's first comparisons are)
	// neither computes the bound nor pays for it.
	if r >= 0 && !math.IsInf(r, 1) {
		// Cost model from Section 5.3: n·log2(n) steps for the transform,
		// plus the magnitude-space Euclidean distance.
		n := s.rs.Len()
		qmag := s.magnitudes()
		s.steps.Add(int64(float64(n)*math.Log2(float64(n))) + int64(len(qmag)))
		if fourier.LowerBoundED(qmag, fourier.Magnitudes(x, n/2)) >= r {
			s.scratch.Counts.FFTRejects = 1
			s.scratch.Counts.FFTRejectedMembers = int64(s.rs.Members())
			return Match{Dist: math.Inf(1)}
		}
	}
	s.scratch.Counts.FFTFallbacks = 1
	return s.matchRotations(x, r, true, &s.steps, s.chk, &s.scratch.Counts)
}

// measure is the bound sampler's waterfall for candidate x under threshold r
// (r < 0: no threshold, nothing is eliminated), one slot per bound stage:
// the Fourier-magnitude bound (Euclidean only, the one kernel it is
// admissible for; NaN otherwise), LB_Keogh against the root wedge, and then
// the true rotation-invariant distance by brute force. Its steps go to a
// private tally and its attribution to a throwaway record, so sampling
// charges nothing to the query's counters; it polls no checkpoint, so it
// moves no cancellation either. A first widening of the tree is the
// exception: only a wedge searcher reads the tree, and the comparison about
// to run would pay it, so the searcher's tally does. A searcher that has not
// read the tree takes the root wedge as the rows' envelope instead, widened
// the same way — max and min are exact, so it is the root node's envelope
// bit for bit — and so never buys a tree to sample.
func (s *Searcher) measure(x []float64, r float64) explain.Sample {
	var steps stats.Tally
	var c obs.Counts
	sm := explain.Sample{Threshold: r}
	sm.Bounds[explain.StageFFT] = math.NaN() // not admissible outside Euclidean
	if s.ed {
		sm.Bounds[explain.StageFFT] = fourier.LowerBoundED(s.magnitudes(), fourier.Magnitudes(x, s.rs.Len()/2))
	}
	var root envelope.Envelope
	if s.tree != nil {
		envs := s.tree.Widened(s.kernel.Radius(), &s.steps)
		root = envs[len(envs)-1]
	} else if root = envelope.New(s.rs.members...); s.kernel.Radius() > 0 {
		root = root.ExpandDTW(s.kernel.Radius())
	}
	sm.Bounds[explain.StageEnvelope], _ = s.kernel.LowerBound(x, root, -1, &steps)
	sm.True = s.matchRotations(x, -1, false, &steps, nil, &c).Dist
	return sm
}

func (s *Searcher) matchWedge(x []float64, r float64) Match {
	K := s.fixedK
	if K <= 0 {
		K = s.dyn.K()
	}
	res := s.tree.SearchInto(x, s.kernel, K, r, &s.steps, &s.scratch, s.chk)
	if res.Aborted {
		return Match{Dist: math.Inf(1), aborted: true}
	}
	if res.BestMember < 0 {
		return Match{Dist: math.Inf(1)}
	}
	return Match{Dist: res.Dist, Member: s.rs.MemberID(res.BestMember), found: true}
}

// ScanResult is one hit of a database scan: the matched series' index, its
// exact rotation-invariant distance and the best rotation.
type ScanResult struct {
	Index  int
	Dist   float64
	Member Member
}

// Collector is the keep policy of a database scan and the one owner of its
// tie rule: the k nearest matches strictly below a limit (k = 0: every match
// below it), ordered by (distance, row id) whatever order the rows are
// offered in — id order by a flat scan, worker order by a parallel one,
// bound order by an index probe — so every path keeps the flat scan's rows.
// Nearest neighbour is k = 1 under +Inf, top-K is k under +Inf, a range query
// is k = 0 under its threshold: one policy, because all three differ only in
// when the abandoning threshold starts to shrink.
type Collector struct {
	k     int
	limit float64
	res   []ScanResult // k > 0: ascending (distance, row id)
}

// NewCollector returns an empty collector keeping the k nearest matches
// strictly below limit (k <= 0: all of them).
func NewCollector(k int, limit float64) *Collector {
	return &Collector{k: max(k, 0), limit: limit}
}

// Radius is the abandoning threshold for matching row i: a match at or above
// it could not be kept. It is the limit until k matches are kept, then the
// k-th kept distance — loosened by tieLimit when i is below the k-th kept
// row's id, because an exact tie would then displace that row and must be
// matched in full rather than abandoned. For a given i it never rises. In an
// id-order scan every later row has a higher id, so it is never loosened.
func (c *Collector) Radius(i int) float64 {
	if c.k == 0 || len(c.res) < c.k {
		return c.limit
	}
	last := c.res[c.k-1]
	if i < last.Index {
		return min(tieLimit(last.Dist), c.limit)
	}
	return last.Dist
}

// tieLimit loosens a kept distance d into a threshold strictly above it, so
// that a comparison abandoning at the threshold matches an exact tie at d in
// full.
func tieLimit(d float64) float64 { return d*(1+1e-12) + 1e-300 }

// Offer keeps row i's match if it is below the limit and, once k are kept,
// before the k-th in (distance, row id) order, which it then evicts.
func (c *Collector) Offer(i int, m Match) {
	if !m.Found() || !(m.Dist < c.limit) { // a NaN limit keeps nothing
		return
	}
	r := ScanResult{Index: i, Dist: m.Dist, Member: m.Member}
	if c.k == 0 {
		c.res = append(c.res, r) // unbounded: ordered once, by Results
		return
	}
	pos := len(c.res)
	for pos > 0 && byDistThenID(r, c.res[pos-1]) < 0 {
		pos--
	}
	if pos == c.k {
		return // not before the k-th
	}
	if len(c.res) < c.k {
		c.res = append(c.res, ScanResult{})
	}
	copy(c.res[pos+1:], c.res[pos:])
	c.res[pos] = r
}

// byDistThenID is the tie rule: ascending distance, equal distances by row id.
func byDistThenID(a, b ScanResult) int {
	return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Index, b.Index))
}

// Results returns what was kept in (distance, row id) order.
func (c *Collector) Results() []ScanResult {
	if c.k == 0 {
		slices.SortFunc(c.res, byDistThenID)
	}
	return c.res
}

// Best returns the nearest match kept; Index is -1 (and Dist +Inf) when
// nothing was.
func (c *Collector) Best() ScanResult {
	if rs := c.Results(); len(rs) > 0 {
		return rs[0]
	}
	return ScanResult{Index: -1, Dist: math.Inf(1)}
}

// Scan is Search_Database_for_Rotated_Match (Table 3): a linear scan that
// finds the database series with the smallest rotation-invariant distance to
// the query, propagating the best-so-far as the early-abandon threshold. The
// num_steps spent are added to cnt (nil: not accumulated).
func (s *Searcher) Scan(db [][]float64, cnt *stats.Counter) ScanResult {
	steps0 := s.steps.Steps()
	c := NewCollector(1, math.Inf(1))
	_ = s.ScanInto(context.Background(), db, c) // uncancellable: never errs
	cnt.Add(s.steps.Steps() - steps0)
	return c.Best()
}

// ScanInto is the database loop: every series of db is matched under c's
// current radius and offered to c. The loop polls a cancellation checkpoint
// once per comparison (and the strategy loops poll it per rotation or wedge
// visit), so ctx.Err() is returned within one checkpoint interval of the
// cancellation — c then holds a partial answer to discard. An already-expired
// ctx returns before any work is done; an uncancellable one costs nothing.
func (s *Searcher) ScanInto(ctx context.Context, db [][]float64, c *Collector) error {
	if err := s.Begin(ctx); err != nil {
		return err
	}
	defer s.End()
	for i, x := range db {
		if err := s.Offer(i, x, c); err != nil {
			return err
		}
	}
	return nil
}

// Begin opens one pass of candidates — a scan's rows, or an index probe's
// fetches (BeginProbe) — under ctx: it fails with ctx.Err() when ctx has
// already expired and otherwise attaches the pass's cancellation checkpoint,
// which End detaches. The pass's comparisons reach the record when End
// publishes them (or a K change does, stamped exactly), not one by one, so
// the record does not show a pass still running.
func (s *Searcher) Begin(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	s.chk = cancel.New(ctx, CancelCheckInterval)
	s.pass = true
	return nil
}

// BeginProbe is Begin for an index probe's pass, whose rows a wedge
// searcher verifies by early abandoning until its tree pays (walkTree).
func (s *Searcher) BeginProbe(ctx context.Context) error {
	err := s.Begin(ctx)
	s.probe = err == nil
	return err
}

// End closes the pass Begin or BeginProbe opened, cancelled or not, and
// publishes it to the record: its comparisons, and any steps no comparison
// carried (a widening that no comparison followed). A caller reads the
// pass's record after End.
func (s *Searcher) End() {
	s.chk, s.probe, s.pass = nil, false, false
	s.batch.Counts.Steps += s.flush()
	s.publish()
}

// flush returns, and marks flushed, the tally's growth since the last flush.
func (s *Searcher) flush() int64 {
	steps := s.steps.Steps() - s.flushed
	s.flushed += steps
	return steps
}

// Offer is one candidate of a pass: database row i, series x, is matched
// under c's radius for it and the match offered to c.
func (s *Searcher) Offer(i int, x []float64, c *Collector) error {
	m, err := s.match(i, x, c.Radius(i))
	if err == nil {
		c.Offer(i, m)
	}
	return err
}

// match is Offer's comparison under threshold r: the checkpoint is polled and
// series x — database row i, which the comparison's span is named after — is
// matched. A comparison the cancellation cut short returns the error, its
// match to be discarded.
func (s *Searcher) match(i int, x []float64, r float64) (Match, error) {
	if err := s.chk.Stop(); err != nil {
		return Match{}, err
	}
	s.ref = i
	m := s.MatchSeries(x, r, nil)
	return m, s.chk.Err()
}
