package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lbkeogh/internal/cancel"
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

// Aborted reports whether a cancellation checkpoint stopped the comparison
// before every rotation was disposed of.
func (m Match) Aborted() bool { return m.aborted }

// Searcher matches database series against one query's rotation set under a
// fixed kernel and strategy. It carries the dynamic-K state across calls so
// a database scan behaves exactly as in the paper.
type Searcher struct {
	rs       *RotationSet
	kernel   wedge.Kernel
	strategy Strategy
	dyn      *wedge.DynamicK
	fixedK   int               // > 0 disables the dynamic controller (ablation)
	queryMag []float64         // the query's n/2 magnitudes; nil until magnitudes first computes them
	obs      *obs.SearchStats  // nil: the no-op sink
	rec      *trace.Recorder   // nil: no span recording
	ref      int               // comparison ordinal within the current trace
	chk      *cancel.Checker   // nil: uncancellable; Begin attaches, End detaches
	exp      *explain.Recorder // nil: no bound sampling

	// steps and scratch are everything a comparison would otherwise allocate,
	// lock or atomically add to per candidate: the searcher's cumulative step
	// tally (read by Steps; its first flushed steps are in the record), the
	// outcome tallies matchSeries flushes once per comparison, and H-Merge's
	// working memory.
	//lint:ignore tallyescape a Searcher is confined to one goroutine; a stack Tally would escape through the Kernel interface and cost an allocation per comparison
	steps   stats.Tally
	flushed int64
	scratch wedge.Scratch
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
	// every comparison. It is safe to share one record across the searchers
	// of a parallel scan.
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
	s := &Searcher{
		rs:       rs,
		kernel:   kernel,
		strategy: strategy,
		fixedK:   cfg.FixedK,
		dyn:      wedge.NewDynamicK(rs.Members(), intervals),
		obs:      cfg.Obs,
	}
	if strategy == Wedge && cfg.FixedK <= 0 {
		rs.tree.CutFrontiers(s.dyn.Ladder())
	}
	return s
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

// Widened is wedge.Tree.Widened for the searcher's kernel, a first build
// charged to the searcher's tally.
func (s *Searcher) Widened() []envelope.Envelope {
	return s.rs.tree.Widened(s.kernel.Radius(), &s.steps)
}

// Stats returns the record the searcher's comparisons are flushed into (nil:
// the no-op sink); an index probe counts its fetches on it too.
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
func (s *Searcher) MatchSeries(x []float64, r float64, cnt *stats.Counter) Match {
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
// rotation in its scratch with plain increments; the record is touched once,
// here, after the comparison — and before the dynamic-K controller sees it,
// because a K change is stamped with the record's comparison count.
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
		m = s.matchWedge(x, r)
	}
	steps := s.flush()
	sc.Counts.Steps = steps
	s.obs.AddCounts(&sc.Counts, &sc.PruneByLevel)
	s.obs.ObserveComparisonSteps(steps)
	// A cancelled comparison must not feed the dynamic-K controller: its
	// partial step count would bias the wedge-set size and leave the query in
	// a different adaptive state than an uncancelled run. A move of the
	// settled K lands after the flush: the record counts the change itself,
	// the tally carries it into the comparison's traced delta.
	if s.strategy == Wedge && s.fixedK <= 0 && !m.aborted {
		old := s.dyn.Current()
		s.dyn.Observe(steps)
		if k := s.dyn.Current(); k != old {
			sc.Counts.KChanges++
			s.obs.RecordKChange(old, k)
		}
	}
	return m
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
		d, abandoned := s.kernel.Distance(x, s.rs.Member(i), limit, steps)
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
// (r < 0: no threshold, nothing is eliminated): the Fourier-magnitude bound
// (Euclidean only, the one kernel it is admissible for), LB_Keogh against
// the root wedge, and the true rotation-invariant distance by brute force.
// Its steps go to a private tally and its attribution to a throwaway record,
// so sampling charges nothing to the query's counters; it polls no
// checkpoint, so it moves no cancellation either. A first widening of the
// root wedge is the exception under the wedge strategy: the comparison about
// to run would pay it, so the searcher's tally does.
func (s *Searcher) measure(x []float64, r float64) explain.Sample {
	var steps stats.Tally
	var c obs.Counts
	sm := explain.Sample{Threshold: r}
	if _, ed := s.kernel.(wedge.ED); ed {
		lb := fourier.LowerBoundED(s.magnitudes(), fourier.Magnitudes(x, s.rs.Len()/2))
		sm.Bounds = append(sm.Bounds, explain.BoundValue{Bound: explain.StageFFT, Value: lb})
	}
	widen := &steps
	if s.strategy == Wedge {
		widen = &s.steps
	}
	envs := s.rs.tree.Widened(s.kernel.Radius(), widen)
	lb, _ := s.kernel.LowerBound(x, envs[len(envs)-1], -1, &steps)
	sm.Bounds = append(sm.Bounds, explain.BoundValue{Bound: explain.StageEnvelope, Value: lb})
	sm.True = s.matchRotations(x, -1, false, &steps, nil, &c).Dist
	sm.EliminatedBy = explain.EliminatedBy(sm)
	return sm
}

func (s *Searcher) matchWedge(x []float64, r float64) Match {
	K := s.fixedK
	if K <= 0 {
		K = s.dyn.K()
	}
	res := s.rs.tree.SearchInto(x, s.kernel, K, r, &s.steps, &s.scratch, s.chk)
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

// Collector is the keep policy of a database scan: the k nearest matches
// strictly below a limit (k = 0: every match below it). Nearest neighbour is
// k = 1 under +Inf, top-K is k under +Inf, a range query is k = 0 under its
// threshold — one policy, because all three differ only in when the
// abandoning threshold starts to shrink.
type Collector struct {
	k     int
	limit float64
	res   []ScanResult // k > 0: ascending distance, ties in offer order
}

// NewCollector returns an empty collector keeping the k nearest matches
// strictly below limit (k <= 0: all of them).
func NewCollector(k int, limit float64) *Collector {
	return &Collector{k: max(k, 0), limit: limit}
}

// Radius is the abandoning threshold for the next comparison: only a match
// strictly below it would be kept. It never rises.
func (c *Collector) Radius() float64 {
	if c.k > 0 && len(c.res) == c.k {
		return c.res[c.k-1].Dist
	}
	return c.limit
}

// Offer keeps series i's match if it beats Radius, evicting the k-th.
func (c *Collector) Offer(i int, m Match) {
	if !m.Found() || !(m.Dist < c.Radius()) { // a NaN limit keeps nothing
		return
	}
	r := ScanResult{Index: i, Dist: m.Dist, Member: m.Member}
	if c.k == 0 {
		c.res = append(c.res, r) // unbounded: ordered once, by Results
		return
	}
	pos := len(c.res)
	for pos > 0 && c.res[pos-1].Dist > r.Dist {
		pos--
	}
	if len(c.res) < c.k {
		c.res = append(c.res, ScanResult{})
	}
	copy(c.res[pos+1:], c.res[pos:])
	c.res[pos] = r
}

// Results returns what was kept in ascending distance order, equal distances
// in offer order.
func (c *Collector) Results() []ScanResult {
	if c.k == 0 {
		sort.SliceStable(c.res, func(a, b int) bool { return c.res[a].Dist < c.res[b].Dist })
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

// Begin opens one pass of candidates — a scan's rows or an index probe's
// fetches — under ctx: it fails with ctx.Err() when ctx has already expired
// and otherwise attaches the pass's cancellation checkpoint, which End
// detaches.
func (s *Searcher) Begin(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	s.chk = cancel.New(ctx, CancelCheckInterval)
	return nil
}

// End closes the pass Begin opened, flushing into the record any steps no
// comparison carried (a widening that no comparison followed).
func (s *Searcher) End() {
	s.chk = nil
	s.obs.AddCounts(&obs.Counts{Steps: s.flush()}, nil)
}

// flush returns, and marks flushed, the tally's growth since the last flush.
func (s *Searcher) flush() int64 {
	steps := s.steps.Steps() - s.flushed
	s.flushed += steps
	return steps
}

// Offer is one candidate of a pass: the checkpoint is polled, series x —
// database row i, which the comparison's span is named after — is matched
// under c's current radius and the match offered to c. A comparison the
// cancellation cut short is discarded, not offered.
func (s *Searcher) Offer(i int, x []float64, c *Collector) error {
	if err := s.chk.Stop(); err != nil {
		return err
	}
	s.ref = i
	m := s.MatchSeries(x, c.Radius(), nil)
	if err := s.chk.Err(); err != nil {
		return err
	}
	c.Offer(i, m)
	return nil
}
