package obs

import "sync/atomic"

// Counts is the scalar half of the instrumentation record, and the only
// place its counters are listed: a plain value the search hot paths tally
// one comparison into before publishing it (AddCounts), attached to trace
// spans as that comparison's delta, loaded from the record before and after
// an operation (one atomic load per field, no allocation), summed by the
// serving layer, and embedded in Snapshot. All counters are cumulative since
// the record was created or last reset. Adding a counter means a field here, a
// slot in fields, counters and counterDocs, and — if it disposes of
// rotations — a term in Reconciles; TestCountsFieldGuard fails on a miss.
type Counts struct {
	// Comparisons counts rotation-invariant comparisons (one per database
	// series matched); Rotations the rotation-matrix rows they covered.
	Comparisons int64 `json:"comparisons"`
	Rotations   int64 `json:"rotations"`
	// Steps is the paper's num_steps metric: real-value subtractions.
	Steps int64 `json:"steps"`

	// FullDistEvals counts exact kernel distances computed to completion;
	// EarlyAbandons those cut short by the best-so-far.
	FullDistEvals int64 `json:"full_dist_evals"`
	EarlyAbandons int64 `json:"early_abandons"`

	// WedgeNodeVisits counts internal wedges whose children were explored;
	// WedgeLeafVisits rotations H-Merge reached individually;
	// WedgePrunedMembers rotations excluded wholesale by an internal-wedge
	// lower bound; WedgeLeafLBPrunes rotations excluded by their
	// singleton-wedge bound (warped measures only).
	WedgeNodeVisits    int64 `json:"wedge_node_visits"`
	WedgeLeafVisits    int64 `json:"wedge_leaf_visits"`
	WedgePrunedMembers int64 `json:"wedge_pruned_members"`
	WedgeLeafLBPrunes  int64 `json:"wedge_leaf_lb_prunes"`

	// FFTRejects counts comparisons the Fourier-magnitude bound rejected
	// whole (FFTSearch only); FFTRejectedMembers the rotations they covered;
	// FFTFallbacks the comparisons that fell through to early abandoning.
	FFTRejects         int64 `json:"fft_rejects"`
	FFTRejectedMembers int64 `json:"fft_rejected_members"`
	FFTFallbacks       int64 `json:"fft_fallbacks"`

	// CancelledMembers counts rotations left undisposed when a context
	// cancellation (or deadline) stopped a Search*Context scan mid-way;
	// zero for uncancelled searches.
	CancelledMembers int64 `json:"cancelled_members,omitempty"`

	// IndexFetches counts the full-resolution rows an indexed search fetched
	// for exact verification: the rows its compressed bound could not
	// exclude, each read from the store once — the paper's Figure 24 count.
	IndexFetches int64 `json:"index_fetches"`

	// KChanges counts dynamic wedge-set-size adjustments.
	KChanges int64 `json:"k_changes"`
}

// numCounters is the number of fields in Counts.
const numCounters = 15

// fields addresses every counter of c in declaration order: the one field
// walk Add, Sub, Each and (*SearchStats).Counts share.
func (c *Counts) fields() [numCounters]*int64 {
	return [numCounters]*int64{
		&c.Comparisons, &c.Rotations, &c.Steps,
		&c.FullDistEvals, &c.EarlyAbandons,
		&c.WedgeNodeVisits, &c.WedgeLeafVisits, &c.WedgePrunedMembers, &c.WedgeLeafLBPrunes,
		&c.FFTRejects, &c.FFTRejectedMembers, &c.FFTFallbacks,
		&c.CancelledMembers,
		&c.IndexFetches,
		&c.KChanges,
	}
}

// counters addresses the record's atomics in the same order as Counts.fields.
func (s *SearchStats) counters() [numCounters]*atomic.Int64 {
	return [numCounters]*atomic.Int64{
		&s.comparisons, &s.rotations, &s.steps,
		&s.fullDistEvals, &s.earlyAbandons,
		&s.wedgeNodeVisits, &s.wedgeLeafVisits, &s.wedgePrunedMembers, &s.wedgeLeafLBPrunes,
		&s.fftRejects, &s.fftRejectedMembers, &s.fftFallbacks,
		&s.cancelledMembers,
		&s.indexFetches,
		&s.kChanges,
	}
}

// counterDocs is the metrics table, in the same order again: each counter's
// exposition key (equal to its JSON tag; the family is `<prefix>_<key>`) and
// help text.
var counterDocs = [numCounters]struct{ key, help string }{
	{"comparisons", "Rotation-invariant comparisons (one per database series matched)."},
	{"rotations", "Rotation-matrix rows covered by the comparisons."},
	{"steps", "num_steps spent: real-value subtractions, the paper's cost metric."},
	{"full_dist_evals", "Exact kernel distances computed to completion."},
	{"early_abandons", "Exact distance computations cut short by the best-so-far."},
	{"wedge_node_visits", "Internal wedges whose children were explored."},
	{"wedge_leaf_visits", "Rotations H-Merge reached individually."},
	{"wedge_pruned_members", "Rotations excluded wholesale by an internal-wedge lower bound."},
	{"wedge_leaf_lb_prunes", "Rotations excluded by their singleton-wedge lower bound."},
	{"fft_rejects", "Comparisons rejected whole by the Fourier-magnitude bound."},
	{"fft_rejected_members", "Rotations covered by FFT-rejected comparisons."},
	{"fft_fallbacks", "Comparisons falling through the FFT filter to early abandoning."},
	{"cancelled_members", "Rotations left undisposed by cancelled or deadline-bounded searches."},
	{"index_fetches", "Full-resolution fetches for exact verification."},
	{"k_changes", "Dynamic wedge-set-size adjustments."},
}

// Each calls f once per counter, in declaration order, with the counter's
// metrics-table row and its value in c.
func (c Counts) Each(f func(key, help string, v int64)) {
	for i, p := range c.fields() {
		f(counterDocs[i].key, counterDocs[i].help, *p)
	}
}

// Counts loads the scalar counters. A nil receiver yields a zero Counts.
func (s *SearchStats) Counts() (c Counts) {
	if s == nil {
		return c
	}
	dst := c.fields()
	for i, a := range s.counters() {
		*dst[i] = a.Load()
	}
	return c
}

// AddCounts adds one comparison's locally tallied counters to the record:
// the search hot paths count into a goroutine-confined Counts (and per-level
// prune tally, which may be nil) with plain increments and publish them here
// once, so a comparison touches only the shared atomics it actually moved.
// The flushed levels are zeroed for the next comparison; c is left as it is,
// because it doubles as the comparison's delta for trace spans and EXPLAIN.
func (s *SearchStats) AddCounts(c *Counts, levels *[MaxPruneLevels]int64) {
	if s == nil {
		return
	}
	dst := s.counters()
	for i, p := range c.fields() {
		if *p != 0 {
			dst[i].Add(*p)
		}
	}
	if levels == nil {
		return
	}
	for i, v := range levels {
		if v != 0 {
			s.wedgePruneByLevel[i].Add(v)
			levels[i] = 0
		}
	}
}

// Add returns the field-wise sum c + other.
func (c Counts) Add(other Counts) Counts { return c.combine(other, 1) }

// Sub returns the field-wise difference c - prev: the counter deltas spent
// between two Counts() calls on the same record.
func (c Counts) Sub(prev Counts) Counts { return c.combine(prev, -1) }

func (c Counts) combine(o Counts, sign int64) Counts {
	dst, src := c.fields(), o.fields()
	for i := range dst {
		*dst[i] += sign * *src[i]
	}
	return c
}

// Reconciles reports whether the outcome buckets account for every rotation
// covered — the invariant all four strategies maintain, true for any record
// or delta this library produces.
//
// Rotations are counted per comparison started. A search cancelled mid-scan
// adds the in-progress comparison's undisposed rotations to CancelledMembers
// and nothing for the candidates it never reached. A search whose context is
// already done before its first comparison (a deadline that expired while
// the request waited) therefore contributes nothing at all — no comparison,
// no rotation, no cancelled member — and the identity holds as 0 = 0.
func (c Counts) Reconciles() bool {
	return c.Rotations == c.FullDistEvals+c.EarlyAbandons+
		c.WedgePrunedMembers+c.WedgeLeafLBPrunes+c.FFTRejectedMembers+
		c.CancelledMembers
}
