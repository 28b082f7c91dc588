package obs

// Counts is the scalar half of the instrumentation record, and the only
// place its counters are listed: a plain value the search hot paths tally
// one comparison into, summed into a Batch published once per pass
// (Publish, AddCounts), attached to trace
// spans as that comparison's delta, loaded from the record before and after
// an operation (one atomic load per field, no allocation), summed by the
// serving layer, and embedded in Snapshot. All counters are cumulative since
// the record was created or last reset. Adding a counter means a field here, a
// slot in fields and counterDocs, and — if it disposes of rotations — a term
// in Reconciles; TestCountsFieldGuard fails on a miss.
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

// The slots of SearchStats.counters that the record reads by name.
const (
	slotComparisons = 0
	slotSteps       = 2
	slotKChanges    = numCounters - 1
)

// fields addresses every counter of c in declaration order: the one field
// walk Add, Sub, Each, (*SearchStats).Counts and AddCounts share, and the
// order of the record's counter array.
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
	for i, p := range c.fields() {
		*p = s.counters[i].Load()
	}
	return c
}

// AddCounts adds locally tallied counters to the record: the search hot
// paths count into a goroutine-confined Counts (and per-level prune tally,
// which may be nil) with plain increments and publish them here once — a
// searcher once per pass (Publish), a monitor once per window, the server
// once per request — so the shared atomics are touched per publication, not
// per comparison. The flushed levels are zeroed; c is left as it is, because
// it doubles as a delta for trace spans and EXPLAIN.
func (s *SearchStats) AddCounts(c *Counts, levels *[MaxPruneLevels]int64) {
	if s == nil {
		return
	}
	for i, p := range c.fields() {
		if *p != 0 {
			s.counters[i].Add(*p)
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

// Batch is a run of comparisons one goroutine has tallied and not yet
// published: their summed Counts and their per-comparison num_steps
// histogram, in plain fields. A searcher adds each comparison to its batch
// (Add) and publishes the batch to its record once per pass (Publish), so a
// comparison pays a few plain adds where it paid an atomic add per counter
// it moved. Its fields are exported plain values, like Counts'.
type Batch struct {
	Counts Counts
	// StepsHist counts the comparisons per Histogram bucket of their steps;
	// StepsSum is the sum of those steps.
	StepsHist [HistogramBuckets + 1]int64
	StepsSum  int64
}

// Add tallies one comparison: its counters (c.Steps its num_steps) into the
// batch's Counts and its steps into the histogram.
func (b *Batch) Add(c *Counts) {
	b.Counts.accumulate(c, 1)
	b.StepsHist[bucketIndex(c.Steps)]++
	b.StepsSum += c.Steps
}

// Publish adds a batch and the per-level prunes its comparisons made (nil:
// none) to the record, then empties both: what the record would hold had
// each comparison been added as it ended. A nil record publishes nothing
// and leaves them as they are.
func (s *SearchStats) Publish(b *Batch, levels *[MaxPruneLevels]int64) {
	if s == nil {
		return
	}
	s.AddCounts(&b.Counts, levels)
	s.stepsHist.add(&b.StepsHist, b.StepsSum)
	*b = Batch{}
}

// Add returns the field-wise sum c + other.
func (c Counts) Add(other Counts) Counts {
	c.accumulate(&other, 1)
	return c
}

// Sub returns the field-wise difference c - prev: the counter deltas spent
// between two Counts() calls on the same record.
func (c Counts) Sub(prev Counts) Counts {
	c.accumulate(&prev, -1)
	return c
}

// accumulate adds sign × o to c, field by field.
func (c *Counts) accumulate(o *Counts, sign int64) {
	dst, src := c.fields(), o.fields()
	for i := range dst {
		*dst[i] += sign * *src[i]
	}
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
