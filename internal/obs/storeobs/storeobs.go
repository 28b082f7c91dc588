// Package storeobs is the storage-plane observability layer for the
// mmap-backed segment store (internal/segment). The query plane already has
// SearchStats, traces, and rolling request windows; at disk-resident scale
// those stop where the interesting costs begin — page faults, cold reads,
// compaction churn. storeobs makes that plane legible:
//
//   - per-segment × per-column access accounting (fetch counts, bytes
//     touched, last access) via SegmentAccount,
//   - a cold/warm split for every read, classified by a first-touch page
//     bitmap (deterministic across the mmap and pread backends), with
//     read-amplification accounting (bytes logically requested vs pages
//     actually faulted),
//   - rolling cold/warm fetch windows reusing the ops.RED machinery, with
//     deferred trace-ID exemplars (LinkTrace) for slow and cold fetches,
//   - a bounded structured storage event journal (Journal).
//
// "Cold" means first touched since the recorder attached, not "faulted from
// disk": a page the kernel evicted and a later read faults back in counts as
// warm. Eviction shows as warm latency rising together with the process's
// major page faults (shapeserver_page_faults_total{kind="major"}).
//
// Everything is nil-safe: a nil *Recorder, *SegmentAccount, or *Journal is a
// no-op sink, so the disabled path through the segment store costs exactly
// one nil check on the fetch hot path.
package storeobs

import (
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/ops"
)

// Column indexes match the section order of the on-disk segment layout
// (internal/segment): raw series, FFT magnitudes, PAA sketch, meta labels.
const (
	ColRaw = iota
	ColFFT
	ColPAA
	ColMeta
	NumColumns
)

var columnNames = [NumColumns]string{"raw", "fft", "paa", "meta"}

// ColumnName returns the exposition label for a column index.
func ColumnName(col int) string {
	if col < 0 || col >= NumColumns {
		return "unknown"
	}
	return columnNames[col]
}

// PageSize is the page granularity of the first-touch bitmap and of the
// read-amplification accounting. The classification only needs to agree with
// itself across backends, so a fixed 4 KiB is used rather than the host page
// size — classification stays deterministic on hugepage kernels too.
const PageSize = 4096

// Fetch temperatures: a cold access touched at least one page no prior
// access had touched; everything else is warm.
const (
	tempWarm = iota
	tempCold
	numTemps
)

var tempNames = [numTemps]string{"warm", "cold"}

// SegmentAccount accumulates per-column access counters and the first-touch
// page bitmap for one open segment. All methods are safe for concurrent use
// and a nil receiver is a no-op.
type SegmentAccount struct {
	rec  *Recorder
	name string
	size int64

	reads  [NumColumns]atomic.Int64
	bytes  [NumColumns]atomic.Int64
	lastNS atomic.Int64

	touched      []atomic.Uint64 // 1 bit per PageSize page of the file
	touchedPages atomic.Int64
}

// Covered reports whether every page of [off, off+size) has already been
// touched — i.e. whether a read of that range is warm. Read-only: Covered
// never marks.
func (a *SegmentAccount) Covered(off, size int64) bool {
	if a == nil {
		return false
	}
	if size <= 0 {
		return true
	}
	first, last := off/PageSize, (off+size-1)/PageSize
	for p := first; p <= last; p++ {
		w := int(p >> 6)
		if w >= len(a.touched) {
			return false
		}
		if a.touched[w].Load()&(1<<(uint(p)&63)) == 0 {
			return false
		}
	}
	return true
}

// mark sets the bitmap bits for [off, off+size) and returns how many pages
// were first-touched by this call. CAS loop: go1.22 atomic.Uint64 has no Or.
func (a *SegmentAccount) mark(off, size int64) (newPages int64) {
	first, last := off/PageSize, (off+size-1)/PageSize
	for p := first; p <= last; p++ {
		w := int(p >> 6)
		if w >= len(a.touched) {
			break
		}
		word := &a.touched[w]
		bit := uint64(1) << (uint(p) & 63)
		for {
			old := word.Load()
			if old&bit != 0 {
				break
			}
			if word.CompareAndSwap(old, old|bit) {
				newPages++
				break
			}
		}
	}
	return newPages
}

// ObserveRead folds one column read into the account: per-column counters,
// last-access time, the first-touch bitmap, and the recorder's cold/warm
// column histograms and read-amplification totals. The read is cold when it
// first-touched at least one page.
func (a *SegmentAccount) ObserveRead(col int, off, size int64, durNS int64) {
	if a == nil {
		return
	}
	if col < 0 || col >= NumColumns {
		col = ColMeta
	}
	a.reads[col].Add(1)
	a.bytes[col].Add(size)
	a.lastNS.Store(time.Now().UnixNano())
	newPages := a.mark(off, size)
	if newPages > 0 {
		a.touchedPages.Add(newPages)
	}
	a.rec.observeColumnRead(col, size, newPages, durNS)
}

// SegmentStats is one account's counters at a point in time.
type SegmentStats struct {
	Segment   string `json:"segment"`
	FileBytes int64  `json:"file_bytes"`
	// Reads and Bytes are indexed by column (ColRaw..ColMeta).
	Reads [NumColumns]int64 `json:"reads"`
	Bytes [NumColumns]int64 `json:"bytes"`
	// Pages is the file's page count; TouchedPages of those have been
	// accessed at least once since the account was attached.
	Pages        int64     `json:"pages"`
	TouchedPages int64     `json:"touched_pages"`
	LastAccess   time.Time `json:"last_access"`
}

// TotalReads sums the per-column read counts.
func (s SegmentStats) TotalReads() int64 {
	var t int64
	for _, r := range s.Reads {
		t += r
	}
	return t
}

// fetchExemplar is a deferred exemplar slot: the fetch that filled it did
// not yet know its trace ID (trace IDs are assigned at trace.Log.Finish),
// so LinkTrace stamps pending slots after the fact.
type fetchExemplar struct {
	traceID int64
	durNS   int64
	wall    time.Time
	pending bool
}

// Config shapes a Recorder.
type Config struct {
	// Window shapes the rolling cold/warm fetch windows (zero value: the
	// ops default, 60 slots × 1s).
	Window ops.WindowConfig
	// JournalSize bounds the storage event ring (default 512 events).
	JournalSize int
	// Logger, when set, mirrors every journal event as a structured slog
	// line (the ring is kept either way).
	Logger *slog.Logger
	// SlowFetchThreshold marks a warm fetch slow enough to pin an exemplar
	// slot (default 1ms). Cold fetches always pin one.
	SlowFetchThreshold time.Duration
}

// Recorder aggregates storage-plane telemetry for one segment store: the
// per-segment accounts, cumulative cold/warm histograms, rolling fetch
// windows, read-amplification totals and the event journal. A nil *Recorder
// is a no-op sink everywhere.
type Recorder struct {
	slowNS int64
	window [numTemps]*ops.RED
	jrn    *Journal

	mu       sync.Mutex
	accounts map[string]*SegmentAccount

	fetches   [numTemps]atomic.Int64
	fetchHist [numTemps]obs.Histogram             // store-fetch wall time, ns
	colHist   [NumColumns][numTemps]obs.Histogram // backend read wall time, ns

	requestedBytes atomic.Int64
	faultedPages   atomic.Int64

	exMu sync.Mutex
	ex   [numTemps][obs.HistogramBuckets + 1]fetchExemplar
}

// NewRecorder builds a Recorder.
func NewRecorder(cfg Config) *Recorder {
	slow := cfg.SlowFetchThreshold
	if slow <= 0 {
		slow = time.Millisecond
	}
	r := &Recorder{
		slowNS:   slow.Nanoseconds(),
		jrn:      NewJournal(cfg.JournalSize, cfg.Logger),
		accounts: make(map[string]*SegmentAccount),
	}
	for t := range r.window {
		r.window[t] = ops.NewRED(cfg.Window)
	}
	return r
}

// Journal returns the recorder's storage event journal (nil from a nil
// recorder; a nil Journal is itself a no-op sink).
func (r *Recorder) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.jrn
}

// Segment returns the account for a segment file, creating it on first use.
// fileBytes sizes the first-touch bitmap; repeated calls for the same name
// return the existing account.
func (r *Recorder) Segment(name string, fileBytes int64) *SegmentAccount {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.accounts[name]; ok {
		return a
	}
	pages := (fileBytes + PageSize - 1) / PageSize
	a := &SegmentAccount{
		rec:     r,
		name:    name,
		size:    fileBytes,
		touched: make([]atomic.Uint64, (pages+63)/64),
	}
	r.accounts[name] = a
	return a
}

// DropSegment forgets a segment's account — called when a merged-away
// segment file is unlinked, so dead segments stop appearing in per-segment
// metric families.
func (r *Recorder) DropSegment(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.accounts, name)
	r.mu.Unlock()
}

// Segments snapshots every live account, sorted by segment name.
func (r *Recorder) Segments() []SegmentStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	accts := make([]*SegmentAccount, 0, len(r.accounts))
	for _, a := range r.accounts {
		accts = append(accts, a)
	}
	r.mu.Unlock()
	out := make([]SegmentStats, 0, len(accts))
	for _, a := range accts {
		s := SegmentStats{
			Segment:      a.name,
			FileBytes:    a.size,
			Pages:        (a.size + PageSize - 1) / PageSize,
			TouchedPages: a.touchedPages.Load(),
		}
		for c := 0; c < NumColumns; c++ {
			s.Reads[c] = a.reads[c].Load()
			s.Bytes[c] = a.bytes[c].Load()
		}
		if ns := a.lastNS.Load(); ns != 0 {
			s.LastAccess = time.Unix(0, ns)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Segment < out[j].Segment })
	return out
}

// ObserveFetch records one store-level record fetch (the segment.DB.Fetch
// hot path): temperature counters, the cumulative duration histogram, the
// rolling window, and — for cold or slow fetches — a pending exemplar slot
// that LinkTrace stamps once the surrounding query's trace ID exists.
func (r *Recorder) ObserveFetch(cold bool, dur time.Duration) {
	if r == nil {
		return
	}
	t := tempWarm
	if cold {
		t = tempCold
	}
	ns := dur.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	r.fetches[t].Add(1)
	r.fetchHist[t].Observe(ns)
	r.window[t].Observe(200, dur, 0)
	if cold || ns >= r.slowNS {
		b := obs.BucketIndex(ns)
		r.exMu.Lock()
		r.ex[t][b] = fetchExemplar{durNS: ns, wall: time.Now(), pending: true}
		r.exMu.Unlock()
	}
}

// LinkTrace stamps every pending exemplar slot with a just-assigned trace
// ID. Trace IDs exist only after trace.Log.Finish, so the store cannot know
// them at fetch time; the index layer calls LinkTrace when it finishes a
// retained trace, attributing the query's recent slow/cold fetches to it.
// Best-effort under concurrency: parallel queries may steal each other's
// slots, which costs exemplar precision, never correctness.
func (r *Recorder) LinkTrace(id int64) {
	if r == nil || id == 0 {
		return
	}
	r.exMu.Lock()
	for t := range r.ex {
		for b := range r.ex[t] {
			if r.ex[t][b].pending {
				r.ex[t][b].traceID = id
				r.ex[t][b].pending = false
			}
		}
	}
	r.exMu.Unlock()
}

// exemplars renders the linked exemplar slots for one temperature, indexed
// by histogram bucket. Unlinked (pending or never-stamped) slots are empty.
func (r *Recorder) exemplars(t int) *[obs.HistogramBuckets + 1]string {
	var out [obs.HistogramBuckets + 1]string
	r.exMu.Lock()
	for b, ex := range r.ex[t] {
		if !ex.pending && ex.traceID != 0 {
			out[b] = ops.FormatExemplar(ex.traceID, ex.durNS, ex.wall)
		}
	}
	r.exMu.Unlock()
	return &out
}

// observeColumnRead folds one backend read into the recorder-level
// aggregates: the per-column cold/warm duration histogram and the
// read-amplification totals.
func (r *Recorder) observeColumnRead(col int, size, newPages, durNS int64) {
	if r == nil {
		return
	}
	t := tempWarm
	if newPages > 0 {
		t = tempCold
	}
	r.colHist[col][t].Observe(durNS)
	r.requestedBytes.Add(size)
	if newPages > 0 {
		r.faultedPages.Add(newPages)
	}
}

// Totals is the store-wide cold/warm and read-amplification view.
type Totals struct {
	ColdFetches int64 `json:"cold_fetches"`
	WarmFetches int64 `json:"warm_fetches"`
	// RequestedBytes is what callers logically asked for; FaultedPages is
	// how many PageSize pages those reads first-touched. Their ratio is the
	// read amplification of the access pattern.
	RequestedBytes int64 `json:"requested_bytes"`
	FaultedPages   int64 `json:"faulted_pages"`
}

// Fetches is the total store-fetch count, both temperatures.
func (t Totals) Fetches() int64 { return t.ColdFetches + t.WarmFetches }

// ReadAmplification is faulted bytes over requested bytes: 1.0 means every
// faulted byte was asked for; large values mean page-granular I/O dominates
// the logical request size. 0 when nothing has been requested.
func (t Totals) ReadAmplification() float64 {
	if t.RequestedBytes == 0 {
		return 0
	}
	return float64(t.FaultedPages*PageSize) / float64(t.RequestedBytes)
}

// Totals snapshots the store-wide counters.
func (r *Recorder) Totals() Totals {
	if r == nil {
		return Totals{}
	}
	return Totals{
		ColdFetches:    r.fetches[tempCold].Load(),
		WarmFetches:    r.fetches[tempWarm].Load(),
		RequestedBytes: r.requestedBytes.Load(),
		FaultedPages:   r.faultedPages.Load(),
	}
}
