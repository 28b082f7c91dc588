package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lbkeogh/internal/obs/storeobs"
)

// Snapshot is an immutable view of the store at one generation: an ordered
// list of open segments plus the global-ID prefix sums. Snapshots are
// reference counted; holding one guarantees every record view stays mapped
// even while ingest and compaction publish newer generations.
type Snapshot struct {
	segs   []*Reader
	starts []int // starts[i] = global ID of segs[i]'s first record
	total  int
	gen    int64

	refs atomic.Int64

	// jrn, when set, receives the snapshot_release event as this generation
	// retires (last reference released). born anchors its lifetime.
	jrn  atomic.Pointer[storeobs.Journal]
	born time.Time

	rowsOnce sync.Once
	rows     [][]float64
	labels   []int

	featOnce sync.Once
	mags     [][]float64
	paas     [][]float64
}

func newSnapshot(segs []*Reader, gen int64) *Snapshot {
	s := &Snapshot{segs: segs, gen: gen, starts: make([]int, len(segs)), born: time.Now()}
	for i, r := range segs {
		r.retain()
		s.starts[i] = s.total
		s.total += r.Len()
	}
	s.refs.Store(1)
	return s
}

// tryAcquire takes a reference unless the snapshot already hit zero (it is
// being torn down and must not resurrect).
func (s *Snapshot) tryAcquire() bool {
	for {
		r := s.refs.Load()
		if r <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops the caller's reference. When the last reference goes, every
// segment the snapshot pinned is released (and closed if no newer snapshot
// still carries it).
func (s *Snapshot) Release() {
	if s.refs.Add(-1) == 0 {
		for _, r := range s.segs {
			r.release()
		}
		if j := s.jrn.Load(); j != nil {
			j.Record(storeobs.Event{
				Kind:            storeobs.EventSnapshotRelease,
				Generation:      s.gen,
				Records:         int64(s.total),
				DurationSeconds: time.Since(s.born).Seconds(),
			})
		}
	}
}

// Len returns the number of records visible in this snapshot.
func (s *Snapshot) Len() int { return s.total }

// Generation returns the manifest generation this snapshot reflects.
func (s *Snapshot) Generation() int64 { return s.gen }

// NumSegments returns how many segment files back this snapshot.
func (s *Snapshot) NumSegments() int { return len(s.segs) }

// MappedBytes sums the live mappings across the snapshot's segments.
func (s *Snapshot) MappedBytes() int64 {
	var n int64
	for _, r := range s.segs {
		n += r.MappedBytes()
	}
	return n
}

// Segments describes the snapshot's segments for introspection.
func (s *Snapshot) Segments() []ManifestSegment {
	out := make([]ManifestSegment, len(s.segs))
	for i, r := range s.segs {
		out[i] = ManifestSegment{File: filepath.Base(r.Path()), Records: int64(r.Len())}
	}
	return out
}

// locate maps a global ID to its segment and local index.
func (s *Snapshot) locate(id int) (*Reader, int) {
	k := sort.SearchInts(s.starts, id+1) - 1
	return s.segs[k], id - s.starts[k]
}

// Series returns record id's series as a view valid while the snapshot is
// held (zero-copy under mmap on little-endian platforms).
//
//lbkeogh:hotpath
func (s *Snapshot) Series(id int) []float64 {
	r, i := s.locate(id)
	return r.Series(i)
}

// Label returns record id's metadata label.
func (s *Snapshot) Label(id int) int64 {
	r, i := s.locate(id)
	return r.Label(i)
}

// Rows materializes the snapshot as a []row slice-of-views (the shape the
// in-heap search plane expects). Built lazily once per snapshot; the rows
// alias the mappings and are valid while the snapshot is held.
func (s *Snapshot) Rows() [][]float64 {
	s.rowsOnce.Do(func() {
		s.rows = make([][]float64, s.total)
		s.labels = make([]int, s.total)
		i := 0
		for _, r := range s.segs {
			for j := 0; j < r.Len(); j++ {
				s.rows[i] = r.Series(j)
				s.labels[i] = int(r.Label(j))
				i++
			}
		}
	})
	return s.rows
}

// Labels returns per-record labels, built alongside Rows.
func (s *Snapshot) Labels() []int {
	s.Rows()
	return s.labels
}

// Features returns the stored FFT-magnitude and PAA columns as row views,
// letting an index build skip recomputing what ingest already paid for.
func (s *Snapshot) Features() (mags, paas [][]float64) {
	s.featOnce.Do(func() {
		s.mags = make([][]float64, s.total)
		s.paas = make([][]float64, s.total)
		i := 0
		for _, r := range s.segs {
			for j := 0; j < r.Len(); j++ {
				s.mags[i] = r.Magnitudes(j)
				s.paas[i] = r.PAA(j)
				i++
			}
		}
	})
	return s.mags, s.paas
}

// DB is a growable, manifest-managed store of segments. Reads go through
// reference-counted snapshots (Acquire/Release) or the one-shot Fetch, so
// Ingest and Compact can swap the live set with a single atomic pointer
// store: in-flight readers keep their generation mapped until they finish.
//
// DB implements the index.SeriesStore contract (Fetch/Len), and so does its
// Pinned view. The store keeps no count of fetches: an index counts its own
// (index.Index.Reads, and the probe's IndexFetches).
type DB struct {
	dir  string
	dims int // requested feature dims for the first segment of an empty store

	// mu serializes writers (Ingest, Compact, Close). Readers never take it.
	mu      sync.Mutex
	nextSeq int64
	closed  bool

	cur atomic.Pointer[Snapshot]

	ingests         atomic.Int64
	compactions     atomic.Int64
	ingestedRecords atomic.Int64
	busy            atomic.Int64 // in-flight Ingest/Compact operations

	// jrn, when set, receives the lifecycle events mutators cause (a nil
	// journal records nothing).
	jrn atomic.Pointer[storeobs.Journal]

	// orphans lists .lbseg files present in dir but absent from the manifest
	// at open — ignored for serving, surfaced via Stats and the journal.
	orphans []string
}

// OpenDB opens (or initializes) the store in dir. dims is the feature
// dimensionality used when the first segment of an empty store is created;
// an existing manifest's dims always wins. opts apply to every segment open
// (e.g. WithoutDataCRC for fast restarts).
func OpenDB(dir string, dims int, opts ...OpenOption) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	cleanTemp(dir)
	m, ok, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, dims: dims}
	var segs []*Reader
	if ok {
		segs = make([]*Reader, 0, len(m.Segments))
		for _, ms := range m.Segments {
			r, err := Open(filepath.Join(dir, ms.File), opts...)
			if err == nil {
				if err = checkSegment(m, ms, r); err != nil {
					r.Close()
				}
			}
			if err != nil {
				for _, o := range segs {
					o.Close()
				}
				return nil, err
			}
			if seq := segSeq(ms.File); seq >= db.nextSeq {
				db.nextSeq = seq + 1
			}
			segs = append(segs, r)
		}
		db.dims = m.Dims
	}
	// Orphaned segment files — debris from a crash between segment write and
	// manifest swap, or from foreign tooling — are never served: the
	// manifest is the sole source of truth. They are recorded so operators
	// (Stats.Orphans, journal events once a journal attaches) see them
	// instead of silently losing the disk space.
	known := make(map[string]bool, len(m.Segments))
	for _, ms := range m.Segments {
		known[ms.File] = true
	}
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			name := e.Name()
			if strings.HasSuffix(name, segSuffix) && !known[name] {
				db.orphans = append(db.orphans, name)
			}
		}
	}
	sort.Strings(db.orphans)
	db.cur.Store(newSnapshot(segs, m.Generation))
	return db, nil
}

// checkSegment holds an opened segment r to what manifest m says of it: its
// record count, and the store's one shape, so every segment has the same
// series length and dims.
func checkSegment(m Manifest, ms ManifestSegment, r *Reader) error {
	if int64(r.Len()) != ms.Records {
		return fmt.Errorf("segment: %s: manifest says %d records, file has %d", ms.File, ms.Records, r.Len())
	}
	if r.SeriesLen() != m.SeriesLen || r.Dims() != m.Dims {
		return fmt.Errorf("segment: %s: series length %d and dims %d disagree with %s (series_len %d, dims %d)",
			ms.File, r.SeriesLen(), r.Dims(), ManifestName, m.SeriesLen, m.Dims)
	}
	return nil
}

// SetJournal attaches a storage event journal: the orphans found at open and
// the current generation's pin are recorded at once, and every later ingest,
// compaction, manifest swap, snapshot release and segment unlink as it
// happens. Meant to be called once, right after OpenDB and before serving;
// nil detaches.
func (db *DB) SetJournal(j *storeobs.Journal) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.jrn.Store(j)
	s := db.cur.Load()
	s.jrn.Store(j)
	for _, r := range s.segs {
		r.jrn.Store(j)
	}
	for _, name := range db.orphans {
		j.Record(storeobs.Event{
			Kind:    storeobs.EventSegmentOrphaned,
			Segment: name,
			Note:    "not named by MANIFEST.json; ignored",
		})
	}
	j.Record(storeobs.Event{
		Kind:       storeobs.EventSnapshotPin,
		Generation: s.gen,
		Records:    int64(s.total),
	})
}

// Journal returns the attached storage event journal (nil when none is).
func (db *DB) Journal() *storeobs.Journal { return db.jrn.Load() }

// Acquire returns a reference-counted view of the current generation. The
// caller must Release it. Never nil, even for an empty store.
func (db *DB) Acquire() *Snapshot {
	for {
		s := db.cur.Load()
		if s.tryAcquire() {
			return s
		}
		// Lost a race with a swap that already drained this snapshot; the
		// pointer must have moved on.
	}
}

// Len returns the current record count.
func (db *DB) Len() int { return db.cur.Load().total }

// SeriesLen returns the store's series length (0 while empty).
func (db *DB) SeriesLen() int {
	s := db.cur.Load()
	if len(s.segs) == 0 {
		return 0
	}
	return s.segs[0].SeriesLen()
}

// Dims returns the feature dimensionality stored per record (the requested
// dims while the store is still empty).
func (db *DB) Dims() int {
	s := db.cur.Load()
	if len(s.segs) == 0 {
		return db.dims
	}
	return s.segs[0].Dims()
}

// Generation returns the current manifest generation.
func (db *DB) Generation() int64 { return db.cur.Load().gen }

// Fetch returns a private copy of record id's series — the
// index.SeriesStore contract (panic on a bad ID). The copy is safe to
// hold across compactions, and costs an Acquire/Release pair and an
// allocation per call; a reader that already holds a snapshot for as long as
// it reads fetches through Pinned instead.
func (db *DB) Fetch(id int) []float64 {
	s := db.Acquire()
	// Deferred, not inline: a record-access panic (backend I/O error) must
	// not leak the snapshot reference and pin retired segments forever.
	defer s.Release()
	v := s.fetch(id)
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// fetch is Series behind the index.SeriesStore range check (panic on a bad
// ID). Timing it is the caller's business (the index's fetch span).
func (s *Snapshot) fetch(id int) []float64 {
	if id < 0 || id >= s.total {
		panic(fmt.Sprintf("segment: fetch id %d out of range [0,%d)", id, s.total))
	}
	return s.Series(id)
}

// Pinned is the store as one held snapshot shows it — the index.SeriesStore
// of an index built over that snapshot. Its Fetch reads what DB.Fetch does
// but returns the row as a view, not a copy: it is valid only until the
// snapshot is released, and only to read.
type Pinned struct{ snap *Snapshot }

// Pinned returns the store as seen through snap, which the caller has
// acquired from db and must hold for as long as the result is in use.
func (db *DB) Pinned(snap *Snapshot) Pinned { return Pinned{snap: snap} }

// Fetch returns record id's series as a view into the pinned snapshot.
func (p Pinned) Fetch(id int) []float64 { return p.snap.fetch(id) }

// Len returns the pinned snapshot's record count.
func (p Pinned) Len() int { return p.snap.total }

// Busy reports whether an Ingest or Compact is in flight (the /readyz
// "ingesting" reason).
func (db *DB) Busy() bool { return db.busy.Load() > 0 }

// Ingest appends a batch of series (with optional labels; nil labels default
// to each record's global ID, matching shapeingest) as one new segment and
// publishes the next generation. Returns the global ID of the first appended
// record.
func (db *DB) Ingest(series [][]float64, labels []int64) (firstID int, err error) {
	if len(series) == 0 {
		return 0, fmt.Errorf("segment: ingest of zero records")
	}
	if labels != nil && len(labels) != len(series) {
		return 0, fmt.Errorf("segment: %d labels for %d records", len(labels), len(series))
	}
	db.busy.Add(1)
	defer db.busy.Add(-1)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, fmt.Errorf("segment: store is closed")
	}
	opStart := time.Now()

	old := db.cur.Load()
	n := db.SeriesLen()
	d := db.dims
	if n == 0 { // first ingest fixes the store's shape
		n = len(series[0])
		if d < 1 {
			d = 8
		}
		if d > n/2 {
			d = n / 2
		}
	} else {
		d = old.segs[0].Dims()
	}
	for i, row := range series {
		if len(row) != n {
			return 0, fmt.Errorf("segment: record %d has length %d, want %d", i, len(row), n)
		}
	}

	path := filepath.Join(db.dir, segFileName(db.nextSeq))
	w, err := NewWriter(path, n, d)
	if err != nil {
		return 0, err
	}
	for i, row := range series {
		lb := int64(old.total + i)
		if labels != nil {
			lb = labels[i]
		}
		if err := w.Add(row, lb); err != nil {
			w.Abort()
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	r, err := Open(path, WithoutDataCRC())
	if err != nil {
		os.Remove(path)
		return 0, err
	}

	segs := make([]*Reader, 0, len(old.segs)+1)
	segs = append(segs, old.segs...)
	segs = append(segs, r)
	next, err := db.publish(segs, old, n, d)
	if err != nil {
		r.Close()
		os.Remove(path)
		return 0, err
	}
	db.cur.Store(next)
	old.Release()
	db.nextSeq++
	db.dims = d
	db.ingests.Add(1)
	db.ingestedRecords.Add(int64(len(series)))
	j := db.jrn.Load()
	j.Record(storeobs.Event{
		Kind:       storeobs.EventSegmentCreated,
		Segment:    filepath.Base(path),
		Generation: next.gen,
		Records:    int64(len(series)),
		Bytes:      r.size,
	})
	j.Record(storeobs.Event{
		Kind:            storeobs.EventIngestBatch,
		Generation:      next.gen,
		Records:         int64(len(series)),
		Bytes:           r.size,
		DurationSeconds: time.Since(opStart).Seconds(),
	})
	return old.total, nil
}

// Compact merges every run of two or more adjacent segments smaller than
// minRecords into one segment each, preserving global ID order, and swaps
// the manifest. minRecords <= 0 merges the whole store into a single
// segment. Returns how many segments were merged away. Queries running
// against the old generation keep their mappings until they release.
func (db *DB) Compact(minRecords int64) (merged int, err error) {
	db.busy.Add(1)
	defer db.busy.Add(-1)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, fmt.Errorf("segment: store is closed")
	}
	opStart := time.Now()

	old := db.cur.Load()
	small := func(r *Reader) bool {
		return minRecords <= 0 || int64(r.Len()) < minRecords
	}

	segs := make([]*Reader, 0, len(old.segs))
	var replaced []*Reader
	var created []string
	fail := func(e error) (int, error) {
		for _, p := range created {
			os.Remove(p)
		}
		return 0, e
	}
	for i := 0; i < len(old.segs); {
		j := i
		for j < len(old.segs) && small(old.segs[j]) {
			j++
		}
		if j-i >= 2 { // a run worth merging
			path := filepath.Join(db.dir, segFileName(db.nextSeq+int64(len(created))))
			r, err := db.mergeRun(path, old.segs[i:j])
			if err != nil {
				return fail(err)
			}
			created = append(created, path)
			replaced = append(replaced, old.segs[i:j]...)
			segs = append(segs, r)
			i = j
		} else {
			if j == i {
				j = i + 1 // segment too big to merge: carry over
			}
			segs = append(segs, old.segs[i:j]...)
			i = j
		}
	}
	if len(replaced) == 0 {
		return 0, nil
	}

	n := old.segs[0].SeriesLen()
	d := old.segs[0].Dims()
	next, err := db.publish(segs, old, n, d)
	if err != nil {
		for _, r := range segs {
			for _, c := range created {
				if r.Path() == c {
					r.Close()
				}
			}
		}
		return fail(err)
	}
	// Mark before releasing the old generation: the replaced files unlink
	// once the last snapshot holding them lets go (on Unix their mappings
	// stay valid until then).
	var replacedBytes, replacedRecords int64
	for _, r := range replaced {
		r.removeOnClose.Store(true)
		replacedBytes += r.size
		replacedRecords += r.m
	}
	if j := db.jrn.Load(); j != nil {
		var createdBytes int64
		for _, r := range segs {
			for _, c := range created {
				if r.Path() == c {
					createdBytes += r.size
					j.Record(storeobs.Event{
						Kind:       storeobs.EventSegmentCreated,
						Segment:    filepath.Base(c),
						Generation: next.gen,
						Records:    r.m,
						Bytes:      r.size,
					})
				}
			}
		}
		j.Record(storeobs.Event{
			Kind:            storeobs.EventSegmentCompacted,
			Generation:      next.gen,
			Records:         replacedRecords,
			Bytes:           createdBytes,
			ReclaimedBytes:  replacedBytes - createdBytes,
			DurationSeconds: time.Since(opStart).Seconds(),
			Note:            fmt.Sprintf("%d segments -> %d", len(replaced), len(created)),
		})
	}
	db.cur.Store(next)
	old.Release()
	db.nextSeq += int64(len(created))
	db.compactions.Add(1)
	return len(replaced), nil
}

// mergeRun streams a run of segments into one new file, record order
// preserved, reusing the stored feature columns.
func (db *DB) mergeRun(path string, run []*Reader) (*Reader, error) {
	n := run[0].SeriesLen()
	d := run[0].Dims()
	w, err := NewWriter(path, n, d)
	if err != nil {
		return nil, err
	}
	for _, src := range run {
		for i := 0; i < src.Len(); i++ {
			if err := w.AddPrecomputed(src.Series(i), src.Magnitudes(i), src.PAA(i), src.Label(i)); err != nil {
				w.Abort()
				return nil, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return Open(path, WithoutDataCRC())
}

// publish builds the next-generation snapshot (retaining its readers) and
// durably writes its manifest. The caller swaps it live with db.cur.Store
// and releases the old snapshot — in that order, after any bookkeeping that
// must precede retiring the old generation. Caller holds db.mu.
func (db *DB) publish(segs []*Reader, old *Snapshot, n, d int) (*Snapshot, error) {
	next := newSnapshot(segs, old.gen+1)
	m := Manifest{
		Generation: next.gen,
		SeriesLen:  n,
		Dims:       d,
		Segments:   next.Segments(),
	}
	if err := WriteManifest(db.dir, m); err != nil {
		next.Release()
		return nil, err
	}
	if j := db.jrn.Load(); j != nil {
		// Segments opened by this mutation record their eventual unlink, and
		// the new generation its eventual retirement.
		for _, r := range segs {
			r.jrn.Store(j)
		}
		next.jrn.Store(j)
		j.Record(storeobs.Event{
			Kind:       storeobs.EventManifestSwap,
			Generation: next.gen,
			Records:    int64(next.total),
			Note:       fmt.Sprintf("%d segments", len(segs)),
		})
		j.Record(storeobs.Event{
			Kind:       storeobs.EventSnapshotPin,
			Generation: next.gen,
			Records:    int64(next.total),
		})
	}
	return next, nil
}

// Stats is a point-in-time view of the store for metrics and introspection.
type Stats struct {
	Generation      int64
	Segments        []ManifestSegment
	Records         int
	MappedBytes     int64
	ZeroCopy        bool
	Ingests         int64
	Compactions     int64
	IngestedRecords int64
	Busy            bool
	// Orphans are .lbseg files found in the store directory but not named
	// by the manifest at open — ignored for serving, kept visible here.
	Orphans []string
}

// Stats snapshots the store's counters and current segment set.
func (db *DB) Stats() Stats {
	s := db.Acquire()
	defer s.Release()
	zc := len(s.segs) > 0
	for _, r := range s.segs {
		if !r.ZeroCopy() {
			zc = false
		}
	}
	return Stats{
		Generation:      s.gen,
		Segments:        s.Segments(),
		Records:         s.total,
		MappedBytes:     s.MappedBytes(),
		ZeroCopy:        zc,
		Ingests:         db.ingests.Load(),
		Compactions:     db.compactions.Load(),
		IngestedRecords: db.ingestedRecords.Load(),
		Busy:            db.busy.Load() > 0,
		Orphans:         db.orphans,
	}
}

// Close releases the store's reference on the live snapshot. Mappings held
// by outstanding snapshots stay valid until those are released.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	old := db.cur.Swap(newSnapshot(nil, -1))
	old.Release()
	return nil
}
